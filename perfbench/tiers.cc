/**
 * @file
 * The `tiers` workload: fresh, counting-only runs (Profile sink, no
 * Machine) of a fixed set of registry macro programs under every rung
 * of each tier ladder. Each run compiles its program from source and
 * builds its tier artifacts in-run, so the front ends, the
 * interpreters, the in-run tier and jit builds and trace emission do
 * all the work.
 */
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench.hh"
#include "harness/engine.hh"
#include "harness/runner.hh"
#include "jvm/tier2.hh"
#include "minic/compile.hh"
#include "mipsi/jit.hh"
#include "perlish/compiler.hh"
#include "support/logging.hh"
#include "trace/execution.hh"
#include "vfs/vfs.hh"
#include "workloads/registry.hh"

namespace perfbench {

namespace {

using interp::harness::Lang;
using interp::harness::langName;
namespace harness = interp::harness;
namespace workloads = interp::workloads;

/**
 * The registry programs measured. Fixed here, not enumerated, so that a
 * program added to the registry does not change the benchmark's work.
 * Left out: compress, eqntott and espresso (MIPSI) and javac and mand
 * (Java), which retire more than 2 M virtual commands each and would
 * take most of a round on their own, and the compose-* towers (1.9 to
 * 5.5 s a run).
 */
const char *const kPrograms[] = {
    "des",      "li",      "asteroids", "hanoi",   "a2ps",
    "plexus",   "txt2html", "weblint",  "tcllex",  "tcltags",
    "rxmatch",  "kanren",  "matmul",    "spin",
};

/** Every rung of each tier ladder, baseline first. */
const std::vector<std::vector<Lang>> kLadders = {
    {Lang::Mipsi, Lang::MipsiThreaded, Lang::MipsiJit},
    {Lang::Java, Lang::JavaQuick, Lang::JavaTier2},
    {Lang::Perl, Lang::PerlIC},
    {Lang::Tcl, Lang::TclBytecode, Lang::TclTier2, Lang::TclJit},
};

/** Programs that several languages implement with one stdout. */
const char *const kCrossLanguage[] = {"rxmatch", "kanren", "matmul",
                                      "spin"};

/** Best-of repetitions of each traced layer probe. */
constexpr int kProbeReps = 3;

/** What a run produced, as far as the golden contract speaks of it. */
struct Summary
{
    std::string out;
    uint64_t commands = 0;
    uint64_t insts = 0;
    uint64_t fd = 0;
    uint64_t mm = 0;
    std::vector<uint64_t> retired;   ///< per command
    std::vector<uint64_t> execNotMm; ///< per command: execute - memModel

    bool operator==(const Summary &) const = default;
};

Summary
summarize(const harness::Measurement &m)
{
    Summary s;
    s.out = m.stdoutText;
    s.commands = m.commands;
    s.insts = m.profile.instructions();
    s.fd = m.profile.fetchDecodeInsts();
    s.mm = m.profile.memModelInsts();
    for (const auto &c : m.profile.perCommand()) {
        s.retired.push_back(c.retired);
        s.execNotMm.push_back(c.execute - c.memModel);
    }
    return s;
}

struct Item
{
    const workloads::Workload *w = nullptr;
    Lang mode{};
    size_t base = 0; ///< index of the same program's baseline rung
    harness::BenchSpec spec;
    std::vector<double> seconds; ///< one per round
    /** The run every later timed run must repeat: the first. */
    Summary ref;

    std::string tag() const
    {
        return std::string(langName(mode)) + "/" + w->name;
    }
    double best() const
    {
        return *std::min_element(seconds.begin(), seconds.end());
    }
};

std::string
metricPrefix(Lang mode)
{
    std::string s = langName(mode);
    for (char &c : s)
        c = (char)std::tolower((unsigned char)c);
    return s;
}

/** The golden contract between a rung's run and its baseline's. */
void
checkRung(const Item &it, const Summary &s, const Summary &b, Report &rep)
{
    rep.check(s.out == b.out && s.commands == b.commands,
              "%s: stdout or command count differs from baseline",
              it.tag().c_str());
    rep.check(s.retired == b.retired,
              "%s: per-command retired counts differ from baseline",
              it.tag().c_str());
    rep.check(s.execNotMm == b.execNotMm,
              "%s: per-command execute-memModel differs from baseline",
              it.tag().c_str());
    rep.check(s.fd + s.mm <= b.fd + b.mm,
              "%s: fd+mm %llu exceeds baseline's %llu", it.tag().c_str(),
              (unsigned long long)(s.fd + s.mm),
              (unsigned long long)(b.fd + b.mm));
}

/** After the timed phase: each item's first run checked against the
 *  registry golden, the computed references, the other languages and,
 *  for a higher rung, the golden contract with its baseline. */
void
checkReferences(const std::vector<Item> &items, Report &rep)
{
    for (const Item &it : items) {
        if (it.base != (size_t)(&it - items.data())) {
            checkRung(it, it.ref, items[it.base].ref, rep);
            continue;
        }
        rep.check(workloads::goldenMatches(*it.w, it.mode, it.ref.out),
                  "%s: stdout differs from the registry golden",
                  it.tag().c_str());
        std::string ref = independentReference(it.w->name,
                                               langName(it.mode));
        rep.check(ref.empty() || it.ref.out == ref,
                  "%s: stdout '%s' differs from the computed '%s'",
                  it.tag().c_str(), it.ref.out.c_str(), ref.c_str());
    }

    // One program, several interpreters, one stdout.
    for (const char *name : kCrossLanguage) {
        const Item *first = nullptr;
        for (const Item &it : items) {
            if (it.w->name != name || it.mode != harness::baselineOf(it.mode))
                continue;
            if (!first)
                first = &it;
            rep.check(it.ref.out == first->ref.out, "%s and %s disagree",
                      it.tag().c_str(), first->tag().c_str());
        }
    }
    const workloads::Workload *des = workloads::find("des");
    std::string cDes =
        harness::run(workloads::specFor(*des, Lang::C), {}, nullptr, false)
            .stdoutText;
    rep.check(cDes == desReference(24),
              "C des: '%s' differs from the computed reference",
              cDes.c_str());
    for (const Item &it : items)
        if (it.w == des && (it.mode == Lang::Mipsi || it.mode == Lang::Java))
            rep.check(it.ref.out == cDes, "%s disagrees with C des",
                      it.tag().c_str());
}

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0 : sum / (double)v.size();
}

/** Time @p fn kProbeReps times; best wall seconds. */
template <typename Fn>
double
bestOf(Fn fn)
{
    double best = 1e30;
    for (int r = 0; r < kProbeReps; ++r) {
        Clock::time_point t0 = Clock::now();
        fn();
        best = std::min(best, secondsSince(t0));
    }
    return best;
}

/** Front ends, tier builds and the trace layer, timed apart from the
 *  interpreters (traced run only). */
void
probeLayers(const std::vector<Item> &items, Report &rep, SpanLog &spans)
{
    // Source paths per baseline language; Java also by program name.
    std::set<std::string> mipsi, java, perl, javaNames;
    std::vector<const Item *> floorItems;
    for (const Item &it : items) {
        if (it.mode != harness::baselineOf(it.mode))
            continue;
        for (const auto &src : it.w->sources) {
            if (src.lang != it.mode)
                continue;
            if (it.mode == Lang::Mipsi)
                mipsi.insert(src.path);
            if (it.mode == Lang::Java) {
                java.insert(src.path);
                javaNames.insert(it.w->name);
            }
            if (it.mode == Lang::Perl)
                perl.insert(src.path);
        }
        if (it.w->name == "des" || it.w->name == "spin")
            floorItems.push_back(&it);
    }

    double minicS = bestOf([&] {
        for (const std::string &path : mipsi) {
            std::string src = workloads::loadProgramFile(path);
            Scope s(spans, "minic.compileMips", -1, 0);
            interp::minic::compileMips(src, path);
        }
        for (const std::string &path : java) {
            std::string src = workloads::loadProgramFile(path);
            Scope s(spans, "minic.compileBytecode", -1, 0);
            interp::minic::compileBytecode(src, path);
        }
    });
    rep.metric("minic.compile_us", minicS * 1e6, "us");

    double perlS = bestOf([&] {
        for (const std::string &path : perl) {
            std::string src = workloads::loadProgramFile(path);
            Scope s(spans, "perlish.compile", -1, 0);
            interp::perlish::compileScript(src, nullptr, path);
        }
    });
    rep.metric("perlish.compile_us", perlS * 1e6, "us");

    // The tier-2 build as a fresh Java-tier2 run pays it: the
    // pair-profiling pre-run, then the artifact build.
    double jvmS = bestOf([&] {
        for (const std::string &name : javaNames) {
            const auto *w = workloads::find(name);
            harness::BenchSpec spec = workloads::specFor(*w, Lang::Java);
            interp::jvm::Module module =
                interp::minic::compileBytecode(spec.source, name);
            interp::jvm::PairProfile pairs;
            spec.jvmPairSink = &pairs;
            Scope s(spans, "jvm.tier2_build", -1, 0);
            harness::run(spec, {}, nullptr, false);
            interp::jvm::buildTierArtifact(nullptr, module, pairs);
        }
    });
    rep.metric("jvm.tier2_build_us", jvmS * 1e6, "us");

    double jitS = 0;
    for (int r = 0; r < kProbeReps; ++r) {
        double sum = 0;
        for (const std::string &path : mipsi) {
            interp::mips::Image image = interp::minic::compileMips(
                workloads::loadProgramFile(path), path);
            interp::trace::Execution exec;
            interp::vfs::FileSystem fs;
            interp::mipsi::JitMipsi vm(exec, fs);
            vm.load(image);
            Clock::time_point t0 = Clock::now();
            vm.compile();
            spans.add("jit.compile", -1, 0, t0, Clock::now());
            sum += secondsSince(t0);
        }
        jitS = r == 0 ? sum : std::min(jitS, sum);
    }
    rep.metric("jit.compile_us", jitS * 1e6, "us");

    // Emission cost with no sink attached (the floor) and with the
    // Profile sink, per simulated instruction.
    std::vector<double> floorNs, profileNs;
    for (const Item *it : floorItems) {
        auto runWith = [&](bool profile) {
            return bestOf([&] {
                interp::trace::Execution exec;
                interp::trace::Profile prof;
                if (profile)
                    exec.addSink(&prof);
                interp::vfs::FileSystem fs;
                auto engine = harness::makeEngine(it->mode, exec, fs);
                Scope s(spans, profile ? "engine.profile" : "engine.floor",
                        -1, 0);
                engine->execute(it->spec);
            });
        };
        floorNs.push_back(runWith(false) * 1e9 / (double)it->ref.insts);
        profileNs.push_back(runWith(true) * 1e9 / (double)it->ref.insts);
    }
    rep.metric("trace.floor_ns_per_inst", geomean(floorNs), "ns");
    rep.metric("trace.profile_ns_per_inst", geomean(profileNs), "ns");
}

} // namespace

void
runTiers(const Options &opt, Report &rep, SpanLog &spans)
{
    // --- set-up: sources and the seeded item order ---------------------
    std::vector<Item> items;
    for (const char *name : kPrograms) {
        const workloads::Workload *w = workloads::find(name);
        rep.check(w != nullptr, "program %s is not in the registry", name);
        if (!w)
            continue;
        for (const auto &ladder : kLadders) {
            if (!w->supports(ladder[0]))
                continue;
            // One source load per ladder; the rungs differ in mode only.
            harness::BenchSpec spec = workloads::specFor(*w, ladder[0]);
            size_t base = items.size();
            for (Lang mode : ladder) {
                Item it;
                it.w = w;
                it.mode = mode;
                it.base = base;
                it.spec = spec;
                it.spec.lang = mode;
                items.push_back(std::move(it));
            }
        }
    }
    std::vector<size_t> order(items.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    interp::Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + 1);
    shuffle(order, rng);
    double setupS = secondsSince(opt.start);

    // --- timed phase: whole rounds until the time is up ----------------
    Clock::time_point t0 = Clock::now();
    int rounds = 0;
    double bestRoundS = 1e30;
    do {
        Clock::time_point r0 = Clock::now();
        Scope roundSpan(spans, "tiers.round", -1, (uint64_t)rounds);
        for (size_t idx : order) {
            Item &it = items[idx];
            ++rep.attempted;
            Clock::time_point s0 = Clock::now();
            try {
                harness::Measurement m =
                    harness::run(it.spec, {}, nullptr, false);
                Clock::time_point s1 = Clock::now();
                spans.add("harness.run", roundSpan.index(), idx, s0, s1);
                double sec = std::chrono::duration<double>(s1 - s0).count();
                it.seconds.push_back(sec);
                // The first run is the item's reference (checked once
                // the phase ends); every later run must repeat it.
                Summary s = summarize(m);
                if (it.seconds.size() == 1) {
                    it.ref = std::move(s);
                } else {
                    rep.check(s == it.ref, "%s: round %d differs from its "
                              "reference run", it.tag().c_str(), rounds);
                }
            } catch (const interp::FatalError &e) {
                ++rep.failed;
                rep.check(false, "%s: %s", it.tag().c_str(), e.what());
            }
        }
        bestRoundS = std::min(bestRoundS, secondsSince(r0));
        ++rounds;
    } while (secondsSince(t0) < opt.seconds);
    double timedS = secondsSince(t0);
    if (rep.failed)
        return;
    checkReferences(items, rep);

    // --- metrics ---------------------------------------------------------
    std::vector<double> best;
    std::vector<uint64_t> commands;
    for (const Item &it : items) {
        best.push_back(it.best());
        commands.push_back(it.ref.commands);
    }
    rep.metric("setup_s", setupS, "s");
    double runS = reportBestOf(rep, best, commands, bestRoundS);
    std::printf("tiers: %zu items x %d rounds in %.2f s; run_s %.4f\n",
                items.size(), rounds, timedS, runS);

    if (!opt.trace)
        return;
    rep.metric("bench.traced_run_s", runS, "s");
    std::printf("%-16s %-10s %10s %10s %8s %8s %8s\n", "mode", "program",
                "best_ms", "ns/cmd", "i/cmd", "fd/cmd", "mm/cmd");
    for (const auto &ladder : kLadders)
        for (Lang mode : ladder) {
            std::vector<double> ns, insts, fd, mm;
            for (const Item &it : items) {
                if (it.mode != mode)
                    continue;
                double cmds = (double)it.ref.commands;
                ns.push_back(it.best() * 1e9 / cmds);
                insts.push_back((double)it.ref.insts / cmds);
                fd.push_back((double)it.ref.fd / cmds);
                mm.push_back((double)it.ref.mm / cmds);
                std::printf("%-16s %-10s %10.3f %10.1f %8.1f %8.2f %8.2f\n",
                            langName(mode), it.w->name.c_str(),
                            it.best() * 1e3, ns.back(), insts.back(),
                            fd.back(), mm.back());
            }
            // Host time as a geometric mean, like geomean_ns_per_cmd;
            // the simulated counts as plain means, since a rung can
            // drive mm/cmd to zero.
            std::string p = metricPrefix(mode);
            rep.metric(p + ".ns_per_cmd", geomean(ns), "ns");
            rep.metric(p + ".insts_per_cmd", mean(insts), "insts");
            rep.metric(p + ".fd_per_cmd", mean(fd), "insts");
            rep.metric(p + ".mm_per_cmd", mean(mm), "insts");
        }
    probeLayers(items, rep, spans);
}

} // namespace perfbench
