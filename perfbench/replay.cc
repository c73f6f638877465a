/**
 * @file
 * The `replay` workload: the record-once / replay-many path of Figs
 * 3-4. Set-up records a tape of each program below through the live
 * harness (Profile + Table 3 Machine + TraceWriter), which is the
 * encode side of tracefile. The timed phase replays the tapes through
 * a Profile, the Table 3 sim::Machine and the 12-configuration Fig 4
 * CacheSweep: decode and simulation do the work, no interpreter runs.
 */
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench.hh"
#include "harness/runner.hh"
#include "sim/cache_sweep.hh"
#include "sim/machine.hh"
#include "support/logging.hh"
#include "trace/profile.hh"
#include "tracefile/reader.hh"
#include "tracefile/writer.hh"
#include "workloads/registry.hh"

namespace perfbench {

namespace {

using interp::harness::Lang;
using interp::harness::langName;
namespace harness = interp::harness;
namespace workloads = interp::workloads;
namespace fs = std::filesystem;

/**
 * The tape set: baseline-mode programs small enough that the whole set
 * stays in the page cache. The compose-* and large MIPSI rows of the
 * full baseline suite would record over 5 GB.
 */
const std::pair<const char *, Lang> kTapes[] = {
    {"des", Lang::C},       {"des", Lang::Mipsi},  {"des", Lang::Java},
    {"des", Lang::Perl},    {"des", Lang::Tcl},    {"spin", Lang::Mipsi},
    {"spin", Lang::Java},   {"spin", Lang::Perl},  {"spin", Lang::Tcl},
    {"matmul", Lang::Java}, {"kanren", Lang::Tcl}, {"hanoi", Lang::Tcl},
};

/** Fig 4's sweep: 8-64 KB, 1/2/4-way, 32-byte lines. */
const std::vector<uint32_t> kSweepKb = {8, 16, 32, 64};
const std::vector<uint32_t> kSweepAssoc = {1, 2, 4};

enum class Consumer { Profile, Machine, Sweep };
const char *const kConsumerNames[] = {"profile", "machine", "sweep"};

/** What the live (recording) run measured. */
struct Tape
{
    std::string tag;
    std::string path;
    uint64_t fileBytes = 0;
    uint64_t bundles = 0;
    uint64_t commands = 0;
    harness::Measurement live;
    uint64_t sweepMisses = 0; ///< summed over points, from round 0
};

struct Item
{
    size_t tape;
    Consumer consumer;
    std::vector<double> seconds;
    double best() const
    {
        return *std::min_element(seconds.begin(), seconds.end());
    }
};

bool
sameProfile(const interp::trace::Profile &a, const interp::trace::Profile &b)
{
    if (a.commands() != b.commands() || a.instructions() != b.instructions() ||
        a.fetchDecodeInsts() != b.fetchDecodeInsts() ||
        a.executeInsts() != b.executeInsts() ||
        a.precompileInsts() != b.precompileInsts() ||
        a.nativeLibInsts() != b.nativeLibInsts() ||
        a.memModelInsts() != b.memModelInsts() ||
        a.systemInsts() != b.systemInsts() ||
        a.memModelAccesses() != b.memModelAccesses() ||
        a.perCommand().size() != b.perCommand().size())
        return false;
    for (size_t i = 0; i < a.perCommand().size(); ++i) {
        const auto &x = a.perCommand()[i];
        const auto &y = b.perCommand()[i];
        if (x.retired != y.retired || x.fetchDecode != y.fetchDecode ||
            x.execute != y.execute || x.nativeLib != y.nativeLib ||
            x.memModel != y.memModel)
            return false;
    }
    return true;
}

/** Replay @p tape into @p consumer and check it against the live run
 *  (and, for the sweep, against round 0). */
void
replayOnce(Tape &tape, Consumer consumer, bool firstRound, Report &rep)
{
    interp::tracefile::TraceReader reader(tape.path);
    const harness::Measurement &live = tape.live;
    switch (consumer) {
      case Consumer::Profile: {
        interp::trace::Profile prof;
        reader.replay({&prof});
        rep.check(sameProfile(prof, live.profile),
                  "%s: replayed Profile differs from the live run",
                  tape.tag.c_str());
        break;
      }
      case Consumer::Machine: {
        interp::sim::Machine machine;
        reader.replay({&machine});
        rep.check(machine.cycles() == live.cycles &&
                      machine.instructions() == live.profile.instructions(),
                  "%s: replayed cycles %llu differ from live %llu",
                  tape.tag.c_str(), (unsigned long long)machine.cycles(),
                  (unsigned long long)live.cycles);
        uint32_t width = interp::sim::MachineConfig().issueWidth;
        rep.check(machine.cycles() * width >= machine.instructions(),
                  "%s: %llu cycles for %llu instructions beats issue "
                  "width %u", tape.tag.c_str(),
                  (unsigned long long)machine.cycles(),
                  (unsigned long long)machine.instructions(), width);
        break;
      }
      case Consumer::Sweep: {
        interp::sim::CacheSweep sweep(kSweepKb, kSweepAssoc);
        reader.replay({&sweep});
        uint64_t misses = 0;
        for (const auto &p : sweep.results())
            misses += p.misses;
        rep.check(sweep.instructions() == live.profile.instructions(),
                  "%s: sweep saw %llu instructions, live %llu",
                  tape.tag.c_str(),
                  (unsigned long long)sweep.instructions(),
                  (unsigned long long)live.profile.instructions());
        if (firstRound)
            tape.sweepMisses = misses;
        rep.check(misses == tape.sweepMisses,
                  "%s: sweep misses differ between rounds",
                  tape.tag.c_str());
        break;
      }
    }
}

/** Decode, encode and simulation rates, each timed apart (traced run
 *  only). */
void
probeLayers(const std::vector<Tape> &tapes, const std::vector<Item> &items,
            const std::string &dir, Report &rep, SpanLog &spans)
{
    double bytes = 0, bundles = 0, decodeS = 0, encodeS = 0;
    std::vector<double> tapeDecodeS; ///< best decode-only replay, per tape
    for (const Tape &t : tapes) {
        double dec = 1e30, enc = 1e30;
        for (int r = 0; r < 3; ++r) {
            Clock::time_point t0 = Clock::now();
            interp::tracefile::TraceReader reader(t.path);
            reader.replay({});
            spans.add("tracefile.decode", -1, 0, t0, Clock::now());
            dec = std::min(dec, secondsSince(t0));

            // Decode + encode of the same stream; the difference is
            // the encoder's share.
            std::string copy = dir + "/reencode.itr";
            t0 = Clock::now();
            {
                interp::tracefile::TraceReader in(t.path);
                interp::tracefile::TraceWriter out(copy, in.meta().lang,
                                                   in.meta().name);
                in.replay({&out});
                out.setRunResult(in.meta().programBytes,
                                 in.meta().commands, in.meta().finished);
                out.setCommandNames(in.meta().commandNames);
                out.finish();
            }
            spans.add("tracefile.reencode", -1, 0, t0, Clock::now());
            enc = std::min(enc, secondsSince(t0));
            rep.check(fs::file_size(copy) == t.fileBytes,
                      "%s: re-encoded tape is %llu bytes, recorded %llu",
                      t.tag.c_str(),
                      (unsigned long long)fs::file_size(copy),
                      (unsigned long long)t.fileBytes);
            fs::remove(copy);
        }
        bytes += (double)t.fileBytes;
        bundles += (double)t.bundles;
        decodeS += dec;
        encodeS += std::max(enc - dec, 1e-9);
        tapeDecodeS.push_back(dec);
    }
    rep.metric("tracefile.decode_mb_per_s", bytes / 1e6 / decodeS, "MB/s");
    rep.metric("tracefile.encode_mb_per_s", bytes / 1e6 / encodeS, "MB/s");
    rep.metric("tracefile.bytes_per_bundle", bytes / bundles, "B");

    // A consumer's own cost: its best replay minus the decode-only
    // replay of the same tape.
    double machineS = 0, sweepS = 0, cycles = 0, insts = 0;
    for (const Item &it : items) {
        if (it.consumer == Consumer::Machine)
            machineS += it.best() - tapeDecodeS[it.tape];
        if (it.consumer == Consumer::Sweep)
            sweepS += it.best() - tapeDecodeS[it.tape];
    }
    for (const Tape &t : tapes) {
        cycles += (double)t.live.cycles;
        insts += (double)t.live.profile.instructions();
    }
    rep.metric("sim.machine_ns_per_bundle", machineS * 1e9 / bundles, "ns");
    rep.metric("sim.sweep_ns_per_bundle", sweepS * 1e9 / bundles, "ns");
    rep.metric("sim.cpi", cycles / insts, "cycles/inst");
}

} // namespace

void
runReplay(const Options &opt, Report &rep, SpanLog &spans)
{
    // --- set-up: record every tape through the live harness ------------
    std::string dir = opt.outDir + "/tapes-" + std::to_string(::getpid());
    fs::create_directories(dir);
    std::vector<Tape> tapes;
    for (const auto &[name, lang] : kTapes) {
        const workloads::Workload *w = workloads::find(name);
        rep.check(w && w->supports(lang), "no %s under %s", name,
                  langName(lang));
        if (!w || !w->supports(lang))
            continue;
        Tape t;
        t.tag = std::string(langName(lang)) + "/" + name;
        t.path = dir + "/" + langName(lang) + "-" + name + ".itr";
        {
            interp::tracefile::TraceWriter writer(t.path, langName(lang),
                                                  name);
            t.live = harness::run(workloads::specFor(*w, lang), {&writer});
            writer.setRunResult(t.live.programBytes, t.live.commands,
                                t.live.finished);
            writer.setCommandNames(t.live.commandNames);
            writer.finish();
        }
        rep.check(workloads::goldenMatches(*w, lang, t.live.stdoutText),
                  "%s: live stdout differs from the registry golden",
                  t.tag.c_str());
        std::string ref = independentReference(name, langName(lang));
        rep.check(ref.empty() || ref == t.live.stdoutText,
                  "%s: live stdout differs from the computed reference",
                  t.tag.c_str());
        interp::tracefile::TraceReader reader(t.path);
        t.fileBytes = reader.fileBytes();
        t.bundles = reader.meta().totalBundles;
        t.commands = reader.meta().commands;
        rep.check(t.commands == t.live.commands && t.commands > 0,
                  "%s: tape holds %llu commands, live run %llu",
                  t.tag.c_str(), (unsigned long long)t.commands,
                  (unsigned long long)t.live.commands);
        tapes.push_back(std::move(t));
    }
    std::vector<Item> items;
    for (size_t i = 0; i < tapes.size(); ++i)
        for (Consumer c : {Consumer::Profile, Consumer::Machine,
                           Consumer::Sweep})
            items.push_back({i, c, {}});
    interp::Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + 2);
    shuffle(items, rng);
    double setupS = secondsSince(opt.start);

    // --- timed phase: whole rounds until the time is up ----------------
    Clock::time_point t0 = Clock::now();
    int rounds = 0;
    double bestRoundS = 1e30;
    do {
        Clock::time_point r0 = Clock::now();
        Scope roundSpan(spans, "replay.round", -1, (uint64_t)rounds);
        for (size_t i = 0; i < items.size(); ++i) {
            Item &it = items[i];
            Tape &tape = tapes[it.tape];
            ++rep.attempted;
            Clock::time_point s0 = Clock::now();
            try {
                replayOnce(tape, it.consumer, rounds == 0, rep);
                Clock::time_point s1 = Clock::now();
                spans.add(kConsumerNames[(int)it.consumer], roundSpan.index(), i,
                          s0, s1);
                double sec = std::chrono::duration<double>(s1 - s0).count();
                it.seconds.push_back(sec);
            } catch (const interp::FatalError &e) {
                ++rep.failed;
                rep.check(false, "%s: %s", tape.tag.c_str(), e.what());
            }
        }
        bestRoundS = std::min(bestRoundS, secondsSince(r0));
        ++rounds;
    } while (secondsSince(t0) < opt.seconds);
    double timedS = secondsSince(t0);

    if (rep.failed == 0) {
        std::vector<double> best;
        std::vector<uint64_t> commands;
        for (const Item &it : items) {
            best.push_back(it.best());
            commands.push_back(tapes[it.tape].commands);
        }
        double tapeBytes = 0;
        for (const Tape &t : tapes)
            tapeBytes += (double)t.fileBytes;
        rep.metric("setup_s", setupS, "s");
        double runS = reportBestOf(rep, best, commands, bestRoundS);
        std::printf("replay: %zu tapes (%.1f MB), %zu items x %d rounds "
                    "in %.2f s; run_s %.4f\n",
                    tapes.size(), tapeBytes / 1e6, items.size(), rounds,
                    timedS, runS);
        if (opt.trace) {
            rep.metric("bench.traced_run_s", runS, "s");
            probeLayers(tapes, items, dir, rep, spans);
        }
    }
    fs::remove_all(dir);
}

} // namespace perfbench
