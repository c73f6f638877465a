/**
 * @file
 * perfbench: the host-clock benchmark's driver.
 *
 *   perfbench --workload tiers|replay|serve --seed N --seconds S
 *             --trace 0|1 --interpd PATH --out DIR
 *
 * Runs one workload (see README.md), checks every output, and prints
 * as its last stdout line one JSON object: correct, attempted, failed
 * and the metrics — end-to-end ones with --trace 0, per-layer ones
 * (plus the span file under --out) with --trace 1. Exits 0 only when
 * every check passed.
 */
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include <sys/stat.h>

#include "bench.hh"
#include "support/logging.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "tiers|replay|serve --seed N --seconds S --trace 0|1 "
                 "--interpd PATH --out DIR\n",
                 why);
    std::exit(2);
}

uint64_t
parseUint(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno || !end || *end || text[0] == '-' || !text[0]) {
        std::fprintf(stderr, "perfbench: %s expects a non-negative "
                     "integer, got '%s'\n", flag, text);
        std::exit(2);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    opt.start = Clock::now();
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload")
            opt.workload = value;
        else if (flag == "--seed")
            opt.seed = parseUint("--seed", value);
        else if (flag == "--seconds")
            opt.seconds = (int)parseUint("--seconds", value);
        else if (flag == "--trace")
            opt.trace = parseUint("--trace", value) != 0;
        else if (flag == "--interpd")
            opt.interpd = value;
        else if (flag == "--out")
            opt.outDir = value;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (opt.seconds < 1 || opt.seconds > 600)
        usage("--seconds must be 1..600");
    if (opt.outDir.empty())
        usage("--out is required");
    if (::mkdir(opt.outDir.c_str(), 0755) != 0 && errno != EEXIST) {
        std::fprintf(stderr, "perfbench: mkdir %s: %s\n",
                     opt.outDir.c_str(), std::strerror(errno));
        return 2;
    }

    Report rep;
    SpanLog spans(opt.trace);
    try {
        // Program faults surface as FatalError, not exit(1), so a
        // failing operation is counted instead of ending the run.
        interp::ScopedFatalThrow contain;
        if (opt.workload == "tiers")
            runTiers(opt, rep, spans);
        else if (opt.workload == "replay")
            runReplay(opt, rep, spans);
        else if (opt.workload == "serve")
            runServe(opt, rep, spans);
        else
            usage(("unknown workload '" + opt.workload + "'").c_str());
    } catch (const std::exception &e) {
        rep.check(false, "%s: %s", opt.workload.c_str(), e.what());
    }

    if (opt.trace) {
        std::string path = opt.outDir + "/spans-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".jsonl";
        rep.check(spans.write(path), "cannot write %s", path.c_str());
        rep.metric("bench.spans", (double)spans.size(), "count");
        std::printf("spans: %zu written to %s\nself time by span:\n",
                    spans.size(), path.c_str());
        for (const auto &[name, v] : spans.selfSeconds())
            std::printf("  %-24s %10.3f ms  (%llu spans)\n", name.c_str(),
                        v.first * 1e3, (unsigned long long)v.second);
    }
    rep.check(rep.attempted > 0, "no operation was attempted");
    std::printf("%s\n", rep.json(opt.trace).c_str());
    std::fflush(stdout);
    return rep.correct() ? 0 : 1;
}
