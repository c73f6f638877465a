/**
 * @file
 * Shared pieces of the host-clock benchmark: run options, the result
 * report (the JSON line the run ends with), the in-memory span log of
 * the traced run, and small statistics helpers.
 *
 * Every workload follows one shape: set-up (not timed as work), then a
 * timed phase of whole rounds over a fixed set of operations, repeated
 * until --seconds have passed, with every operation's output checked.
 */
#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "support/rng.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    int seconds = 0;
    bool trace = false;
    std::string interpd; ///< shard binary the serve workload spawns
    std::string outDir;  ///< tapes, spans and shard sockets go here
    Clock::time_point start; ///< process start (first line of main)
};

/** What one run reports: correctness, operation counts, metrics. */
class Report
{
  public:
    /** Record a failed check; the run then reports correct=false. */
    void check(bool ok, const char *fmt, ...)
        __attribute__((format(printf, 3, 4)));
    void metric(const std::string &name, double value, const char *unit);

    bool correct() const { return correct_; }
    /** Operations attempted / failed in the timed phase. */
    uint64_t attempted = 0;
    uint64_t failed = 0;

    /** The final JSON line: end-to-end metrics (traced = false) or
     *  per-layer ones (traced = true), each present exactly once. */
    std::string json(bool traced) const;

  private:
    bool correct_ = true;
    unsigned reported_ = 0;
    std::map<std::string, std::pair<double, std::string>> metrics_;
};

/** Name and unit of every per-layer metric, in output order. */
const std::vector<std::pair<std::string, const char *>> &perLayerMetrics();
/** Name and unit of every end-to-end metric. */
const std::vector<std::pair<std::string, const char *>> &endToEndMetrics();

/**
 * Spans recorded in memory around each layer call the benchmark makes
 * (name, start, end, parent span, item or request id) and written out
 * as JSON lines when the run ends. Disabled (every call a no-op) in the
 * untraced runs that report the end-to-end metrics.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : on_(enabled), t0_(Clock::now()) {}

    /** Append a finished span; returns its index (-1 when off). Extra
     *  numeric fields (queue/service micros on serve) ride along. */
    int64_t add(const char *name, int64_t parent, uint64_t id,
                Clock::time_point start, Clock::time_point end,
                std::vector<std::pair<const char *, double>> extra = {});
    /** Open a span that later spans name as their parent; end() closes
     *  it. */
    int64_t begin(const char *name, int64_t parent, uint64_t id);
    void end(int64_t span);

    /** Summed self time (duration minus the part covered by child
     *  spans) and span count, per span name. */
    std::map<std::string, std::pair<double, uint64_t>> selfSeconds() const;
    size_t size() const;

    /** Write every span as one JSON object per line. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        int64_t parent;
        uint64_t id;
        int64_t startNs;
        int64_t endNs;
        std::vector<std::pair<const char *, double>> extra;
    };

    bool on_;
    Clock::time_point t0_;
    mutable std::mutex mu_; ///< guards spans_
    std::vector<Span> spans_;
};

/** A span open for the lifetime of the scope. */
class Scope
{
  public:
    Scope(SpanLog &log, const char *name, int64_t parent, uint64_t id)
        : log_(log), span_(log.begin(name, parent, id))
    {}
    ~Scope() { log_.end(span_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** This span's index, to pass as a child's parent. */
    int64_t index() const { return span_; }

  private:
    SpanLog &log_;
    int64_t span_;
};

double secondsSince(Clock::time_point t);
/** Exact quantile with rank q * (n - 1), linearly interpolated. */
double quantile(std::vector<double> v, double q);
double geomean(const std::vector<double> &v);
/** Peak resident set (VmHWM) of process @p pid, 0 for this one, in MB;
 *  0 when it cannot be read. */
double peakRssMb(int pid = 0);

/** Fisher-Yates shuffle driven by the workload seed. */
template <typename T>
void
shuffle(std::vector<T> &v, interp::Rng &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/**
 * The end-to-end metrics of a workload of fixed items, each timed
 * best-of-N (tiers, replay), from every item's best seconds and its
 * virtual commands: run_s (their sum), geomean_ns_per_cmd, req_per_s
 * (items per second of the fastest whole round, @p bestRoundS), p50_ms
 * (the median best time) and peak_rss_mb. Returns run_s.
 */
double reportBestOf(Report &rep, const std::vector<double> &bestSeconds,
                    const std::vector<uint64_t> &commands,
                    double bestRoundS);

// --- workloads -------------------------------------------------------------

void runTiers(const Options &opt, Report &rep, SpanLog &spans);
void runReplay(const Options &opt, Report &rep, SpanLog &spans);
void runServe(const Options &opt, Report &rep, SpanLog &spans);

// --- independent output references (refs.cc) --------------------------------

/** stdout of des.mc/des.pl/des.tcl over @p blocks blocks, computed
 *  from the cipher's definition. */
std::string desReference(int blocks);
/** The reference for @p program under a baseline language, or "" when
 *  the benchmark has no independent computation of it. */
std::string independentReference(const std::string &program,
                                 const std::string &lang);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
