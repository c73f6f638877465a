#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

/** Failed checks printed to stderr before the rest are only counted. */
constexpr unsigned kMaxReported = 20;

/** The twelve interpreter modes of the tier ladders, as metric
 *  prefixes (lower-cased harness::langName). */
const char *const kModes[] = {
    "mipsi", "mipsi-threaded", "mipsi-jit",  "java",
    "java-quick", "java-tier2", "perl",      "perl-ic",
    "tcl",   "tcl-bytecode",   "tcl-tier2",  "tcl-jit",
};

void
appendNumber(std::string &out, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    out += buf;
}

} // namespace

void
Report::check(bool ok, const char *fmt, ...)
{
    if (ok)
        return;
    correct_ = false;
    if (reported_++ >= kMaxReported)
        return;
    std::fprintf(stderr, "perfbench: check failed: ");
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "\n");
}

void
Report::metric(const std::string &name, double value, const char *unit)
{
    metrics_[name] = {value, unit};
}

std::string
Report::json(bool traced) const
{
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, unit] :
         traced ? perLayerMetrics() : endToEndMetrics()) {
        // A layer the workload does not exercise reports 0.
        auto it = metrics_.find(name);
        double v = it == metrics_.end() ? 0.0 : it->second.first;
        out += first ? "" : ", ";
        first = false;
        out += "\"" + name + "\": {\"value\": ";
        appendNumber(out, v);
        out += std::string(", \"unit\": \"") + unit + "\"}";
    }
    out += "}}";
    return out;
}

const std::vector<std::pair<std::string, const char *>> &
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, const char *>> list = {
        {"setup_s", "s"},    {"run_s", "s"},
        {"geomean_ns_per_cmd", "ns"}, {"peak_rss_mb", "MB"},
        {"req_per_s", "1/s"}, {"p50_ms", "ms"},
    };
    return list;
}

const std::vector<std::pair<std::string, const char *>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, const char *>> list =
        [] {
            std::vector<std::pair<std::string, const char *>> l = {
                {"minic.compile_us", "us"},
                {"perlish.compile_us", "us"},
                {"jvm.tier2_build_us", "us"},
                {"jit.compile_us", "us"},
            };
            for (const char *mode : kModes) {
                std::string m = mode;
                l.push_back({m + ".ns_per_cmd", "ns"});
                l.push_back({m + ".insts_per_cmd", "insts"});
                l.push_back({m + ".fd_per_cmd", "insts"});
                l.push_back({m + ".mm_per_cmd", "insts"});
            }
            const std::pair<std::string, const char *> rest[] = {
                {"trace.floor_ns_per_inst", "ns"},
                {"trace.profile_ns_per_inst", "ns"},
                {"tracefile.encode_mb_per_s", "MB/s"},
                {"tracefile.decode_mb_per_s", "MB/s"},
                {"tracefile.bytes_per_bundle", "B"},
                {"sim.machine_ns_per_bundle", "ns"},
                {"sim.sweep_ns_per_bundle", "ns"},
                {"sim.cpi", "cycles/inst"},
                {"server.queue_us_p50", "us"},
                {"server.service_us_p50", "us"},
                {"server.service_ns_per_cmd", "ns"},
                {"cluster.hop_us_p50", "us"},
                {"cluster.retries", "count"},
                {"tier.promotions", "count"},
                {"tier.warmup_s", "s"},
                {"bench.traced_run_s", "s"},
                {"bench.spans", "count"},
            };
            l.insert(l.end(), std::begin(rest), std::end(rest));
            return l;
        }();
    return list;
}

// --- spans ------------------------------------------------------------------

int64_t
SpanLog::add(const char *name, int64_t parent, uint64_t id,
             Clock::time_point start, Clock::time_point end,
             std::vector<std::pair<const char *, double>> extra)
{
    if (!on_)
        return -1;
    auto ns = [this](Clock::time_point t) {
        return (int64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - t0_)
            .count();
    };
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, parent, id, ns(start), ns(end),
                      std::move(extra)});
    return (int64_t)spans_.size() - 1;
}

int64_t
SpanLog::begin(const char *name, int64_t parent, uint64_t id)
{
    Clock::time_point now = Clock::now();
    return add(name, parent, id, now, now);
}

void
SpanLog::end(int64_t span)
{
    if (span < 0)
        return;
    int64_t ns = (int64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now() - t0_)
                     .count();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[(size_t)span].endNs = ns;
}

std::map<std::string, std::pair<double, uint64_t>>
SpanLog::selfSeconds() const
{
    std::lock_guard<std::mutex> lock(mu_);
    // Children of one span never overlap (each layer call returns
    // before the next starts), so covered time is their summed length.
    std::vector<int64_t> childNs(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0 && (size_t)s.parent < spans_.size())
            childNs[s.parent] += s.endNs - s.startNs;
    std::map<std::string, std::pair<double, uint64_t>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        auto &slot = out[s.name];
        slot.first += (double)(s.endNs - s.startNs - childNs[i]) * 1e-9;
        slot.second += 1;
    }
    return out;
}

size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"span\": " << i << ", \"name\": \"" << s.name
            << "\", \"start_ns\": " << s.startNs
            << ", \"end_ns\": " << s.endNs << ", \"parent\": " << s.parent
            << ", \"id\": " << s.id;
        for (const auto &[key, value] : s.extra)
            out << ", \"" << key << "\": " << value;
        out << "}\n";
    }
    return (bool)out;
}

double
reportBestOf(Report &rep, const std::vector<double> &bestSeconds,
             const std::vector<uint64_t> &commands, double bestRoundS)
{
    double runS = 0;
    std::vector<double> nsPerCmd;
    for (size_t i = 0; i < bestSeconds.size(); ++i) {
        runS += bestSeconds[i];
        nsPerCmd.push_back(bestSeconds[i] * 1e9 / (double)commands[i]);
    }
    rep.metric("run_s", runS, "s");
    rep.metric("geomean_ns_per_cmd", geomean(nsPerCmd), "ns");
    rep.metric("peak_rss_mb", peakRssMb(), "MB");
    rep.metric("req_per_s", (double)bestSeconds.size() / bestRoundS,
               "1/s");
    rep.metric("p50_ms", quantile(bestSeconds, 0.5) * 1e3, "ms");
    return runS;
}

// --- statistics -------------------------------------------------------------

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double rank = q * (double)(v.size() - 1);
    size_t lo = (size_t)rank;
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - (double)lo);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double logs = 0;
    for (double x : v)
        logs += std::log(x);
    return std::exp(logs / (double)v.size());
}

double
peakRssMb(int pid)
{
    std::ifstream in(pid ? "/proc/" + std::to_string(pid) + "/status"
                         : std::string("/proc/self/status"));
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0;
}

} // namespace perfbench
