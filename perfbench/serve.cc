/**
 * @file
 * The `serve` workload: interproxy's router (cluster::Proxy, in this
 * process) in front of two fork/exec'd interpd shards with --tierup.
 * One client process keeps nproc/2 closed-loop connections, each waiting
 * for its reply before sending the next request. The traffic is the
 * registry's interactive class: every (program, mode) of it in the four
 * interpreters once a round, in a seeded order. Catalog and tier
 * artifacts are warm before timing starts: the serve path (frame
 * decode, admission queue, same-mode batching, tier-up, proxy hop) does
 * the work.
 *
 * The shards are started as cluster::LocalCluster starts them, with the
 * same flags, but not through it: LocalCluster puts its sockets under
 * /tmp, and the benchmark keeps every file it makes inside its output
 * directory.
 */
#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hh"
#include "cluster/spawn.hh"
#include "server/client.hh"
#include "server/stats.hh"
#include "support/logging.hh"
#include "workloads/registry.hh"

namespace perfbench {

namespace {

using interp::harness::Lang;
using interp::harness::langName;
namespace harness = interp::harness;
namespace server = interp::server;
namespace workloads = interp::workloads;
namespace fs = std::filesystem;

constexpr unsigned kShards = 2;

/** The four interpreters; requests carry the baseline mode. */
const Lang kModes[] = {Lang::Mipsi, Lang::Java, Lang::Perl, Lang::Tcl};

/** Warm-up gives up (and the run fails) after this many rounds. */
constexpr int kMaxWarmupRounds = 40;

/** Rounds per latency window and time slices per closed-loop rate:
 *  the serve analogs of best-of-N. */
constexpr size_t kWindowRounds = 5;
constexpr size_t kRateSlices = 5;

/**
 * Promotions a (program, @p mode) entry makes on its way to the top of
 * its ladder: one per tier reached (tier/tier.hh). A mode with a
 * template backend tops out at tier 3; one without at tier 2, or at 1
 * when its remedy is also its tier-2 rung.
 */
uint64_t
ladderPromotions(Lang mode)
{
    Lang remedy = harness::tierRemedyOf(mode);
    Lang tier2 = harness::tierTier2Of(mode);
    if (remedy == mode)
        return 0;
    if (harness::tierJitOf(mode) != tier2)
        return 3;
    return tier2 != remedy ? 2 : 1;
}

struct Sample
{
    size_t idx;  ///< position in the request sequence
    size_t kind;
    double sentS; ///< send time, seconds into the timed phase
    double latencyUs;
    double queueUs;
    double serviceUs;
    uint64_t commands;
};

/** fork/exec'd interpd shards; killed and reaped on destruction. */
class Shards
{
  public:
    Shards() = default;
    Shards(const Shards &) = delete;
    Shards &operator=(const Shards &) = delete;

    ~Shards()
    {
        for (pid_t pid : pids_)
            ::kill(pid, SIGTERM);
        for (pid_t pid : pids_) {
            // Two seconds to exit cleanly, then SIGKILL.
            int status = 0;
            bool reaped = false;
            for (int i = 0; i < 200 && !reaped; ++i) {
                reaped = ::waitpid(pid, &status, WNOHANG) == pid;
                if (!reaped)
                    ::usleep(10'000);
            }
            if (!reaped) {
                ::kill(pid, SIGKILL);
                ::waitpid(pid, &status, 0);
            }
        }
    }

    /** Start shard @p id on @p socket with the flags LocalCluster gives
     *  a subprocess shard under @p cfg; its output goes to @p log. */
    void spawn(const std::string &interpd,
               const interp::cluster::ClusterConfig &cfg,
               const std::string &socket, const std::string &id,
               const std::string &log)
    {
        const interp::tier::TierConfig &t = cfg.tierPerShard;
        std::vector<std::string> args = {
            interpd, "--socket", socket,
            "--workers", std::to_string(cfg.workersPerShard),
            "--queue", std::to_string(cfg.maxQueuePerShard),
            "--batch", std::to_string(cfg.maxBatchPerShard),
            "--shard-id", id};
        if (t.enabled)
            args.insert(args.end(),
                        {"--tierup",
                         "--tier-remedy-after", std::to_string(t.remedyAfter),
                         "--tier-tier2-after", std::to_string(t.tier2After),
                         "--tier-jit-after", std::to_string(t.jitAfter),
                         "--tier-commands-per-point",
                         std::to_string(t.commandsPerPoint),
                         "--tier-decay-every", std::to_string(t.decayEvery)});
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        pid_t pid = ::fork();
        if (pid < 0)
            interp::fatal("serve: fork: %s", std::strerror(errno));
        if (pid == 0) {
            // Die with the benchmark even if it is killed outright.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                            0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
                ::close(fd);
            }
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        pids_.push_back(pid);
    }

    /** Summed peak resident set of the shards so far, in MB. */
    double peakRssMb() const
    {
        double mb = 0;
        for (pid_t pid : pids_)
            mb += perfbench::peakRssMb(pid);
        return mb;
    }

  private:
    std::vector<pid_t> pids_;
};

void
waitConnectable(const std::string &path)
{
    for (int i = 0; i < 1000; ++i) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un sun{};
        sun.sun_family = AF_UNIX;
        std::strncpy(sun.sun_path, path.c_str(), sizeof(sun.sun_path) - 1);
        int rc = ::connect(fd, (const sockaddr *)&sun, sizeof(sun));
        ::close(fd);
        if (rc == 0)
            return;
        ::usleep(10'000);
    }
    interp::fatal("serve: %s never became connectable", path.c_str());
}

uint64_t
statsUint(const std::string &json, const std::string &path, Report &rep)
{
    uint64_t v = 0;
    rep.check(server::statsJsonUint(json, path, v),
              "STATS lacks %s", path.c_str());
    return v;
}

/** The counters the serve ledger reconciles, from one STATS sweep. */
struct Ledger
{
    uint64_t forwarded = 0;  ///< proxy: requests sent to shards
    uint64_t retries = 0;    ///< proxy: retried requests
    uint64_t proxyShardOk = 0; ///< proxy: OK replies, summed over shards
    uint64_t shardServed = 0;  ///< shards' own served counts, summed
    uint64_t promotions = 0;   ///< cluster-wide tier-ups, all rungs
};

Ledger
readLedger(server::Client &proxy, const std::vector<std::string> &shards,
           Report &rep)
{
    Ledger l;
    std::string pj = proxy.stats();
    l.forwarded = statsUint(pj, "proxy.forwarded", rep);
    l.retries = statsUint(pj, "proxy.retries", rep);
    for (const char *rung : {"tier_up_remedy", "tier_up_tier2",
                             "tier_up_jit"})
        l.promotions += statsUint(pj, std::string("merged.") + rung, rep);
    for (unsigned i = 0; i < shards.size(); ++i) {
        std::string id = "s" + std::to_string(i);
        l.proxyShardOk += statsUint(pj, "shards." + id + ".ok", rep);
        server::Client c = server::Client::connectUnix(shards[i]);
        l.shardServed += statsUint(c.stats(), "served", rep);
    }
    return l;
}

} // namespace

void
runServe(const Options &opt, Report &rep, SpanLog &spans)
{
    // --- set-up: schedule, shards, proxy, tier-up warm-up --------------
    struct Kind
    {
        const workloads::Workload *w;
        Lang mode;
        std::string expect; ///< independent reference, when there is one
    };
    std::vector<Kind> kinds;
    uint64_t topPromotions = 0; ///< cluster-wide, once all are at the top
    for (const workloads::Workload &w : workloads::registry()) {
        if (w.traffic != workloads::Traffic::Interactive)
            continue;
        for (Lang mode : kModes)
            if (w.supports(mode)) {
                kinds.push_back(
                    {&w, mode, independentReference(w.name, langName(mode))});
                topPromotions += ladderPromotions(mode);
            }
    }
    rep.check(!kinds.empty(), "the registry has no interactive programs");
    std::vector<size_t> round(kinds.size());
    for (size_t k = 0; k < round.size(); ++k)
        round[k] = k;
    interp::Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + 3);

    // The shards run as LocalCluster runs them by default, tier-up on.
    // Half as many closed-loop connections as cores leaves the two
    // shards short of saturation, so that latency is service and hop
    // rather than queueing behind the 1.2 s compose-spin requests.
    interp::cluster::ClusterConfig cc;
    cc.shardCount = kShards;
    cc.tierPerShard.enabled = true;
    cc.interpdPath = opt.interpd;
    long ncpu = ::sysconf(_SC_NPROCESSORS_ONLN);
    unsigned conns = std::max(1u, (ncpu > 0 ? (unsigned)ncpu : 1) / 2);

    std::string dir = opt.outDir + "/serve-" + std::to_string(::getpid());
    fs::create_directories(dir);
    struct RemoveDir
    {
        std::string path;
        ~RemoveDir()
        {
            std::error_code ec;
            fs::remove_all(path, ec);
        }
    } removeDir{dir};
    std::vector<std::string> shardPaths;
    Shards shards;
    Clock::time_point c0 = Clock::now();
    for (unsigned i = 0; i < cc.shardCount; ++i) {
        std::string path = dir + "/s" + std::to_string(i) + ".sock";
        if (path.size() >= sizeof(sockaddr_un{}.sun_path))
            interp::fatal("serve: socket path %s is too long", path.c_str());
        shards.spawn(opt.interpd, cc, path, "s" + std::to_string(i),
                     dir + "/s" + std::to_string(i) + ".log");
        shardPaths.push_back(path);
    }
    for (const std::string &p : shardPaths)
        waitConnectable(p);
    interp::cluster::ProxyConfig pc = cc.proxy;
    pc.unixPath = dir + "/proxy.sock";
    for (unsigned i = 0; i < cc.shardCount; ++i)
        pc.shards.push_back({"s" + std::to_string(i), shardPaths[i], -1});
    interp::cluster::Proxy proxy(pc);
    proxy.start();
    std::thread proxyThread([&proxy] { proxy.run(); });
    struct StopProxy
    {
        interp::cluster::Proxy &p;
        std::thread &t;
        ~StopProxy()
        {
            p.stop();
            t.join();
        }
    } stopProxy{proxy, proxyThread};
    waitConnectable(pc.unixPath);
    spans.add("cluster.start", -1, 0, c0, Clock::now());

    // Closed-loop connections, each driven by one thread. A request
    // index past `stopAt` is never sent; `stopAt` is set at the first
    // round boundary at which `stopNow` holds, so every phase sends
    // whole rounds.
    std::vector<Sample> samples;
    std::mutex mu; ///< guards the fields below and `samples`
    std::vector<size_t> order;
    size_t next = 0;
    size_t stopAt = 0;
    std::function<bool()> stopNow;
    Clock::time_point phaseStart;
    bool timed = false;

    auto client = [&](unsigned conn) {
        interp::ScopedFatalThrow contain;
        try {
            server::Client c = server::Client::connectUnix(pc.unixPath);
            for (;;) {
                size_t idx;
                {
                    std::lock_guard<std::mutex> lock(mu);
                    if (next % round.size() == 0 && next > 0 &&
                        next < stopAt && stopNow())
                        stopAt = next;
                    if (next >= stopAt)
                        return;
                    if (next % round.size() == 0) {
                        // A new round: its own seeded order.
                        std::vector<size_t> r = round;
                        shuffle(r, rng);
                        order.insert(order.end(), r.begin(), r.end());
                    }
                    idx = next++;
                }
                const Kind &k = kinds[order[idx]];
                server::EvalRequest req;
                req.id = (uint32_t)idx + 1;
                req.mode = k.mode;
                req.program = k.w->name;
                Clock::time_point s0 = Clock::now();
                server::EvalResponse resp = c.eval(req);
                Clock::time_point s1 = Clock::now();
                double us =
                    std::chrono::duration<double, std::micro>(s1 - s0)
                        .count();
                std::lock_guard<std::mutex> lock(mu);
                bool ok = resp.status == server::Status::Ok &&
                          resp.id == req.id &&
                          workloads::goldenMatches(*k.w, k.mode,
                                                   resp.result) &&
                          (k.expect.empty() || resp.result == k.expect);
                rep.check(ok, "%s %s: status %d, stdout '%.80s'",
                          langName(k.mode), k.w->name.c_str(),
                          (int)resp.status, resp.result.c_str());
                rep.check((double)(resp.queueMicros + resp.serviceMicros) <=
                              us + 1.0,
                          "%s %s: queue %llu + service %llu us exceed the "
                          "client's %.1f us", langName(k.mode),
                          k.w->name.c_str(),
                          (unsigned long long)resp.queueMicros,
                          (unsigned long long)resp.serviceMicros, us);
                if (!timed)
                    continue;
                ++rep.attempted;
                if (!ok) {
                    ++rep.failed;
                    continue;
                }
                samples.push_back({idx, order[idx],
                                   std::chrono::duration<double>(
                                       s0 - phaseStart).count(),
                                   us, (double)resp.queueMicros,
                                   (double)resp.serviceMicros,
                                   resp.commands});
                spans.add("request", -1, idx, s0, s1,
                          {{"kind", (double)order[idx]},
                           {"queue_us", (double)resp.queueMicros},
                           {"service_us", (double)resp.serviceMicros}});
            }
        } catch (const std::exception &e) {
            std::lock_guard<std::mutex> lock(mu);
            ++rep.failed;
            rep.check(false, "connection %u: %s", conn, e.what());
        }
    };
    auto drive = [&] {
        std::vector<std::thread> threads;
        for (unsigned i = 0; i < conns; ++i)
            threads.emplace_back(client, i);
        for (std::thread &t : threads)
            t.join();
    };

    // Warm-up: whole rounds until every (program, mode) has been
    // promoted to the top of its ladder, so that no tier-up happens in
    // the timed phase. A promotion is counted when its request is
    // planned; drive() returns once every request, and so every tier
    // build, has finished.
    server::Client statsConn = server::Client::connectUnix(pc.unixPath);
    Clock::time_point w0 = Clock::now();
    uint64_t promoted = 0;
    stopAt = SIZE_MAX;
    stopNow = [&] {
        promoted = readLedger(statsConn, shardPaths, rep).promotions;
        return promoted >= topPromotions || !rep.correct() ||
               next >= kMaxWarmupRounds * round.size();
    };
    drive();
    size_t warmRounds = next / round.size();
    double warmupS = secondsSince(w0);
    spans.add("tier.warmup", -1, 0, w0, Clock::now());
    rep.check(promoted == topPromotions,
              "tier-up made %llu of %llu promotions in %zu warm-up rounds",
              (unsigned long long)promoted,
              (unsigned long long)topPromotions, warmRounds);
    Ledger before = readLedger(statsConn, shardPaths, rep);
    double setupS = secondsSince(opt.start);

    // --- timed phase ------------------------------------------------------
    if (rep.correct()) {
        next = 0;
        order.clear();
        stopAt = SIZE_MAX;
        timed = true;
        stopNow = [&] { return secondsSince(phaseStart) >= opt.seconds; };
        phaseStart = Clock::now();
        drive();
    }
    double timedS = secondsSince(phaseStart);
    Ledger after = readLedger(statsConn, shardPaths, rep);
    if (!timed || rep.failed)
        return;

    uint64_t ok = samples.size();
    rep.check(after.forwarded - before.forwarded == ok &&
                  after.proxyShardOk - before.proxyShardOk == ok &&
                  after.shardServed - before.shardServed == ok,
              "ledger: client OK %llu, proxy forwarded %llu, proxy "
              "shard ok %llu, shards served %llu",
              (unsigned long long)ok,
              (unsigned long long)(after.forwarded - before.forwarded),
              (unsigned long long)(after.proxyShardOk - before.proxyShardOk),
              (unsigned long long)(after.shardServed - before.shardServed));

    // --- metrics ------------------------------------------------------------
    std::vector<double> latMs, queueUs, serviceUs, hopUs, svcNsPerCmd;
    std::vector<double> kindBestUs(kinds.size(), 1e30);
    std::vector<uint64_t> kindCmds(kinds.size(), 1);
    for (const Sample &s : samples) {
        latMs.push_back(s.latencyUs / 1e3);
        queueUs.push_back(s.queueUs);
        serviceUs.push_back(s.serviceUs);
        hopUs.push_back(s.latencyUs - s.queueUs - s.serviceUs);
        svcNsPerCmd.push_back(s.serviceUs * 1e3 /
                              (double)std::max<uint64_t>(s.commands, 1));
        kindBestUs[s.kind] = std::min(kindBestUs[s.kind], s.latencyUs);
        kindCmds[s.kind] = std::max<uint64_t>(s.commands, 1);
    }
    // One round with every request at its kind's best latency: the
    // serve path's own cost, like `tiers`' sum of best item times.
    std::vector<double> nsPerCmd;
    double runS = 0;
    for (size_t k = 0; k < kinds.size(); ++k)
        nsPerCmd.push_back(kindBestUs[k] * 1e3 / (double)kindCmds[k]);
    for (size_t k : round)
        runS += kindBestUs[k] * 1e-6;

    // The median latency is the best window's, a window being
    // kWindowRounds whole rounds by request sequence, so that a stretch
    // of host contention inside the run does not decide it.
    size_t rounds = ok / round.size();
    size_t windows = std::max<size_t>(1, rounds / kWindowRounds);
    size_t perWindow = rounds / windows * round.size();
    std::vector<std::vector<double>> wLatMs(windows);
    for (const Sample &s : samples)
        wLatMs[std::min(s.idx / perWindow, windows - 1)].push_back(
            s.latencyUs / 1e3);
    double bestP50 = 1e30;
    for (const std::vector<double> &w : wLatMs)
        bestP50 = std::min(bestP50, quantile(w, 0.5));

    // The closed-loop rate is the best of kRateSlices equal slices of
    // the timed phase. Each request counts as one completion spread
    // evenly over its time in flight, so that a slice is not decided by
    // whether a 1-2 s compose-spin request ends just inside it.
    std::vector<double> sliceDone(kRateSlices, 0);
    double sliceS = timedS / kRateSlices;
    for (const Sample &s : samples) {
        double a = s.sentS, b = s.sentS + s.latencyUs * 1e-6;
        for (size_t k = 0; k < kRateSlices; ++k) {
            double lo = std::max(a, (double)k * sliceS);
            double hi = std::min(b, (double)(k + 1) * sliceS);
            if (hi > lo)
                sliceDone[k] += (hi - lo) / (b - a);
        }
    }
    double bestRate =
        *std::max_element(sliceDone.begin(), sliceDone.end()) / sliceS;
    double p99 = quantile(latMs, 0.99);
    rep.metric("setup_s", setupS, "s");
    rep.metric("run_s", runS, "s");
    rep.metric("geomean_ns_per_cmd", geomean(nsPerCmd), "ns");
    double clientRssMb = peakRssMb(), shardRssMb = shards.peakRssMb();
    rep.metric("peak_rss_mb", clientRssMb + shardRssMb, "MB");
    rep.metric("req_per_s", bestRate, "1/s");
    rep.metric("p50_ms", bestP50, "ms");
    std::printf("serve: %u connections, %llu requests (%zu rounds of %zu) "
                "in %.2f s; warm-up %zu rounds, %.2f s\n",
                conns, (unsigned long long)ok, rounds, round.size(), timedS,
                warmRounds, warmupS);
    std::printf("serve: closed-loop %.2f req/s over the run, %.2f in the "
                "best window; peak RSS %.1f MB client and proxy, %.1f MB "
                "shards\n", (double)ok / timedS, bestRate, clientRssMb,
                shardRssMb);
    std::printf("serve: p99_ms %.3f over %zu samples (%zu beyond it)\n",
                p99, latMs.size(),
                (size_t)std::count_if(latMs.begin(), latMs.end(),
                                      [&](double v) { return v > p99; }));

    if (!opt.trace)
        return;
    rep.metric("bench.traced_run_s", runS, "s");
    rep.metric("server.queue_us_p50", quantile(queueUs, 0.5), "us");
    rep.metric("server.service_us_p50", quantile(serviceUs, 0.5), "us");
    rep.metric("server.service_ns_per_cmd", quantile(svcNsPerCmd, 0.5),
               "ns");
    rep.metric("cluster.hop_us_p50", quantile(hopUs, 0.5), "us");
    rep.metric("cluster.retries", (double)(after.retries - before.retries),
               "count");
    rep.metric("tier.promotions", (double)before.promotions, "count");
    rep.metric("tier.warmup_s", warmupS, "s");
}

} // namespace perfbench
