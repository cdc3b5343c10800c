/**
 * @file
 * specsim_perfbench: runs one seeded workload (workloads.hh) for a
 * fixed time and prints its metrics as one JSON line.
 *
 *   specsim_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                     [--work-dir DIR] [--trace-out FILE]
 *                     [--expect-digest HEX]
 *
 * Set-up runs at least kMinSetupReps times and until it has taken
 * kSetupBudget seconds, each time on a fresh thread (so thread-local fixture pools
 * start cold); the last set-up's thread then runs measured passes until
 * S seconds have elapsed.
 *
 * --trace 0 reports the end-to-end metrics: wall_s is the 90th
 * percentile of the per-pass wall times and setup_s the median set-up.
 * --trace 1 first makes one pass with the metric registry on (exact
 * counts), then alternates untraced passes with passes that record
 * spans, and reports the per-layer metrics.
 *
 * Every pass's per-point results must equal the first pass's, and the
 * first pass's digest must equal --expect-digest when that is given.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "sim/obs/metrics.hh"
#include "sim/service/cache.hh"
#include "sim/service/json.hh"
#include "spans.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

/** Set-up repeats at least kMinSetupReps times and until it has taken
 *  kSetupBudget seconds in total, but at most kMaxSetupReps times. */
constexpr std::size_t kMinSetupReps = 5;
constexpr double kSetupBudget = 1.0;
constexpr std::size_t kMaxSetupReps = 50;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = ".bench_build/perfbench/work";
    std::string traceOut;
    std::string expectDigest;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: specsim_perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
                 "[--trace-out FILE] [--expect-digest HEX]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--seed")
                a.seed = std::stoull(v);
            else if (flag == "--seconds")
                a.seconds = std::stod(v);
            else if (flag == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (flag == "--work-dir")
                a.workDir = v;
            else if (flag == "--trace-out")
                a.traceOut = v;
            else if (flag == "--expect-digest")
                a.expectDigest = v;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Linear-interpolated quantile, q in [0, 1]; 0 for no samples. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Run @p fn on a fresh thread and wait for it; rethrows its error. */
template <typename Fn>
void
onFreshThread(Fn &&fn)
{
    std::exception_ptr error;
    std::thread t([&] {
        try {
            fn();
        } catch (...) {
            error = std::current_exception();
        }
    });
    t.join();
    if (error)
        std::rethrow_exception(error);
}

/** Pass bookkeeping: failures, determinism and the digest. */
struct Ledger
{
    std::vector<std::string> firstCanon;
    std::string digest;
    std::map<std::string, double> counts;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void note(const std::string &e)
    {
        if (errors.size() < 5)
            errors.push_back(e);
    }

    void account(const PassOutcome &out)
    {
        if (digest.empty()) {
            std::string all;
            for (const PointOutcome &p : out.points) {
                firstCanon.push_back(p.canon);
                all += p.canon + "\n";
            }
            char hex[17];
            std::snprintf(hex, sizeof hex, "%016llx",
                          static_cast<unsigned long long>(
                              specint::service::fnv1a64(all)));
            digest = hex;
            counts = out.counts;
        }
        if (!out.checkError.empty())
            note("scenario check: " + out.checkError);
        for (std::size_t i = 0; i < out.points.size(); ++i) {
            const PointOutcome &p = out.points[i];
            ++attempted;
            std::string why = p.error;
            if (why.empty() &&
                (i >= firstCanon.size() || p.canon != firstCanon[i]))
                why = "result differs from the first pass";
            if (why.empty() && !out.checkError.empty())
                why = "scenario check failed";
            if (!why.empty()) {
                ++failed;
                note("point " + std::to_string(i) + ": " + why);
            }
        }
    }
};

/** Per-layer aggregates over the traced passes and set-ups. */
struct TraceStats
{
    std::vector<double> passWall, coverage, overheadMs, channelS,
        smtChannelS, pointMs, lookupUs;
    std::map<std::string, std::vector<double>> layerSelf;
    std::map<std::string, std::pair<double, double>> coreRun; // s, cycles
    double points = 0;
    // Set-up spans.
    std::vector<double> fixtureMs, generateMs, storeUs, scenarioPointUs;
    std::vector<Span> firstPass;

    void addSetup(const std::vector<Span> &spans)
    {
        double generate = 0.0;
        for (const Span &s : spans) {
            const std::string name = s.name;
            if (name == "acquireAttackFixture")
                fixtureMs.push_back(s.seconds() * 1e3);
            else if (name == "ResultCache::store")
                storeUs.push_back(s.seconds() * 1e6);
            else if (name == "Scenario::run")
                scenarioPointUs.push_back(s.seconds() * 1e6);
            if (std::string(s.layer) == "workload")
                generate += s.seconds();
        }
        generateMs.push_back(generate * 1e3);
    }

    void addPass(const std::vector<Span> &spans)
    {
        const std::vector<double> self = selfTimes(spans);
        const double wall = spans.at(0).seconds();
        double covered = 0.0, point_sum = 0.0, channel = 0.0, smt = 0.0;
        std::map<std::string, double> layer;
        unsigned npoints = 0;
        for (std::size_t i = 1; i < spans.size(); ++i) {
            const Span &s = spans[i];
            const std::string name = s.name;
            covered += self[i];
            layer[s.layer] += self[i];
            if (name == "point") {
                ++npoints;
                point_sum += s.seconds();
                pointMs.push_back(s.seconds() * 1e3);
            } else if (name == "runDCacheChannel" ||
                       name == "runICacheChannel") {
                channel += s.seconds();
            } else if (name == "runSmtContentionChannel") {
                smt += s.seconds();
            } else if (name == "ResultCache::lookup") {
                lookupUs.push_back(s.seconds() * 1e6);
            } else if (name == "Core::run") {
                auto &acc = coreRun[s.tag];
                acc.first += s.seconds();
                acc.second += static_cast<double>(s.cycles);
            }
        }
        passWall.push_back(wall);
        coverage.push_back(ratio(covered, wall));
        overheadMs.push_back((wall - point_sum) * 1e3);
        channelS.push_back(channel);
        smtChannelS.push_back(smt);
        for (const char *l :
             {"experiment", "attack", "pipeline", "service"})
            layerSelf[l].push_back(layer[l]);
        points = npoints;
        if (firstPass.empty())
            firstPass = spans;
    }
};

/** Sums over metric-registry paths (one counting pass). */
struct RegistryCounts
{
    std::map<std::string, double> byName;

    explicit RegistryCounts(const specint::obs::MetricsSnapshot &snap)
    {
        auto endsWith = [](const std::string &s, const std::string &t) {
            return s.size() >= t.size() &&
                   s.compare(s.size() - t.size(), t.size(), t) == 0;
        };
        for (const specint::obs::MetricSample &m : snap.entries) {
            const std::string &p = m.path;
            const double count = static_cast<double>(m.count);
            if (p.rfind("core", 0) != 0) {
                byName[p] += count; // llc.*, channel.*
                continue;
            }
            for (const char *suffix :
                 {".retired", ".loads", ".load_l1_hits", ".pool.rob.pushes",
                  ".stalls.rs_blocked", ".stalls.port_contended",
                  ".stalls.mshr_contended"})
                if (endsWith(p, suffix))
                    byName[suffix + 1] += count;
            if (endsWith(p, ".pipeline.cycles"))
                byName["pipeline.cycles"] += m.sum;
            if (endsWith(p, ".t0.fetch_grants"))
                byName["fetch_grants.t0"] += count;
            if (endsWith(p, ".t1.fetch_grants"))
                byName["fetch_grants.t1"] += count;
        }
    }

    double operator[](const std::string &name) const
    {
        auto it = byName.find(name);
        return it == byName.end() ? 0.0 : it->second;
    }
};

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

std::string
renderResult(bool correct, const Ledger &ledger,
             const std::vector<Metric> &metrics)
{
    using specint::service::Json;
    Json values = Json::object();
    for (const Metric &m : metrics) {
        Json v = Json::object();
        v.set("value", Json::real(std::isfinite(m.value) ? m.value : 0.0));
        v.set("unit", Json::str(m.unit));
        values.set(m.name, std::move(v));
    }
    Json out = Json::object();
    out.set("correct", Json::boolean(correct));
    out.set("attempted", Json::uinteger(ledger.attempted));
    out.set("failed", Json::uinteger(ledger.failed));
    out.set("metrics", std::move(values));
    return out.dump();
}

int
runBenchmark(const Args &args)
{
    std::unique_ptr<Workload> wl =
        makeWorkload(args.workload, args.seed, args.workDir);
    if (!wl)
        usage("unknown workload " + args.workload);

    SpanRecorder &rec = SpanRecorder::global();
    Ledger ledger;
    TraceStats ts;
    std::vector<double> setup_s, untraced_wall, untraced_cpu;
    std::vector<Span> setup_trace;
    std::unique_ptr<RegistryCounts> reg;

    auto runPass = [&](bool spans) {
        rec.clear();
        rec.setEnabled(spans);
        const int root = rec.begin("pass", "bench");
        const PassOutcome out = wl->pass();
        rec.end(root);
        rec.setEnabled(false);
        ledger.account(out);
        if (spans)
            ts.addPass(rec.spans());
    };

    auto measure = [&] {
        if (args.trace) {
            specint::obs::MetricRegistry &registry =
                specint::obs::MetricRegistry::global();
            registry.clear();
            specint::obs::setMetricsEnabled(true);
            ledger.account(wl->pass());
            specint::obs::setMetricsEnabled(false);
            reg = std::make_unique<RegistryCounts>(registry.snapshot());
            registry.clear();
        }
        // Traced runs alternate untraced and traced passes, so both
        // see the same host conditions.
        const double until = wallNow() + args.seconds;
        bool traced = false;
        do {
            if (traced) {
                runPass(true);
            } else {
                const double w0 = wallNow(), c0 = cpuNow();
                runPass(false);
                untraced_wall.push_back(wallNow() - w0);
                untraced_cpu.push_back(cpuNow() - c0);
            }
            traced = args.trace && !traced;
        } while (wallNow() < until || (args.trace && ts.passWall.empty()));
    };

    // The last set-up's thread runs the measured phase.
    bool measured = false;
    double setup_total = 0.0;
    while (!measured) {
        onFreshThread([&] {
            rec.clear();
            rec.setEnabled(args.trace);
            const double t0 = wallNow();
            wl->setup();
            setup_s.push_back(wallNow() - t0);
            setup_total += setup_s.back();
            rec.setEnabled(false);
            if (args.trace) {
                ts.addSetup(rec.spans());
                setup_trace = rec.spans();
            }
            if (setup_s.size() >= kMaxSetupReps ||
                (setup_s.size() >= kMinSetupReps &&
                 setup_total >= kSetupBudget)) {
                measured = true;
                measure();
            }
        });
    }

    bool correct = ledger.failed == 0 && ledger.errors.empty();
    if (!args.expectDigest.empty() && ledger.digest != args.expectDigest) {
        correct = false;
        ledger.failed += ledger.firstCanon.size();
        ledger.note("digest " + ledger.digest + " != expected " +
                    args.expectDigest);
    }
    if (args.trace) {
        for (const std::vector<Span> *spans : {&setup_trace, &ts.firstPass}) {
            const std::string nesting = checkNesting(*spans);
            if (!nesting.empty()) {
                correct = false;
                ledger.note("trace: " + nesting);
            }
        }
    }

    std::printf("workload %s seed %llu passes %zu digest %s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                untraced_wall.size() + ts.passWall.size(),
                ledger.digest.c_str());
    std::printf("untraced pass wall min %.6g p50 %.6g p90 %.6g max %.6g "
                "s; %zu set-ups, p50 %.6g s\n",
                quantile(untraced_wall, 0), median(untraced_wall),
                quantile(untraced_wall, 0.9), quantile(untraced_wall, 1),
                setup_s.size(), median(setup_s));
    for (const std::string &e : ledger.errors)
        std::printf("error: %s\n", e.c_str());

    if (!args.traceOut.empty()) {
        std::vector<Span> all = setup_trace;
        const int offset = static_cast<int>(all.size());
        for (Span s : ts.firstPass) {
            if (s.parent >= 0)
                s.parent += offset;
            all.push_back(std::move(s));
        }
        std::ofstream(args.traceOut) << renderChromeTrace(all);
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::vector<Metric> m;
    if (!args.trace) {
        m.push_back({"wall_s", quantile(untraced_wall, 0.9), "s"});
        m.push_back({"setup_s", median(setup_s), "s"});
        m.push_back({"peak_rss_mb",
                     static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"});
    } else {
        const RegistryCounts &r = *reg;
        const auto c = [&](const char *name) {
            auto it = ledger.counts.find(name);
            return it == ledger.counts.end() ? 0.0 : it->second;
        };
        const double retired = r["retired"];
        const double trials = c("attack.trials");
        const double untraced = median(untraced_wall);
        double cpu = 0.0, wall = 0.0;
        for (std::size_t i = 0; i < untraced_wall.size(); ++i) {
            cpu += untraced_cpu[i];
            wall += untraced_wall[i];
        }
        const auto nsPerCycle = [&](const char *tag) {
            auto it = ts.coreRun.find(tag);
            return it == ts.coreRun.end()
                       ? 0.0
                       : ratio(it->second.first * 1e9, it->second.second);
        };
        m = {
            {"experiment.points", ts.points, "count"},
            {"experiment.point_ms.p50", quantile(ts.pointMs, 0.5), "ms"},
            {"experiment.point_ms.p90", quantile(ts.pointMs, 0.9), "ms"},
            {"experiment.overhead_ms", median(ts.overheadMs), "ms"},
            {"attack.channel_s", median(ts.channelS), "s"},
            {"attack.trial_us", ratio(median(ts.channelS) * 1e6, trials),
             "us"},
            {"attack.fixture_ms", median(ts.fixtureMs), "ms"},
            {"attack.smt_channel_s", median(ts.smtChannelS), "s"},
            {"attack.matrix_point_us", median(ts.scenarioPointUs), "us"},
            {"attack.trials", trials, "count"},
            {"attack.discarded_frac", ratio(c("attack.discarded"), trials),
             "ratio"},
            {"pipeline.kinst_retired", retired / 1e3, "kinst"},
            {"pipeline.kinst_dispatched", r["pool.rob.pushes"] / 1e3,
             "kinst"},
            {"pipeline.mcycles", r["pipeline.cycles"] / 1e6, "Mcycles"},
            {"pipeline.dispatched_per_retired",
             ratio(r["pool.rob.pushes"], retired), "ratio"},
            {"pipeline.kips", ratio(retired / 1e3, median(untraced_cpu)),
             "kinst/s"},
            {"pipeline.ns_per_cycle.unsafe", nsPerCycle("unsafe"), "ns"},
            {"pipeline.ns_per_cycle.fence_spectre",
             nsPerCycle("fence_spectre"), "ns"},
            {"pipeline.ns_per_cycle.fence_futuristic",
             nsPerCycle("fence_futuristic"), "ns"},
            {"pipeline.stall_cycles.rs_blocked", r["stalls.rs_blocked"],
             "cycles"},
            {"pipeline.stall_cycles.port_contended",
             r["stalls.port_contended"], "cycles"},
            {"pipeline.stall_cycles.mshr_contended",
             r["stalls.mshr_contended"], "cycles"},
            {"memory.txns_per_kinst",
             ratio(r["llc.txnslab.acquires"], retired / 1e3), "ratio"},
            {"memory.llc_visible_accesses", r["llc.visible_accesses"],
             "count"},
            {"memory.l1_load_hit_frac", ratio(r["load_l1_hits"], r["loads"]),
             "ratio"},
            {"smt.fetch_grants.t0", r["fetch_grants.t0"], "count"},
            {"smt.fetch_grants.t1", r["fetch_grants.t1"], "count"},
            {"smt.retired_per_cycle", ratio(retired, r["pipeline.cycles"]),
             "ratio"},
            {"workload.generate_ms", median(ts.generateMs), "ms"},
            {"service.lookup_us.p50", quantile(ts.lookupUs, 0.5), "us"},
            {"service.lookup_us.p90", quantile(ts.lookupUs, 0.9), "us"},
            {"service.store_us.p50", quantile(ts.storeUs, 0.5), "us"},
            {"service.store_us.p90", quantile(ts.storeUs, 0.9), "us"},
            {"service.hit_frac",
             ratio(c("service.hits"),
                   c("service.hits") + c("service.misses")),
             "ratio"},
            {"service.hits", c("service.hits"), "count"},
            {"service.misses", c("service.misses"), "count"},
            {"service.corrupt", c("service.corrupt"), "count"},
            {"paper_agreement", c("paper_agreement"), "ratio"},
            {"fail_frac",
             ratio(static_cast<double>(ledger.failed),
                   static_cast<double>(ledger.attempted)),
             "ratio"},
            {"host.cpu_per_wall", ratio(cpu, wall), "ratio"},
            {"trace.overhead_frac",
             ratio(median(ts.passWall), untraced) - 1.0, "ratio"},
            {"trace.coverage", median(ts.coverage), "ratio"},
        };
        for (const auto &[layer, self] : ts.layerSelf)
            m.push_back({"self_s." + layer, median(self), "s"});
    }
    std::printf("%s\n", renderResult(correct, ledger, m).c_str());
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::runBenchmark(perfbench::parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
