/**
 * @file
 * covert_channel, defense_suite, smt_contention and sweep_cache: see
 * perfbench/README.md for why each was chosen and which layers it
 * stresses.
 */

#include "workloads.hh"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "attack/channel.hh"
#include "attack/smt_probe.hh"
#include "attack/trial_fixture.hh"
#include "cpu/core.hh"
#include "memory/hierarchy.hh"
#include "scenarios/scenarios.hh"
#include "sim/experiment/runner.hh"
#include "sim/service/cache.hh"
#include "sim/service/fingerprint.hh"
#include "sim/service/wire.hh"
#include "spans.hh"
#include "workload/generator.hh"

namespace perfbench
{

namespace
{

using namespace specint;
using experiment::splitSeed;

/** Message bits per covert-channel point. */
constexpr unsigned kCovertBits = 32;
/** Dynamic instructions per defense_suite program. */
constexpr unsigned kDefenseInstructions = 2000;
/** Message bits per smt_contention point (one trial per bit). */
constexpr unsigned kSmtBits = 8;

std::string
strf(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

std::string
strf(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    return buf;
}

/** Run @p fn for one point; an exception marks the point failed. */
template <typename Fn>
PointOutcome
guarded(Fn &&fn)
{
    PointOutcome out;
    try {
        out.canon = fn();
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    return out;
}

std::string
channelCanon(const ChannelResult &r)
{
    return strf("bits=%u errors=%u discarded=%u cycles=%llu", r.bitsSent,
                r.bitErrors, r.discardedTrials,
                static_cast<unsigned long long>(r.totalCycles));
}

// ---------------------------------------------------------------------
// covert_channel: both Fig. 11 PoCs under DoM (non-TSO), calibrated
// noise, trials per bit in {15, 9, 5, 3, 1}.
// ---------------------------------------------------------------------

constexpr unsigned kTrialsPerBit[] = {15u, 9u, 5u, 3u, 1u};

class CovertChannel : public Workload
{
  public:
    explicit CovertChannel(std::uint64_t seed) : seed_(seed) {}

    void setup() override
    {
        bits_.clear();
        {
            const ScopedSpan span("randomBits", "workload");
            for (unsigned i = 0; i < 2 * std::size(kTrialsPerBit); ++i)
                bits_.push_back(randomBits(kCovertBits, splitSeed(seed_, i)));
        }
        ChannelConfig cfg;
        {
            const ScopedSpan span("acquireAttackFixture", "attack");
            acquireAttackFixture(cfg.core, cfg.hier);
        }
        // First use of both channels (one trial per bit) faults in
        // their code and data before anything is timed.
        cfg.trialsPerBit = 1;
        cfg.seed = splitSeed(seed_, 999);
        const ScopedSpan span("warm-up", "attack");
        runDCacheChannel(bits_[0], cfg);
        runICacheChannel(bits_[0], cfg);
    }

    PassOutcome pass() override
    {
        PassOutcome out;
        std::vector<ChannelResult> results;
        std::int64_t id = 0;
        for (const bool dcache : {true, false}) {
            for (const unsigned tpb : kTrialsPerBit) {
                const std::vector<std::uint8_t> &bits = bits_[id];
                const ScopedSpan point("point", "experiment", id,
                                       strf("%s/%u", dcache ? "dcache"
                                                            : "icache",
                                            tpb));
                ChannelResult res;
                out.points.push_back(guarded([&] {
                    ChannelConfig cfg;
                    cfg.scheme = SchemeKind::DomNonTso;
                    cfg.trialsPerBit = tpb;
                    cfg.noise = NoiseConfig::calibrated();
                    cfg.seed = splitSeed(seed_, 1000 + id);
                    const ScopedSpan call(dcache ? "runDCacheChannel"
                                                 : "runICacheChannel",
                                          "attack");
                    res = dcache ? runDCacheChannel(bits, cfg)
                                 : runICacheChannel(bits, cfg);
                    return channelCanon(res);
                }));
                results.push_back(res);
                out.counts["attack.trials"] +=
                    static_cast<double>(bits.size()) * tpb;
                out.counts["attack.discarded"] += res.discardedTrials;
                ++id;
            }
        }
        // Fig. 11's claim: with 15 trials per bit both channels decode
        // far better than chance.
        for (std::size_t c = 0; c < 2; ++c) {
            const ChannelResult &best =
                results[c * std::size(kTrialsPerBit)];
            if (best.bitsSent != kCovertBits || best.errorRate() > 0.25)
                out.checkError = strf(
                    "%s channel at 15 trials/bit: %u/%u bit errors",
                    c == 0 ? "D-Cache" : "I-Cache", best.bitErrors,
                    best.bitsSent);
        }
        return out;
    }

  private:
    std::uint64_t seed_;
    std::vector<std::vector<std::uint8_t>> bits_;
};

// ---------------------------------------------------------------------
// defense_suite: the SPEC2017-archetype programs under the unsafe
// baseline and both fence defenses (the loop of runDefenseOverhead).
// ---------------------------------------------------------------------

struct DefenseScheme
{
    SchemeKind kind;
    /** Span tag; names the pipeline.ns_per_cycle.* metric. */
    const char *tag;
};

constexpr DefenseScheme kDefenseSchemes[] = {
    {SchemeKind::Unsafe, "unsafe"},
    {SchemeKind::FenceSpectre, "fence_spectre"},
    {SchemeKind::FenceFuturistic, "fence_futuristic"},
};

class DefenseSuite : public Workload
{
  public:
    explicit DefenseSuite(std::uint64_t seed) : seed_(seed) {}

    void setup() override
    {
        programs_.clear();
        std::vector<WorkloadSpec> specs =
            spec2017Archetypes(kDefenseInstructions);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            specs[i].seed = splitSeed(seed_, i);
            const ScopedSpan span("generateWorkload", "workload", -1,
                                  specs[i].name);
            programs_.emplace_back(specs[i].name,
                                   generateWorkload(specs[i]));
        }
    }

    PassOutcome pass() override
    {
        PassOutcome out;
        double log_sum[std::size(kDefenseSchemes)] = {};
        for (std::size_t i = 0; i < programs_.size(); ++i) {
            const std::string &name = programs_[i].first;
            const GeneratedWorkload &wl = programs_[i].second;
            const ScopedSpan point("point", "experiment",
                                   static_cast<std::int64_t>(i), name);
            std::vector<std::uint64_t> cycles;
            out.points.push_back(guarded([&] {
                std::string canon = name;
                for (const DefenseScheme &s : kDefenseSchemes) {
                    Hierarchy hier(HierarchyConfig::small());
                    MainMemory mem;
                    for (const auto &[addr, value] : wl.memInit)
                        mem.write(addr, value);
                    Core core(CoreConfig{}, 0, hier, mem);
                    core.setScheme(makeScheme(s.kind));
                    ScopedSpan run("Core::run", "pipeline", -1, s.tag);
                    const CoreStats stats = core.run(wl.prog);
                    run.setCycles(stats.cycles);
                    if (!stats.finished)
                        throw std::runtime_error(name + " under " +
                                                 schemeName(s.kind) +
                                                 " hit maxCycles");
                    cycles.push_back(stats.cycles);
                    canon += strf(" %s:%llu/%llu", s.tag,
                                  static_cast<unsigned long long>(
                                      stats.cycles),
                                  static_cast<unsigned long long>(
                                      stats.retired));
                }
                return canon;
            }));
            if (cycles.size() == std::size(kDefenseSchemes))
                for (std::size_t s = 0; s < cycles.size(); ++s)
                    log_sum[s] += std::log(static_cast<double>(cycles[s]) /
                                           static_cast<double>(cycles[0]));
        }
        // Fig. 12's shape: Futuristic >> Spectre >> unsafe.
        const double n = static_cast<double>(programs_.size());
        const double spectre = std::exp(log_sum[1] / n);
        const double futuristic = std::exp(log_sum[2] / n);
        if (!(spectre > 1.05 && futuristic > spectre * 1.5))
            out.checkError = strf("geomean slowdowns %.2fx / %.2fx miss "
                                  "Fig. 12's shape",
                                  spectre, futuristic);
        return out;
    }

  private:
    std::uint64_t seed_;
    std::vector<std::pair<std::string, GeneratedWorkload>> programs_;
};

// ---------------------------------------------------------------------
// smt_contention: the ablation_smt grid (scheme x channel x policy).
// ---------------------------------------------------------------------

struct SmtPolicy
{
    const char *name;
    SharingPolicy window;
    FetchPolicy fetch;
};

constexpr SmtPolicy kSmtPolicies[] = {
    {"shared+icount", SharingPolicy::Shared, FetchPolicy::ICount},
    {"shared+rr", SharingPolicy::Shared, FetchPolicy::RoundRobin},
    {"partitioned+icount", SharingPolicy::Partitioned, FetchPolicy::ICount},
};

class SmtContention : public Workload
{
  public:
    explicit SmtContention(std::uint64_t seed) : seed_(seed) {}

    void setup() override
    {
        {
            const ScopedSpan span("randomBits", "workload");
            bits_ = randomBits(kSmtBits, splitSeed(seed_, 0));
        }
        // First use of both channel kinds, as in CovertChannel::setup.
        const ScopedSpan span("warm-up", "attack");
        for (const SmtChannelKind kind :
             {SmtChannelKind::Port, SmtChannelKind::Mshr}) {
            SmtChannelConfig cfg;
            cfg.attack.kind = kind;
            cfg.trialsPerBit = 1;
            runSmtContentionChannel(bits_, cfg);
        }
    }

    PassOutcome pass() override
    {
        PassOutcome out;
        std::int64_t id = 0;
        std::string verdicts;
        for (const SchemeKind scheme : allSchemes()) {
            for (const SmtChannelKind kind :
                 {SmtChannelKind::Port, SmtChannelKind::Mshr}) {
                std::string open_by_policy;
                for (const SmtPolicy &p : kSmtPolicies) {
                    const ScopedSpan point(
                        "point", "experiment", id,
                        schemeName(scheme) + "/" +
                            smtChannelKindName(kind) + "/" + p.name);
                    SmtChannelResult res;
                    out.points.push_back(guarded([&] {
                        SmtChannelConfig cfg;
                        cfg.scheme = scheme;
                        cfg.attack.kind = kind;
                        cfg.smt.robPolicy = cfg.smt.rsPolicy =
                            cfg.smt.lqPolicy = cfg.smt.sqPolicy = p.window;
                        cfg.smt.fetchPolicy = p.fetch;
                        cfg.trialsPerBit = 1;
                        cfg.seed = splitSeed(seed_, 1000 + id);
                        const ScopedSpan call("runSmtContentionChannel",
                                              "attack");
                        res = runSmtContentionChannel(bits_, cfg);
                        return strf("score0=%llu score1=%llu open=%d ",
                                    static_cast<unsigned long long>(
                                        res.calibration.score0),
                                    static_cast<unsigned long long>(
                                        res.calibration.score1),
                                    res.calibration.usable ? 1 : 0) +
                               channelCanon(res.channel);
                    }));
                    out.counts["attack.trials"] +=
                        static_cast<double>(bits_.size());
                    open_by_policy += res.calibration.usable ? 'O' : 'c';
                    if (res.calibration.usable &&
                        res.channel.bitErrors != 0)
                        out.checkError = schemeName(scheme) +
                                         ": open channel with bit errors";
                    ++id;
                }
                // Sharing policies never open or close the channel;
                // only the fences close both, and unsafe leaks both.
                const bool fence = scheme == SchemeKind::FenceSpectre ||
                                   scheme == SchemeKind::FenceFuturistic;
                const std::string want_closed(std::size(kSmtPolicies), 'c');
                const std::string want_open(std::size(kSmtPolicies), 'O');
                if ((fence && open_by_policy != want_closed) ||
                    (scheme == SchemeKind::Unsafe &&
                     open_by_policy != want_open) ||
                    (open_by_policy != want_closed &&
                     open_by_policy != want_open))
                    out.checkError = schemeName(scheme) + "/" +
                                     smtChannelKindName(kind) +
                                     ": verdicts by policy " +
                                     open_by_policy;
            }
        }
        return out;
    }

  private:
    std::uint64_t seed_;
    std::vector<std::uint8_t> bits_;
};

// ---------------------------------------------------------------------
// sweep_cache: table1 + ablation_cross_core + ablation_coherence through
// the in-process --cache-dir path (runner hooks -> ResultCache). Setup
// fills a fresh cache cold; each pass replays the sweeps warm.
// ---------------------------------------------------------------------

constexpr const char *kCachedScenarios[] = {
    "table1", "ablation_cross_core", "ablation_coherence"};
/** Warm replays per pass: one replay takes ~5 ms, short enough for
 *  file-system jitter to dominate a single pass's time. */
constexpr unsigned kWarmReplays = 20;

class SweepCache : public Workload
{
  public:
    SweepCache(std::uint64_t seed, std::string work_dir)
        : seed_(seed), root_(std::move(work_dir))
    {
        for (const char *name : kCachedScenarios) {
            const experiment::Scenario *sc =
                specint::scenarios::all().find(name);
            if (sc == nullptr)
                throw std::logic_error(std::string("no scenario ") + name);
            // The seed only enters the cache keys for table1; the two
            // ablations also draw their message bits from it.
            experiment::RunOptions opt;
            opt.trials = sc->defaultTrials;
            opt.seed = seed_;
            for (const experiment::ExtraFlag &f : sc->extraFlags)
                opt.extra[f.name] = f.defaultValue;
            scenarios_.push_back({*sc, opt});
            // Time the points the cold fill executes.
            auto &run = scenarios_.back().scenario.run;
            run = [inner = run](const experiment::PointContext &ctx,
                                const experiment::RunOptions &o) {
                const ScopedSpan span("Scenario::run", "attack");
                return inner(ctx, o);
            };
        }
    }

    ~SweepCache() override
    {
        std::error_code ec;
        std::filesystem::remove_all(root_, ec);
    }

    void setup() override
    {
        // A fresh, empty directory per setup: every point misses and
        // is stored.
        dir_ = root_ + "/cache" + std::to_string(setups_++);
        std::error_code ec;
        std::filesystem::remove_all(root_, ec);
        std::filesystem::create_directories(dir_, ec);
        if (ec)
            throw std::runtime_error("cannot create " + dir_);
        cold_ = replay(/*cold=*/true);
        if (!cold_.checkError.empty())
            throw std::runtime_error("cold fill: " + cold_.checkError);
        for (const PointOutcome &p : cold_.points)
            if (!p.error.empty())
                throw std::runtime_error("cold fill: " + p.error);
    }

    PassOutcome pass() override
    {
        PassOutcome out;
        for (unsigned r = 0; r < kWarmReplays; ++r) {
            PassOutcome warm = replay(/*cold=*/false);
            for (std::size_t i = 0; i < warm.points.size(); ++i) {
                PointOutcome &p = warm.points[i];
                if (p.error.empty() && (i >= cold_.points.size() ||
                                        p.canon != cold_.points[i].canon))
                    p.error = "warm row differs from cold row";
                out.points.push_back(std::move(p));
            }
            for (const auto &[name, value] : warm.counts)
                out.counts[name] += value;
            if (!warm.checkError.empty())
                out.checkError = warm.checkError;
        }
        out.counts["paper_agreement"] /= kWarmReplays;
        return out;
    }

  private:
    struct Cached
    {
        experiment::Scenario scenario;
        experiment::RunOptions options;
    };

    PassOutcome replay(bool cold)
    {
        using namespace experiment;
        PassOutcome out;
        const char *fingerprint = service::buildFingerprint();
        std::unique_ptr<service::ResultCache> cache;
        {
            const ScopedSpan span("ResultCache::open", "service");
            cache = std::make_unique<service::ResultCache>(dir_);
        }
        if (!cache->enabled())
            throw std::runtime_error("result cache disabled at " + dir_);

        std::int64_t base = 0;
        unsigned agree = 0, deviations = 0, table1_rows = 0;
        for (const Cached &c : scenarios_) {
            const service::JobSpec spec =
                service::JobSpec::fromOptions(c.scenario.name, c.options);
            SpanRecorder &rec = SpanRecorder::global();
            int point_span = -1;
            RunHooks hooks;
            hooks.tryFetch = [&](const PointContext &ctx,
                                 PointResult &result) {
                point_span = rec.begin(
                    "point", "experiment",
                    base + static_cast<std::int64_t>(ctx.pointIndex),
                    c.scenario.name);
                const ScopedSpan span("ResultCache::lookup", "service");
                return cache->lookup(
                    service::makeCacheKey(spec, ctx.pointIndex,
                                          ctx.pointSeed, ctx.point,
                                          fingerprint),
                    result.rows, result.legacy);
            };
            hooks.onExecuted = [&](const PointContext &ctx,
                                   const PointResult &result) {
                const ScopedSpan span("ResultCache::store", "service");
                cache->store(service::makeCacheKey(spec, ctx.pointIndex,
                                                   ctx.pointSeed, ctx.point,
                                                   fingerprint),
                             result.rows, result.legacy);
            };
            hooks.onOrdered = [&](std::size_t, const ReportPoint &) {
                rec.end(point_span);
                point_span = -1;
            };

            Report report;
            {
                const ScopedSpan span("ExperimentRunner::run", "experiment",
                                      -1, c.scenario.name);
                report = ExperimentRunner(1).run(c.scenario, c.options,
                                                 hooks);
            }
            for (const ReportPoint &p : report.points) {
                PointOutcome po;
                if (!p.done)
                    po.error = "point not completed";
                for (const Row &row : p.rows) {
                    for (const Value &v : row)
                        po.canon += v.text() + "|";
                    po.canon += "\n";
                    if (c.scenario.name == "table1") {
                        ++table1_rows;
                        const std::string &note = row.at(5).strValue();
                        if (note.empty())
                            ++agree;
                        else if (note == "documented deviation")
                            ++deviations;
                    }
                }
                out.points.push_back(std::move(po));
            }
            base += static_cast<std::int64_t>(report.points.size());
        }
        {
            const ScopedSpan span("ResultCache::flushIndex", "service");
            cache->flushIndex(fingerprint);
        }

        const service::CacheStats st = cache->stats();
        out.counts["service.hits"] = static_cast<double>(st.hits);
        out.counts["service.misses"] = static_cast<double>(st.misses);
        out.counts["service.corrupt"] = static_cast<double>(st.corrupt);
        out.counts["paper_agreement"] =
            table1_rows ? static_cast<double>(agree) / table1_rows : 0.0;
        const std::size_t n = out.points.size();
        if (cold ? st.stores != n : st.hits != n)
            out.checkError = strf("%s replay: %llu hits, %llu stores for "
                                  "%zu points",
                                  cold ? "cold" : "warm",
                                  static_cast<unsigned long long>(st.hits),
                                  static_cast<unsigned long long>(st.stores),
                                  n);
        // Table 1 agrees with the paper except its documented deviations.
        if (table1_rows != 96 || agree + deviations != table1_rows ||
            agree != 93)
            out.checkError = strf("table1: %u/%u cells agree, %u "
                                  "documented deviations",
                                  agree, table1_rows, deviations);
        return out;
    }

    std::uint64_t seed_;
    std::string root_;
    std::string dir_;
    unsigned setups_ = 0;
    std::vector<Cached> scenarios_;
    PassOutcome cold_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &work_dir)
{
    if (name == "covert_channel")
        return std::make_unique<CovertChannel>(seed);
    if (name == "defense_suite")
        return std::make_unique<DefenseSuite>(seed);
    if (name == "smt_contention")
        return std::make_unique<SmtContention>(seed);
    if (name == "sweep_cache")
        return std::make_unique<SweepCache>(seed, work_dir);
    return nullptr;
}

} // namespace perfbench
