/**
 * @file
 * Speculation-safety scheme interface.
 *
 * Every defense the paper discusses — the invisible speculation
 * schemes it attacks (§2.2) and the schemes it proposes (§5) — is a
 * Scheme. The core consults the scheme at three points:
 *
 *  1. When a speculative (unsafe) load is ready to issue: the scheme's
 *     SpecLoadPolicy decides whether it executes visibly, invisibly,
 *     only-on-L1-hit (Delay-on-Miss), or not at all.
 *  2. When any instruction is considered for issue: mayIssue() lets
 *     fence-style defenses serialise the pipeline (see its contract).
 *  3. In the scheduler, via SchedFlags: the advanced defense's
 *     "never delay an older instruction" / "hold resources until
 *     non-speculative" rules (§5.4).
 *
 * The *safe point* tells the core when a load stops being speculative
 * under the scheme's threat model: when all older branches have
 * resolved (Spectre model), additionally when all older loads have
 * completed (TSO memory model, for DoM), or only at the ROB head
 * (Futuristic / wait-for-commit modes).
 */

#ifndef SPECINT_SPEC_SCHEME_HH
#define SPECINT_SPEC_SCHEME_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace specint
{

/** When does a load become non-speculative (safe)? */
enum class SafePoint : std::uint8_t
{
    Always,           ///< never speculative (unsafe baseline)
    BranchesResolved, ///< no older unresolved branch (Spectre model)
    TSO,              ///< branches resolved + older loads completed
    RobHead,          ///< oldest non-retired instruction (Futuristic)
};

/** What does an *unsafe* load do when it is ready to issue? */
enum class SpecLoadPolicy : std::uint8_t
{
    Visible,         ///< execute normally (no protection)
    DelayOnMiss,     ///< L1 hit: serve w/ deferred repl. update;
                     ///< L1 miss: wait until safe, then re-execute
    InvisibleRequest,///< issue invisible request now (uses an MSHR on
                     ///< L1 miss); visible exposure access when safe
    InvisibleFilter, ///< invisible request + core-private filter cache
                     ///< (MuonTrap); exposure when safe
    DelayAlways,     ///< wait until safe (maximally conservative)
};

/**
 * How a scheme treats the coherence transition of a *speculative*
 * store (its read-for-ownership / upgrade request) at issue time.
 * Only consulted when the hierarchy's coherence model is enabled.
 *
 * The distinction is the paper's argument applied to coherence:
 * deferring the *upgrade* (the requester's own M state) does not
 * undo the *request* — the invalidations it sent to remote sharers
 * happened the moment it was issued, and a squash cannot recall them.
 */
enum class SpecCoherencePolicy : std::uint8_t
{
    /** Full RFO at issue: invalidate remote sharers and take Modified
     *  ownership immediately (conventional core). */
    EagerUpgrade,
    /** InvisiSpec-style: the requester's own upgrade waits for the
     *  safe point, but the invalidation request still goes out — the
     *  side effect attack/coherence_probe.hh times. */
    DeferUpgrade,
    /** No coherence request leaves the core until the store is safe
     *  (DoM philosophy: speculative side effects stay core-local). */
    DeferAll,
};

/** Scheduler-rule flags implementing the §5.4 advanced defense. */
struct SchedFlags
{
    /** Rule 2: an older ready instruction preempts a younger
     *  speculative instruction occupying a non-pipelined EU. */
    bool strictAgePriority = false;
    /** Rule 1: RS entries are released at retire, not at issue. */
    bool holdRsUntilRetire = false;
    /** Rule 2 applied to MSHRs: an older load may preempt the
     *  youngest speculative MSHR when the file is full. */
    bool preemptSpecMshr = false;
};

/** Issue-time context handed to mayIssue(). */
struct IssueContext
{
    bool olderUnresolvedBranch = false;
    bool olderIncompleteLoad = false;
    /** The candidate instruction is a load/store/branch? */
    bool isLoad = false;
    bool isBranch = false;
};

/**
 * A speculation-safety scheme (defense).
 */
class Scheme
{
  public:
    virtual ~Scheme();

    virtual std::string name() const = 0;

    /** Safe point for loads under this scheme's threat model. */
    virtual SafePoint safePoint() const = 0;

    /** Policy for unsafe loads. */
    virtual SpecLoadPolicy specLoadPolicy() const = 0;

    /** Does the scheme make speculative I-fetches invisible too?
     *  True for SafeSpec (shadow I-cache) and MuonTrap (instruction
     *  filter cache); false for InvisiSpec and DoM (§3.3.1). */
    virtual bool protectsIFetch() const { return false; }

    /**
     * Issue gate: may this instruction issue now? (fence defenses)
     *
     * Contract: the verdict is a pure function of the IssueContext (no
     * per-run state, no history) and is monotone in the shadows —
     * adding a shadow (olderUnresolvedBranch, olderIncompleteLoad)
     * never turns false into true. The issue stage relies on both: a
     * rejected candidate is parked and judged again only after one of
     * its shadows lifts. Purity makes an unchanged context's verdict
     * stand; monotonicity makes a lifted shadow the only change that
     * can reverse it. tests/test_schemes.cc checks both for every
     * SchemeKind.
     */
    virtual bool mayIssue(const IssueContext &) const { return true; }

    /** Speculative-store coherence policy (see SpecCoherencePolicy);
     *  the conventional core upgrades eagerly. */
    virtual SpecCoherencePolicy specCoherencePolicy() const
    {
        return SpecCoherencePolicy::EagerUpgrade;
    }

    /** Do this scheme's *speculative* load requests train the
     *  hardware prefetcher? True for any scheme whose speculative
     *  requests leave the core (the prefetcher observes the miss
     *  stream below L1 regardless of how the fill is hidden); false
     *  for delay-based schemes whose speculative misses never issue. */
    virtual bool trainsPrefetcher() const { return true; }

    /** Scheduler rules (advanced defense). */
    virtual SchedFlags schedFlags() const { return {}; }

    /** @name MuonTrap-style filter cache hooks (default: absent). */
    /// @{
    virtual bool filterProbe(Addr) const { return false; }
    virtual void filterFill(Addr, SeqNum) {}
    virtual void filterSquashYoungerThan(SeqNum) {}
    /// @}

    /** Clear any per-run state (filter cache contents etc.). */
    virtual void reset() {}
};

using SchemePtr = std::unique_ptr<Scheme>;

/** Identifiers for all schemes, used by experiment sweeps. */
enum class SchemeKind : std::uint8_t
{
    Unsafe,
    DomNonTso,          ///< Delay-on-Miss, branch shadows only
    DomTso,             ///< Delay-on-Miss, TSO shadows
    InvisiSpecSpectre,
    InvisiSpecFuturistic,
    SafeSpecWfb,        ///< wait-for-branch
    SafeSpecWfc,        ///< wait-for-commit
    MuonTrap,
    ConditionalSpec,
    FenceSpectre,       ///< basic defense, Spectre model (§5.2)
    FenceFuturistic,    ///< basic defense, Futuristic model (§5.2)
    AdvancedDefense,    ///< §5.4 rules layered on DoM
};

/** All invisible-speculation schemes the paper attacks (Table 1). */
std::vector<SchemeKind> attackedSchemes();

/** All schemes including the paper's proposed defenses. */
std::vector<SchemeKind> allSchemes();

/** Factory. */
SchemePtr makeScheme(SchemeKind kind);

/** Short display name ("InvisiSpec (Spectre)", ...). */
std::string schemeName(SchemeKind kind);

} // namespace specint

#endif // SPECINT_SPEC_SCHEME_HH
