/**
 * @file
 * Sibling-thread (SMT) interference probe and contention channel.
 *
 * The paper's attacker placements (§2.1) include SameThread/SMT: the
 * attacker runs on the victim's sibling hardware thread and shares the
 * core's execution ports and L1-D MSHRs. Unlike the cross-core PoCs
 * (§4), no cache state is involved at all — the receiver *is* the
 * shared pipeline resource:
 *
 *   Port channel: a mis-speculated victim gadget (transmitter load
 *     whose latency is secret-dependent, feeding a VSQRTPD chain)
 *     occupies the non-pipelined port-0 unit iff the transmitter hit.
 *     The probe thread issues its own stream of VSQRTPD ops and
 *     observes, cycle by cycle, whether port 0 is held by its sibling.
 *
 *   MSHR channel: the victim gadget issues M loads to lines that are
 *     distinct iff secret=1 (G^D_MSHR's address pattern, Fig. 4),
 *     occupying 1 or M of the shared MSHRs. The probe streams loads to
 *     its own lines and observes the sibling's MSHR occupancy through
 *     its allocation stalls.
 *
 * The decoded score is the integral of sibling-held port-0 cycles
 * (Port) or sibling-held MSHR entries (Mshr) over the run, which the
 * engine keeps as running totals in the probe thread's ThreadStats —
 * the simulator-level proxy for the latency self-measurements a real
 * sibling attacker performs. The totals need no per-cycle sample
 * stream, so probe trials skip dead cycles like any other run.
 *
 * Because invisible-speculation schemes hide *cache* state, not
 * execution-resource usage, this channel pierces every scheme that
 * lets speculative instructions execute (InvisiSpec, SafeSpec,
 * MuonTrap, DoM on L1 hits, even the paper's §5.4 advanced defense,
 * whose rules are thread-local); only fence-style defenses that keep
 * the gadget from issuing close it.
 */

#ifndef SPECINT_ATTACK_SMT_PROBE_HH
#define SPECINT_ATTACK_SMT_PROBE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "attack/channel.hh"
#include "cpu/program.hh"
#include "smt/smt_core.hh"

namespace specint
{

/** Which shared resource carries the cross-thread signal. */
enum class SmtChannelKind : std::uint8_t { Port, Mshr };

std::string smtChannelKindName(SmtChannelKind k);

/** Victim-gadget and probe tuning knobs. */
struct SmtAttackParams
{
    SmtChannelKind kind = SmtChannelKind::Port;
    /** Branch-predicate chase depth (LLC-warm links): sets the squash
     *  time and thereby the width of the contention window. */
    unsigned predicateDepth = 2;
    /** Victim VSQRTPD chain length (Port). */
    unsigned gadgetLen = 8;
    /** Victim gadget loads, should equal the L1-D MSHR count (Mshr). */
    unsigned mshrLoads = 10;
    /** Probe stream length (VSQRTPD ops / distinct-line loads). */
    unsigned probeOps = 48;
};

/**
 * A fully described SMT attack: the victim (thread 0) and probe
 * (thread 1) programs plus every address the harness must initialise,
 * warm or flush before each trial.
 */
struct SmtAttack
{
    SmtAttackParams params;
    Program victim;
    Program probe;

    /** Word holding the secret bit (written per trial). */
    Addr secretSlot = kAddrInvalid;
    /** PC of the mis-trained victim branch. */
    std::uint32_t branchPc = 0;

    /** Memory words to initialise before every trial. */
    std::vector<std::pair<Addr, std::uint64_t>> memInit;
    /** Lines warmed into the core's private caches (shared L1). */
    std::vector<Addr> warmLines;
    /** Lines flushed from the whole hierarchy before a run. */
    std::vector<Addr> flushLines;
    /** Lines made LLC-resident only (flushed, then LLC-filled). */
    std::vector<Addr> llcWarmLines;
};

/** Build the victim/probe program pair for @p params. */
SmtAttack buildSmtAttack(const SmtAttackParams &params);

/** Outcome of one two-thread trial. */
struct SmtTrialOutcome
{
    /** Contention integral observed by the probe thread. */
    std::uint64_t score = 0;
    /** Total cycles of the run. */
    Tick cycles = 0;
    /** Both threads ran to Halt. */
    bool finished = false;
};

/** Decoder calibration: known-secret scores and the derived rule. */
struct SmtCalibration
{
    std::uint64_t score0 = 0;
    std::uint64_t score1 = 0;
    double threshold = 0.0;
    /** secret=1 produces the higher score. */
    bool oneIsHigh = false;
    /** The two scores are separated enough to decode at all — false
     *  means the scheme closes this channel. */
    bool usable = false;

    /** Decode one trial score under this calibration. */
    unsigned decode(std::uint64_t score) const
    {
        const bool high = static_cast<double>(score) > threshold;
        return high == oneIsHigh ? 1u : 0u;
    }
};

/**
 * Trial harness for the SMT contention channel: owns the hierarchy,
 * memory and the two-thread SmtCore (victim scheme on thread 0, an
 * undefended probe on thread 1), and runs prepare/run/score trials.
 */
class SmtProbeHarness
{
  public:
    /** @param smt thread count is forced to 2; sharing policies and
     *  recordContention are honoured (the score does not need it). */
    SmtProbeHarness(SmtAttack attack, SchemeKind victim_scheme,
                    CoreConfig core = CoreConfig{},
                    SmtConfig smt = SmtConfig{},
                    HierarchyConfig hier = HierarchyConfig::small());

    /** Set up memory/cache/predictor state for one trial. */
    void prepare(unsigned secret, NoiseModel *noise = nullptr);

    /** Run victim + probe and extract the probe's score. */
    SmtTrialOutcome runTrial();

    /** Noiseless known-secret runs -> decode rule. */
    SmtCalibration calibrate(std::uint64_t min_gap = 8);

    SmtCore &core() { return smt_; }
    const SmtAttack &attack() const { return atk_; }

  private:
    SmtAttack atk_;
    Hierarchy hier_;
    MainMemory mem_;
    SmtCore smt_;
};

/** SMT contention channel configuration. */
struct SmtChannelConfig
{
    /** Victim scheme under attack (thread 0). */
    SchemeKind scheme = SchemeKind::InvisiSpecSpectre;
    SmtAttackParams attack;
    /** Sharing policies for the run (numThreads forced to 2). */
    SmtConfig smt;
    unsigned trialsPerBit = 3;
    NoiseConfig noise = NoiseConfig::none();
    std::uint64_t seed = 42;
    /** Nominal clock for bits/s conversion (§4.1: 3.6 GHz). */
    double clockGhz = 3.6;
    /** Unmodelled per-trial overhead (sibling-thread attacks need no
     *  prime/probe or eviction sets, so this is small). */
    std::uint64_t perTrialOverheadCycles = 2000;
    /** Minimum calibration gap for the channel to count as open. */
    std::uint64_t minCalibrationGap = 8;
    /** Core structural configuration (both SMT threads). */
    CoreConfig core;
    /** Cache-hierarchy configuration. */
    HierarchyConfig hier = HierarchyConfig::small();
};

/** Channel measurement plus the calibration it decoded with. */
struct SmtChannelResult
{
    ChannelResult channel;
    SmtCalibration calibration;
};

/**
 * Transmit @p bits over the SMT contention channel against
 * cfg.scheme. If calibration finds no exploitable contention gap (the
 * defense closes the channel), every bit decodes as 0 and the result's
 * calibration.usable is false.
 */
SmtChannelResult
runSmtContentionChannel(const std::vector<std::uint8_t> &bits,
                        const SmtChannelConfig &cfg);

} // namespace specint

#endif // SPECINT_ATTACK_SMT_PROBE_HH
