/**
 * @file
 * The benchmark's four seeded workloads. Each drives the public entry
 * points of one slice of the simulator from a single thread and opens
 * a span (spans.hh) around every call it makes into a layer.
 */

#ifndef SPECSIM_PERFBENCH_WORKLOADS_HH
#define SPECSIM_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench
{

/** One sweep point of a pass. */
struct PointOutcome
{
    /** Canonical text of the point's result rows (digest input). */
    std::string canon;
    /** "" = ok; otherwise why the point failed (it threw). */
    std::string error;
};

/** One measured pass over a workload's inputs. */
struct PassOutcome
{
    std::vector<PointOutcome> points;
    /** "" = the workload's scenario check passed. */
    std::string checkError;
    /** Exact work counts the benchmark itself drives
     *  ("attack.trials", "service.hits", ...). */
    std::map<std::string, double> counts;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the inputs from the seed and pay first-use costs. May be
     *  called several times; each call starts from scratch and the
     *  last one's state feeds the passes. */
    virtual void setup() = 0;

    /** Run the workload's fixed unit of work once: every point
     *  (sweep_cache: every point of its warm replays). */
    virtual PassOutcome pass() = 0;
};

/** nullptr for an unknown name. @p work_dir is a scratch directory
 *  the workload may create and must remove when destroyed. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       const std::string &work_dir);

} // namespace perfbench

#endif // SPECSIM_PERFBENCH_WORKLOADS_HH
