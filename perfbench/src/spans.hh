/**
 * @file
 * In-memory span recorder for the benchmark's own calls into each
 * simulator layer. A span has a name, the layer it times, its parent
 * span and the id of the sweep point it belongs to; spans are kept in
 * memory and rendered as Chrome trace JSON when the run ends. Spans
 * come from one thread and nest strictly, so a span's self time is its
 * duration minus the durations of its direct children.
 */

#ifndef SPECSIM_PERFBENCH_SPANS_HH
#define SPECSIM_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    /** Static strings: the call being timed and the layer it enters. */
    const char *name = "";
    const char *layer = "";
    /** Free-form qualifier (scheme, scenario, channel). */
    std::string tag;
    int parent = -1;
    /** Sweep-point id; children inherit their parent's. */
    std::int64_t point = -1;
    /** Nanoseconds since the recorder's origin. */
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    /** Simulated cycles the span covered, where the caller knows them. */
    std::uint64_t cycles = 0;

    double seconds() const { return static_cast<double>(t1 - t0) * 1e-9; }
};

class SpanRecorder
{
  public:
    /** The process-wide recorder (single-threaded use). */
    static SpanRecorder &global();

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }
    /** Drop every span; open spans must all have ended. */
    void clear();

    /** Open a span under the innermost open one; @p point < 0
     *  inherits the parent's point id. Returns -1 when disabled. */
    int begin(const char *name, const char *layer,
              std::int64_t point = -1, std::string tag = {});
    /** Close span @p id (the innermost open span). */
    void end(int id, std::uint64_t cycles = 0);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::int64_t now() const;

    bool enabled_ = false;
    std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span on the global recorder (no-op while it is disabled). */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, const char *layer,
               std::int64_t point = -1, std::string tag = {})
        : id_(SpanRecorder::global().begin(name, layer, point,
                                           std::move(tag)))
    {
    }
    ~ScopedSpan() { SpanRecorder::global().end(id_, cycles_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    void setCycles(std::uint64_t cycles) { cycles_ = cycles; }

  private:
    int id_;
    std::uint64_t cycles_ = 0;
};

/** Self time (seconds) of every span, aligned with @p spans. */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** "" when every span lies inside its parent and no self time is
 *  negative; otherwise a description of the first violation. */
std::string checkNesting(const std::vector<Span> &spans);

/** Chrome trace-event JSON (complete events, microsecond integers). */
std::string renderChromeTrace(const std::vector<Span> &spans);

} // namespace perfbench

#endif // SPECSIM_PERFBENCH_SPANS_HH
