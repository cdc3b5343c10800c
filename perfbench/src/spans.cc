/**
 * @file
 * Span recorder, self-time accounting and Chrome trace rendering.
 */

#include "spans.hh"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "sim/service/json.hh"

namespace perfbench
{

SpanRecorder &
SpanRecorder::global()
{
    static SpanRecorder recorder;
    return recorder;
}

std::int64_t
SpanRecorder::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

void
SpanRecorder::clear()
{
    if (!open_.empty())
        throw std::logic_error("SpanRecorder::clear with open spans");
    spans_.clear();
}

int
SpanRecorder::begin(const char *name, const char *layer,
                    std::int64_t point, std::string tag)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.layer = layer;
    s.tag = std::move(tag);
    s.parent = open_.empty() ? -1 : open_.back();
    s.point = point >= 0 || s.parent < 0 ? point : spans_[s.parent].point;
    s.t0 = now();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
}

void
SpanRecorder::end(int id, std::uint64_t cycles)
{
    if (id < 0)
        return;
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("SpanRecorder::end out of order");
    open_.pop_back();
    Span &s = spans_[id];
    s.t1 = now();
    s.cycles = cycles;
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].t1 - spans[i].t0;
    for (const Span &s : spans)
        if (s.parent >= 0)
            self[s.parent] -= s.t1 - s.t0;
    std::vector<double> out(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[i] = static_cast<double>(self[i]) * 1e-9;
    return out;
}

std::string
checkNesting(const std::vector<Span> &spans)
{
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.t1 < s.t0)
            return "span " + std::to_string(i) + " ends before it starts";
        if (s.parent < 0)
            continue;
        const Span &p = spans[s.parent];
        if (s.t0 < p.t0 || s.t1 > p.t1)
            return "span " + std::to_string(i) + " (" + s.name +
                   ") leaves its parent " + p.name;
    }
    const std::vector<double> self = selfTimes(spans);
    for (std::size_t i = 0; i < self.size(); ++i)
        if (self[i] < 0.0)
            return "span " + std::to_string(i) + " (" + spans[i].name +
                   ") has negative self time";
    return "";
}

std::string
renderChromeTrace(const std::vector<Span> &spans)
{
    using specint::service::Json;
    // Start order (ties: parent first) keeps timestamps monotonic.
    std::vector<std::size_t> order(spans.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return spans[a].t0 < spans[b].t0;
                     });
    const std::int64_t origin = spans.empty() ? 0 : spans[order[0]].t0;

    Json events = Json::array();
    Json meta = Json::object();
    meta.set("ph", Json::str("M"));
    meta.set("pid", Json::uinteger(1));
    meta.set("name", Json::str("process_name"));
    Json meta_args = Json::object();
    meta_args.set("name", Json::str("specsim_perfbench"));
    meta.set("args", std::move(meta_args));
    events.push(std::move(meta));
    for (const std::size_t i : order) {
        const Span &s = spans[i];
        const std::int64_t ts = (s.t0 - origin) / 1000;
        Json args = Json::object();
        args.set("span", Json::uinteger(i));
        args.set("parent", Json::integer(s.parent));
        args.set("point", Json::integer(s.point));
        args.set("tag", Json::str(s.tag));
        args.set("cycles", Json::uinteger(s.cycles));
        Json ev = Json::object();
        ev.set("ph", Json::str("X"));
        ev.set("pid", Json::uinteger(1));
        ev.set("tid", Json::uinteger(1));
        ev.set("name", Json::str(s.name));
        ev.set("cat", Json::str(s.layer));
        ev.set("ts", Json::integer(ts));
        ev.set("dur", Json::integer((s.t1 - origin) / 1000 - ts));
        ev.set("args", std::move(args));
        events.push(std::move(ev));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    return doc.dump() + "\n";
}

} // namespace perfbench
