// Causal tracing over the pulse clock: spans with parent/child links.
//
// Counters and the flat event journal (telemetry.h) answer "how much" and
// "what happened"; the tracer answers "inside what". Every span is a
// pulse-denominated interval on one group's engine clock — fabric run →
// (shard, epoch) → play window → play → IC round → batch-edge audit →
// rebalance quiesce — linked to its parent by id, so an exported trace
// (trace_export.h renders Chrome trace-event JSON) shows the full causal
// nesting of a run in Perfetto.
//
// The tracer obeys the same three rules as the sink it rides in:
// deterministic (begin/end are engine pulses, ids are allocation order under
// the deterministic schedule — never wall clock), non-perturbing (a null
// Tracer* compiles hook sites down to a pointer test), and cheap (recording
// appends to a vector; no lookup, no locking — single-writer like the sink).
#ifndef GA_TELEMETRY_TRACER_H
#define GA_TELEMETRY_TRACER_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ga::telemetry {

using Tick = std::int64_t;

/// One pulse-denominated interval. `parent` is the id of the enclosing span
/// (0 = root of its (shard, epoch) track); `end` is -1 while the span is
/// open — the exporter clamps still-open spans (e.g. a window killed by a
/// transient fault) to the track's last tick.
struct Span {
    std::int64_t id = 0;
    std::int64_t parent = 0;
    std::string name;
    int shard = -1; ///< stamped from the tracer scope at begin time
    int epoch = 0;
    Tick begin = 0;
    Tick end = -1;
    std::int64_t a = 0; ///< span-specific detail (window index, phase, ...)
    std::int64_t b = 0;
    std::string note;

    friend bool operator==(const Span&, const Span&) = default;
};

/// Span recorder for one (shard, epoch) track. Like Telemetry_sink it is
/// single-writer: one group's reference replica and the group write it between
/// the engine's worker-pool barriers, so span ids and order are the
/// deterministic schedule order on any thread count.
class Tracer {
public:
    Tracer() = default;
    Tracer(int shard, int epoch) : shard_{shard}, epoch_{epoch} {}

    /// Re-scope (elastic carry): later spans are stamped with the new
    /// (shard, epoch); already recorded spans keep their original tags.
    void set_scope(int shard, int epoch)
    {
        shard_ = shard;
        epoch_ = epoch;
    }

    /// Open a span; returns its id (parent 0 = track root). Ids are 1-based
    /// and dense in allocation order.
    std::int64_t begin_span(std::string_view name, Tick at, std::int64_t parent = 0,
                            std::int64_t a = 0, std::int64_t b = 0, std::string note = {});

    /// Close an open span (no-op on id 0, unknown ids, or a span already
    /// closed — forgiving so hook sites never need bookkeeping branches).
    void end_span(std::int64_t id, Tick at);

    /// Record an already-completed span in one call (e.g. the k play spans a
    /// batch edge attributes retroactively). Returns its id.
    std::int64_t add_span(std::string_view name, Tick begin, Tick end, std::int64_t parent = 0,
                          std::int64_t a = 0, std::int64_t b = 0, std::string note = {});

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
    [[nodiscard]] bool empty() const { return spans_.empty(); }

private:
    int shard_ = -1;
    int epoch_ = 0;
    std::vector<Span> spans_;
};

} // namespace ga::telemetry

#endif // GA_TELEMETRY_TRACER_H
