// Execution tracing: a bounded in-memory log of per-pulse traffic summaries,
// for debugging protocol schedules and for the examples' narrations. The
// trace observes the engine from outside (no processor cooperation needed),
// so it can never perturb the system under test.
#ifndef GA_SIM_TRACE_H
#define GA_SIM_TRACE_H

#include <deque>
#include <iosfwd>

#include "sim/engine.h"

namespace ga::sim {

/// Traffic summary of one pulse. The fault columns are per-pulse deltas of
/// the engine's Net_model accounting (all 0 under the clean model).
struct Pulse_trace {
    common::Pulse pulse = 0;
    std::int64_t messages = 0;      ///< messages delivered into this pulse
    std::int64_t payload_bytes = 0; ///< their total payload size
    std::int64_t dropped = 0;       ///< messages the Net_model lost this pulse
    std::int64_t delayed = 0;       ///< messages deferred past the next pulse
    std::int64_t deferred = 0;      ///< in flight after this pulse, due past the next one
};

/// Records per-pulse traffic deltas; keeps the most recent `capacity` pulses.
class Trace {
public:
    explicit Trace(std::size_t capacity = 1024);

    /// Sample the engine *after* a run_pulse() call; computes the delta from
    /// the previous sample. Call once per pulse for meaningful per-pulse rows.
    void sample(const Engine& engine);

    [[nodiscard]] std::size_t size() const { return entries_.size(); }
    [[nodiscard]] const Pulse_trace& at(std::size_t index) const;
    [[nodiscard]] const std::deque<Pulse_trace>& entries() const { return entries_; }

    /// Entries evicted by the capacity bound since construction — a non-zero
    /// value means the window no longer starts at the first sampled pulse.
    [[nodiscard]] std::int64_t dropped_oldest() const { return dropped_oldest_; }

    /// Busiest recorded pulse by message count (tie: earliest).
    [[nodiscard]] Pulse_trace busiest() const;

    /// Mean messages per recorded pulse.
    [[nodiscard]] double mean_messages() const;

    /// Tabular dump (pulse, messages, bytes, net faults); notes how many
    /// older rows the capacity bound evicted.
    void print(std::ostream& out) const;

private:
    std::size_t capacity_;
    std::deque<Pulse_trace> entries_;
    Traffic_stats last_{};
    std::int64_t dropped_oldest_ = 0;
};

} // namespace ga::sim

#endif // GA_SIM_TRACE_H
