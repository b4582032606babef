// Seeded adversarial network model: partial synchrony as a pure function.
//
// §4.1's synchronous rule — a message sent at pulse t is delivered at pulse
// t+1, always, to everyone — is the delta = 1 case of §2's partial-synchrony
// bound. Net_model is the fault-injection layer between
// Pulse_context::broadcast and inbox delivery that implements that bounded-
// delay model for any delta:
//
//   delay      every message is assigned a delivery delay in [1, delta]
//              (sent at t, delivered at some t+d with d <= delta) — with
//              probability `jitter` the delay is drawn uniformly from
//              [2, delta], otherwise the message is prompt (d = 1);
//   reorder    differing delays reorder messages within the delta window,
//              and `shuffle` additionally applies a deterministic
//              permutation to each recipient's per-pulse inbox;
//   loss       every message is independently dropped with probability
//              `drop`;
//   windows    burst/partition intervals [begin, end): a window with an
//              empty `isolated` set is a full outage (every message sent
//              during the window is lost); a non-empty set cuts exactly the
//              edges between the isolated processors and the rest, in both
//              directions. Delivery heals the pulse the window closes.
//
// Every decision is a pure function of (seed, pulse, edge, message index)
// through common::derive_seed — never of iteration order, thread count, or
// any generator state — so a run under an adversarial net is replayable from
// its config alone and bit-identical across Engine_config{threads}. This
// extends the PR 4 determinism contract from "thread count never changes the
// result" to "thread count never changes the result, even under timed
// delivery, loss, and partitions".
//
// The default-constructed model is clean (delta = 1, no loss, no shuffle, no
// windows): the engine's delivery wheel then has one slot and every message
// is delivered at the next pulse without consulting verdict().
#ifndef GA_SIM_NET_MODEL_H
#define GA_SIM_NET_MODEL_H

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"

namespace ga::sim {

/// One burst/partition interval, active for pulses in [begin, end). An empty
/// `isolated` set is a full outage; otherwise messages crossing the cut
/// between `isolated` and the rest are lost (both directions). Membership is
/// evaluated at *send* time: a message sent while the window is active is
/// cut, one sent after the window closes is delivered normally.
struct Net_window {
    common::Pulse begin = 0;
    common::Pulse end = 0;
    std::vector<common::Processor_id> isolated;
};

/// What the network decided for one message.
struct Net_verdict {
    bool dropped = false;
    int delay = 1; ///< delivery pulse = send pulse + delay, in [1, delta]
};

struct Net_model {
    int delta = 1;          ///< delivery bound in pulses (>= 1); 1 = classic synchrony
    double jitter = 1.0;    ///< P(delay > 1) when delta > 1; drawn uniform in [2, delta]
    double drop = 0.0;      ///< independent per-message loss probability
    bool shuffle = false;   ///< deterministic per-pulse inbox permutation
    std::uint64_t seed = 0; ///< the net's own randomness stream (never the engine Rng)
    std::vector<Net_window> windows;

    /// True when the model is the identity transport: every delay is 1, so
    /// the engine skips the per-message verdict (delivery still runs through
    /// its one-slot wheel).
    [[nodiscard]] bool is_clean() const;

    /// Throws Contract_error on out-of-range knobs (delta, probabilities,
    /// window bounds, isolated ids outside [0, n)).
    void validate(int n) const;

    /// The fate of message number `index` of `from`'s pulse-`sent_at` outbox
    /// addressed to `to`. Pure: depends only on (seed, sent_at, from, to,
    /// index) and the window table.
    [[nodiscard]] Net_verdict verdict(common::Pulse sent_at, common::Processor_id from,
                                      common::Processor_id to, int index) const;

    /// True when an active window cuts the (from -> to) edge at `sent_at`.
    [[nodiscard]] bool cut(common::Pulse sent_at, common::Processor_id from,
                           common::Processor_id to) const;

    /// The generator for recipient `to`'s inbox permutation at `pulse`
    /// (consumed only when `shuffle` is set). Pure per (seed, pulse, to).
    [[nodiscard]] common::Rng shuffle_stream(common::Pulse pulse,
                                             common::Processor_id to) const;
};

} // namespace ga::sim

#endif // GA_SIM_NET_MODEL_H
