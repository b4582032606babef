// Timed-delivery recovery for clock beacons under partial synchrony.
//
// Under the classic transport every clock beacon arrives exactly one pulse
// after it was sent, so a receiver can treat its inbox as "everyone's value
// as of the previous pulse". Under a Net_model beacons arrive up to delta
// pulses late or not at all. Recovery divides the pulse stream into frames of
// delta pulses: a clock value is held for a whole frame, broadcast on every
// pulse of it, and the quorum rule steps only at frame boundaries. The first
// copy sent in frame T arrives by the first pulse of frame T+1 — a transport
// guarantee, independent of jitter — so under reorder alone every boundary
// step sees every live sender's frame-T value and lockstep is deterministic.
// The cache adds two recovery behaviors on top:
//
//   bridging       the freshest beacon per sender is remembered, so when all
//                  of a frame's copies are lost the sender still votes with
//                  its last delivered value, staleness-normalized: a beacon
//                  from frame T observed at a boundary entering frame C
//                  represents (value + (C-1-T)) mod M in steady state (one
//                  increment per frame).
//   expiry         entries staler than delta frames stop voting; a sender
//                  that goes silent (crash, partition) fades out of the
//                  quorum within delta frames, and a symmetric blackout
//                  freezes every honest clock in place (Clock_core's
//                  insufficient-evidence hold) until delivery heals.
//
// Delivery later than delta pulses violates the engine's transport contract
// (the transport stamps sent_at itself, so not even a Byzantine sender can
// forge it): observe() throws Contract_error naming the offending edge.
#ifndef GA_CLOCK_BEACON_CACHE_H
#define GA_CLOCK_BEACON_CACHE_H

#include <vector>

#include "common/ids.h"

namespace ga::clock {

class Beacon_cache {
public:
    /// Cache for `self` among n processors, clock period M = `period`,
    /// delivery bound `delta` (>= 1). delta = 1 makes frames single pulses
    /// and reproduces the classic transport view exactly.
    Beacon_cache(common::Processor_id self, int n, int period, int delta);

    /// Record a beacon from `from` carrying clock value `value`, transport
    /// timestamp `sent_at`, observed at pulse `now`. Beacons from invalid or
    /// self ids and values outside [0, period) are ignored; the freshest
    /// sent_at per sender wins (first wins on ties, i.e. same-pulse Byzantine
    /// duplicates). Throws Contract_error naming the edge when the age
    /// now - sent_at - 1 falls outside [0, delta).
    void observe(common::Processor_id from, int value, common::Pulse sent_at, common::Pulse now);

    /// Staleness-normalized values of all live entries at the frame boundary
    /// `now` (now % delta == 0), ordered by sender id — the `received`
    /// vector Clock_core::step expects at this boundary. The vector is the
    /// cache's own scratch, valid until the next collect().
    [[nodiscard]] const std::vector<int>& collect(common::Pulse now);

    /// True when `now` is a frame boundary, i.e. a pulse at which the quorum
    /// rule steps (the boot pulse 0 is not one: nothing was in transit).
    [[nodiscard]] bool is_boundary(common::Pulse now) const
    {
        return now > 0 && now % delta_ == 0;
    }

    /// Forget everything (transient fault: cached beacons are state).
    void clear();

    [[nodiscard]] int delta() const { return delta_; }

private:
    struct Entry {
        bool valid = false;
        int value = 0;
        common::Pulse sent_at = 0;
    };

    common::Processor_id self_;
    int period_;
    int delta_;
    std::vector<Entry> entries_; ///< indexed by sender
    std::vector<int> collected_; ///< collect()'s result, capacity reused
};

} // namespace ga::clock

#endif // GA_CLOCK_BEACON_CACHE_H
