// Standalone self-stabilizing clock-synchronization processor: Clock_core on
// the simulator transport. Used directly by the convergence/closure tests and
// by bench E2; the SSBA composition (ssba::Clocked_ic) embeds Clock_core
// itself to bundle clock and agreement traffic into one payload per pulse.
//
// Under an adversarial Net_model (delta > 1) the processor recovers lockstep
// from timed delivery through a Beacon_cache: the clock ticks once per
// delta-pulse frame, beacons are rebroadcast on every pulse of the frame, and
// the quorum rule steps at frame boundaries where the frame's first copy is
// guaranteed delivered; dropped beacons are bridged staleness-normalized for
// up to delta frames. With delta = 1 the frames are single pulses and the
// classic behavior is reproduced exactly.
#ifndef GA_CLOCK_CLOCK_SYNC_H
#define GA_CLOCK_CLOCK_SYNC_H

#include <optional>

#include "clock/beacon_cache.h"
#include "clock/clock_core.h"
#include "sim/processor.h"

namespace ga::clock {

/// This processor's wire format: one u32 clock value per message. Decoding
/// never throws; anything but exactly four bytes holding a value in
/// [0, period) is no beacon.
common::Bytes encode_clock(int value);
std::optional<int> decode_clock(const common::Bytes& payload, int period);

class Clock_sync_processor final : public sim::Processor {
public:
    /// `delta` must match the engine's Net_model delivery bound.
    Clock_sync_processor(common::Processor_id id, int n, int f, int period, common::Rng rng,
                         int initial_value = 0, int delta = 1);

    [[nodiscard]] int clock() const { return core_.value(); }

    void on_pulse(sim::Pulse_context& ctx) override;
    void corrupt(common::Rng& rng) override;

private:
    Clock_core core_;
    Beacon_cache cache_;
};

} // namespace ga::clock

#endif // GA_CLOCK_CLOCK_SYNC_H
