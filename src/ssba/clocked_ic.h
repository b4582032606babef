// The clocked interactive-consistency schedule: §4's composition of a
// self-stabilizing Byzantine clock (Clock_core, stepped through a
// Beacon_cache) with a non-stabilizing agreement restarted whenever the
// clock wraps to 1, run as `phases` back-to-back IC activations per period.
// Ssba_processor runs one per period (E3), pipeline::Pipeline_processor four
// per batch; both see only per-activation hooks (Clocked_ic_client).
//
// Wire format per pulse: u32 clock | u8 has_section | [u8 phase | u32 round |
// length-prefixed section payload]. A phase of `rounds` send rounds occupies
// rounds+1 clock slots (the extra slot delivers the final round), so the
// schedule occupies clocks 1..phases(rounds+1), its last delivery landing at
// clock phases(rounds+1). The period must add at least the one wrap slot,
// clock 0, which is idle; clocks past the last phase idle too. An activation
// starts whenever the clock enters its first slot, so after any transient
// fault the next clock wrap starts a clean schedule — the composition is
// self-stabilizing (Lemmas 2 and 3).
//
// Under an adversarial Net_model (delta > 1) each clock slot stretches to a
// frame of delta pulses (see Beacon_cache): the clock steps at frame
// boundaries, a round's section is minted exactly once at its frame's
// boundary and retransmitted on the frame's remaining pulses, and received
// sections are buffered across pulses (newest round per sender, current
// phase only) until the round's delivery boundary. The frame's first copy is
// guaranteed to arrive before the next boundary, so reorder/jitter alone
// never loses a section; retransmissions drive the per-edge-round residual
// loss under drop probability p toward p^delta. All period arithmetic stays
// in slot units — one period takes period * delta engine pulses.
#ifndef GA_SSBA_CLOCKED_IC_H
#define GA_SSBA_CLOCKED_IC_H

#include <array>
#include <memory>
#include <vector>

#include "bft/ic_select.h"
#include "clock/beacon_cache.h"
#include "clock/clock_core.h"
#include "common/shared_payload.h"
#include "sim/processor.h"
#include "telemetry/telemetry.h"

namespace ga::ssba {

/// One received pulse message as a replica reads it (the wire format above).
/// `section` views bytes of the parsed payload.
struct Pulse_message {
    int clock = 0;
    bool has_section = false;
    int phase = 0;
    common::Round round = 0;
    common::Byte_view section;
};

/// Parses a pulse message with bounds-checked reads, never throwing on
/// Byzantine bytes. False when not even the clock beacon decodes;
/// has_section only when a whole section follows with nothing trailing.
bool parse_pulse_message(common::Byte_view payload, Pulse_message& out);

/// What the schedule asks of the mechanism it runs. Every hook runs once per
/// activation (or per clock jump), never per message.
class Clocked_ic_client {
public:
    /// The value to propose to activation `phase`, which starts at pulse
    /// `now`. `after_jump` is true when the clock jumped into it at this
    /// pulse instead of stepping one slot.
    virtual bft::Value activation_input(int phase, common::Pulse now, bool after_jump) = 0;

    /// Activation `phase` finished at pulse `now`; `session` is done.
    virtual void activation_done(int phase, const bft::Ic_session& session,
                                 common::Pulse now) = 0;

    /// The clock jumped at this pulse's boundary: the activation in flight
    /// (and anything that spans it) is lost.
    virtual void clock_jumped() {}

    /// Span the next activation's "ic" span nests under (0 = a track root);
    /// read right after activation_input.
    [[nodiscard]] virtual std::int64_t span_parent() const { return 0; }

protected:
    ~Clocked_ic_client() = default;
};

class Clocked_ic {
public:
    /// Send rounds of one activation under `factory` for an (n, f) system.
    static int rounds_of(const bft::Ic_factory& factory, int n, int f);

    /// Schedule for processor `self` of n (f Byzantine): `phases` IC
    /// activations per clock period, each built by `factory`; `period` must
    /// be at least phases * (rounds + 1) + 1. `delta` must match the
    /// engine's Net_model delivery bound (1 = §4.1's next-pulse rule).
    Clocked_ic(common::Processor_id self, int n, int f, int phases, int period,
               bft::Ic_factory factory, common::Rng clock_rng, int delta = 1);

    /// One pulse: read the inbox, step the clock, run the client's hooks for
    /// any activation that starts or finishes, and broadcast this pulse's
    /// message.
    void on_pulse(sim::Pulse_context& ctx, Clocked_ic_client& client);

    /// Transient fault: an arbitrary clock value (drawn from `rng`), no
    /// session and nothing buffered or in flight.
    void corrupt(common::Rng& rng);

    /// Restart the session on `input` (the factory builds it when there is
    /// none). The schedule calls it at every activation start; called from
    /// outside, it is a transient fault: a session in arbitrary progress.
    void restart_session(bft::Value input);

    [[nodiscard]] int clock() const { return clock_.value(); }
    [[nodiscard]] int period() const { return clock_.period(); }

    /// Ordinal of the most recently started IC activation (1-based, counted
    /// whether or not telemetry is attached). Evidence chains cite it to tie
    /// a verdict to the activation that agreed on it.
    [[nodiscard]] std::int64_t activation_seq() const { return activation_seq_; }

    /// Attach a telemetry sink (nullptr detaches); the `ic.*` and clock-hold
    /// hooks reduce to a pointer test when detached.
    void set_telemetry(telemetry::Telemetry_sink* sink)
    {
        telemetry_ = sink;
        tracer_ = sink != nullptr ? sink->tracer() : nullptr;
    }

private:
    void reset_section_buffer(int phase);
    /// An empty pool buffer to mint this pulse's message into; its slot is
    /// left in minted_. See pulse_buffers_.
    common::Bytes& mint_buffer();

    common::Processor_id self_;
    int n_;
    int f_;
    int phases_;
    bft::Ic_factory factory_;
    int rounds_;
    clock::Clock_core clock_;
    clock::Beacon_cache cache_;

    std::unique_ptr<bft::Ic_session> session_; ///< restarted at every activation

    // Pulse messages are minted into a few recycled buffers. A buffer is
    // refilled only once use_count() reads 1, i.e. once every in-flight copy
    // and every peer's section buffer has released it; when none is free a
    // slot gets a fresh buffer and the old one lives on with its holders.
    static constexpr std::size_t k_pulse_buffers = 4;
    std::array<common::Shared_payload, k_pulse_buffers> pulse_buffers_;
    std::size_t minted_ = 0; ///< slot of the most recent mint
    // The (phase, round) section message last minted, re-sent on the
    // frame's retransmit pulses and never refilled while it is current.
    // last_sent_section_ views its section for self-delivery (the Session
    // contract includes the sender's own payload).
    int last_sent_phase_ = -1;
    common::Round last_sent_round_ = -1;
    int last_sent_buffer_ = -1; ///< slot in pulse_buffers_, -1 = none
    common::Byte_view last_sent_section_;
    int last_slot_ = -1; ///< gates session creation to actual slot entry

    // A section decoded from this pulse's inbox, awaiting the buffer fold.
    // `message` points into the inbox (stable for the whole on_pulse call);
    // `section` views bytes of its payload.
    struct Parked {
        const sim::Message* message;
        int phase;
        common::Round round;
        common::Byte_view section;
    };
    std::vector<Parked> parked_; ///< refilled every pulse, capacity reused

    // Cross-pulse section buffer, one slot per sender: the newest round
    // heard within the current phase (late retransmit copies of an already
    // delivered round lose to it and are ignored). Sections are never
    // copied: a slot's `section` views bytes of the message whose handle
    // `owner` holds, so the view stays valid until the slot is replaced or
    // reset.
    struct Buffered {
        common::Round round = -1;
        common::Shared_payload owner;
        common::Byte_view section;
    };
    int buf_phase_ = -1;
    std::vector<Buffered> buf_;
    bft::Round_payloads delivery_; ///< reused for every deliver_round call

    std::int64_t activation_seq_ = 0;

    // ---- Telemetry (observer-only; no effect on the schedule).
    telemetry::Telemetry_sink* telemetry_ = nullptr;
    telemetry::Tracer* tracer_ = nullptr;
    common::Pulse ic_started_at_ = -1; ///< pulse the in-flight activation started
    bool tel_holding_ = false;         ///< inside a clock-hold streak
    std::int64_t ic_span_ = 0;         ///< open span of the in-flight activation
};

} // namespace ga::ssba

#endif // GA_SSBA_CLOCKED_IC_H
