// Base processor for clock-scheduled sequences of IC activations.
//
// The replicated authority tier runs over the simulator on this skeleton: a
// self-stabilizing clock partitions its period into a fixed number of
// phases, each phase runs one interactive-consistency activation (§4's SSBA
// composition), and a subclass decides what value each phase agrees on and
// what to do with the agreed vector. Pipeline_processor (src/pipeline/) runs
// 4 phases per k-play batch (§3.3: outcome, commit, reveal, foul; each
// activation agrees on k plays' worth of data, and k = 1 is the paper's
// per-play schedule). The skeleton owns everything protocol-independent:
// clock value, section framing, self-delivery, and transient-fault recovery.
//
// Wire format per pulse: u32 clock | u8 has_section | [u8 phase | u32 round |
// length-prefixed section payload]. A phase of `ic_rounds` send rounds
// occupies ic_rounds+1 clock slots (the extra slot delivers the final round),
// and the clock period adds 2 slots of wrap slack so a post-fault clock wrap
// always starts a clean schedule.
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
// in slot units — one play takes period * delta engine pulses.
#ifndef GA_AUTHORITY_IC_SCHEDULE_PROCESSOR_H
#define GA_AUTHORITY_IC_SCHEDULE_PROCESSOR_H

#include <memory>

#include "bft/ic_select.h"
#include "clock/beacon_cache.h"
#include "clock/clock_core.h"
#include "common/shared_payload.h"
#include "sim/processor.h"
#include "telemetry/telemetry.h"

namespace ga::authority {

class Ic_schedule_processor : public sim::Processor {
public:
    /// Pulses per phase for an IC activation of `ic_rounds` send rounds.
    static int phase_length_for(int ic_rounds) { return ic_rounds + 1; }

    /// Clock period of an `n_phases`-phase schedule plus wrap slack.
    static int period_for(int n_phases, int ic_rounds)
    {
        return n_phases * phase_length_for(ic_rounds) + 2;
    }

    /// Send rounds of one activation under `factory` for an (n, f) system.
    static int ic_rounds_of(const bft::Ic_factory& factory, int n, int f);

    void on_pulse(sim::Pulse_context& ctx) final;
    void corrupt(common::Rng& rng) final;

    [[nodiscard]] int clock() const { return clock_.value(); }
    [[nodiscard]] int delta() const { return cache_.delta(); }

    /// Attach a telemetry sink (nullptr detaches). Only one replica per group
    /// — the harness's reference slot — carries a sink, so the replicated
    /// schedule is journaled exactly once and never perturbed: all hook sites
    /// reduce to a pointer test when detached. The sink's tracer (when
    /// enabled) is cached alongside so span hooks are the same pointer test.
    void set_telemetry(telemetry::Telemetry_sink* sink)
    {
        telemetry_ = sink;
        tracer_ = sink != nullptr ? sink->tracer() : nullptr;
    }

protected:
    /// `clock_rng` seeds only the clock core; subclasses keep their own
    /// generators so the base never perturbs their random streams. `delta`
    /// must match the engine's Net_model delivery bound.
    Ic_schedule_processor(common::Processor_id id, int n, int f, int n_phases,
                          bft::Ic_factory ic_factory, common::Rng clock_rng, int delta = 1);

    /// The value this processor proposes to phase `phase`'s IC activation.
    [[nodiscard]] virtual bft::Value phase_input(int phase, common::Pulse now) = 0;

    /// Consume the agreed vector once phase `phase`'s activation completes.
    virtual void process_phase_result(int phase, common::Pulse now) = 0;

    /// Transient-fault hook: scramble subclass state (the base already
    /// scrambles the clock and drops the in-flight activation).
    virtual void corrupt_state(common::Rng& rng) = 0;

    /// The in-flight activation's agreed vector (valid inside
    /// process_phase_result only).
    [[nodiscard]] const std::vector<bft::Value>& agreed() const
    {
        return session_->agreed_vector();
    }

    [[nodiscard]] int n() const { return n_; }
    [[nodiscard]] int f() const { return f_; }
    [[nodiscard]] int n_phases() const { return n_phases_; }
    [[nodiscard]] int ic_rounds() const { return ic_rounds_; }

    /// The attached sink, or nullptr (subclass hook sites guard on it).
    [[nodiscard]] telemetry::Telemetry_sink* telemetry() const { return telemetry_; }

    /// The attached span recorder, or nullptr.
    [[nodiscard]] telemetry::Tracer* tracer() const { return tracer_; }

    /// Ordinal of the most recently started IC activation (1-based, counted
    /// whether or not telemetry is attached — pure local bookkeeping).
    /// Evidence chains cite it to tie a verdict to the activation that
    /// agreed on it.
    [[nodiscard]] std::int64_t ic_activation_seq() const { return ic_activation_seq_; }

    /// Open span id of the subclass's current play/batch window (0 = none).
    /// Subclasses set it when a window opens so the base's IC spans nest
    /// under it; the base resets it on transient faults.
    std::int64_t current_window_span_ = 0;

private:
    void reset_section_buffer(int phase);

    int n_;
    int f_;
    int n_phases_;
    bft::Ic_factory ic_factory_;
    int ic_rounds_;
    clock::Clock_core clock_;
    clock::Beacon_cache cache_;

    std::unique_ptr<bft::Ic_session> session_;
    int last_sent_phase_ = -1;           ///< own broadcast echo (the Session
    common::Round last_sent_round_ = -1; ///< contract includes self-delivery)
    common::Bytes last_sent_payload_;
    int last_slot_ = -1; ///< gates session creation to actual slot entry

    // A section decoded from this pulse's inbox, awaiting the buffer fold.
    // `section` views bytes inside `owner`, the message's payload handle.
    struct Parked {
        common::Processor_id from;
        int phase;
        common::Round round;
        common::Shared_payload owner;
        common::Byte_view section;
    };
    std::vector<Parked> parked_; ///< refilled every pulse, capacity reused

    // Cross-pulse section buffer: the newest round heard per sender within
    // the current phase (late retransmit copies of an already delivered
    // round lose to it and are ignored). Sections are never copied: each
    // buf_section_ views bytes of the message whose handle buf_owner_ holds,
    // so the view stays valid until the slot is replaced or reset.
    int buf_phase_ = -1;
    std::vector<common::Round> buf_round_;
    std::vector<common::Shared_payload> buf_owner_;
    std::vector<common::Byte_view> buf_section_;
    bft::Round_payloads delivery_; ///< reused for every deliver_round call

    // ---- Telemetry (observer-only; no effect on the schedule).
    telemetry::Telemetry_sink* telemetry_ = nullptr;
    telemetry::Tracer* tracer_ = nullptr;
    common::Pulse ic_started_at_ = -1; ///< pulse the in-flight activation started
    bool tel_holding_ = false;         ///< inside a clock-hold streak
    std::int64_t ic_span_ = 0;         ///< open span of the in-flight activation
    std::int64_t ic_activation_seq_ = 0;
};

} // namespace ga::authority

#endif // GA_AUTHORITY_IC_SCHEDULE_PROCESSOR_H
