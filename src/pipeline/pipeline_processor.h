// Replicated game-authority processor: k plays per BA activation.
//
// A self-stabilizing clock partitions its period into four phases per k-play
// batch, and each phase runs one interactive-consistency activation (§4's
// SSBA composition) agreeing on k plays' worth of data. At k = 1 this is the
// paper's §3.3 play — one outcome, commit, reveal and foul activation per
// play, the commitment a one-leaf Merkle vector:
//
//   phase 0  outcome      IC on the previous outcome ("the play starts by
//                         announcing the outcome"); majority re-aligns
//                         replicas after transient faults
//   phase 1  batch commit agents seal their next k action commitments under
//                         one Merkle root (pipeline/play_batcher.h); IC on
//                         the set of roots
//   phase 2  batch reveal IC on the whole opening vectors; every replica
//                         rebuilds each agent's tree from the k agreed
//                         openings (one O(k) check per agent opens all
//                         positions at once), then opens plays one-by-one
//                         from the agreed vectors: play j is published with
//                         verified actions verbatim and the reference
//                         cascade's prescription substituted elsewhere
//   phase 3  foul         batch-edge audit (pipeline/batch_audit.h), IC on
//                         the foul bitmasks; the agreed foul set N' is
//                         handed to the executive replica for punishment
//
// Wire format per pulse: u32 clock | u8 has_section | [u8 phase | u32 round |
// length-prefixed section payload]. A phase of `ic_rounds` send rounds
// occupies ic_rounds+1 clock slots (the extra slot delivers the final round),
// and the clock period adds 2 slots of wrap slack — 4(f+2)+2 in the EIG
// case. A batch starts whenever the clock reaches 1, so after any transient
// fault the next clock wrap starts a clean batch — the middleware is
// self(ish)-stabilizing. The executive ledger is deliberately outside the
// corruption model: §4 notes the executive service is application dependent
// "and therefore should be made self-stabilizing on a case basis".
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
// in slot units — one batch takes period * delta engine pulses.
//
// Canonical publication semantics (every k, including k = 1): a play's
// outcome is published — Play_record::completed_at stamped, costs booked —
// at the reveal phase, before the foul phase punishes; so the play in which
// an expulsion lands still books its costs, and a batch a transient fault
// disrupts mid-flight is skipped rather than published with substitutes.
//
// Steady state completes k plays per period — the full k-fold pulse
// amortization over the per-play (k = 1) schedule. The cost is §5.3's:
// verdicts (and thus punishment) are delayed to the batch edge, so a deviator
// or equivocator is exposed for at most k plays — detection delayed, never
// lost. Audits compare against the batch's deterministic best-response
// cascade (see play_batcher.h), which is what sealed-ahead commitments make
// lawful; a detected vector mismatch voids the whole window (prescriptions
// substituted), since without per-position proofs no position of a broken
// vector is trustworthy.
#ifndef GA_PIPELINE_PIPELINE_PROCESSOR_H
#define GA_PIPELINE_PIPELINE_PROCESSOR_H

#include <memory>

#include "authority/authority_group.h"
#include "bft/ic_select.h"
#include "clock/beacon_cache.h"
#include "clock/clock_core.h"
#include "common/shared_payload.h"
#include "pipeline/batch_audit.h"
#include "sim/processor.h"
#include "telemetry/telemetry.h"

namespace ga::pipeline {

class Pipeline_processor final : public sim::Processor {
public:
    /// Clock period of the 4-phase schedule plus wrap slack. k-invariant:
    /// k only scales the payloads.
    static int clock_period_for(int ic_rounds) { return 4 * (ic_rounds + 1) + 2; }

    /// Send rounds of one activation under `factory` for an (n, f) system.
    static int ic_rounds_of(const bft::Ic_factory& factory, int n, int f);

    /// The pipeline audits pure strategies (the mixed tier is exercised
    /// through Local_authority); the batch edge plays the role of the §5.3
    /// window edge. A null tamper is honest protocol; a Tamper equivocates
    /// inside the sealed vector (tests). `delta` must match the engine's
    /// Net_model delivery bound (1 = the classic clean transport).
    Pipeline_processor(common::Processor_id id, int n, int f, authority::Game_spec spec, int k,
                       std::unique_ptr<authority::Agent_behavior> behavior,
                       std::unique_ptr<authority::Punishment_scheme> punishment,
                       common::Rng rng, bft::Ic_factory ic_factory,
                       std::optional<Tamper> tamper = std::nullopt, int delta = 1);

    void on_pulse(sim::Pulse_context& ctx) override;
    void corrupt(common::Rng& rng) override;

    [[nodiscard]] int clock() const { return clock_.value(); }
    [[nodiscard]] std::int64_t batches_completed() const { return batches_; }
    [[nodiscard]] const std::vector<authority::Play_record>& plays() const { return plays_; }
    [[nodiscard]] const authority::Executive_service& executive() const { return executive_; }

    /// Attach a telemetry sink (nullptr detaches). Only one replica per group
    /// — the group's reference slot — carries a sink, so the replicated
    /// schedule is journaled exactly once and never perturbed: all hook sites
    /// reduce to a pointer test when detached. The sink's tracer (when
    /// enabled) is cached alongside so span hooks are the same pointer test.
    void set_telemetry(telemetry::Telemetry_sink* sink)
    {
        telemetry_ = sink;
        tracer_ = sink != nullptr ? sink->tracer() : nullptr;
    }

private:
    enum class Phase : int { outcome = 0, commit = 1, reveal = 2, foul = 3 };

    /// The value this processor proposes to phase `phase`'s IC activation.
    [[nodiscard]] bft::Value phase_input(Phase phase, common::Pulse now);

    /// Consume the agreed vector once phase `phase`'s activation completes.
    void process_phase_result(Phase phase, const std::vector<bft::Value>& agreed,
                              common::Pulse now);
    void process_outcome_result(const std::vector<bft::Value>& agreed);
    void process_commit_result(const std::vector<bft::Value>& agreed, common::Pulse now);
    void process_reveal_result(const std::vector<bft::Value>& agreed, common::Pulse now);
    void process_foul_result(const std::vector<bft::Value>& agreed, common::Pulse now);

    void reset_section_buffer(int phase);
    /// Drop the in-flight batch (batch edge and transient faults).
    void clear_batch();

    // ---- Schedule: clock, section framing, self-delivery.
    int n_;
    int f_;
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

    // ---- Batch state.
    authority::Game_spec spec_;
    std::unique_ptr<authority::Agent_behavior> behavior_;
    std::unique_ptr<authority::Punishment_scheme> punishment_;
    int k_;
    std::optional<Tamper> tamper_;
    common::Rng rng_;
    authority::Executive_service executive_;
    Play_batcher batcher_;

    game::Pure_profile previous_;               ///< replicated previous outcome
    std::vector<game::Pure_profile> cascade_;   ///< reference trajectory Q_0..Q_k
    std::vector<std::optional<Batch_root>> roots_;    ///< agreed roots per agent
    std::vector<std::vector<Reveal_slot>> reveals_;   ///< [play][agent] opened slots
    std::vector<authority::Verdict> my_verdicts_;     ///< local batch-edge audit
    std::vector<authority::Play_record> plays_;
    std::int64_t batches_ = 0;

    // ---- Telemetry (observer-only; no effect on the schedule).
    telemetry::Telemetry_sink* telemetry_ = nullptr;
    telemetry::Tracer* tracer_ = nullptr;
    common::Pulse ic_started_at_ = -1; ///< pulse the in-flight activation started
    bool tel_holding_ = false;         ///< inside a clock-hold streak
    std::int64_t ic_span_ = 0;         ///< open span of the in-flight activation
    /// Ordinal of the most recently started IC activation (1-based, counted
    /// whether or not telemetry is attached). Evidence chains cite it to tie
    /// a verdict to the activation that agreed on it.
    std::int64_t ic_activation_seq_ = 0;
    /// Open span of the current batch window (0 = none); IC spans nest
    /// under it.
    std::int64_t window_span_ = 0;
    common::Pulse batch_opened_at_ = -1; ///< commit-phase open pulse
    bool published_this_batch_ = false;  ///< reveal published k plays
};

} // namespace ga::pipeline

#endif // GA_PIPELINE_PIPELINE_PROCESSOR_H
