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
// This processor is the four-phase client of ssba::Clocked_ic, which owns
// the clock, the wire format, the section buffer and the session. A batch
// occupies clocks 1..4(ic_rounds+1) and the wrap slot, clock 0, is the idle
// window edge; a batch starts whenever the clock reaches 1, so after any
// transient fault the next wrap starts a clean one. The executive ledger is
// deliberately outside the corruption model: §4 notes the executive service
// is application dependent "and therefore should be made self-stabilizing on
// a case basis".
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
#include "pipeline/batch_audit.h"
#include "sim/processor.h"
#include "ssba/clocked_ic.h"
#include "telemetry/telemetry.h"

namespace ga::pipeline {

/// The outcome phase's value: u32 n, then one u32 action per agent.
common::Bytes encode_profile(const game::Pure_profile& profile);

/// Decodes an outcome-phase value into `profile` (its capacity reused);
/// false unless it holds exactly one legitimate action per agent of the
/// spec's game, and then `profile` is unspecified.
bool decode_profile(common::Byte_view bytes, const authority::Game_spec& spec,
                    game::Pure_profile& profile);

class Pipeline_processor final : public sim::Processor, private ssba::Clocked_ic_client {
public:
    /// Clock period of the 4-phase schedule plus the one wrap slot (clock
    /// 0). k-invariant: k only scales the payloads.
    static int clock_period_for(int ic_rounds) { return 4 * (ic_rounds + 1) + 1; }

    /// The pipeline audits pure strategies (the mixed tier is exercised
    /// through Local_authority); the batch edge plays the role of the §5.3
    /// window edge. A null tamper is honest protocol; a Tamper equivocates
    /// inside the sealed vector (tests). `delta` must match the engine's
    /// Net_model delivery bound (1 = the one-slot delivery wheel, §4.1's
    /// next-pulse rule).
    Pipeline_processor(common::Processor_id id, int n, int f, authority::Game_spec spec, int k,
                       std::unique_ptr<authority::Agent_behavior> behavior,
                       std::unique_ptr<authority::Punishment_scheme> punishment,
                       common::Rng rng, bft::Ic_factory ic_factory,
                       std::optional<Tamper> tamper = std::nullopt, int delta = 1);

    void on_pulse(sim::Pulse_context& ctx) override { schedule_.on_pulse(ctx, *this); }
    void corrupt(common::Rng& rng) override;

    [[nodiscard]] int clock() const { return schedule_.clock(); }
    [[nodiscard]] std::int64_t batches_completed() const { return batches_; }
    [[nodiscard]] const std::vector<authority::Play_record>& plays() const { return plays_; }
    [[nodiscard]] const authority::Executive_service& executive() const { return executive_; }

    /// Attach a telemetry sink (nullptr detaches). Only one replica per group
    /// — the group's reference slot — carries a sink, so the replicated
    /// schedule is journaled exactly once and never perturbed: all hook sites
    /// reduce to a pointer test when detached. The sink's tracer (present
    /// when the sink was built traced) is cached alongside so span hooks are
    /// the same pointer test.
    void set_telemetry(telemetry::Telemetry_sink* sink)
    {
        telemetry_ = sink;
        tracer_ = sink != nullptr ? sink->tracer() : nullptr;
        schedule_.set_telemetry(sink);
    }

private:
    enum class Phase : int { outcome = 0, commit = 1, reveal = 2, foul = 3 };

    // ---- Schedule hooks, once per activation (Clocked_ic_client): the
    // value this processor proposes to phase `phase`'s IC activation, and
    // the agreed vector once it completes.
    bft::Value activation_input(int phase, common::Pulse now, bool after_jump) override;
    void activation_done(int phase, const bft::Ic_session& session, common::Pulse now) override;
    void clock_jumped() override { window_ = Window_progress::none; }
    [[nodiscard]] std::int64_t span_parent() const override { return window_span_; }

    void process_outcome_result(const std::vector<bft::Value>& agreed);
    void process_commit_result(const std::vector<bft::Value>& agreed, common::Pulse now);
    void process_reveal_result(const std::vector<bft::Value>& agreed, common::Pulse now);
    void process_foul_result(const std::vector<bft::Value>& agreed, common::Pulse now);

    /// Drop the in-flight batch (batch edge and transient faults).
    void clear_batch();

    int n_;
    ssba::Clocked_ic schedule_; ///< clock, wire, sections, session

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
    Batch_reveal reveal_;                             ///< decode scratch, one agent's vector
    std::vector<std::vector<Reveal_slot>> reveals_;   ///< [play][agent] opened slots
    std::vector<authority::Verdict> my_verdicts_;     ///< local batch-edge audit
    /// How far this replica has followed the current window: its clock
    /// stepped into the commit activation (opened), then the commit and
    /// reveal results each carried this replica's own proposal, on a clock
    /// that advanced one slot per step throughout. Only a revealed window is
    /// audited (see the foul phase); clear_batch and any clock jump reset it.
    enum class Window_progress { none, opened, committed, revealed };
    Window_progress window_ = Window_progress::none;
    std::vector<authority::Play_record> plays_;
    std::int64_t batches_ = 0;

    // ---- Telemetry (observer-only; no effect on the schedule).
    telemetry::Telemetry_sink* telemetry_ = nullptr;
    telemetry::Tracer* tracer_ = nullptr;
    /// Open span of the current batch window (0 = none); IC spans nest
    /// under it.
    std::int64_t window_span_ = 0;
    common::Pulse batch_opened_at_ = -1; ///< commit-phase open pulse
    bool published_this_batch_ = false;  ///< reveal published k plays
};

} // namespace ga::pipeline

#endif // GA_PIPELINE_PIPELINE_PROCESSOR_H
