// Replicated game-authority processor: k plays per BA activation.
//
// One schedule on the shared Ic_schedule_processor skeleton: four phases per
// k-play batch, each activation agreeing on k plays' worth of data. At k = 1
// this is the paper's §3.3 play — one outcome, commit, reveal and foul
// activation per play, the commitment a one-leaf Merkle vector:
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
// The clock period is 4(f+2)+2 in the EIG case; a batch starts whenever the
// clock reaches 1, so after any transient fault the next clock wrap starts a
// clean batch — the middleware is self(ish)-stabilizing. The executive
// ledger is deliberately outside the corruption model: §4 notes the
// executive service is application dependent "and therefore should be made
// self-stabilizing on a case basis".
//
// Canonical publication semantics (every k, including k = 1): a play's
// outcome is published — Play_record::completed_at stamped, costs booked —
// at the reveal phase, before the foul phase punishes; so the play in which
// an expulsion lands still books its costs, and a batch a transient fault
// disrupts mid-flight is skipped rather than published with substitutes.
//
// Steady state completes k plays per 4(f+2)+2-pulse period — the full k-fold
// pulse amortization over the per-play (k = 1) schedule. The cost is §5.3's:
// verdicts (and thus punishment) are delayed to the batch edge, so a deviator
// or equivocator is exposed for at most k plays — detection delayed, never
// lost. Audits compare against the batch's deterministic best-response
// cascade (see play_batcher.h), which is what sealed-ahead commitments make
// lawful; a detected vector mismatch voids the whole window (prescriptions
// substituted), since without per-position proofs no position of a broken
// vector is trustworthy.
#ifndef GA_PIPELINE_PIPELINE_PROCESSOR_H
#define GA_PIPELINE_PIPELINE_PROCESSOR_H

#include "authority/authority_group.h"
#include "authority/ic_schedule_processor.h"
#include "pipeline/batch_audit.h"

namespace ga::pipeline {

class Pipeline_processor final : public authority::Ic_schedule_processor {
public:
    /// The schedule is k-invariant: four phases per batch, like one §3.3
    /// play — k only scales the payloads.
    static int clock_period_for(int ic_rounds) { return period_for(4, ic_rounds); }

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

    [[nodiscard]] int batch_k() const { return k_; }
    [[nodiscard]] std::int64_t batches_completed() const { return batches_; }
    [[nodiscard]] const std::vector<authority::Play_record>& plays() const { return plays_; }
    [[nodiscard]] const authority::Executive_service& executive() const { return executive_; }
    [[nodiscard]] const game::Pure_profile& previous_outcome() const { return previous_; }

protected:
    bft::Value phase_input(int phase, common::Pulse now) override;
    void process_phase_result(int phase, common::Pulse now) override;
    void corrupt_state(common::Rng& rng) override;

private:
    enum class Phase : int { outcome = 0, commit = 1, reveal = 2, foul = 3 };

    void process_outcome_result();
    void process_commit_result(common::Pulse now);
    void process_reveal_result(common::Pulse now);
    void process_foul_result(common::Pulse now);

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
    common::Pulse batch_opened_at_ = -1; ///< telemetry: commit-phase open pulse
    bool published_this_batch_ = false;  ///< telemetry: reveal published k plays
};

} // namespace ga::pipeline

#endif // GA_PIPELINE_PIPELINE_PROCESSOR_H
