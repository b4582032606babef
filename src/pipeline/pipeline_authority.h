// Harness for the replicated game-authority tier: builds the engine, installs
// one Pipeline_processor per honest agent and arbitrary Byzantine processors
// in the remaining slots, steps pulses, and enacts the executive's
// disconnection orders on the physical network (via the
// Replica_group_harness skeleton). k plays per 4-phase clock period; k = 1 is
// the paper's §3.3 per-play schedule. Every shard of the sharded fabric is
// one of these, under the per-shard derive_seed determinism contract.
#ifndef GA_PIPELINE_PIPELINE_AUTHORITY_H
#define GA_PIPELINE_PIPELINE_AUTHORITY_H

#include <map>

#include "authority/authority_group.h"
#include "pipeline/pipeline_processor.h"

namespace ga::pipeline {

class Pipeline_authority final : public authority::Replica_group_harness {
public:
    /// `behaviors[i]` may be null for slots listed in `byzantine` (those run
    /// Byzantine processors instead of the protocol). A null `ic_factory`
    /// auto-selects the substrate via bft::choose_ic(n, f) (the E7
    /// crossover); pass ic_eig()/ic_parallel_phase_king() to override.
    /// `tampers` makes the listed slots equivocate inside their sealed
    /// batches (test instrumentation for the batch-edge audit).
    /// `net` installs an adversarial network model on the group's engine
    /// (default: clean classic transport); the replicas' clock frames are
    /// sized to its delta so the batched schedule tolerates timed delivery.
    Pipeline_authority(authority::Game_spec spec, int f, int k,
                       std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors,
                       const std::set<common::Processor_id>& byzantine,
                       authority::Punishment_factory make_punishment, common::Rng rng,
                       authority::Byzantine_factory make_byzantine = {},
                       authority::Ic_factory ic_factory = {},
                       std::map<common::Processor_id, Tamper> tampers = {},
                       sim::Net_model net = {});

    /// Pulses for `plays` complete steady-state plays, rounded up to whole
    /// batches (a batch is the pipeline's scheduling quantum).
    void run_plays(int plays) override;

    /// Step the system for `count` complete batches (k plays each).
    void run_batches(int count);

    [[nodiscard]] int batch_k() const { return k_; }
    [[nodiscard]] int pulses_per_batch() const;
    [[nodiscard]] common::Pulse pulses_for_plays(int plays) const override;

    /// Pulses until the next batch edge: the in-flight k-play batch (commit
    /// vectors, reveals, and the batch-edge audit) completes on the way, so a
    /// batch boundary doubles as the fabric's migration point.
    [[nodiscard]] common::Pulse pulses_to_window_edge() const override;
    [[nodiscard]] const Pipeline_processor& processor(common::Processor_id id) const;

    // ---- Authority_group harvesting surface (read off the first honest
    // replica; agreement keeps every honest copy identical).
    [[nodiscard]] const std::vector<authority::Play_record>& agreed_plays() const override;
    [[nodiscard]] const std::vector<authority::Standing>& agreed_standings() const override;

protected:
    [[nodiscard]] const authority::Executive_service&
    replica_executive(common::Processor_id id) const override;

private:
    int k_;
    authority::Ic_factory ic_factory_;
    int ic_rounds_;
};

} // namespace ga::pipeline

#endif // GA_PIPELINE_PIPELINE_AUTHORITY_H
