// One replica group of the game-authority tier supervising one game: builds
// the engine over a complete graph, installs one Pipeline_processor per
// honest agent and arbitrary Byzantine processors in the remaining slots,
// steps pulses, and — the one action a replica cannot perform from inside —
// enacts disconnection orders supported by a majority of honest replicas on
// the physical network after every pulse. k plays per 4-phase clock period;
// k = 1 is the paper's §3.3 per-play schedule.
//
// Every shard of the sharded fabric (src/shard/) is one of these, under the
// per-shard derive_seed determinism contract. The fabric reads every
// per-play result back through the harvesting surface below — agreed plays,
// standings, expulsions, wire accounting — which is replicated state read
// off the first honest replica and identical at every honest one.
#ifndef GA_PIPELINE_PIPELINE_AUTHORITY_H
#define GA_PIPELINE_PIPELINE_AUTHORITY_H

#include <map>
#include <set>

#include "authority/authority_group.h"
#include "pipeline/pipeline_processor.h"
#include "sim/engine.h"
#include "wire/transport.h"

namespace ga::pipeline {

class Pipeline_authority final {
public:
    /// Validates n > 3f and |byzantine| <= f. `behaviors[i]` may be null for
    /// slots listed in `byzantine` (those run Byzantine processors instead of
    /// the protocol). A null `ic_factory` auto-selects the substrate via
    /// bft::choose_ic(n, f) (the E7 crossover); pass bft::ic_eig() or
    /// bft::ic_parallel_phase_king() to override. `tampers` makes the listed
    /// slots equivocate inside their sealed batches (test instrumentation for
    /// the batch-edge audit). `net` installs an adversarial network model on
    /// the group's engine (default: clean classic transport); the replicas'
    /// clock frames are sized to its delta so the batched schedule tolerates
    /// timed delivery. `rng` is split for the engine stream (99) first, then
    /// per processor slot.
    Pipeline_authority(authority::Game_spec spec, int f, int k,
                       std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors,
                       const std::set<common::Processor_id>& byzantine,
                       authority::Punishment_factory make_punishment, common::Rng rng,
                       authority::Byzantine_factory make_byzantine = {},
                       bft::Ic_factory ic_factory = {},
                       std::map<common::Processor_id, Tamper> tampers = {},
                       sim::Net_model net = {});

    // ---- Stepping.

    /// Step the group's engine; disconnection orders supported by a majority
    /// of honest replicas are enacted on the physical network after each pulse.
    void run_pulses(common::Pulse count);

    /// Pulses for `plays` complete steady-state plays, rounded up to whole
    /// batches (a batch is the pipeline's scheduling quantum).
    void run_plays(int plays);

    /// Step the system for `count` complete batches (k plays each).
    void run_batches(int count);

    /// Inject a transient fault into every processor (§4).
    void inject_transient_fault();

    [[nodiscard]] int batch_k() const { return k_; }
    [[nodiscard]] int pulses_per_batch() const;

    /// Steady-state pulse budget for `plays` complete plays, rounded up to
    /// whole batches.
    [[nodiscard]] common::Pulse pulses_for_plays(int plays) const;

    /// Window-edge quiesce hook: pulses until the group's replicated schedule
    /// reaches the next batch edge — the wrap-slack slot where the in-flight
    /// k-play batch (commit vectors, reveals, and the batch-edge audit) is
    /// fully processed and the next has not started. 0 when already quiesced
    /// (including before the boot pulse). The elastic fabric retires a group
    /// for migration/split/merge only after stepping it exactly this many
    /// pulses, so a rebalance pauses an affected shard for at most one batch.
    [[nodiscard]] common::Pulse pulses_to_window_edge() const;

    /// Window-edge rebuild hook: physically expel an agent from the group's
    /// network (idempotent). The elastic fabric uses it to carry an earlier
    /// epoch's disconnection orders into a freshly built group — expulsion is
    /// permanent across migrations even though the rebuilt group's executive
    /// ledger starts fresh.
    void expel_agent(common::Agent_id id);

    // ---- Membership.

    [[nodiscard]] int n_agents() const { return n_; }
    [[nodiscard]] const authority::Game_spec& spec() const { return spec_; }
    [[nodiscard]] bool is_honest_slot(common::Processor_id id) const;
    [[nodiscard]] std::vector<common::Processor_id> honest_slots() const;
    [[nodiscard]] const Pipeline_processor& processor(common::Processor_id id) const;
    [[nodiscard]] sim::Engine& engine() { return engine_; }

    /// The group's network delivery bound (1 under the default clean model).
    [[nodiscard]] int delta() const { return engine_.net().delta; }

    /// The group's engine pulse clock. The fabric reads it to stamp quiesce
    /// spans on the tracer of the shard it is pausing.
    [[nodiscard]] common::Pulse now() const { return engine_.now(); }

    // ---- Harvesting surface (read off the first honest replica; agreement
    // keeps every honest copy identical).

    /// The agreed play history: outcomes and foul sets in completion order.
    [[nodiscard]] const std::vector<authority::Play_record>& agreed_plays() const;

    /// The agreed executive ledger (one Standing per agent).
    [[nodiscard]] const std::vector<authority::Standing>& agreed_standings() const;

    /// Agents physically cut off the network so far.
    [[nodiscard]] std::vector<common::Agent_id> disconnected_agents() const;
    [[nodiscard]] bool is_agent_disconnected(common::Agent_id id) const;

    /// Wire accounting of the whole group (benchmark aggregation).
    [[nodiscard]] const sim::Traffic_stats& traffic() const { return engine_.stats(); }

    // ---- Observability and transport.

    /// Attach a telemetry sink observing this group (nullptr detaches): the
    /// group's per-pulse accounting (net counters, net-fault window edges,
    /// expulsion events) and the reference replica's schedule hooks (IC
    /// spans, plays, clock holds). The sink is an observer only — attaching
    /// one never changes the group's verdicts, standings, or traffic.
    void set_telemetry(telemetry::Telemetry_sink* sink);

    /// Own the transport this group's per-pulse cross-boundary traffic flows
    /// through (src/wire/) and attach it to the engine as the pulse link; the
    /// current sink (if any) is forwarded so wire.* counters flow. Must be
    /// called before the group's first pulse; order-independent with
    /// set_telemetry. Part of the determinism contract: a conforming
    /// transport never changes verdicts, stats, or telemetry — loopback and
    /// ring runs are bit-identical.
    void set_wire(std::unique_ptr<wire::Transport> link);

private:
    /// Pulses until the replicated clock completes `slots` more slot steps:
    /// under a clean net a slot is one pulse; under delta > 1 each slot is a
    /// delta-pulse frame and the clock only steps at frame boundaries
    /// (engine pulses that are positive multiples of delta). 0 when slots
    /// is 0.
    [[nodiscard]] common::Pulse pulses_for_slots(int slots) const;

    /// First honest slot (the reference replica every harvest reads).
    [[nodiscard]] common::Processor_id reference_slot() const;

    void enact_disconnections();
    /// Fold the pulse that just executed into the sink: engine stat deltas
    /// into the cached counters, plus net-fault window edge events.
    void sample_telemetry(common::Pulse executed);

    int n_;
    authority::Game_spec spec_;
    std::set<common::Processor_id> byzantine_;
    sim::Engine engine_;
    /// Cross-boundary transport (null = in-place delivery, no link attached).
    /// Owned here because the engine holds only the non-owning Pulse_link.
    std::unique_ptr<wire::Transport> wire_;
    int k_;
    int ic_rounds_ = 0;

    // ---- Telemetry (observer-only). The counter references are stable map
    // nodes cached once at attach time, so the per-pulse cost is five adds.
    telemetry::Telemetry_sink* telemetry_ = nullptr;
    sim::Traffic_stats tel_last_{};  ///< stats at the previous sample
    std::int64_t* tel_pulses_ = nullptr;
    std::int64_t* tel_messages_ = nullptr;
    std::int64_t* tel_bytes_ = nullptr;
    std::int64_t* tel_dropped_ = nullptr;
    std::int64_t* tel_delayed_ = nullptr;
};

} // namespace ga::pipeline

namespace ga::authority {

/// Kept only because the repository benchmark (perfbench/workloads.cpp),
/// which is owned by the benchmark and not edited alongside the library,
/// names the replica group by this historical spelling.
using Authority_group = pipeline::Pipeline_authority;

} // namespace ga::authority

#endif // GA_PIPELINE_PIPELINE_AUTHORITY_H
