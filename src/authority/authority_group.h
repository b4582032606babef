// The harvesting surface of one replica group supervising one game, plus the
// engine-backed harness skeleton the replicated tier builds on.
//
// The sharded fabric (src/shard/) routes a global agent population across
// many concurrent authority groups and reads every per-play result back
// through the Authority_group interface — it never reaches into a group's
// engine. The implementation is pipeline::Pipeline_authority (src/pipeline/):
// k plays per 4-phase clock period, with k = 1 as §3.3's per-play schedule.
// Everything the fabric consumes — agreed plays, standings, expulsions, wire
// accounting — is replicated state identical at every honest replica.
#ifndef GA_AUTHORITY_AUTHORITY_GROUP_H
#define GA_AUTHORITY_AUTHORITY_GROUP_H

#include <functional>
#include <memory>
#include <set>

#include "authority/agent.h"
#include "authority/punishment.h"
#include "bft/ic_select.h"
#include "sim/engine.h"
#include "telemetry/telemetry.h"
#include "wire/transport.h"

namespace ga::authority {

/// Builds one interactive-consistency activation. The substrate catalogue
/// lives in the bft layer (bft/ic_select.h); these aliases keep the authority
/// tier's historical spelling working.
using Ic_factory = bft::Ic_factory;

/// The EIG factory (optimal resilience n > 3f, exponential payloads).
inline Ic_factory ic_eig() { return bft::ic_eig(); }

/// Parallel interactive consistency over Turpin-Coan/phase-king (n > 4f).
inline Ic_factory ic_parallel_phase_king() { return bft::ic_parallel_phase_king(); }

/// Fresh punishment-scheme instance per processor replica.
using Punishment_factory = std::function<std::unique_ptr<Punishment_scheme>()>;

/// Builds the Byzantine processor for a slot (defaults to a Random_babbler).
using Byzantine_factory =
    std::function<std::unique_ptr<sim::Processor>(common::Processor_id id, common::Rng rng)>;

/// One completed play as observed by one processor.
struct Play_record {
    common::Pulse completed_at = 0; ///< pulse the play's outcome was published
    game::Pure_profile outcome;
    std::vector<common::Agent_id> punished; ///< the agreed foul set N'

    friend bool operator==(const Play_record&, const Play_record&) = default;
};

class Authority_group {
public:
    virtual ~Authority_group() = default;

    /// Step the group's engine; disconnection orders supported by a majority
    /// of honest replicas are enacted on the physical network after each pulse.
    virtual void run_pulses(common::Pulse count) = 0;

    /// Convenience: pulses for `plays` complete steady-state plays.
    virtual void run_plays(int plays) = 0;

    /// Inject a transient fault into every processor (§4).
    virtual void inject_transient_fault() = 0;

    [[nodiscard]] virtual int n_agents() const = 0;

    /// Steady-state pulse budget for `plays` complete plays (a batched group
    /// rounds up to whole batches).
    [[nodiscard]] virtual common::Pulse pulses_for_plays(int plays) const = 0;

    /// Window-edge quiesce hook: pulses until the group's replicated schedule
    /// reaches the next play-window edge — the wrap-slack slot where the
    /// previous play (or k-play batch) is fully processed and the next has
    /// not started. 0 when already quiesced (including before the boot
    /// pulse). The elastic fabric retires a group for migration/split/merge
    /// only after stepping it exactly this many pulses, so a rebalance pauses
    /// an affected shard for at most one play window.
    [[nodiscard]] virtual common::Pulse pulses_to_window_edge() const = 0;

    /// Window-edge rebuild hook: physically expel an agent from the group's
    /// network (idempotent). The elastic fabric uses it to carry an earlier
    /// epoch's disconnection orders into a freshly built group — expulsion is
    /// permanent across migrations even though the rebuilt group's executive
    /// ledger starts fresh.
    virtual void expel_agent(common::Agent_id id) = 0;

    [[nodiscard]] virtual const Game_spec& spec() const = 0;

    [[nodiscard]] virtual bool is_honest_slot(common::Processor_id id) const = 0;

    /// The agreed play history: outcomes and foul sets in completion order.
    [[nodiscard]] virtual const std::vector<Play_record>& agreed_plays() const = 0;

    /// The agreed executive ledger (one Standing per agent).
    [[nodiscard]] virtual const std::vector<Standing>& agreed_standings() const = 0;

    /// Agents physically cut off the network so far.
    [[nodiscard]] virtual std::vector<common::Agent_id> disconnected_agents() const = 0;

    [[nodiscard]] virtual bool is_agent_disconnected(common::Agent_id id) const = 0;

    /// Wire accounting of the whole group (benchmark aggregation).
    [[nodiscard]] virtual const sim::Traffic_stats& traffic() const = 0;

    /// The group's engine pulse clock (0 for a group with no engine). The
    /// fabric reads it to stamp quiesce spans on the tracer of the shard it
    /// is pausing.
    [[nodiscard]] virtual common::Pulse now() const { return 0; }

    /// Attach a telemetry sink observing this group (nullptr detaches). The
    /// sink is an observer only — attaching one never changes the group's
    /// verdicts, standings, or traffic. Default: ignored (uninstrumented
    /// group).
    virtual void set_telemetry(telemetry::Telemetry_sink* sink) { (void)sink; }

    /// Attach the wire transport this group's per-pulse cross-boundary
    /// traffic flows through (src/wire/). Must be called before the group's
    /// first pulse. Part of the determinism contract: a conforming transport
    /// never changes verdicts, stats, or telemetry — loopback and ring runs
    /// are bit-identical. Default: ignored (engine-less group).
    virtual void set_wire(std::unique_ptr<wire::Transport> link) { (void)link; }

    /// The attached transport (null when none). Benches read its link stats.
    [[nodiscard]] virtual const wire::Transport* wire_link() const { return nullptr; }
};

/// Engine-backed group skeleton: owns the engine over a complete graph,
/// answers every membership/expulsion query, and — the one action a replica
/// cannot perform from inside — enacts disconnection orders supported by a
/// majority of honest replicas on the physical network after every pulse.
/// Subclasses install their processors and expose the replicated ledger via
/// replica_executive().
class Replica_group_harness : public Authority_group {
public:
    [[nodiscard]] sim::Engine& engine() { return engine_; }
    [[nodiscard]] int n_agents() const override { return n_; }
    [[nodiscard]] const Game_spec& spec() const override { return spec_; }
    [[nodiscard]] bool is_honest_slot(common::Processor_id id) const override;
    [[nodiscard]] std::vector<common::Processor_id> honest_slots() const;
    [[nodiscard]] std::vector<common::Agent_id> disconnected_agents() const override;
    [[nodiscard]] bool is_agent_disconnected(common::Agent_id id) const override;
    [[nodiscard]] const sim::Traffic_stats& traffic() const override { return engine_.stats(); }
    [[nodiscard]] common::Pulse now() const override { return engine_.now(); }

    void run_pulses(common::Pulse count) override;
    void inject_transient_fault() override;
    void expel_agent(common::Agent_id id) override;

    /// Wires the sink into the harness's per-pulse accounting (net counters,
    /// net-fault window edges, expulsion events) and into the reference
    /// replica's schedule hooks (IC spans, plays, clock holds). Requires the
    /// subclass to have installed its processors (construction is complete).
    void set_telemetry(telemetry::Telemetry_sink* sink) override;

    /// Own the transport and attach it to the engine as the pulse link; the
    /// current sink (if any) is forwarded so wire.* counters flow. Order-
    /// independent with set_telemetry.
    void set_wire(std::unique_ptr<wire::Transport> link) override;
    [[nodiscard]] const wire::Transport* wire_link() const override { return wire_.get(); }

    /// The group's network delivery bound (1 under the default clean model).
    [[nodiscard]] int delta() const { return engine_.net().delta; }

protected:
    /// Validates n > 3f and |byzantine| <= f; `rng` is consumed for the
    /// engine stream only (stream 99), leaving the caller's generator ready
    /// for the per-processor splits. `net` is the adversarial network model
    /// the group's engine delivers through (default: clean classic
    /// transport); subclasses must build their replicas with the matching
    /// delta so the clock frames line up with timed delivery.
    Replica_group_harness(Game_spec spec, int f, const std::set<common::Processor_id>& byzantine,
                          common::Rng& rng, sim::Net_model net = {});

    /// Pulses until the replicated clock completes `slots` more slot steps:
    /// under a clean net a slot is one pulse; under delta > 1 each slot is a
    /// delta-pulse frame and the clock only steps at frame boundaries
    /// (engine pulses that are positive multiples of delta). 0 when slots
    /// is 0.
    [[nodiscard]] common::Pulse pulses_for_slots(int slots) const;

    /// The executive ledger replica at an honest slot (disconnection votes).
    [[nodiscard]] virtual const Executive_service&
    replica_executive(common::Processor_id id) const = 0;

    /// First honest slot (the reference replica every harvest reads).
    [[nodiscard]] common::Processor_id reference_slot() const;

    int n_;
    int f_;
    Game_spec spec_;
    std::set<common::Processor_id> byzantine_;
    sim::Engine engine_;
    /// Cross-boundary transport (null = in-place delivery, no link attached).
    /// Owned here because the engine holds only the non-owning Pulse_link.
    std::unique_ptr<wire::Transport> wire_;

private:
    void enact_disconnections();
    /// Fold the pulse that just executed into the sink: engine stat deltas
    /// into the cached counters, plus net-fault window edge events.
    void sample_telemetry(common::Pulse executed);

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

} // namespace ga::authority

#endif // GA_AUTHORITY_AUTHORITY_GROUP_H
