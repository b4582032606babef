// The authority fabric: many concurrent game-authority groups behind one
// front-end — and, since the elastic refactor, a shard topology that can
// change while the fabric runs.
//
// One replica group (pipeline::Pipeline_authority) supervises one game, so
// its throughput is pinned to one BA group's 4(f+2)-pulse play cadence. The
// fabric lifts that bound the way the ROADMAP's "sharded authority" item
// prescribes: a Shard_map partitions the global agent population into
// shards, every shard runs its own authority group (own sim::Engine, own
// replicas, own clock), and an Executor steps the shards on a thread pool.
// Total plays/sec then scales with shard count and hardware instead of one
// group's pulse cadence.
//
// Elastic operation: the current topology lives in an epoch-versioned
// Shard_plan. A Rebalance_policy (shard/rebalancer.h) inspects per-shard
// harvested load and emits migration/split/merge plans; the fabric applies a
// plan only at a play-window edge:
//
//   - affected shards finish their in-flight k-play batch —
//     pulses_to_window_edge() per group, at most one window — then retire:
//     their harvest and their telemetry sink, kept whole, join the
//     retired-group records, and every member's standings/history fold
//     into a per-global-id carried ledger;
//   - unaffected shards are adopted untouched (same group object, same
//     in-flight state — a merge relabel changes a routing id, never the
//     group), so a rebalance pauses only the shards it changes;
//   - changed shards are rebuilt from derive_seed(seed, shard, epoch), and
//     migrating agents are re-keyed into their target group's next play
//     window. Expulsions carry over: an agent disconnected in any earlier
//     epoch is physically expelled from its rebuilt group before it boots
//     (the fresh executive ledger re-registers the expulsion after one audit
//     cycle).
//
// Determinism contract: every epoch-e group of shard s draws its randomness
// from common::derive_seed(seed, s, e), rebalance decisions are pure
// functions of replicated harvests, and shards never share mutable state —
// so a whole elastic run is a pure function of (seed, initial map, rebalance
// policy, config): the same epochs, verdicts, outcomes, and aggregated stats
// bit-for-bit on 1 executor thread or N.
//
// Every shard is a Pipeline_authority (src/pipeline/) agreeing on
// config.batch_k plays per batch: k = 1 is the paper's per-play §3.3
// schedule, k > 1 amortizes agreement cost over the batch. Batch edges
// double as the fabric's migration points.
#ifndef GA_SHARD_FABRIC_H
#define GA_SHARD_FABRIC_H

#include <map>
#include <optional>
#include <set>

#include "common/executor.h"
#include "ingest/ingest.h"
#include "metrics/shard_aggregate.h"
#include "pipeline/pipeline_authority.h"
#include "shard/rebalancer.h"
#include "telemetry/export.h"
#include "telemetry/trace_export.h"
#include "telemetry/watchdog.h"
#include "wire/transport.h"

namespace ga::shard {

/// Builds the Game_spec one shard supervises: `members` are the global ids
/// the shard owns (the spec's game must have members.size() agents, locally
/// indexed 0..size-1). Per-game sharding returns a different game per shard;
/// per-region sharding returns the same template sized to the region. The
/// returned game object may be shared between shards only if its cost
/// function is safe to call concurrently (const and stateless, the norm).
/// Elastic note: called again for every rebuilt shard, with the new epoch's
/// membership — `shard` ids are only unique within one epoch.
using Shard_spec_factory =
    std::function<authority::Game_spec(int shard, const std::vector<common::Agent_id>& members)>;

/// Mints a fresh behavior for a global agent. The elastic fabric calls it
/// once per group build the agent is part of — initial construction and
/// every rebuild after a migration/split/merge — so behaviors must be
/// reconstructible from the global id alone. May return null only for ids in
/// Fabric_config::byzantine.
using Behavior_factory =
    std::function<std::unique_ptr<authority::Agent_behavior>(common::Agent_id global)>;

struct Fabric_config {
    int f = 1;                         ///< Byzantine resilience per shard
    Shard_spec_factory spec_factory;   ///< required
    authority::Punishment_factory punishment; ///< required
    std::set<common::Agent_id> byzantine;     ///< *global* ids run babblers
    bft::Ic_factory ic_factory = {};          ///< default: bft::choose_ic per shard
    std::uint64_t seed = 0;  ///< fabric seed; shard s at epoch e uses derive_seed(seed, s, e)
    int threads = 1;                   ///< executor width (result-invariant)
    /// Adversarial network model every shard's engine delivers through
    /// (default: clean, delta = 1 — the one-slot delivery wheel, §4.1's
    /// next-pulse rule). The model's own seed is re-derived per shard and
    /// epoch — derive_seed(net.seed, s, e) — so no two groups (or rebuilds
    /// of one) share a fault schedule, and the whole elastic run stays a
    /// pure function of (seed, map, policy, config, net).
    sim::Net_model net;
    /// Wire transport each shard's per-pulse traffic flows through
    /// (src/wire/): the replica group's intra-group pulse inboxes — every
    /// message its replicas exchange in one pulse. `loopback` moves the
    /// refcounted payload handles (the historical in-process behavior, now
    /// explicit); `ring` round-trips every recipient copy through the flat
    /// frame codec, the full cost model of a process boundary. Part of the
    /// determinism contract: verdicts, stats, and telemetry are
    /// bit-identical between the two kinds and across executor widths — the
    /// choice moves wall-clock cost, never results.
    /// One link per shard group, rebuilt with the group at epoch edges.
    wire::Wire_config transport;
    /// Plays agreed per BA activation batch of every shard's
    /// Pipeline_authority: 1 = the paper's per-play §3.3 schedule, > 1 =
    /// pipelined shards amortizing agreement cost over k-play batches.
    int batch_k = 1;
    /// Equivocating-agent instrumentation (global ids, any batch_k): the
    /// listed agents open a substituted action inside their sealed batch.
    std::map<common::Agent_id, pipeline::Tamper> tampers;
    /// Required by the elastic constructor; the static (behavior-vector)
    /// constructor forbids it.
    Behavior_factory behavior_factory;
    /// Consulted by maybe_rebalance(); null = the topology never changes on
    /// its own (apply_rebalance still works on an elastic fabric).
    Rebalance_policy rebalance;
    /// Observability: give every group its own telemetry sink (scoped to its
    /// (shard, epoch)) plus one fabric-scope sink for epoch transitions.
    /// Sinks are pure observers, so a run with telemetry on is bit-identical
    /// — same verdicts, standings, traffic, and rebalances — to the same run
    /// with it off; only telemetry_report() gains content.
    bool telemetry = false;
    /// Causal tracing: give every sink a span recorder so trace_report()
    /// carries the full causal nesting of the run (fabric run → window →
    /// play → IC round → audit → quiesce), exportable to Chrome trace JSON.
    /// Implies telemetry. Same purity contract: spans never perturb the run.
    bool trace = false;
    /// Online watchdog evaluated at play-window edges (after run_pulses /
    /// run_plays / epoch transitions). Implies telemetry. Alerts are a pure
    /// function of (seed, map, policy, config, net) like everything else.
    std::optional<telemetry::Watchdog_config> watchdog;
    /// Front door (src/ingest/): give every shard a bounded submission inlet
    /// with token-bucket admission and health states, served in ingest
    /// windows by pump_ingest() instead of harness-driven run_plays. The
    /// config is validated at construction (Contract_error names the bad
    /// field). Admission decisions are part of the determinism contract:
    /// submit() runs on the fabric thread between windows, so the verdict
    /// stream is a pure function of (seed, map, policy, config, net,
    /// submission order) on any executor width.
    std::optional<ingest::Ingest_config> ingest;
};

/// One agent's view of one completed play on its shard.
struct Agent_play {
    common::Pulse completed_at = 0; ///< shard-local pulse time
    int action = -1;                ///< the agent's agreed action
    bool punished = false;          ///< agent was in the play's foul set

    friend bool operator==(const Agent_play&, const Agent_play&) = default;
};

/// What one epoch transition did (returned by apply_rebalance and kept for
/// the last transition): the bench's pause-bound and carried-group checks
/// read this instead of re-deriving topology diffs.
struct Rebalance_report {
    int epoch = 0;     ///< the epoch the fabric moved to
    int carried = 0;   ///< groups adopted untouched (possibly relabeled)
    int retired = 0;   ///< groups quiesced and folded into the carried ledger
    int rebuilt = 0;   ///< fresh groups built at the new epoch
    common::Pulse max_quiesce_pulses = 0; ///< worst per-shard pause (< one play window)
    Migration_set moves;                  ///< agent moves the transition performed
};

class Fabric {
public:
    /// Static fabric: `behaviors[g]` is global agent g's behavior (null
    /// allowed only for ids in config.byzantine). Delegates to the elastic
    /// constructor through a one-shot behavior factory, so the topology is
    /// frozen at construction — config.behavior_factory and
    /// config.rebalance must be null, and apply_rebalance throws (rebuilding
    /// a shard needs behaviors mintable per epoch; use the elastic
    /// constructor for that).
    Fabric(Shard_map map, std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors,
           Fabric_config config);

    /// Elastic fabric: behaviors are minted from config.behavior_factory
    /// (required), for the initial groups and again for every shard rebuilt
    /// at an epoch edge.
    Fabric(Shard_map initial, Fabric_config config);

    [[nodiscard]] int n_shards() const { return plan_.map().n_shards(); }
    [[nodiscard]] int n_agents() const { return plan_.map().n_agents(); }
    [[nodiscard]] int epoch() const { return plan_.epoch(); }
    [[nodiscard]] const Shard_map& map() const { return plan_.map(); }
    /// Throws Contract_error naming the shard id when out of range.
    [[nodiscard]] const pipeline::Pipeline_authority& shard(int s) const;
    [[nodiscard]] int batch_k() const { return config_.batch_k; }

    /// Step every shard `count` pulses (concurrently across the pool).
    void run_pulses(common::Pulse count);

    /// Step every shard for `plays` complete steady-state plays (each shard
    /// advances by its own pulses-per-play cadence).
    void run_plays(int plays);

    /// §4 transient fault in every shard at once.
    void inject_transient_fault();

    // ---- Front door (config.ingest).

    [[nodiscard]] bool ingest_enabled() const { return config_.ingest.has_value(); }

    /// Offer one submission to the owning shard's inlet (admission control,
    /// quota, shedding — ingest.h). Submissions for expelled agents are shed
    /// at the door ("ingest.shed_expelled" on the owning shard's sink)
    /// without entering the inlet's admission ledger. Requires config.ingest.
    ingest::Submit_result submit(const ingest::Submission& sub);

    /// Serve one ingest window: every shard drains up to window_batches x
    /// batch_k pending submissions from its inlet and runs that many plays
    /// (concurrently across the pool), completions are recorded against the
    /// submit-to-verdict histogram, buckets refill, and health states
    /// re-derive. Returns the number of submissions served. A shard with an
    /// empty inlet does not advance — its backlog, not the harness, is its
    /// clock. Requires config.ingest.
    int pump_ingest();

    /// One shard's inlet, read-only (queue depth, health, totals). Throws
    /// Contract_error when ingest is off or `s` is out of range.
    [[nodiscard]] const ingest::Shard_inlet& inlet(int s) const;

    /// Whole-run admission accounting: inlets retired at epoch transitions
    /// folded with every live inlet — continuous across rebalances. Zero
    /// when ingest is off.
    [[nodiscard]] ingest::Ingest_totals ingest_totals() const;

    // ---- Elastic operation (epoch transitions).

    /// Consult config.rebalance over every live shard's load and apply any
    /// non-empty plan at the window edge. Returns true when the topology
    /// changed. No-op (false) without a policy, and also when the proposal
    /// would dip a group under the fabric's 3f+1 floor (a policy configured
    /// with a looser min_members cannot crash the run). A structurally
    /// malformed proposal (stale shard ids, duplicate movers, ...) is a
    /// policy bug and still throws Contract_error.
    bool maybe_rebalance();

    /// Apply an explicit non-empty plan now: quiesce affected shards to
    /// their window edge, retire them into the carried ledger, adopt
    /// untouched groups, rebuild changed shards at epoch+1. Requires the
    /// elastic constructor.
    Rebalance_report apply_rebalance(const Rebalance_plan& plan);

    /// The most recent epoch transition, if any.
    [[nodiscard]] const std::optional<Rebalance_report>& last_rebalance() const
    {
        return last_rebalance_;
    }

    // ---- Cross-epoch agent views (carried ledger + current shard, keyed by
    // global id — continuous across migrations).

    /// The agent's complete agreed play history: folded entries from every
    /// retired group it was a member of, then its current shard's history.
    [[nodiscard]] std::vector<Agent_play> agent_history(common::Agent_id global) const;

    /// The agent's continuous standing: retired epochs folded with the
    /// current shard's ledger entry via authority::merge_standings.
    [[nodiscard]] authority::Standing agent_standing(common::Agent_id global) const;

    /// True once any epoch's group expelled the agent (permanent).
    [[nodiscard]] bool agent_disconnected(common::Agent_id global) const;

    /// Global ids punished at least once in any epoch (ascending): agents
    /// whose agent_standing carries a foul.
    [[nodiscard]] std::vector<common::Agent_id> punished_agents() const;

    // ---- Harvesting.

    /// Fabric-level aggregation: every retired group's final harvest plus
    /// every live shard's current harvest — totals sum across epochs without
    /// loss or double counting. With telemetry enabled the report's merged
    /// snapshot additionally folds in the fabric-scope sink.
    [[nodiscard]] metrics::Fabric_metrics report() const;

    // ---- Observability (config.telemetry).

    /// The whole run's telemetry: the fabric-scope sink plus one scoped
    /// snapshot per group lifetime — retired groups' retained sinks and live
    /// groups' current ones — in (epoch, shard) order. Deterministic: the
    /// same (seed, map, policy, config, net) produces byte-identical
    /// to_json(telemetry_report()) on any thread count. Empty when telemetry
    /// is disabled. With tracing/watchdog on, the report additionally
    /// carries the run's verdict provenance (every agent, globalized ids)
    /// and the watchdog's alerts.
    [[nodiscard]] telemetry::Report telemetry_report() const;

    // ---- Forensics (config.trace / config.watchdog).

    /// Why was this agent punished: every evidence chain recorded against
    /// `global`, across its whole migration history — read from the retained
    /// sinks of retired groups first (in retirement order), then from the
    /// agent's current shard — with agent ids globalized. Non-empty for
    /// every agent a group ever flagged while telemetry was on; entries
    /// whose expulsion the executive enacted carry expelled/expelled_at.
    [[nodiscard]] std::vector<telemetry::Evidence> provenance(common::Agent_id global) const;

    /// The whole run's span tracks: the fabric-scope track plus one per
    /// group lifetime (retired tracks first), in (epoch, shard) order —
    /// ready for telemetry::to_chrome_trace. Empty unless config.trace.
    [[nodiscard]] telemetry::Trace_report trace_report() const;

    /// Alerts the watchdog has raised so far (empty without config.watchdog).
    [[nodiscard]] const std::vector<telemetry::Alert>& watchdog_alerts() const;

private:
    /// Per-global-agent state carried across epoch transitions.
    struct Agent_ledger {
        std::vector<Agent_play> history;
        authority::Standing carried{};
        bool expelled = false;
    };

    /// One retired group lifetime: its final harvest and its sink, kept
    /// whole — snapshot, spans and evidence live only there — with the
    /// members its local slots map to. `sample.telemetry` stays empty
    /// (report() fills it from the sink); `sink` is null with telemetry off.
    struct Retired_group {
        metrics::Shard_sample sample;
        std::unique_ptr<telemetry::Telemetry_sink> sink;
        std::vector<common::Agent_id> members;
    };

    /// One live shard: its replica group and everything the fabric keeps
    /// beside it. `sink` is null with telemetry off, `inlet` null without
    /// config.ingest. A sink is written only by its group — from the group's
    /// stepping job while the executor runs — and an inlet only from the
    /// fabric thread between runs, so the single-writer contract holds on
    /// any thread count.
    struct Shard {
        std::unique_ptr<pipeline::Pipeline_authority> group;
        std::unique_ptr<telemetry::Telemetry_sink> sink;
        std::unique_ptr<ingest::Shard_inlet> inlet;
    };

    void validate_config() const;
    /// The static constructor's config: `behaviors` (one per global agent)
    /// wrapped into a one-shot behavior factory that refuses to mint any
    /// agent twice.
    [[nodiscard]] static Fabric_config
    static_config(int n_agents, std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors,
                  Fabric_config config);
    /// Assemble shard `s` of `plan` (any epoch): mint its members'
    /// behaviors, build its group and wire link, and give it a sink (traced
    /// when config.trace) and an inlet as the config asks. Pure with
    /// respect to fabric state, so apply_rebalance can build every
    /// replacement shard *before* mutating anything — a throwing spec or
    /// behavior factory, or a game in which some agent has no action, leaves
    /// the fabric intact. Enumerates no profiles: the optimum is harvest's.
    [[nodiscard]] Shard build_shard(const Shard_plan& plan, int s) const;
    /// Harvest one live shard's current totals (plays, traffic, fouls,
    /// costs, and its sink's snapshot while it holds one), tagged with the
    /// current epoch. The only place the shard game's social optimum is
    /// enumerated (when small enough), for optimal_cost — called by
    /// report() and retire_group.
    [[nodiscard]] metrics::Shard_sample harvest(int s) const;
    /// Move a quiesced shard's harvest and sink into a retired record and
    /// fold its histories, standings and expulsions into the carried ledger
    /// (the swap then drops the rest of its record).
    void retire_group(int s);
    /// Visit every group lifetime's sink with the members its local slots
    /// map to: retired groups in retirement order, then live shards in shard
    /// order. Groups without a sink are skipped.
    void for_each_sink(const std::function<void(const telemetry::Telemetry_sink&,
                                                const std::vector<common::Agent_id>&)>& visit)
        const;
    /// The epoch transition proper, over an already-validated successor
    /// snapshot (shared by apply_rebalance and maybe_rebalance so the plan
    /// transform runs exactly once per transition).
    Rebalance_report apply_next_plan(Shard_plan next);
    /// Run the watchdog over the fabric sink and every live shard sink in
    /// shard order (no-op without config.watchdog). Called at window edges:
    /// after run_pulses/run_plays and at the end of an epoch transition.
    void poll_watchdog();

    Shard_plan plan_;
    Fabric_config config_;
    std::vector<Shard> shards_; ///< indexed by plan_'s shard ids
    common::Executor executor_;
    std::optional<Rebalancer> rebalancer_;
    std::unique_ptr<telemetry::Telemetry_sink> fabric_sink_; ///< epoch transitions
    std::int64_t ingest_seq_ = 0; ///< fabric-global submission ordinal
    ingest::Ingest_totals retired_ingest_; ///< totals folded from retired inlets

    std::vector<Agent_ledger> ledgers_;                ///< one per global agent
    std::vector<Retired_group> retired_; ///< in retirement order
    std::optional<Rebalance_report> last_rebalance_;
    std::optional<telemetry::Watchdog> watchdog_;
    std::int64_t fabric_run_span_ = 0; ///< root span of the fabric track (trace on)
};

} // namespace ga::shard

#endif // GA_SHARD_FABRIC_H
