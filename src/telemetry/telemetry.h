// Fabric-wide observability: deterministic counters, pulse-denominated
// latency histograms, and a structured event journal.
//
// The game authority is only trustworthy if its behavior is inspectable —
// why was an agent flagged, how long did a play take under Δ-delay, what did
// a rebalance cost — so every layer above the simulator can emit telemetry
// through a Telemetry_sink. Three rules keep the layer honest:
//
//   deterministic   every recorded value is pulse-time (engine pulses) or
//                   replicated protocol state, never wall clock or iteration
//                   order, so a run's whole telemetry snapshot is a pure
//                   function of (seed, map, config) — bit-identical across
//                   Engine/Fabric thread counts and repeated runs, exactly
//                   like the verdicts it describes;
//   non-perturbing  sinks only observe: a run with a sink attached produces
//                   the same verdicts, standings, and traffic as a run with
//                   the null sink (nullptr), which compiles hook sites down
//                   to a pointer test;
//   cheap           counter/gauge/histogram lookups return stable references
//                   hot paths cache once, histograms are fixed-bucket arrays
//                   (no allocation per record), and the journal is bounded
//                   (evictions are counted, never silent).
//
// The layer sits directly above common/ in the DAG: sim, authority,
// pipeline, metrics, and shard all may link it, and it knows nothing about
// any of them.
#ifndef GA_TELEMETRY_TELEMETRY_H
#define GA_TELEMETRY_TELEMETRY_H

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/tracer.h"

namespace ga::telemetry {

/// Pulse-time instant or duration (the fabric's only clock).
using Tick = std::int64_t;

/// Fixed-bucket latency histogram, pulse-denominated. Values in
/// [0, k_linear) get one exact bucket each — the range every per-play /
/// per-activation latency of a healthy schedule lands in (a play window is
/// period x delta pulses) — and larger values fall into power-of-two ranges
/// [k_linear * 2^i, k_linear * 2^(i+1)). Recording is two array writes; no
/// allocation ever.
class Histogram {
public:
    static constexpr int k_linear = 128; ///< exact buckets for values 0..127
    static constexpr int k_ranges = 32;  ///< doubling ranges above the linear span
    static constexpr int k_buckets = k_linear + k_ranges;

    /// Bucket index of `value` (negative values clamp to bucket 0).
    [[nodiscard]] static int bucket_of(Tick value);

    /// Smallest value mapping to bucket `b`.
    [[nodiscard]] static Tick bucket_floor(int b);

    void record(Tick value);

    [[nodiscard]] std::int64_t count() const { return count_; }
    [[nodiscard]] Tick sum() const { return sum_; }
    [[nodiscard]] Tick min() const { return count_ > 0 ? min_ : 0; }
    [[nodiscard]] Tick max() const { return count_ > 0 ? max_ : 0; }
    [[nodiscard]] double mean() const;
    [[nodiscard]] std::int64_t bucket(int b) const;

    /// Count-weighted sum of bucket floors: sum over buckets of
    /// bucket_floor(b) * bucket(b). Equals sum() exactly while every sample
    /// is under k_linear (one exact bucket per value) and lower-bounds it
    /// within 2x beyond — so exported quantiles can be sanity-checked
    /// downstream (wsum <= sum < 2 * wsum + count) without re-deriving the
    /// bucket layout.
    [[nodiscard]] Tick weighted_sum() const;

    /// The value at quantile `q` in [0, 1]: the floor of the bucket holding
    /// the rank-ceil(q * count) sample. Exact for values under k_linear —
    /// i.e. for every latency the deterministic schedule produces in normal
    /// operation — and a lower bound within 2x beyond. 0 on an empty
    /// histogram.
    [[nodiscard]] Tick quantile(double q) const;
    [[nodiscard]] Tick p50() const { return quantile(0.50); }
    [[nodiscard]] Tick p99() const { return quantile(0.99); }

    /// Fold another histogram in (cross-shard aggregation).
    void merge(const Histogram& other);

    friend bool operator==(const Histogram&, const Histogram&) = default;

private:
    std::array<std::int64_t, k_buckets> buckets_{};
    std::int64_t count_ = 0;
    Tick sum_ = 0;
    Tick min_ = 0;
    Tick max_ = 0;
};

/// What happened. One enumerator per structured occurrence the fabric can
/// journal; kind-specific details ride in Event::a / Event::b / Event::note.
enum class Event_kind : std::uint8_t {
    play_open,          ///< a play (or k-play batch) window opened; a = batch k
    play_seal,          ///< commitments agreed (sealed); a = sealed count
    play_verdict,       ///< verdicts landed; a = punished count
    ic_start,           ///< IC activation started; a = phase index
    ic_finish,          ///< IC activation agreed; a = phase index
    foul,               ///< agent punished; a = agent, note = offence
    expulsion,          ///< agent cut off the network; a = agent
    rebalance_proposed, ///< policy proposed a plan; a = moves, b = splits+merges
    rebalance_applied,  ///< epoch transition done; a = moves, b = rebuilt groups
    net_window_open,    ///< burst/partition window became active; a = index, b = |isolated|
    net_window_close,   ///< burst/partition window healed; a = index
    clock_hold,         ///< clock held on insufficient evidence; a = held value
    clock_resume,       ///< clock stepped again after a hold; a = new value
    ingest_state,       ///< inlet health transition; a = new state, b = queue depth
    ingest_deadline     ///< queued submission shed stale; a = agent, b = pulses waited
};

/// Number of Event_kind enumerators. The static_assert pins it to the last
/// enumerator, and event_kind_name's table is sized by it — adding a kind
/// without updating both (and the name table) fails to compile, so a new
/// kind can never ship unnamed.
inline constexpr int k_event_kind_count = static_cast<int>(Event_kind::ingest_deadline) + 1;

/// Spelled-out kind (stable wire names for exporters).
[[nodiscard]] const char* event_kind_name(Event_kind kind);

/// One journal entry, keyed by (shard, epoch, play window). `at` is the
/// engine pulse of the emitting group (-1 for fabric-scope events, which
/// have no single engine clock); `window` is the play/batch index the event
/// belongs to (-1 when not tied to one).
struct Event {
    Event_kind kind{};
    int shard = -1;
    int epoch = 0;
    std::int64_t window = -1;
    Tick at = -1;
    std::int64_t a = 0;
    std::int64_t b = 0;
    std::string note;

    friend bool operator==(const Event&, const Event&) = default;
};

/// One verdict's evidence chain: everything an operator needs to answer
/// "why was this agent punished" without replaying the run. Recorded by the
/// authority tiers at the foul phase (pure replicated state, so the chain is
/// identical at every honest replica) and kept in the group's sink, which
/// the fabric retains when the group retires, so it survives
/// migration/split/merge.
///
/// `agent` is the local replica slot in the group's sink; the fabric
/// globalizes it through the group's member list when serving provenance
/// queries. Actions are -1 where nothing decodable existed (e.g. a missing
/// commitment has no committed action).
struct Evidence {
    int shard = -1;               ///< stamped from the sink scope
    int epoch = 0;
    std::int64_t window = -1;     ///< play index (classic) / batch index (pipelined)
    Tick at = -1;                 ///< pulse the verdict landed
    int agent = -1;               ///< local slot in-group; global id once folded
    std::string offence;          ///< authority::offence_name of the local audit
    int committed = -1;           ///< action proven under the agreed commitment
    int revealed = -1;            ///< action decoded from the agreed opening
    int expected = -1;            ///< the audit standard's best response
    std::vector<int> flagged_by;  ///< replica slots whose agreed masks flagged the agent
    std::int64_t ic_activation = 0; ///< ordinal of the agreeing IC activation
    bool expelled = false;        ///< the executive later cut the agent off
    Tick expelled_at = -1;        ///< pulse of the expulsion (-1 while connected)

    friend bool operator==(const Evidence&, const Evidence&) = default;
};

/// Everything one sink recorded: registries plus the journal. Ordered maps
/// keep iteration (and thus every export) deterministic.
struct Snapshot {
    std::map<std::string, std::int64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, Histogram> histograms;
    std::deque<Event> journal;
    std::int64_t journal_dropped_oldest = 0; ///< events evicted by the capacity bound

    [[nodiscard]] bool empty() const
    {
        return counters.empty() && gauges.empty() && histograms.empty() && journal.empty() &&
               journal_dropped_oldest == 0;
    }

    friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

/// Fold `from` into `into`: counters and gauges sum, histograms merge,
/// journals concatenate (callers fold in a deterministic order — the
/// aggregator sorts samples by (epoch, shard) first), eviction counts sum.
void merge_into(Snapshot& into, const Snapshot& from);

/// The recording surface every instrumented layer writes through. A null
/// `Telemetry_sink*` is the disabled state: every hook site is a single
/// pointer test and the run carries zero telemetry state.
///
/// Threading contract: a sink is single-writer — the fabric gives every
/// replica group its own sink and groups never share one. Within a group,
/// writes come from the group between engine pulses and from the reference
/// replica inside a pulse; the engine's worker-pool barrier orders the two,
/// so no synchronization is needed and the journal order is the deterministic
/// schedule order.
class Telemetry_sink {
public:
    /// Where this sink's events live: stamped onto every journaled event.
    /// shard -1 = fabric scope.
    struct Scope {
        int shard = -1;
        int epoch = 0;
    };

    static constexpr std::size_t k_default_journal_capacity = 1 << 16;

    /// `traced` gives the sink its span recorder for life; without it the
    /// sink carries no tracing state and tracer() stays null.
    Telemetry_sink();
    explicit Telemetry_sink(Scope scope,
                            std::size_t journal_capacity = k_default_journal_capacity,
                            bool traced = false);

    [[nodiscard]] const Scope& scope() const { return scope_; }

    /// Re-scope (elastic fabric: an adopted group's shard id / epoch moves at
    /// an epoch edge). Already journaled events, spans, and evidence keep
    /// their original tags.
    void set_scope(Scope scope)
    {
        scope_ = scope;
        if (tracer_ != nullptr) tracer_->set_scope(scope.shard, scope.epoch);
    }

    /// Registered-on-first-use accessors. The references are stable for the
    /// sink's lifetime (map nodes never move), so hot paths look a name up
    /// once and cache the reference.
    [[nodiscard]] std::int64_t& counter(std::string_view name);
    [[nodiscard]] double& gauge(std::string_view name);
    [[nodiscard]] Histogram& histogram(std::string_view name);

    /// Journal an event: the sink stamps its scope over `e.shard`/`e.epoch`
    /// and evicts the oldest entry (counted, never silent) at capacity.
    void event(Event e);

    /// Journal an event that carries only a kind, a tick, `a` and a window.
    void event(Event_kind kind, Tick at, std::int64_t a, std::int64_t window = -1)
    {
        Event e;
        e.kind = kind;
        e.window = window;
        e.at = at;
        e.a = a;
        event(std::move(e));
    }

    [[nodiscard]] const Snapshot& snapshot() const { return snap_; }

    // ---- Causal tracing (tracer.h). Spans live beside the snapshot — they
    // are per-track trace data, not mergeable registry state — and follow
    // the sink's scope.

    /// The span recorder, null unless the sink was built `traced`. Hook
    /// sites test it for null exactly like the sink pointer itself, so an
    /// untraced sink carries zero tracing cost.
    [[nodiscard]] Tracer* tracer() const { return tracer_.get(); }

    // ---- Verdict provenance. Evidence rides beside the snapshot for the
    // same reason as spans: it is read per agent, never merged per scope.

    /// Record one verdict's evidence chain (scope stamped like events).
    void add_evidence(Evidence e);

    /// Mark the newest evidence entry for `agent` expelled (the executive's
    /// disconnection order lands after the verdict that caused it).
    void mark_expelled(int agent, Tick at);

    [[nodiscard]] const std::vector<Evidence>& evidence() const { return evidence_; }

private:
    Scope scope_;
    std::size_t journal_capacity_;
    Snapshot snap_;
    std::unique_ptr<Tracer> tracer_;
    std::vector<Evidence> evidence_;
};

} // namespace ga::telemetry

#endif // GA_TELEMETRY_TELEMETRY_H
