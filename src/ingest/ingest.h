// The fabric's front door: bounded per-shard submission queues behind a
// token-bucket admission controller with explicit health states.
//
// Every earlier bench drove the fabric synchronously from the harness —
// run_plays(n) and wait — so offered load could never exceed capacity and
// overload, queueing, and tail latency were invisible. This layer models the
// paper's actual operating regime: an open-loop population of selfish users
// *submitting* plays faster than the authority can agree on them. The shape
// follows the Pipeline & Peril service model (SNIPPETS.md): each shard's
// inlet carries an explicit capacity and walks healthy → degraded →
// overloaded with hysteresis, and the robustness invariant (Zhao's
// Blockchain Game, PAPERS.md) is that the incentive guarantees — honest
// never flagged, deviators caught — survive load shedding, not just clean
// synchronous drives.
//
// Admission verdicts are explicit backpressure (Submit_result):
//
//   accepted      a token was available; the submission is queued for the
//                 next play window;
//   queued        no token, but the inlet is healthy — the backlog absorbs
//                 the burst;
//   retry_after   the inlet is degraded/overloaded; come back in n windows
//                 (a deterministic function of the backlog);
//   shed          dropped: queue full, over-quota under pressure, or a
//                 sheddable priority class while overloaded. Lowest
//                 priority sheds first, graded by queue depth.
//
// Two invariants the rest of the PR enforces end to end:
//
//   no silent drops   a submission that entered the queue is never thrown
//                     away silently — it is served, re-routed (adopt) across
//                     an epoch transition, or (when a class declares a
//                     deadline) shed at service time with a counter and a
//                     journaled ingest_deadline event naming it;
//   determinism       every decision is a pure function of (config, the
//                     deterministic submission order, shard pulse time):
//                     no wall clock, no global state — so an open-loop run
//                     is bit-identical across executor widths and repeats,
//                     like everything else in the repo.
//
// The layer sits beside telemetry in the DAG (links only ga_common and
// ga_telemetry); the fabric (src/shard/) owns one Shard_inlet per shard and
// pumps them into play windows.
#ifndef GA_INGEST_INGEST_H
#define GA_INGEST_INGEST_H

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "common/ids.h"
#include "telemetry/telemetry.h"

namespace ga::ingest {

/// One inlet's operating state (Pipeline & Peril service model). Transitions
/// are hysteretic: the enter threshold of a state is strictly above its exit
/// threshold, so a queue hovering at one depth cannot flap.
enum class Health : std::uint8_t {
    healthy,    ///< tokens or backlog absorb everything offered
    degraded,   ///< backlog past the degraded band: no-token submissions bounce
    overloaded, ///< backlog near capacity: sheddable classes are dropped
};

inline constexpr int k_health_count = static_cast<int>(Health::overloaded) + 1;

/// Spelled-out state (stable wire names for exporters and tools).
[[nodiscard]] const char* health_name(Health state);

/// Front-door tuning for one shard's inlet. validate() throws Contract_error
/// naming the offending field, so a bad config can never construct an inlet.
struct Ingest_config {
    /// Token-bucket refill per ingest window: the sustained admission rate,
    /// in submissions. Must be positive. Capacity is deliberately allowed to
    /// exceed the service rate (plays per window) — the queue absorbs the
    /// difference and the health states make the pressure visible — because
    /// an admission rate clamped to service capacity would hide overload
    /// behind the bucket instead of degrading gracefully.
    int capacity = 0;

    /// Token-bucket depth (burst absorption). 0 = auto (2 x capacity).
    /// Negative is a contract violation; a positive value below capacity is
    /// too (the bucket could never hold one refill).
    int burst = 0;

    /// Bounded backlog per shard. Submissions past this depth are shed no
    /// matter their priority — the queue, not the process, is the victim.
    int queue_capacity = 0;

    /// Hysteresis thresholds, as fractions of queue_capacity. Required
    /// ordering: 0 <= degraded_exit < degraded_enter <= overloaded_exit <
    /// overloaded_enter <= 1.
    double degraded_enter = 0.50;
    double degraded_exit = 0.25;
    double overloaded_enter = 0.90;
    double overloaded_exit = 0.60;

    /// Priority classes [0, priorities); 0 is the highest and is never shed
    /// by class (only by a full queue). Must be >= 1.
    int priorities = 1;

    /// Per-submitter admissions per window while degraded/overloaded
    /// (0 = unlimited). Over-quota submitters shed first under pressure.
    std::int64_t quota = 0;

    /// Play-window batches each shard serves per ingest window (service rate
    /// = window_batches x batch_k plays). Must be >= 1.
    int window_batches = 1;

    /// Deadline-aware shedding: deadline_pulses[p] is the maximum pulses a
    /// class-p submission may wait in the queue before service; an entry that
    /// would be served later than its deadline is shed at take() time instead
    /// of played stale. Empty = no deadlines (default). Otherwise one entry
    /// per priority class; 0 disables the deadline for that class, and entry
    /// 0 must be 0 — class 0 never sheds, by class or by age.
    std::vector<common::Pulse> deadline_pulses;

    /// Throws common::Contract_error naming the bad field.
    void validate() const;

    friend bool operator==(const Ingest_config&, const Ingest_config&) = default;
};

/// One user action submission. `agent` routes it (the fabric sends it to the
/// shard owning that agent); `client` is the submitter identity quotas and
/// retry streams key on; `attempt` is the retry ordinal (0 = first try).
struct Submission {
    common::Agent_id agent = -1;
    int priority = 0;
    std::int64_t client = -1;
    int attempt = 0;

    friend bool operator==(const Submission&, const Submission&) = default;
};

enum class Submit_status : std::uint8_t { accepted, queued, retry_after, shed };

inline constexpr int k_submit_status_count = static_cast<int>(Submit_status::shed) + 1;

[[nodiscard]] const char* submit_status_name(Submit_status status);

/// The front door's answer — explicit backpressure surfaced to the caller.
struct Submit_result {
    Submit_status status{};
    /// Suggested windows to wait before retrying (retry_after only).
    int retry_windows = 0;
    /// Inlet state and backlog depth at decision time (callers adapt).
    Health health = Health::healthy;
    int depth = 0;

    friend bool operator==(const Submit_result&, const Submit_result&) = default;
};

/// Continuous admission accounting (the fabric also keeps one aggregated
/// across every epoch's inlets, so totals survive rebalances).
struct Ingest_totals {
    std::int64_t offered = 0;     ///< every submission presented
    std::int64_t accepted = 0;    ///< token-admitted
    std::int64_t queued = 0;      ///< backlog-admitted (healthy, no token)
    std::int64_t retry_after = 0; ///< bounced with a retry hint
    std::int64_t shed = 0;        ///< dropped at admission
    std::int64_t shed_deadline = 0; ///< dropped at service time (stale by class deadline)
    std::int64_t served = 0;      ///< handed to a play window
    std::int64_t completed = 0;   ///< verdict landed (goodput)
    std::int64_t queue_depth_max = 0;

    void fold(const Ingest_totals& other);

    friend bool operator==(const Ingest_totals&, const Ingest_totals&) = default;
};

/// One shard's front door: bounded FIFO queue + token bucket + health state
/// machine. Single-writer like a telemetry sink: the fabric calls it only
/// from the fabric thread, between executor runs, so admission order — and
/// with it every decision — is deterministic on any thread count.
class Shard_inlet {
public:
    /// One queued submission. `seq` is the fabric-global admission ordinal
    /// (FIFO across re-routing); `enqueued_at` is the owning shard's engine
    /// pulse at admission — submit-to-verdict latency is pulse-denominated.
    struct Pending {
        Submission sub;
        std::int64_t seq = 0;
        common::Pulse enqueued_at = 0;

        friend bool operator==(const Pending&, const Pending&) = default;
    };

    /// `sink` may be null (uninstrumented inlet); when present, admission
    /// counters, queue-depth gauges, the submit-to-verdict histogram, and
    /// ingest_state journal events flow into it.
    Shard_inlet(const Ingest_config& config, telemetry::Telemetry_sink* sink);

    /// Admission decision for one submission at shard pulse `now`. `seq` is
    /// the fabric-global sequence stamp of this submission.
    Submit_result offer(const Submission& sub, std::int64_t seq, common::Pulse now);

    /// Re-admit an already-queued submission after an epoch transition,
    /// bypassing admission control: in-flight work is never shed, even when
    /// a merge transiently overfills the target queue (admission then sheds
    /// new work until the backlog drains). Re-stamps `enqueued_at` to the
    /// adopting shard's clock.
    void adopt(Pending p, common::Pulse now);

    /// Drain up to `n` serviceable entries, FIFO by seq, at shard pulse
    /// `now`. Entries whose class deadline has lapsed (now - enqueued_at >
    /// deadline_pulses[priority]) are shed here instead of served stale:
    /// counted in ingest.shed_deadline and journaled as an ingest_deadline
    /// event, never silently dropped.
    [[nodiscard]] std::vector<Pending> take(int n, common::Pulse now);

    /// A served entry's verdict landed at shard pulse `at` (records the
    /// submit-to-verdict latency).
    void complete(const Pending& p, common::Pulse at);

    /// Window edge: refill the bucket, reset per-window quotas, re-derive
    /// the health state (hysteresis + any quiesce signal), and publish the
    /// queue-depth gauges. Journals an ingest_state event on transitions.
    void end_window(common::Pulse now);

    /// Quiesce signal: this shard is being paused by an epoch transition —
    /// hold the inlet at degraded (at least) through the next window edge.
    void note_quiesce();

    /// Take everything (epoch transition re-routing), FIFO by seq.
    [[nodiscard]] std::vector<Pending> drain();

    [[nodiscard]] Health health() const { return state_; }
    [[nodiscard]] int depth() const { return static_cast<int>(queue_.size()); }
    [[nodiscard]] int tokens() const { return tokens_; }
    [[nodiscard]] const Ingest_config& config() const { return config_; }
    [[nodiscard]] const Ingest_totals& totals() const { return totals_; }

private:
    /// Queue depth at which priority class `p` sheds while overloaded:
    /// class priorities-1 sheds right at the overloaded threshold, higher
    /// classes only as the queue climbs toward full — lowest priority first,
    /// graded by depth. Class 0 never sheds by priority.
    [[nodiscard]] int shed_depth_for(int priority) const;

    void publish_gauges();
    void count(Submit_status status, int priority);

    Ingest_config config_;
    telemetry::Telemetry_sink* sink_;
    std::deque<Pending> queue_;
    int tokens_ = 0;
    Health state_ = Health::healthy;
    bool quiesced_ = false; ///< one-shot degradation signal from a rebalance
    std::map<std::int64_t, std::int64_t> window_admits_; ///< per-client, this window
    Ingest_totals totals_;
};

} // namespace ga::ingest

#endif // GA_INGEST_INGEST_H
