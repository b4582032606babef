#include "ingest/ingest.h"

#include <algorithm>
#include <string>

#include "common/ensure.h"

namespace ga::ingest {

const char* health_name(Health state)
{
    switch (state) {
    case Health::healthy: return "healthy";
    case Health::degraded: return "degraded";
    case Health::overloaded: return "overloaded";
    }
    return "unknown";
}

const char* submit_status_name(Submit_status status)
{
    switch (status) {
    case Submit_status::accepted: return "accepted";
    case Submit_status::queued: return "queued";
    case Submit_status::retry_after: return "retry_after";
    case Submit_status::shed: return "shed";
    }
    return "unknown";
}

void Ingest_config::validate() const
{
    common::ensure(capacity > 0, "Ingest_config::capacity must be positive");
    common::ensure(burst >= 0, "Ingest_config::burst must be non-negative (0 = auto)");
    common::ensure(burst == 0 || burst >= capacity,
                   "Ingest_config::burst must be 0 (auto) or >= capacity");
    common::ensure(queue_capacity > 0, "Ingest_config::queue_capacity must be positive");
    common::ensure(degraded_exit >= 0.0,
                   "Ingest_config::degraded_exit must be non-negative");
    common::ensure(degraded_exit < degraded_enter,
                   "Ingest_config::degraded_exit must be below degraded_enter");
    common::ensure(degraded_enter <= overloaded_exit,
                   "Ingest_config::degraded_enter must not exceed overloaded_exit");
    common::ensure(overloaded_exit < overloaded_enter,
                   "Ingest_config::overloaded_exit must be below overloaded_enter");
    common::ensure(overloaded_enter <= 1.0,
                   "Ingest_config::overloaded_enter must not exceed 1.0");
    common::ensure(priorities >= 1, "Ingest_config::priorities must be >= 1");
    common::ensure(quota >= 0, "Ingest_config::quota must be non-negative (0 = unlimited)");
    common::ensure(window_batches >= 1, "Ingest_config::window_batches must be >= 1");
    if (!deadline_pulses.empty()) {
        common::ensure(static_cast<int>(deadline_pulses.size()) == priorities,
                       "Ingest_config::deadline_pulses must be empty or one entry per class");
        for (const common::Pulse d : deadline_pulses)
            common::ensure(d >= 0,
                           "Ingest_config::deadline_pulses entries must be >= 0 (0 = none)");
        common::ensure(deadline_pulses[0] == 0,
                       "Ingest_config::deadline_pulses[0] must be 0 (class 0 never sheds)");
    }
}

void Ingest_totals::fold(const Ingest_totals& other)
{
    offered += other.offered;
    accepted += other.accepted;
    queued += other.queued;
    retry_after += other.retry_after;
    shed += other.shed;
    shed_deadline += other.shed_deadline;
    served += other.served;
    completed += other.completed;
    queue_depth_max = std::max(queue_depth_max, other.queue_depth_max);
}

namespace {

/// Depth threshold `fraction` of the way up a queue of `capacity` entries.
int depth_at(double fraction, int capacity)
{
    return static_cast<int>(fraction * capacity);
}

} // namespace

Shard_inlet::Shard_inlet(const Ingest_config& config, telemetry::Telemetry_sink* sink)
    : config_{config}, sink_{sink}
{
    config_.validate();
    if (config_.burst == 0) config_.burst = 2 * config_.capacity;
    tokens_ = config_.burst; // a fresh inlet absorbs one full burst
}

int Shard_inlet::shed_depth_for(int priority) const
{
    // Class priorities-1 sheds right at the overloaded-enter depth; each
    // higher class holds on for an equal further share of the remaining
    // headroom. Class 0 is never shed by class (threshold past capacity).
    const int over = depth_at(config_.overloaded_enter, config_.queue_capacity);
    if (priority <= 0) return config_.queue_capacity + 1;
    const int steps = config_.priorities - 1;
    const int span = config_.queue_capacity - over;
    return over + ((steps - priority) * span) / steps;
}

void Shard_inlet::count(Submit_status status, int priority)
{
    totals_.offered += 1;
    switch (status) {
    case Submit_status::accepted: totals_.accepted += 1; break;
    case Submit_status::queued: totals_.queued += 1; break;
    case Submit_status::retry_after: totals_.retry_after += 1; break;
    case Submit_status::shed: totals_.shed += 1; break;
    }
    totals_.queue_depth_max =
        std::max(totals_.queue_depth_max, static_cast<std::int64_t>(queue_.size()));
    if (sink_ == nullptr) return;
    sink_->counter("ingest.offered") += 1;
    sink_->counter(std::string{"ingest.offered.p"} + std::to_string(priority)) += 1;
    sink_->counter(std::string{"ingest."} + submit_status_name(status)) += 1;
    if (status == Submit_status::accepted || status == Submit_status::queued)
        sink_->counter(std::string{"ingest.admit.p"} + std::to_string(priority)) += 1;
    else if (status == Submit_status::shed)
        sink_->counter(std::string{"ingest.shed.p"} + std::to_string(priority)) += 1;
}

Submit_result Shard_inlet::offer(const Submission& sub, std::int64_t seq, common::Pulse now)
{
    common::ensure(sub.priority >= 0 && sub.priority < config_.priorities,
                   "Shard_inlet::offer: priority out of range");
    const int depth = static_cast<int>(queue_.size());
    const auto decide = [&](Submit_status status, int retry) {
        count(status, sub.priority);
        return Submit_result{status, retry, state_, static_cast<int>(queue_.size())};
    };

    // 1. Hard bound: a full queue sheds everything, class 0 included.
    if (depth >= config_.queue_capacity) return decide(Submit_status::shed, 0);

    // 2. Under pressure, over-quota submitters shed first.
    if (config_.quota > 0 && state_ != Health::healthy &&
        window_admits_[sub.client] >= config_.quota)
        return decide(Submit_status::shed, 0);

    // 3. Overloaded: graded priority shedding — lowest class at the
    //    overloaded threshold, higher classes only as the queue fills.
    if (state_ == Health::overloaded && depth >= shed_depth_for(sub.priority))
        return decide(Submit_status::shed, 0);

    // 4. Token available: admit.
    if (tokens_ > 0) {
        tokens_ -= 1;
        queue_.push_back(Pending{sub, seq, now});
        if (config_.quota > 0) window_admits_[sub.client] += 1;
        return decide(Submit_status::accepted, 0);
    }

    // 5. No token but healthy: the backlog absorbs the burst.
    if (state_ == Health::healthy) {
        queue_.push_back(Pending{sub, seq, now});
        if (config_.quota > 0) window_admits_[sub.client] += 1;
        return decide(Submit_status::queued, 0);
    }

    // 6. Degraded/overloaded with no token: bounce with a backlog-derived
    //    hint — the deeper the queue, the longer the wait.
    const int retry = 1 + depth / config_.capacity;
    return decide(Submit_status::retry_after, retry);
}

void Shard_inlet::adopt(Pending p, common::Pulse now)
{
    p.enqueued_at = now;
    queue_.push_back(std::move(p));
    totals_.queue_depth_max =
        std::max(totals_.queue_depth_max, static_cast<std::int64_t>(queue_.size()));
}

std::vector<Shard_inlet::Pending> Shard_inlet::take(int n, common::Pulse now)
{
    common::ensure(n >= 0, "Shard_inlet::take: n must be non-negative");
    std::vector<Pending> out;
    out.reserve(static_cast<std::size_t>(std::min<int>(n, static_cast<int>(queue_.size()))));
    while (static_cast<int>(out.size()) < n && !queue_.empty()) {
        Pending p = std::move(queue_.front());
        queue_.pop_front();
        // Deadline check at service time: a submission whose class budget has
        // lapsed would reach its play window stale, so it is shed here —
        // loudly (counter + journal event), honoring the no-silent-drops
        // invariant. Class 0 has budget 0 (validated) and never sheds.
        const common::Pulse budget =
            config_.deadline_pulses.empty()
                ? 0
                : config_.deadline_pulses[static_cast<std::size_t>(p.sub.priority)];
        if (budget > 0 && now - p.enqueued_at > budget) {
            totals_.shed_deadline += 1;
            if (sink_ != nullptr) {
                sink_->counter("ingest.shed_deadline") += 1;
                telemetry::Event e;
                e.kind = telemetry::Event_kind::ingest_deadline;
                e.at = now;
                e.a = p.sub.agent;
                e.b = now - p.enqueued_at;
                e.note = "p";
                e.note += std::to_string(p.sub.priority);
                sink_->event(std::move(e));
            }
            continue;
        }
        out.push_back(std::move(p));
    }
    const int m = static_cast<int>(out.size());
    totals_.served += m;
    if (sink_ != nullptr && m > 0) sink_->counter("ingest.served") += m;
    return out;
}

void Shard_inlet::complete(const Pending& p, common::Pulse at)
{
    totals_.completed += 1;
    if (sink_ == nullptr) return;
    sink_->counter("ingest.completed") += 1;
    sink_->histogram("ingest.submit_to_verdict_pulses")
        .record(std::max<common::Pulse>(0, at - p.enqueued_at));
}

void Shard_inlet::end_window(common::Pulse now)
{
    tokens_ = std::min(config_.burst, tokens_ + config_.capacity);
    window_admits_.clear();

    const int depth = static_cast<int>(queue_.size());
    Health next = state_;
    switch (state_) {
    case Health::healthy:
        if (depth >= depth_at(config_.overloaded_enter, config_.queue_capacity))
            next = Health::overloaded;
        else if (depth >= depth_at(config_.degraded_enter, config_.queue_capacity))
            next = Health::degraded;
        break;
    case Health::degraded:
        if (depth >= depth_at(config_.overloaded_enter, config_.queue_capacity))
            next = Health::overloaded;
        else if (depth <= depth_at(config_.degraded_exit, config_.queue_capacity))
            next = Health::healthy;
        break;
    case Health::overloaded:
        if (depth <= depth_at(config_.degraded_exit, config_.queue_capacity))
            next = Health::healthy;
        else if (depth <= depth_at(config_.overloaded_exit, config_.queue_capacity))
            next = Health::degraded;
        break;
    }
    // A quiesce (epoch transition pausing this shard) costs service time the
    // queue depth has not felt yet — pre-degrade for one window so admission
    // turns conservative before the backlog actually climbs.
    if (quiesced_ && next == Health::healthy) next = Health::degraded;
    quiesced_ = false;

    if (next != state_) {
        if (sink_ != nullptr) {
            telemetry::Event e;
            e.kind = telemetry::Event_kind::ingest_state;
            e.at = now;
            e.a = static_cast<std::int64_t>(next);
            e.b = depth;
            e.note = health_name(next);
            sink_->event(std::move(e));
        }
        state_ = next;
    }
    publish_gauges();
}

void Shard_inlet::publish_gauges()
{
    if (sink_ == nullptr) return;
    sink_->gauge("ingest.state") = static_cast<double>(state_);
    sink_->gauge("ingest.queue_depth") = static_cast<double>(queue_.size());
    sink_->gauge("ingest.queue_depth_max") = static_cast<double>(totals_.queue_depth_max);
}

void Shard_inlet::note_quiesce()
{
    quiesced_ = true;
}

std::vector<Shard_inlet::Pending> Shard_inlet::drain()
{
    std::vector<Pending> out{std::make_move_iterator(queue_.begin()),
                             std::make_move_iterator(queue_.end())};
    queue_.clear();
    return out;
}

} // namespace ga::ingest
