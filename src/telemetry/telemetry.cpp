#include "telemetry/telemetry.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace ga::telemetry {

int Histogram::bucket_of(Tick value)
{
    if (value < k_linear) return static_cast<int>(std::max<Tick>(value, 0));
    // Range i covers [k_linear << i, k_linear << (i + 1)).
    const auto magnitude = static_cast<std::uint64_t>(value / k_linear);
    const int range = std::bit_width(magnitude) - 1;
    return k_linear + std::min(range, k_ranges - 1);
}

Tick Histogram::bucket_floor(int b)
{
    if (b < k_linear) return std::max(b, 0);
    return static_cast<Tick>(k_linear) << std::min(b - k_linear, k_ranges - 1);
}

void Histogram::record(Tick value)
{
    buckets_[static_cast<std::size_t>(bucket_of(value))] += 1;
    if (count_ == 0 || value < min_) min_ = value;
    if (count_ == 0 || value > max_) max_ = value;
    count_ += 1;
    sum_ += value;
}

double Histogram::mean() const
{
    return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
}

std::int64_t Histogram::bucket(int b) const
{
    return b >= 0 && b < k_buckets ? buckets_[static_cast<std::size_t>(b)] : 0;
}

Tick Histogram::weighted_sum() const
{
    Tick total = 0;
    for (int b = 0; b < k_buckets; ++b) {
        total += bucket_floor(b) * buckets_[static_cast<std::size_t>(b)];
    }
    return total;
}

Tick Histogram::quantile(double q) const
{
    if (count_ == 0) return 0;
    const double clamped = std::clamp(q, 0.0, 1.0);
    const auto rank =
        std::max<std::int64_t>(1, static_cast<std::int64_t>(std::ceil(clamped * static_cast<double>(count_))));
    std::int64_t seen = 0;
    for (int b = 0; b < k_buckets; ++b) {
        seen += buckets_[static_cast<std::size_t>(b)];
        if (seen >= rank) return bucket_floor(b);
    }
    return bucket_floor(k_buckets - 1);
}

void Histogram::merge(const Histogram& other)
{
    if (other.count_ == 0) return;
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    if (count_ == 0 || other.max_ > max_) max_ = other.max_;
    for (int b = 0; b < k_buckets; ++b) {
        buckets_[static_cast<std::size_t>(b)] += other.buckets_[static_cast<std::size_t>(b)];
    }
    count_ += other.count_;
    sum_ += other.sum_;
}

namespace {

// One name per enumerator, positionally. The array size is pinned to
// k_event_kind_count (itself pinned to the last enumerator), so growing the
// enum without naming the new kind is a compile error here, not an "unknown"
// leaking into exported traces.
constexpr std::array<const char*, k_event_kind_count> k_event_kind_names = {
    "play_open",          // Event_kind::play_open
    "play_seal",          // Event_kind::play_seal
    "play_verdict",       // Event_kind::play_verdict
    "ic_start",           // Event_kind::ic_start
    "ic_finish",          // Event_kind::ic_finish
    "foul",               // Event_kind::foul
    "expulsion",          // Event_kind::expulsion
    "rebalance_proposed", // Event_kind::rebalance_proposed
    "rebalance_applied",  // Event_kind::rebalance_applied
    "net_window_open",    // Event_kind::net_window_open
    "net_window_close",   // Event_kind::net_window_close
    "clock_hold",         // Event_kind::clock_hold
    "clock_resume",       // Event_kind::clock_resume
    "ingest_state",       // Event_kind::ingest_state
    "ingest_deadline",    // Event_kind::ingest_deadline
};
static_assert(k_event_kind_names.size() == static_cast<std::size_t>(k_event_kind_count));
static_assert(k_event_kind_names.back() != nullptr);

} // namespace

const char* event_kind_name(Event_kind kind)
{
    const auto index = static_cast<std::size_t>(kind);
    return index < k_event_kind_names.size() ? k_event_kind_names[index] : "unknown";
}

void merge_into(Snapshot& into, const Snapshot& from)
{
    for (const auto& [name, value] : from.counters) into.counters[name] += value;
    for (const auto& [name, value] : from.gauges) into.gauges[name] += value;
    for (const auto& [name, histogram] : from.histograms) into.histograms[name].merge(histogram);
    into.journal.insert(into.journal.end(), from.journal.begin(), from.journal.end());
    into.journal_dropped_oldest += from.journal_dropped_oldest;
}

Telemetry_sink::Telemetry_sink() : Telemetry_sink(Scope{}) {}

Telemetry_sink::Telemetry_sink(Scope scope, std::size_t journal_capacity, bool traced)
    : scope_{scope},
      journal_capacity_{std::max<std::size_t>(journal_capacity, 1)},
      tracer_{traced ? std::make_unique<Tracer>(scope.shard, scope.epoch) : nullptr}
{
}

std::int64_t& Telemetry_sink::counter(std::string_view name)
{
    return snap_.counters[std::string{name}];
}

double& Telemetry_sink::gauge(std::string_view name)
{
    return snap_.gauges[std::string{name}];
}

Histogram& Telemetry_sink::histogram(std::string_view name)
{
    return snap_.histograms[std::string{name}];
}

void Telemetry_sink::event(Event e)
{
    e.shard = scope_.shard;
    e.epoch = scope_.epoch;
    if (snap_.journal.size() >= journal_capacity_) {
        snap_.journal.pop_front();
        snap_.journal_dropped_oldest += 1;
    }
    snap_.journal.push_back(std::move(e));
}

void Telemetry_sink::add_evidence(Evidence e)
{
    e.shard = scope_.shard;
    e.epoch = scope_.epoch;
    evidence_.push_back(std::move(e));
}

void Telemetry_sink::mark_expelled(int agent, Tick at)
{
    for (auto it = evidence_.rbegin(); it != evidence_.rend(); ++it) {
        if (it->agent == agent) {
            it->expelled = true;
            it->expelled_at = at;
            return;
        }
    }
}

} // namespace ga::telemetry
