// The benchmark's three workloads. Each round of a workload builds a fresh
// fabric from the seed-generated inputs, warms it up through its first
// window, then drives a fixed amount of work (a set number of plays or
// ingest windows) through the fabric's public calls. Every count a round
// produces is a pure function of the inputs, so it repeats exactly on every
// round at the same seed; only wall time varies.
//
// Every workload runs at executor width 1 (see README.md for why).
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ingest/workload.h"
#include "spans.h"

namespace perfbench {

enum class Kind { dense, serve, overload };

/// Work per round.
struct Size {
    int plays = 0;   ///< dense: run_plays(1) calls per round
    int windows = 0; ///< serve / overload: ingest windows per round
};

/// Everything a round feeds the fabric, generated from the seed alone.
struct Inputs {
    Kind kind = Kind::dense;
    Size size;
    std::uint64_t fabric_seed = 0;
    std::uint64_t net_seed = 0;
    std::set<int> byzantine; ///< global ids running the babbler (dense)
    std::set<int> cheaters;  ///< global ids playing the dominated action (dense)
    ga::ingest::Workload_config load; ///< serve / overload client population
};

[[nodiscard]] Inputs make_inputs(Kind kind, std::uint64_t seed, Size size);

/// Nearest-rank quantile (q in (0, 1]) of a sample; 0 when it is empty.
template <class T>
[[nodiscard]] T quantile(std::vector<T> values, double q)
{
    if (values.empty()) return T{};
    std::sort(values.begin(), values.end());
    const auto n = static_cast<double>(values.size());
    const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
    return values[std::min(rank, values.size()) - 1];
}

/// The exact counts of one round. Identical on every round at one seed;
/// `latency_pulses_*` are the pulse-denominated latencies.
struct Counts {
    std::int64_t ops = 0;       ///< plays driven (dense) or fresh submissions
    std::int64_t goodput = 0;   ///< plays completed in the timed phase / submissions completed
    std::int64_t plays = 0;     ///< agreed plays fabric-wide, warm-up included
    std::int64_t messages = 0;
    std::int64_t payload_bytes = 0;
    std::int64_t pulses = 0;
    std::int64_t delayed = 0;   ///< messages the net model held past one pulse
    std::int64_t fouls = 0;
    std::int64_t offered = 0;
    std::int64_t admitted = 0;  ///< accepted + queued
    std::int64_t retry_after = 0;
    std::int64_t sheds = 0;
    std::int64_t served = 0;
    std::int64_t completed = 0;
    std::int64_t retried = 0;
    std::int64_t abandoned = 0;
    std::int64_t epochs = 0;
    std::int64_t quiesce_pulses_max = 0;
    std::int64_t latency_samples = 0;
    std::int64_t latency_pulses_p50 = 0;
    std::int64_t latency_pulses_p99 = 0;
    std::int64_t latency_pulses_sum = 0;

    friend bool operator==(const Counts&, const Counts&) = default;

    /// Name/value pairs, in a fixed order (printing, digests, --expect).
    [[nodiscard]] std::vector<std::pair<std::string, std::int64_t>> fields() const;
};

/// Per-layer counts of one round, read back from the fabric's report and
/// telemetry (the latter only when the round's fabric has a sink).
struct Layer_counts {
    double msgs_per_play = 0;
    double bytes_per_play = 0;
    double pulses_per_play = 0;
    double ic_activations_per_play = 0;
    double ic_activation_pulses_p50 = 0;
    double batch_window_pulses_p50 = 0;
    double wire_frames_per_play = 0;
    double wire_bytes_per_play = 0;
    double fouls_per_play = 0;
    double events_per_play = 0;
    double admit_ratio = 0;
    double retries_per_fresh = 0;
    double failed_frac = 0;
};

struct Round {
    double setup_s = 0;               ///< constructor + warm-up through window 0
    double timed_s = 0;               ///< the fixed work after warm-up
    std::vector<double> latency_ms;   ///< one per completed operation
    std::vector<std::int64_t> latency_pulses;
    Counts counts;
    Layer_counts layers;
    std::vector<std::string> failures; ///< correctness checks that failed
};

/// Run one round. `spans` null = untraced. `force_telemetry` gives a
/// fabric that would run without sinks (dense) one, so its counters can be
/// read; sinks only observe, so the counts must not change.
[[nodiscard]] Round run_round(const Inputs& in, Span_recorder* spans, bool force_telemetry);

/// Fabric construction plus warm-up only, in seconds (extra set-up samples).
[[nodiscard]] double setup_only(const Inputs& in);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
