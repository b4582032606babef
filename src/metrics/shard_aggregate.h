// Cross-shard aggregation for the sharded authority fabric: folds per-shard
// harvests (plays, wire traffic, fouls, social cost) into one fabric-level
// report, including the fabric-wide price-of-anarchy ratio (total achieved
// social cost over total centralistic optimum, the §2/§6 criterion applied
// across every concurrently supervised group).
//
// This layer is deliberately authority-agnostic: it consumes plain numbers a
// front-end (src/shard/) harvests, so the metrics DAG position (below the
// authority tier) is preserved.
#ifndef GA_METRICS_SHARD_AGGREGATE_H
#define GA_METRICS_SHARD_AGGREGATE_H

#include <optional>
#include <vector>

#include "sim/engine.h"
#include "telemetry/telemetry.h"

namespace ga::metrics {

/// One shard's harvest over a measurement interval.
///
/// The elastic fabric produces one sample per *group lifetime*: groups
/// retired at an epoch edge contribute a sample tagged with the epoch they
/// retired in, live groups a sample tagged with the current epoch. Samples
/// are therefore unique per (epoch, shard) pair and sum without loss or
/// double counting even when the same shard index is rebuilt many times.
struct Shard_sample {
    int shard = -1;                 ///< shard index within the fabric
    int epoch = 0;                  ///< shard-map epoch the sample was harvested under
    int agents = 0;                 ///< agents supervised by this shard
    std::int64_t plays = 0;         ///< agreed plays completed
    sim::Traffic_stats traffic;     ///< wire cost of the shard's engine
    std::int64_t fouls = 0;         ///< punished offences across all agents
    /// Agents this sample's group expelled from the network. An expulsion
    /// carried into a rebuilt group at an epoch edge is re-enacted there but
    /// counted only by the group that ordered it, so `total_disconnected`
    /// equals the number of distinct expelled agents across epochs.
    int disconnected = 0;
    double social_cost = 0.0;       ///< sum over plays of the outcome's social cost
    /// plays x the shard game's optimum social cost; nullopt when the game is
    /// too large to enumerate (the ratio is then omitted from the report).
    /// The fabric enumerates the optimum when it harvests the sample — at
    /// report() for a live group, at retirement for a retired one — never
    /// while it builds a shard.
    std::optional<double> optimal_cost;
    /// The group's telemetry snapshot at harvest time (empty when the fabric
    /// runs without sinks). Unique per (epoch, shard) like the rest of the
    /// sample, so aggregation merges without double counting.
    telemetry::Snapshot telemetry;

    friend bool operator==(const Shard_sample&, const Shard_sample&) = default;
};

/// Fabric-level totals; operator== makes bit-identical run comparison a
/// single expression (the determinism contract of the fabric).
struct Fabric_metrics {
    int shards = 0;   ///< samples folded (group lifetimes, not unique shard ids)
    int epochs = 0;   ///< distinct shard-map epochs among the samples
    /// Agent-slots summed over samples: equals the population for a static
    /// single-epoch fabric; in an elastic run an agent contributes once per
    /// group lifetime it lived through.
    int agents = 0;
    std::int64_t total_plays = 0;
    sim::Traffic_stats total_traffic;
    std::int64_t total_fouls = 0;
    int total_disconnected = 0;
    double total_social_cost = 0.0;
    /// Fabric price of anarchy: sum social / sum optimal over the shards that
    /// report an optimum; nullopt when none does or the optimum is degenerate.
    std::optional<double> price_of_anarchy;
    std::int64_t min_shard_plays = 0;  ///< load-balance floor across shards
    std::int64_t max_shard_plays = 0;  ///< load-balance ceiling across shards
    /// Every sample's telemetry merged in (epoch, shard) order (counters sum,
    /// histograms merge, journals concatenate); empty without sinks.
    telemetry::Snapshot telemetry;
    std::vector<Shard_sample> per_shard;

    friend bool operator==(const Fabric_metrics&, const Fabric_metrics&) = default;
};

/// Fold per-shard samples (any order; the result is sorted by (epoch, shard)
/// so aggregation is executor-schedule independent). Samples must be unique
/// per (epoch, shard) — the elastic fabric's retire-once discipline; a
/// duplicate pair would double-count a group's harvest and throws.
Fabric_metrics aggregate_shards(std::vector<Shard_sample> samples);

} // namespace ga::metrics

#endif // GA_METRICS_SHARD_AGGREGATE_H
