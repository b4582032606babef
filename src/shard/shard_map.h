// Static partition of a global agent population across authority shards.
//
// The paper runs one game authority over one replica group; the fabric
// (fabric.h) runs many concurrently, and this map answers the one question
// everything else hangs off: *which* shard owns a given agent. The partition
// is fixed at construction (agents do not migrate), mirroring the paper's §2
// assumption that every agent is bound to a unique processor — here, to a
// unique processor *within its shard's replica group*.
//
// Assignment is pluggable: contiguous blocks model per-region sharding, a
// hash policy spreads adversarial id patterns, and an explicit vector covers
// per-game assignment (each game's player set is its own shard).
#ifndef GA_SHARD_SHARD_MAP_H
#define GA_SHARD_SHARD_MAP_H

#include <functional>
#include <vector>

#include "common/ids.h"

namespace ga::shard {

/// Produces the whole partition at once: element g is the shard in
/// [0, n_shards) owning global agent g. Every shard must be assigned at
/// least one agent (an empty replica group cannot run agreement).
using Assignment_policy = std::function<std::vector<int>(int n_agents, int n_shards)>;

/// Contiguous blocks of near-equal size (per-region sharding; the default).
Assignment_policy assign_contiguous();

/// Round-robin by id: shard = global mod n_shards.
Assignment_policy assign_round_robin();

/// Balanced hash spread: agents are ordered by a SplitMix64 hash of
/// (id, salt) and block-partitioned in that order, so shard sizes stay
/// within one of each other while membership is decorrelated from any
/// structure in the id space (adversarially chosen ids cannot crowd or
/// starve one shard).
Assignment_policy assign_hashed(std::uint64_t salt = 0);

class Shard_map {
public:
    /// Partition `n_agents` agents into `n_shards` shards under `policy`.
    /// Every shard must end up non-empty (an empty replica group cannot run
    /// agreement).
    Shard_map(int n_agents, int n_shards, const Assignment_policy& policy = assign_contiguous());

    /// Explicit per-game/per-region assignment: `shard_of_agent[g]` is the
    /// shard owning global agent g. Shard ids must be dense in [0, max+1).
    explicit Shard_map(const std::vector<int>& shard_of_agent);

    [[nodiscard]] int n_agents() const { return static_cast<int>(shard_of_.size()); }
    [[nodiscard]] int n_shards() const { return static_cast<int>(members_.size()); }

    /// Shard owning global agent g.
    [[nodiscard]] int shard_of(common::Agent_id global) const;

    /// g's index inside its shard's replica group (the Agent_id the shard's
    /// authority group knows it by).
    [[nodiscard]] common::Agent_id local_of(common::Agent_id global) const;

    /// Inverse mapping: the global id of shard member `local`.
    [[nodiscard]] common::Agent_id global_of(int shard, common::Agent_id local) const;

    /// Global ids owned by `shard`, in ascending order (== local id order).
    /// Throws Contract_error naming the shard id when out of range.
    [[nodiscard]] const std::vector<common::Agent_id>& members(int shard) const;

    /// Shard population sizes (load-balance inspection).
    [[nodiscard]] std::vector<int> shard_sizes() const;

    /// The raw partition vector (element g = shard owning global agent g) —
    /// the value a Shard_plan transforms when agents migrate.
    [[nodiscard]] const std::vector<int>& assignment() const { return shard_of_; }

private:
    void build_from(const std::vector<int>& shard_of_agent, int n_shards);

    std::vector<int> shard_of_;                          ///< global -> shard
    std::vector<common::Agent_id> local_of_;             ///< global -> local
    std::vector<std::vector<common::Agent_id>> members_; ///< shard -> globals
};

} // namespace ga::shard

#endif // GA_SHARD_SHARD_MAP_H
