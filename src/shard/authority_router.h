// Routing front-end of the authority fabric.
//
// Everything addressed by *global* agent id goes through the router: per-play
// results — agreed outcomes, punishments, standings, expulsions — are read
// back from the owning shard via the authority tier's harvesting hooks and
// re-expressed in global ids.
//
// The router never touches a group's engine; the Authority_group harvesting
// hooks are the entire surface it consumes.
#ifndef GA_SHARD_AUTHORITY_ROUTER_H
#define GA_SHARD_AUTHORITY_ROUTER_H

#include <memory>

#include "authority/authority_group.h"
#include "shard/shard_map.h"

namespace ga::shard {

class Authority_router {
public:
    /// `shards[s]` is shard s's authority group (any Authority_group); one
    /// entry per map shard. Both the map and the shards
    /// must outlive the router.
    Authority_router(const Shard_map& map,
                     std::vector<const authority::Authority_group*> shards);

    /// Where a global agent lives: its shard and its id inside it.
    struct Route {
        int shard = -1;
        common::Agent_id local = -1;
    };
    [[nodiscard]] Route locate(common::Agent_id global) const;

    /// One agent's view of one completed play on its shard.
    struct Agent_play {
        common::Pulse completed_at = 0; ///< shard-local pulse time
        int action = -1;                ///< the agent's agreed action
        bool punished = false;          ///< agent was in the play's foul set

        friend bool operator==(const Agent_play&, const Agent_play&) = default;
    };

    /// One play record reduced to the view of shard member `local`. The
    /// elastic fabric folds retiring groups' histories through this same
    /// reduction, so an agent's pre- and post-migration entries are directly
    /// comparable.
    [[nodiscard]] static Agent_play play_view(const authority::Play_record& play,
                                              common::Agent_id local);

    /// The agent's agreed play history on its *current* shard (the elastic
    /// fabric prepends earlier epochs' folded history for migrated agents).
    [[nodiscard]] std::vector<Agent_play> plays_of(common::Agent_id global) const;

    /// The agent's executive ledger entry on its shard.
    [[nodiscard]] const authority::Standing& standing(common::Agent_id global) const;

    /// True once the agent's shard expelled it from the physical network.
    [[nodiscard]] bool is_disconnected(common::Agent_id global) const;

    /// Global ids punished at least once anywhere in the fabric (ascending).
    [[nodiscard]] std::vector<common::Agent_id> punished_agents() const;

    /// Agreed plays completed across every shard.
    [[nodiscard]] std::int64_t total_plays() const;

    [[nodiscard]] const Shard_map& map() const { return map_; }

private:
    [[nodiscard]] const authority::Authority_group& shard_at(int shard) const;

    const Shard_map& map_;
    std::vector<const authority::Authority_group*> shards_;
};

} // namespace ga::shard

#endif // GA_SHARD_AUTHORITY_ROUTER_H
