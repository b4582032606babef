#include "shard/authority_router.h"

#include <algorithm>

namespace ga::shard {

Authority_router::Authority_router(const Shard_map& map,
                                   std::vector<const authority::Authority_group*> shards)
    : map_{map}, shards_{std::move(shards)}
{
    common::ensure(static_cast<int>(shards_.size()) == map_.n_shards(),
                   "Authority_router: one authority group per shard");
    for (int s = 0; s < map_.n_shards(); ++s) {
        common::ensure(shards_[static_cast<std::size_t>(s)] != nullptr,
                       "Authority_router: null shard");
        common::ensure(shards_[static_cast<std::size_t>(s)]->n_agents() ==
                           static_cast<int>(map_.members(s).size()),
                       "Authority_router: shard population disagrees with the map");
    }
}

Authority_router::Route Authority_router::locate(common::Agent_id global) const
{
    return Route{map_.shard_of(global), map_.local_of(global)};
}

const authority::Authority_group& Authority_router::shard_at(int shard) const
{
    common::ensure(shard >= 0 && shard < static_cast<int>(shards_.size()),
                   "Authority_router: shard out of range");
    return *shards_[static_cast<std::size_t>(shard)];
}

Authority_router::Agent_play Authority_router::play_view(const authority::Play_record& play,
                                                         common::Agent_id local)
{
    Agent_play entry;
    entry.completed_at = play.completed_at;
    entry.action = local < static_cast<int>(play.outcome.size())
                       ? play.outcome[static_cast<std::size_t>(local)]
                       : -1;
    entry.punished =
        std::find(play.punished.begin(), play.punished.end(), local) != play.punished.end();
    return entry;
}

std::vector<Authority_router::Agent_play>
Authority_router::plays_of(common::Agent_id global) const
{
    const Route route = locate(global);
    std::vector<Agent_play> history;
    for (const authority::Play_record& play : shard_at(route.shard).agreed_plays()) {
        history.push_back(play_view(play, route.local));
    }
    return history;
}

const authority::Standing& Authority_router::standing(common::Agent_id global) const
{
    const Route route = locate(global);
    return shard_at(route.shard).agreed_standings()[static_cast<std::size_t>(route.local)];
}

bool Authority_router::is_disconnected(common::Agent_id global) const
{
    const Route route = locate(global);
    return shard_at(route.shard).is_agent_disconnected(route.local);
}

std::vector<common::Agent_id> Authority_router::punished_agents() const
{
    std::vector<common::Agent_id> punished;
    for (int s = 0; s < map_.n_shards(); ++s) {
        const auto& standings = shard_at(s).agreed_standings();
        for (common::Agent_id local = 0; local < static_cast<int>(standings.size()); ++local) {
            if (standings[static_cast<std::size_t>(local)].fouls > 0) {
                punished.push_back(map_.global_of(s, local));
            }
        }
    }
    std::sort(punished.begin(), punished.end());
    return punished;
}

std::int64_t Authority_router::total_plays() const
{
    std::int64_t total = 0;
    for (int s = 0; s < map_.n_shards(); ++s) {
        total += static_cast<std::int64_t>(shard_at(s).agreed_plays().size());
    }
    return total;
}

} // namespace ga::shard
