// Vocabulary shared by the replicated authority tier (src/pipeline/) and the
// sharded fabric (src/shard/): the per-play record a replica group agrees on,
// and the factories a group builds its replicas' punishment schemes and
// Byzantine slots from.
#ifndef GA_AUTHORITY_AUTHORITY_GROUP_H
#define GA_AUTHORITY_AUTHORITY_GROUP_H

#include <functional>
#include <memory>

#include "authority/punishment.h"
#include "sim/processor.h"

namespace ga::authority {

/// Fresh punishment-scheme instance per processor replica.
using Punishment_factory = std::function<std::unique_ptr<Punishment_scheme>()>;

/// Builds the Byzantine processor for a slot (defaults to a Random_babbler).
using Byzantine_factory =
    std::function<std::unique_ptr<sim::Processor>(common::Processor_id id, common::Rng rng)>;

/// One completed play as observed by one processor.
struct Play_record {
    common::Pulse completed_at = 0; ///< pulse the play's outcome was published
    game::Pure_profile outcome;
    std::vector<common::Agent_id> punished; ///< the agreed foul set N'

    friend bool operator==(const Play_record&, const Play_record&) = default;
};

} // namespace ga::authority

#endif // GA_AUTHORITY_AUTHORITY_GROUP_H
