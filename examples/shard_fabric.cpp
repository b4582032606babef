// Sharded authority fabric: one game authority per region, many regions
// supervised concurrently, one routing front-end over all of them.
//
// The scenario: a 12-computer system split into 3 regions of 4. Each region
// runs its own distributed game authority (its own BFT replica group and
// clock, §3.3 play pipeline unchanged); the fabric steps the three groups on
// a thread pool and the fabric answers every question in *global* agent ids.
// One agent (global #5) plays a hidden manipulative strategy — its region's
// judicial service catches it, its region's executive expels it, and the
// other regions never spend a message on the affair.
#include <iostream>

#include "shard/fabric.h"

using namespace ga;
using namespace ga::shard;

namespace {

/// Two-action region game with a dominant action (1): deviating to 0 is
/// never a best response, so the judicial replicas flag it as a foul.
class Region_game final : public game::Strategic_game {
public:
    explicit Region_game(int n) : n_{n} {}
    int n_agents() const override { return n_; }
    int n_actions(common::Agent_id) const override { return 2; }
    double cost(common::Agent_id i, const game::Pure_profile& p) const override
    {
        return p[static_cast<std::size_t>(i)] == 1 ? 1.0 : 2.0;
    }

private:
    int n_;
};

} // namespace

int main()
{
    const int agents = 12;
    const int regions = 3;

    // ---- 1. The shard map: contiguous blocks = per-region sharding.
    Shard_map map{agents, regions, assign_contiguous()};
    std::cout << "Fabric: " << agents << " agents across " << regions << " regions, sizes =";
    for (const int size : map.shard_sizes()) std::cout << ' ' << size;
    std::cout << "\n";

    // ---- 2. The global population; global agent 5 cheats.
    std::vector<std::unique_ptr<authority::Agent_behavior>> population;
    for (int g = 0; g < agents; ++g) {
        if (g == 5) {
            population.push_back(std::make_unique<authority::Fixed_action_behavior>(0));
        } else {
            population.push_back(std::make_unique<authority::Honest_behavior>());
        }
    }

    // ---- 3. The fabric: one per-play (batch_k = 1) Pipeline_authority per
    // region, stepped on a 3-thread pool; every region's randomness derives
    // from the fabric seed.
    Fabric_config config;
    config.f = 1;
    config.spec_factory = [](int shard, const std::vector<common::Agent_id>& members) {
        authority::Game_spec spec;
        spec.name = "region-" + std::to_string(shard);
        spec.game = std::make_shared<Region_game>(static_cast<int>(members.size()));
        spec.equilibrium.assign(members.size(), {0.0, 1.0});
        return spec;
    };
    config.punishment = [] { return std::make_unique<authority::Disconnect_scheme>(); };
    config.seed = 2026;
    config.threads = 3;
    Fabric fabric{std::move(map), std::move(population), std::move(config)};

    // ---- 4. Supervised play: every region completes 3 plays concurrently.
    fabric.run_pulses(1);
    fabric.run_plays(3);

    // ---- 5. The fabric answers in global ids: where does 5 live, what did
    // it play, what happened to it?
    std::cout << "agent 5 lives on shard " << fabric.map().shard_of(5) << " as local agent "
              << fabric.map().local_of(5) << "\n";
    for (const auto& play : fabric.agent_history(5)) {
        std::cout << "  play at pulse " << play.completed_at << ": action = " << play.action
                  << (play.punished ? "  [punished]" : "") << "\n";
    }
    std::cout << "agent 5 fouls = " << fabric.agent_standing(5).fouls
              << ", disconnected = " << (fabric.agent_disconnected(5) ? "yes" : "no")
              << "\n";

    // ---- 6. Fabric-level aggregation across the regions.
    const metrics::Fabric_metrics report = fabric.report();
    std::cout << "fabric report: " << report.total_plays << " plays over " << report.shards
              << " shards, " << report.total_traffic.messages << " messages, fouls = "
              << report.total_fouls << ", expelled = " << report.total_disconnected;
    if (report.price_of_anarchy.has_value()) {
        std::cout << ", anarchy ratio = " << *report.price_of_anarchy;
    }
    std::cout << "\n";

    // ---- 7. The checks that make this example a smoke test.
    if (!fabric.agent_disconnected(5)) return 1;
    if (fabric.punished_agents() != std::vector<common::Agent_id>{5}) return 1;
    if (report.min_shard_plays < 2) return 1;
    if (fabric.shard(0).disconnected_agents() != std::vector<common::Agent_id>{}) return 1;
    std::cout << "OK: the cheater's region expelled it; the other regions never noticed.\n";
    return 0;
}
