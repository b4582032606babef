// Sharded authority fabric: partition policies, the executor pool, routing,
// cross-shard aggregation, and the fabric determinism contract (same seed +
// shard count => identical verdicts and aggregated stats across runs and
// across 1-thread vs N-thread executors).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "shard/fabric.h"

namespace {

using namespace ga;
using namespace ga::shard;
using common::Agent_id;
using common::Executor;
using common::Rng;

// ---------------------------------------------------------------- Shard_map

TEST(ShardMap, ContiguousBlocksCoverEveryShard)
{
    const Shard_map map{10, 4, assign_contiguous()};
    EXPECT_EQ(map.n_agents(), 10);
    EXPECT_EQ(map.n_shards(), 4);
    EXPECT_EQ(map.shard_sizes(), (std::vector<int>{3, 2, 3, 2}));
    EXPECT_EQ(map.shard_of(0), 0);
    EXPECT_EQ(map.shard_of(9), 3);
    // Blocks are contiguous: shard index is monotone in the agent id.
    for (Agent_id g = 1; g < 10; ++g) EXPECT_GE(map.shard_of(g), map.shard_of(g - 1));
}

TEST(ShardMap, RoundRobinInterleaves)
{
    const Shard_map map{10, 3, assign_round_robin()};
    EXPECT_EQ(map.shard_sizes(), (std::vector<int>{4, 3, 3}));
    EXPECT_EQ(map.shard_of(0), 0);
    EXPECT_EQ(map.shard_of(4), 1);
    EXPECT_EQ(map.members(1), (std::vector<Agent_id>{1, 4, 7}));
}

TEST(ShardMap, HashedSpreadIsBalancedAtAnyRatio)
{
    // 8 shards over 16 agents: independent per-agent hashing would strand a
    // shard empty for ~94% of salts; the permutation split never does.
    for (const std::uint64_t salt : {0ull, 1ull, 7ull, 1234567ull}) {
        const Shard_map map{16, 8, assign_hashed(salt)};
        for (const int size : map.shard_sizes()) EXPECT_EQ(size, 2) << "salt " << salt;
    }
    // Decorrelated from the id space: some agent leaves its contiguous block.
    const Shard_map hashed{16, 8, assign_hashed(7)};
    const Shard_map blocks{16, 8, assign_contiguous()};
    bool permuted = false;
    for (Agent_id g = 0; g < 16; ++g) {
        if (hashed.shard_of(g) != blocks.shard_of(g)) permuted = true;
    }
    EXPECT_TRUE(permuted);
    // Deterministic in the salt.
    const Shard_map again{16, 8, assign_hashed(7)};
    for (Agent_id g = 0; g < 16; ++g) EXPECT_EQ(again.shard_of(g), hashed.shard_of(g));
}

TEST(ShardMap, LocalGlobalRoundTrips)
{
    const Shard_map map{13, 5, assign_round_robin()};
    for (Agent_id g = 0; g < 13; ++g) {
        const int s = map.shard_of(g);
        EXPECT_EQ(map.global_of(s, map.local_of(g)), g);
    }
    for (int s = 0; s < map.n_shards(); ++s) {
        const auto& members = map.members(s);
        for (Agent_id local = 0; local < static_cast<int>(members.size()); ++local) {
            EXPECT_EQ(map.local_of(members[static_cast<std::size_t>(local)]), local);
        }
    }
}

TEST(ShardMap, ExplicitAssignmentIsPerGameSharding)
{
    const Shard_map map{std::vector<int>{1, 0, 1, 0, 2}};
    EXPECT_EQ(map.n_shards(), 3);
    EXPECT_EQ(map.members(0), (std::vector<Agent_id>{1, 3}));
    EXPECT_EQ(map.members(1), (std::vector<Agent_id>{0, 2}));
    EXPECT_EQ(map.members(2), (std::vector<Agent_id>{4}));
}

TEST(ShardMap, RejectsEmptyShardAndBadIds)
{
    // Shard 1 of 2 never referenced -> empty replica group.
    EXPECT_THROW(Shard_map(std::vector<int>{0, 0, 2}), common::Contract_error);
    EXPECT_THROW(Shard_map(std::vector<int>{0, -1}), common::Contract_error);
    EXPECT_THROW(Shard_map(4, 5), common::Contract_error); // more shards than agents
}

TEST(ShardMap, ExplicitConstructorRejectsEveryMalformedAssignment)
{
    // Non-dense shard ids: 0 and 2 referenced, 1 never — would silently
    // mis-partition if accepted.
    EXPECT_THROW(Shard_map(std::vector<int>{0, 2, 0, 2}), common::Contract_error);
    // Every agent on shard 3 leaves shards 0..2 as empty replica groups.
    EXPECT_THROW(Shard_map(std::vector<int>{3, 3, 3}), common::Contract_error);
    // Empty vector: no agents at all.
    EXPECT_THROW(Shard_map(std::vector<int>{}), common::Contract_error);
}

TEST(ShardMap, MembersNamesTheBadShardId)
{
    const Shard_map map{10, 4};
    try {
        (void)map.members(7);
        FAIL() << "members(7) must throw";
    } catch (const common::Contract_error& error) {
        EXPECT_NE(std::string{error.what()}.find("shard 7"), std::string::npos) << error.what();
    }
    EXPECT_THROW((void)map.members(-1), common::Contract_error);
}

// ---------------------------------------------------------------- derive_seed

TEST(DeriveSeed, PureAndStreamSeparated)
{
    EXPECT_EQ(common::derive_seed(42, 0), common::derive_seed(42, 0));
    EXPECT_NE(common::derive_seed(42, 0), common::derive_seed(42, 1));
    EXPECT_NE(common::derive_seed(42, 0), common::derive_seed(43, 0));
    // Engines seeded from adjacent streams do not produce identical draws.
    Rng a{common::derive_seed(9, 0)};
    Rng b{common::derive_seed(9, 1)};
    EXPECT_NE(a.next_u64(), b.next_u64());
}

// ---------------------------------------------------------------- Executor

TEST(Executor, RunsEveryJobExactlyOnce)
{
    for (const int threads : {1, 4}) {
        Executor pool{threads};
        std::atomic<int> sum{0};
        std::vector<std::function<void()>> jobs;
        for (int j = 1; j <= 100; ++j) {
            jobs.push_back([&sum, j] { sum.fetch_add(j); });
        }
        pool.run_all(jobs);
        EXPECT_EQ(sum.load(), 5050);
        pool.run_all(jobs); // the pool is reusable
        EXPECT_EQ(sum.load(), 10100);
    }
}

TEST(Executor, PropagatesJobExceptions)
{
    Executor pool{3};
    std::vector<std::function<void()>> jobs;
    for (int j = 0; j < 8; ++j) {
        jobs.push_back([j] {
            if (j == 5) throw std::runtime_error{"boom"};
        });
    }
    EXPECT_THROW(pool.run_all(jobs), std::runtime_error);
    // The pool survives a throwing batch.
    std::atomic<int> ran{0};
    pool.run_all({[&ran] { ++ran; }});
    EXPECT_EQ(ran.load(), 1);
}

// ---------------------------------------------------------------- Fabric

/// Two-action game with a dominant strategy (action 1): honest agents play 1,
/// so any 0 in an outcome marks a deviant; social optimum is all-ones.
class Dominant_game final : public game::Strategic_game {
public:
    explicit Dominant_game(int n) : n_{n} {}
    int n_agents() const override { return n_; }
    int n_actions(Agent_id) const override { return 2; }
    double cost(Agent_id i, const game::Pure_profile& p) const override
    {
        return p[static_cast<std::size_t>(i)] == 1 ? 1.0 : 2.0;
    }

private:
    int n_;
};

Shard_spec_factory dominant_specs()
{
    return [](int, const std::vector<Agent_id>& members) {
        authority::Game_spec spec;
        spec.name = "dominant";
        spec.game = std::make_shared<Dominant_game>(static_cast<int>(members.size()));
        spec.equilibrium.assign(members.size(), {0.0, 1.0});
        spec.audit_mode = authority::Audit_mode::pure_best_response;
        return spec;
    };
}

std::vector<std::unique_ptr<authority::Agent_behavior>> honest_population(int n)
{
    std::vector<std::unique_ptr<authority::Agent_behavior>> v;
    for (int i = 0; i < n; ++i) v.push_back(std::make_unique<authority::Honest_behavior>());
    return v;
}

Fabric_config base_config(int threads, std::uint64_t seed)
{
    Fabric_config config;
    config.f = 1;
    config.spec_factory = dominant_specs();
    config.punishment = [] { return std::make_unique<authority::Disconnect_scheme>(); };
    config.seed = seed;
    config.threads = threads;
    return config;
}

/// Full observable state of a run: the aggregated report plus every agent's
/// routed play history (verdicts included).
struct Observed {
    metrics::Fabric_metrics report;
    std::vector<std::vector<Agent_play>> histories;
};

Observed run_fabric(int agents, int shards, int threads, std::uint64_t seed,
                    const std::set<Agent_id>& cheaters = {})
{
    auto behaviors = honest_population(agents);
    for (const Agent_id cheater : cheaters) {
        behaviors[static_cast<std::size_t>(cheater)] =
            std::make_unique<authority::Fixed_action_behavior>(0);
    }
    Fabric fabric{Shard_map{agents, shards}, std::move(behaviors), base_config(threads, seed)};
    fabric.run_pulses(1);
    fabric.run_plays(3);

    Observed observed{fabric.report(), {}};
    for (Agent_id g = 0; g < agents; ++g) {
        observed.histories.push_back(fabric.agent_history(g));
    }
    return observed;
}

TEST(Fabric, AllShardsCompletePlaysAndAgree)
{
    const Observed observed = run_fabric(16, 4, 1, /*seed=*/11);
    EXPECT_EQ(observed.report.shards, 4);
    EXPECT_EQ(observed.report.agents, 16);
    EXPECT_GE(observed.report.min_shard_plays, 2);
    EXPECT_EQ(observed.report.total_fouls, 0);
    // Honest dominant play: every outcome is all-ones => social cost = plays *
    // agents, optimum likewise, so the fabric-wide anarchy ratio is exactly 1.
    ASSERT_TRUE(observed.report.price_of_anarchy.has_value());
    EXPECT_DOUBLE_EQ(*observed.report.price_of_anarchy, 1.0);
    for (const auto& history : observed.histories) {
        for (const auto& play : history) {
            EXPECT_EQ(play.action, 1);
            EXPECT_FALSE(play.punished);
        }
    }
}

TEST(Fabric, DeterministicAcrossRunsWithSameSeed)
{
    const Observed first = run_fabric(12, 3, 1, /*seed=*/77, {5});
    const Observed second = run_fabric(12, 3, 1, /*seed=*/77, {5});
    EXPECT_TRUE(first.report == second.report);
    EXPECT_EQ(first.histories.size(), second.histories.size());
    for (std::size_t g = 0; g < first.histories.size(); ++g) {
        EXPECT_EQ(first.histories[g], second.histories[g]) << "agent " << g;
    }
}

TEST(Fabric, ThreadCountNeverChangesResults)
{
    const Observed single = run_fabric(12, 3, 1, /*seed=*/123, {2, 9});
    for (const int threads : {2, 4}) {
        const Observed pooled = run_fabric(12, 3, threads, /*seed=*/123, {2, 9});
        EXPECT_TRUE(single.report == pooled.report) << threads << " threads";
        for (std::size_t g = 0; g < single.histories.size(); ++g) {
            EXPECT_EQ(single.histories[g], pooled.histories[g])
                << "agent " << g << ", " << threads << " threads";
        }
    }
}

TEST(Fabric, RouterCollectsVerdictsFromTheOwningShard)
{
    // 12 agents over 3 contiguous shards of 4; global 5 lives on shard 1.
    auto behaviors = honest_population(12);
    behaviors[5] = std::make_unique<authority::Fixed_action_behavior>(0);
    Fabric fabric{Shard_map{12, 3}, std::move(behaviors), base_config(2, /*seed=*/5)};

    EXPECT_EQ(fabric.map().shard_of(5), 1);
    EXPECT_EQ(fabric.map().local_of(5), 1);

    fabric.run_pulses(1);
    fabric.run_plays(3);

    EXPECT_EQ(fabric.punished_agents(), (std::vector<Agent_id>{5}));
    EXPECT_GE(fabric.agent_standing(5).fouls, 1);
    EXPECT_TRUE(fabric.agent_disconnected(5));
    EXPECT_FALSE(fabric.agent_disconnected(4));
    EXPECT_EQ(fabric.agent_standing(4).fouls, 0);

    const auto cheater_history = fabric.agent_history(5);
    ASSERT_FALSE(cheater_history.empty());
    EXPECT_EQ(cheater_history.front().action, 0);
    EXPECT_TRUE(cheater_history.front().punished);

    // A foul on shard 1 is invisible to the other shards' groups.
    EXPECT_EQ(fabric.shard(0).agreed_standings()[1].fouls, 0);
    EXPECT_EQ(fabric.report().total_plays,
              static_cast<std::int64_t>(fabric.shard(0).agreed_plays().size() +
                                        fabric.shard(1).agreed_plays().size() +
                                        fabric.shard(2).agreed_plays().size()));
}

TEST(Fabric, ByzantineGlobalIdsRouteToLocalSlots)
{
    auto behaviors = honest_population(8);
    behaviors[6].reset(); // global 6 = shard 1, local 2 under 2 contiguous shards
    Fabric_config config = base_config(1, /*seed=*/31);
    config.byzantine = {6};
    Fabric fabric{Shard_map{8, 2}, std::move(behaviors), config};
    fabric.run_pulses(1);
    fabric.run_plays(2);

    EXPECT_FALSE(fabric.shard(1).is_honest_slot(2));
    // The babbler is caught and expelled by its own shard; shard 0 is clean.
    EXPECT_TRUE(fabric.agent_disconnected(6));
    EXPECT_EQ(fabric.shard(0).disconnected_agents().size(), 0u);
}

TEST(Fabric, HugeShardGameDegradesToNoAnarchyTerm)
{
    // 45 binary-action agents in one shard: 2^45 profiles is beyond even
    // Strategic_game::profile_count's 2^40 enumeration ceiling. The fabric
    // must construct and simply omit the price-of-anarchy term, not throw.
    Fabric fabric{Shard_map{45, 1}, honest_population(45), base_config(1, /*seed=*/1)};
    const auto report = fabric.report();
    EXPECT_FALSE(report.price_of_anarchy.has_value());
    EXPECT_EQ(report.total_plays, 0);
}

TEST(Fabric, ShardAccessorNamesTheBadShardId)
{
    Fabric fabric{Shard_map{8, 2}, honest_population(8), base_config(1, /*seed=*/4)};
    try {
        (void)fabric.shard(99);
        FAIL() << "shard(99) must throw";
    } catch (const common::Contract_error& error) {
        EXPECT_NE(std::string{error.what()}.find("shard 99"), std::string::npos) << error.what();
    }
    EXPECT_THROW((void)fabric.shard(-1), common::Contract_error);
}

TEST(Fabric, HarvestHooksMatchEngineInternals)
{
    const int agents = 8;
    Fabric fabric{Shard_map{agents, 2}, honest_population(agents), base_config(1, /*seed=*/2)};
    fabric.run_pulses(1);
    fabric.run_plays(2);
    for (int s = 0; s < fabric.n_shards(); ++s) {
        const pipeline::Pipeline_authority& group = fabric.shard(s);
        const auto slots = group.honest_slots();
        EXPECT_EQ(group.agreed_plays().size(), group.processor(slots.front()).plays().size());
        EXPECT_EQ(group.agreed_standings().size(), static_cast<std::size_t>(group.n_agents()));
        EXPECT_GT(group.traffic().messages, 0);
    }
}

// ------------------------------------------------------------- Aggregation

TEST(ShardAggregate, TotalsAndPriceOfAnarchy)
{
    metrics::Shard_sample a;
    a.shard = 1;
    a.agents = 4;
    a.plays = 10;
    a.traffic = {100, 2000, 50000};
    a.fouls = 3;
    a.disconnected = 1;
    a.social_cost = 60.0;
    a.optimal_cost = 40.0;

    metrics::Shard_sample b;
    b.shard = 0;
    b.agents = 6;
    b.plays = 8;
    b.traffic = {100, 3000, 70000};
    b.social_cost = 90.0;
    b.optimal_cost = 60.0;

    const auto fabric_metrics = metrics::aggregate_shards({a, b});
    EXPECT_EQ(fabric_metrics.shards, 2);
    EXPECT_EQ(fabric_metrics.agents, 10);
    EXPECT_EQ(fabric_metrics.total_plays, 18);
    EXPECT_EQ(fabric_metrics.total_traffic, (ga::sim::Traffic_stats{200, 5000, 120000}));
    EXPECT_EQ(fabric_metrics.total_fouls, 3);
    EXPECT_EQ(fabric_metrics.total_disconnected, 1);
    EXPECT_EQ(fabric_metrics.min_shard_plays, 8);
    EXPECT_EQ(fabric_metrics.max_shard_plays, 10);
    ASSERT_TRUE(fabric_metrics.price_of_anarchy.has_value());
    EXPECT_DOUBLE_EQ(*fabric_metrics.price_of_anarchy, 150.0 / 100.0);
    // Sorted by shard index regardless of input order.
    EXPECT_EQ(fabric_metrics.per_shard.front().shard, 0);
}

TEST(ShardAggregate, OmitsAnarchyWhenNoOptimumIsKnown)
{
    metrics::Shard_sample sample;
    sample.shard = 0;
    sample.plays = 5;
    sample.social_cost = 10.0;
    const auto fabric_metrics = metrics::aggregate_shards({sample});
    EXPECT_FALSE(fabric_metrics.price_of_anarchy.has_value());
}

TEST(ShardAggregate, RejectsDuplicateShards)
{
    metrics::Shard_sample sample;
    sample.shard = 2;
    EXPECT_THROW(metrics::aggregate_shards({sample, sample}), common::Contract_error);
}

} // namespace
