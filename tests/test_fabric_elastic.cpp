// Elastic authority fabric: epoch-versioned Shard_plan transforms
// (migration, split, merge, dense-id recycling), rebalance policies, and the
// fabric's window-edge epoch transitions — continuous per-agent accounting
// across migrations, carried groups under relabels, expulsion permanence,
// batch-edge migration in pipelined mode, and the determinism contract
// extended over rebalancing runs (same seed + initial map + policy =>
// bit-identical epochs, verdicts, and aggregated stats across executor
// widths and repeated runs).
#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "shard/fabric.h"

namespace {

using namespace ga;
using namespace ga::shard;
using common::Agent_id;

// --------------------------------------------------------------- Shard_plan

Shard_map contiguous(int agents, int shards) { return Shard_map{agents, shards}; }

TEST(ShardPlan, MigrationProducesNextEpochSnapshot)
{
    const Shard_plan base{contiguous(12, 3)};
    EXPECT_EQ(base.epoch(), 0);
    EXPECT_TRUE(base.pending().empty());

    Rebalance_plan plan;
    plan.migrations.push_back(Migration{2, 0, 1});
    const Shard_plan next = base.apply(plan, /*min_members=*/1);

    EXPECT_EQ(next.epoch(), 1);
    EXPECT_EQ(next.map().shard_of(2), 1);
    EXPECT_EQ(next.map().members(0), (std::vector<Agent_id>{0, 1, 3}));
    EXPECT_EQ(next.map().members(1), (std::vector<Agent_id>{2, 4, 5, 6, 7}));
    EXPECT_EQ(next.pending(), (Migration_set{Migration{2, 0, 1}}));
    // The base snapshot is immutable.
    EXPECT_EQ(base.epoch(), 0);
    EXPECT_EQ(base.map().shard_of(2), 0);
}

TEST(ShardPlan, SplitAppendsAFreshShard)
{
    const Shard_plan base{contiguous(8, 2)};
    Rebalance_plan plan;
    plan.splits.push_back(Shard_split{0, {2, 3}});
    const Shard_plan next = base.apply(plan, /*min_members=*/2);

    EXPECT_EQ(next.map().n_shards(), 3);
    EXPECT_EQ(next.map().members(0), (std::vector<Agent_id>{0, 1}));
    EXPECT_EQ(next.map().members(2), (std::vector<Agent_id>{2, 3}));
    EXPECT_EQ(next.pending(), (Migration_set{Migration{2, 0, 2}, Migration{3, 0, 2}}));
}

TEST(ShardPlan, MergeRecyclesDenseIdsByRelabelingTheLastShard)
{
    const Shard_plan base{contiguous(12, 3)};
    Rebalance_plan plan;
    plan.merges.push_back(Shard_merge{1, 0});
    const Shard_plan next = base.apply(plan, /*min_members=*/4);

    EXPECT_EQ(next.map().n_shards(), 2);
    EXPECT_EQ(next.map().members(0), (std::vector<Agent_id>{0, 1, 2, 3, 4, 5, 6, 7}));
    // Old shard 2 was relabeled onto the recycled id 1, membership untouched.
    EXPECT_EQ(next.map().members(1), (std::vector<Agent_id>{8, 9, 10, 11}));
    ASSERT_EQ(next.pending().size(), 4u);
    for (const Migration& m : next.pending()) {
        EXPECT_EQ(m.from, 1);
        EXPECT_EQ(m.to, 0);
    }
}

TEST(ShardPlan, RejectsInconsistentPlans)
{
    const Shard_plan base{contiguous(12, 3)};
    const auto apply = [&](const Rebalance_plan& plan, int min_members = 1) {
        return base.apply(plan, min_members);
    };

    EXPECT_THROW(apply(Rebalance_plan{}), common::Contract_error); // empty plan

    Rebalance_plan wrong_from;
    wrong_from.migrations.push_back(Migration{2, 1, 2}); // agent 2 lives on shard 0
    EXPECT_THROW(apply(wrong_from), common::Contract_error);

    Rebalance_plan self_move;
    self_move.migrations.push_back(Migration{2, 0, 0});
    EXPECT_THROW(apply(self_move), common::Contract_error);

    Rebalance_plan twice;
    twice.migrations.push_back(Migration{2, 0, 1});
    twice.migrations.push_back(Migration{2, 0, 2});
    EXPECT_THROW(apply(twice), common::Contract_error);

    Rebalance_plan foreign_mover;
    foreign_mover.splits.push_back(Shard_split{1, {2}}); // agent 2 is not on shard 1
    EXPECT_THROW(apply(foreign_mover), common::Contract_error);

    Rebalance_plan empties_source;
    empties_source.splits.push_back(Shard_split{0, {0, 1, 2, 3}});
    EXPECT_THROW(apply(empties_source), common::Contract_error);

    Rebalance_plan overlapping;
    overlapping.splits.push_back(Shard_split{0, {2, 3}});
    overlapping.merges.push_back(Shard_merge{0, 1});
    EXPECT_THROW(apply(overlapping), common::Contract_error);

    Rebalance_plan undersized; // both sides would hold 2 < 4 members
    undersized.splits.push_back(Shard_split{0, {2, 3}});
    EXPECT_THROW(apply(undersized, /*min_members=*/4), common::Contract_error);
}

TEST(ShardPlan, CarriedShardsMatchesIdenticalMembership)
{
    const Shard_plan base{contiguous(12, 3)};

    Rebalance_plan migrate;
    migrate.migrations.push_back(Migration{2, 0, 1});
    const Shard_plan moved = base.apply(migrate, 1);
    EXPECT_EQ(carried_shards(base.map(), moved.map()), (std::vector<int>{-1, -1, 2}));

    Rebalance_plan merge;
    merge.merges.push_back(Shard_merge{1, 0});
    const Shard_plan merged = base.apply(merge, 4);
    // New shard 1 is old shard 2 relabeled: carried despite the new id.
    EXPECT_EQ(carried_shards(base.map(), merged.map()), (std::vector<int>{-1, 2}));
}

// --------------------------------------------------------------- Rebalancer

std::vector<Shard_load> two_loads(std::int64_t hot_messages, std::int64_t cold_messages,
                                  int hot_agents, int cold_agents)
{
    Shard_load hot;
    hot.shard = 0;
    hot.agents = hot_agents;
    hot.plays = 4;
    hot.messages = hot_messages;
    Shard_load cold;
    cold.shard = 1;
    cold.agents = cold_agents;
    cold.plays = 4;
    cold.messages = cold_messages;
    return {hot, cold};
}

TEST(Rebalancer, LoadThresholdSplitsTheHotShardInHalf)
{
    // Shard 0: agents 0..7, shard 1: agents 8..11.
    const Shard_plan plan{Shard_map{std::vector<int>{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1}}};
    const auto policy = rebalance_load_threshold(/*ratio=*/1.5, /*min_members=*/4);
    const Rebalance_plan proposal = policy(plan, two_loads(8000, 400, 8, 4));
    ASSERT_EQ(proposal.splits.size(), 1u);
    EXPECT_TRUE(proposal.migrations.empty());
    EXPECT_EQ(proposal.splits[0].shard, 0);
    EXPECT_EQ(proposal.splits[0].movers, (std::vector<Agent_id>{4, 5, 6, 7}));
    // The proposal is a valid plan under the fabric's group floor.
    const Shard_plan next = plan.apply(proposal, 4);
    EXPECT_EQ(next.map().shard_sizes(), (std::vector<int>{4, 4, 4}));
}

TEST(Rebalancer, LoadThresholdDrainsByMigrationWhenTooSmallToSplit)
{
    // Shard 0: agents 0..5 (6 members: halves of 3 < 4 cannot split).
    const Shard_plan plan{Shard_map{std::vector<int>{0, 0, 0, 0, 0, 0, 1, 1, 1, 1}}};
    const auto policy = rebalance_load_threshold(1.5, 4);
    const Rebalance_plan proposal = policy(plan, two_loads(6000, 400, 6, 4));
    EXPECT_TRUE(proposal.splits.empty());
    ASSERT_EQ(proposal.migrations.size(), 1u);
    EXPECT_EQ(proposal.migrations[0], (Migration{5, 0, 1}));
}

TEST(Rebalancer, LoadThresholdLeavesABalancedFabricAlone)
{
    const Shard_plan plan{Shard_map{std::vector<int>{0, 0, 0, 0, 1, 1, 1, 1}}};
    const auto policy = rebalance_load_threshold(1.5, 4);
    EXPECT_TRUE(policy(plan, two_loads(1000, 900, 4, 4)).empty());
    // No plays yet: nothing to compare, no churn.
    std::vector<Shard_load> idle = two_loads(0, 0, 4, 4);
    idle[0].plays = idle[1].plays = 0;
    EXPECT_TRUE(policy(plan, idle).empty());
}

TEST(Rebalancer, SizeCapSplitsEveryOversizedShard)
{
    const Shard_plan plan{contiguous(20, 2)}; // two shards of 10
    const auto policy = rebalance_size_cap(/*max_members=*/8, /*min_members=*/4);
    const Rebalance_plan proposal = policy(plan, {});
    ASSERT_EQ(proposal.splits.size(), 2u);
    EXPECT_EQ(proposal.splits[0].shard, 0);
    EXPECT_EQ(proposal.splits[1].shard, 1);
    const Shard_plan next = plan.apply(proposal, 4);
    EXPECT_EQ(next.map().shard_sizes(), (std::vector<int>{5, 5, 5, 5}));
}

TEST(Rebalancer, ExplicitScriptIsKeyedOnTheEpoch)
{
    Rebalance_plan first;
    first.migrations.push_back(Migration{0, 0, 1});
    Rebalance_plan second;
    second.merges.push_back(Shard_merge{1, 0});
    const auto policy = rebalance_explicit({first, second});

    // Pure in the epoch: consulting epoch e always yields scripted[e], no
    // hidden cursor — copies of the policy and re-runs stay bit-identical.
    const Shard_plan epoch0{contiguous(8, 2)};
    EXPECT_EQ(policy(epoch0, {}).migrations.size(), 1u);
    EXPECT_EQ(policy(epoch0, {}).migrations.size(), 1u);
    const Shard_plan epoch1 = epoch0.apply(first, /*min_members=*/1);
    EXPECT_EQ(policy(epoch1, {}).merges.size(), 1u);
    const Shard_plan epoch2 = epoch1.apply(second, /*min_members=*/1);
    EXPECT_TRUE(policy(epoch2, {}).empty());
}

// ----------------------------------------------------------- Elastic fabric

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

/// Honest population with `cheaters` playing the dominated action forever —
/// reconstructible from the global id alone, as the elastic contract needs.
Behavior_factory cheater_factory(std::set<Agent_id> cheaters)
{
    return [cheaters](Agent_id g) -> std::unique_ptr<authority::Agent_behavior> {
        if (cheaters.count(g) != 0) return std::make_unique<authority::Fixed_action_behavior>(0);
        return std::make_unique<authority::Honest_behavior>();
    };
}

Fabric_config elastic_config(int threads, std::uint64_t seed, std::set<Agent_id> cheaters,
                             bool disconnecting = false)
{
    Fabric_config config;
    config.f = 1;
    config.spec_factory = dominant_specs();
    if (disconnecting) {
        config.punishment = [] { return std::make_unique<authority::Disconnect_scheme>(); };
    } else {
        config.punishment = [] { return std::make_unique<authority::Fine_scheme>(1.0, 1e9); };
    }
    config.seed = seed;
    config.threads = threads;
    config.behavior_factory = cheater_factory(std::move(cheaters));
    return config;
}

TEST(ElasticFabric, MigrationKeepsOneContinuousHistoryPerGlobalId)
{
    // 15 agents over 3 shards of 5; agent 4 (a cheater) migrates 0 -> 1.
    Fabric fabric{contiguous(15, 3), elastic_config(1, /*seed=*/21, {4})};
    fabric.run_pulses(1);
    fabric.run_plays(3);

    const auto pre = fabric.agent_history(4);
    ASSERT_GE(pre.size(), 2u);
    for (const auto& play : pre) {
        EXPECT_EQ(play.action, 0);
        EXPECT_TRUE(play.punished);
    }
    const pipeline::Pipeline_authority* untouched = &fabric.shard(2);
    const std::int64_t untouched_plays =
        static_cast<std::int64_t>(fabric.shard(2).agreed_plays().size());

    Rebalance_plan plan;
    plan.migrations.push_back(Migration{4, 0, 1});
    const Rebalance_report report = fabric.apply_rebalance(plan);
    EXPECT_EQ(report.epoch, 1);
    EXPECT_EQ(report.retired, 2);
    EXPECT_EQ(report.carried, 1);
    EXPECT_EQ(report.rebuilt, 2);
    EXPECT_EQ(report.moves, (Migration_set{Migration{4, 0, 1}}));
    EXPECT_EQ(fabric.epoch(), 1);
    EXPECT_EQ(fabric.map().shard_of(4), 1);

    // The untouched shard kept its very group object and its play history.
    EXPECT_EQ(&fabric.shard(2), untouched);
    EXPECT_EQ(static_cast<std::int64_t>(fabric.shard(2).agreed_plays().size()), untouched_plays);

    fabric.run_plays(3);

    // One continuous history by global id: the folded epoch-0 entries are a
    // prefix, and the cheater keeps getting caught inside its new group.
    const auto post = fabric.agent_history(4);
    ASSERT_GT(post.size(), pre.size());
    for (std::size_t i = 0; i < pre.size(); ++i) EXPECT_EQ(post[i], pre[i]) << "entry " << i;
    for (const auto& play : post) {
        EXPECT_EQ(play.action, 0);
        EXPECT_TRUE(play.punished);
    }
    // Standings fold across the epochs: fouls == punished plays, continuous.
    EXPECT_EQ(fabric.agent_standing(4).fouls, static_cast<int>(post.size()));
    EXPECT_GT(fabric.agent_standing(4).fines, 0.0);
    EXPECT_EQ(fabric.agent_standing(3).fouls, 0);
}

TEST(ElasticFabric, CrossEpochAccountingSumsWithoutLossOrDoubleCount)
{
    Fabric fabric{contiguous(15, 3), elastic_config(2, /*seed=*/33, {4, 13})};
    fabric.run_pulses(1);
    fabric.run_plays(3);

    Rebalance_plan plan;
    plan.migrations.push_back(Migration{4, 0, 1});
    fabric.apply_rebalance(plan);
    fabric.run_plays(3);

    const metrics::Fabric_metrics report = fabric.report();
    EXPECT_EQ(report.epochs, 2); // epoch-0 retirees + current epoch-1 samples

    // Every agreed play appears in exactly one sample: summing plays x agents
    // over samples must equal the total routed per-agent history length.
    std::int64_t sample_agent_plays = 0;
    std::int64_t sample_plays = 0;
    std::int64_t sample_fouls = 0;
    for (const metrics::Shard_sample& sample : report.per_shard) {
        sample_agent_plays += sample.plays * sample.agents;
        sample_plays += sample.plays;
        sample_fouls += sample.fouls;
    }
    EXPECT_EQ(sample_plays, report.total_plays);
    EXPECT_EQ(sample_fouls, report.total_fouls);

    std::int64_t history_entries = 0;
    std::int64_t history_fouls = 0;
    int ledger_fouls = 0;
    for (Agent_id g = 0; g < fabric.n_agents(); ++g) {
        const auto history = fabric.agent_history(g);
        history_entries += static_cast<std::int64_t>(history.size());
        for (const auto& play : history) history_fouls += play.punished ? 1 : 0;
        ledger_fouls += fabric.agent_standing(g).fouls;
    }
    EXPECT_EQ(history_entries, sample_agent_plays);
    EXPECT_EQ(history_fouls, report.total_fouls);
    EXPECT_EQ(static_cast<std::int64_t>(ledger_fouls), report.total_fouls);
}

TEST(ElasticFabric, MergeCarriesTheRelabeledGroupUntouched)
{
    Fabric fabric{contiguous(12, 3), elastic_config(1, /*seed=*/8, {})};
    fabric.run_pulses(1);
    fabric.run_plays(2);
    const pipeline::Pipeline_authority* old_shard2 = &fabric.shard(2);

    Rebalance_plan plan;
    plan.merges.push_back(Shard_merge{1, 0});
    const Rebalance_report report = fabric.apply_rebalance(plan);
    EXPECT_EQ(report.retired, 2);
    EXPECT_EQ(report.carried, 1);
    EXPECT_EQ(report.rebuilt, 1);

    EXPECT_EQ(fabric.n_shards(), 2);
    EXPECT_EQ(fabric.map().members(1), (std::vector<Agent_id>{8, 9, 10, 11}));
    EXPECT_EQ(&fabric.shard(1), old_shard2); // relabeled, not rebuilt
    EXPECT_EQ(fabric.shard(0).n_agents(), 8);

    fabric.run_plays(2);
    // 3 shards x 2 plays before the merge, 2 shards x 2 after.
    EXPECT_GE(fabric.report().total_plays, 10);
    for (Agent_id g = 0; g < 12; ++g) {
        for (const auto& play : fabric.agent_history(g)) EXPECT_EQ(play.action, 1);
    }
}

TEST(ElasticFabric, ExpulsionIsPermanentAcrossMigration)
{
    Fabric fabric{contiguous(15, 3), elastic_config(1, /*seed=*/5, {2}, /*disconnecting=*/true)};
    fabric.run_pulses(1);
    fabric.run_plays(3);
    ASSERT_TRUE(fabric.agent_disconnected(2));
    EXPECT_FALSE(fabric.agent_standing(2).active);

    // Migrate the expelled agent's shard; the rebuilt group re-expels it
    // before booting.
    Rebalance_plan plan;
    plan.migrations.push_back(Migration{2, 0, 1});
    fabric.apply_rebalance(plan);
    EXPECT_TRUE(fabric.agent_disconnected(2));
    EXPECT_EQ(fabric.map().shard_of(2), 1);
    EXPECT_TRUE(fabric.shard(1).is_agent_disconnected(fabric.map().local_of(2)));
    EXPECT_FALSE(fabric.agent_standing(2).active);

    fabric.run_plays(2);
    EXPECT_TRUE(fabric.agent_disconnected(2));
    EXPECT_FALSE(fabric.agent_disconnected(3));

    // One expelled agent = one expulsion in the cross-epoch totals: the
    // re-enacted expulsion in the rebuilt group is not counted again.
    EXPECT_EQ(fabric.report().total_disconnected, 1);
}

TEST(ElasticFabric, PunishedAgentsSurviveTheCheatersShardRebuild)
{
    // A fined (never expelled) cheater stays in the game. Rebuilding its
    // shard gives it a fresh executive ledger at fouls = 0, so only the
    // carried ledger still remembers the foul.
    Fabric fabric{contiguous(15, 3), elastic_config(1, /*seed=*/21, {4})};
    fabric.run_pulses(1);
    fabric.run_plays(2);
    ASSERT_EQ(fabric.punished_agents(), (std::vector<Agent_id>{4}));

    Rebalance_plan plan;
    plan.migrations.push_back(Migration{4, 0, 1});
    const Rebalance_report report = fabric.apply_rebalance(plan);
    ASSERT_EQ(report.rebuilt, 2);
    const pipeline::Pipeline_authority& rebuilt = fabric.shard(fabric.map().shard_of(4));
    EXPECT_EQ(rebuilt.agreed_standings()[static_cast<std::size_t>(fabric.map().local_of(4))].fouls,
              0);

    EXPECT_EQ(fabric.punished_agents(), (std::vector<Agent_id>{4}));
    EXPECT_FALSE(fabric.agent_disconnected(4));
}

TEST(ElasticFabric, InfeasiblePolicyProposalIsSkippedNotFatal)
{
    // The policy's min_members (2) is looser than the fabric's 3f+1 = 4
    // floor, so its split of an 8-agent shard into 4+4 is fine but a split
    // of a 6-agent shard into 3+3 would violate the floor. maybe_rebalance
    // must skip such a proposal, not abort the run.
    Fabric_config config = elastic_config(1, /*seed=*/3, {});
    config.rebalance = rebalance_size_cap(/*max_members=*/5, /*min_members=*/2);
    Fabric fabric{Shard_map{std::vector<int>{0, 0, 0, 0, 0, 0, 1, 1, 1, 1}},
                  std::move(config)};
    fabric.run_pulses(1);
    fabric.run_plays(2);

    EXPECT_FALSE(fabric.maybe_rebalance()); // 6 -> 3+3 breaks the floor: skipped
    EXPECT_EQ(fabric.epoch(), 0);
    EXPECT_EQ(fabric.n_shards(), 2);
    fabric.run_plays(1); // the fabric keeps running untouched
    EXPECT_GE(fabric.report().total_plays, 6);

    // The same infeasible plan through the strict explicit path still throws.
    Rebalance_plan plan;
    plan.splits.push_back(Shard_split{0, {3, 4, 5}});
    EXPECT_THROW(fabric.apply_rebalance(plan), common::Contract_error);
}

TEST(ElasticFabric, ProposalOverloadingAGroupWithByzantineAgentsIsSkippedNotFatal)
{
    // f = 1 and one Byzantine agent per shard: migrating agent 6 into shard
    // 0 keeps both groups above the 3f+1 floor but puts two Byzantine agents
    // in one group. The policy's load view carries no Byzantine count, so
    // maybe_rebalance must skip the proposal rather than abort the run.
    Rebalance_plan plan;
    plan.migrations.push_back(Migration{6, 1, 0});
    Fabric_config config = elastic_config(1, /*seed=*/5, {});
    config.byzantine = {0, 6};
    config.rebalance = rebalance_explicit({plan});
    Fabric fabric{Shard_map{12, 2}, std::move(config)};
    fabric.run_pulses(1);
    fabric.run_plays(1);

    EXPECT_FALSE(fabric.maybe_rebalance());
    EXPECT_EQ(fabric.epoch(), 0);
    fabric.run_plays(1); // the fabric keeps running untouched

    // The explicit path stays strict and refuses before building anything.
    try {
        fabric.apply_rebalance(plan);
        ADD_FAILURE() << "apply_rebalance accepted two Byzantine agents in one group";
    } catch (const common::Contract_error& e) {
        EXPECT_EQ(std::string{e.what()}.rfind("Fabric:", 0), 0u) << e.what();
    }
    EXPECT_EQ(fabric.epoch(), 0);
    EXPECT_EQ(fabric.map().shard_of(6), 1);
    fabric.run_plays(1);
    EXPECT_GE(fabric.report().total_plays, 6);
}

TEST(ElasticFabric, StaticFabricRefusesToRebalance)
{
    std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors;
    for (int i = 0; i < 8; ++i) behaviors.push_back(std::make_unique<authority::Honest_behavior>());
    Fabric_config config = elastic_config(1, 3, {});
    config.behavior_factory = nullptr;
    Fabric fabric{contiguous(8, 2), std::move(behaviors), std::move(config)};

    Rebalance_plan plan;
    plan.migrations.push_back(Migration{0, 0, 1});
    EXPECT_THROW(fabric.apply_rebalance(plan), common::Contract_error);

    // A rebalance policy without a behavior factory is rejected outright.
    std::vector<std::unique_ptr<authority::Agent_behavior>> more;
    for (int i = 0; i < 8; ++i) more.push_back(std::make_unique<authority::Honest_behavior>());
    Fabric_config bad = elastic_config(1, 3, {});
    bad.behavior_factory = nullptr;
    bad.rebalance = rebalance_size_cap(8, 4);
    EXPECT_THROW(Fabric(contiguous(8, 2), std::move(more), std::move(bad)),
                 common::Contract_error);
}

TEST(ElasticFabric, QuiescePausesAffectedShardsAtMostOnePlayWindow)
{
    Fabric fabric{contiguous(15, 3), elastic_config(1, /*seed=*/17, {})};
    fabric.run_pulses(1);
    fabric.run_plays(2);
    const common::Pulse window = fabric.shard(0).pulses_for_plays(1);

    // Aligned at a window edge: the transition needs no quiesce pulses.
    Rebalance_plan plan;
    plan.migrations.push_back(Migration{4, 0, 1});
    EXPECT_EQ(fabric.apply_rebalance(plan).max_quiesce_pulses, 0);

    // Mid-play: affected shards run out the remainder of the window, never
    // more.
    fabric.run_pulses(3);
    Rebalance_plan back;
    back.migrations.push_back(Migration{4, 1, 0});
    const Rebalance_report report = fabric.apply_rebalance(back);
    EXPECT_EQ(report.max_quiesce_pulses, window - 3);
    EXPECT_LE(report.max_quiesce_pulses, window);

    fabric.run_pulses(window - 3); // the untouched shard finishes its play
    fabric.run_plays(1);
    EXPECT_EQ(fabric.epoch(), 2);
    EXPECT_GT(fabric.report().total_plays, 0);
}

/// Full observable state of an elastic run, for determinism comparison.
struct Observed {
    metrics::Fabric_metrics report;
    std::vector<std::vector<Agent_play>> histories;
    int epoch = 0;
    std::vector<int> assignment;
};

Observed observe_size_cap_run(int threads, std::uint64_t seed)
{
    // One hot shard of 8 over a 16-agent population; the size-cap policy
    // must split it at the first rebalance check.
    Fabric_config config = elastic_config(threads, seed, {1, 14});
    config.rebalance = rebalance_size_cap(/*max_members=*/6, /*min_members=*/4);
    Fabric fabric{Shard_map{std::vector<int>{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}},
                  std::move(config)};
    fabric.run_pulses(1);
    fabric.run_plays(2);
    EXPECT_TRUE(fabric.maybe_rebalance());
    EXPECT_EQ(fabric.n_shards(), 4);
    EXPECT_FALSE(fabric.maybe_rebalance()); // topology now satisfies the cap
    fabric.run_plays(2);

    Observed observed;
    observed.report = fabric.report();
    for (Agent_id g = 0; g < fabric.n_agents(); ++g) {
        observed.histories.push_back(fabric.agent_history(g));
    }
    observed.epoch = fabric.epoch();
    observed.assignment = fabric.map().assignment();
    return observed;
}

TEST(ElasticFabric, SizeCapRunIsBitIdenticalAcrossExecutorWidthsAndRuns)
{
    const Observed single = observe_size_cap_run(1, /*seed=*/99);
    EXPECT_EQ(single.epoch, 1);
    const Observed repeat = observe_size_cap_run(1, /*seed=*/99);
    EXPECT_TRUE(single.report == repeat.report);
    EXPECT_EQ(single.histories, repeat.histories);
    EXPECT_EQ(single.assignment, repeat.assignment);
    for (const int threads : {2, 4}) {
        const Observed pooled = observe_size_cap_run(threads, /*seed=*/99);
        EXPECT_TRUE(single.report == pooled.report) << threads << " threads";
        EXPECT_EQ(single.histories, pooled.histories) << threads << " threads";
        EXPECT_EQ(single.epoch, pooled.epoch) << threads << " threads";
        EXPECT_EQ(single.assignment, pooled.assignment) << threads << " threads";
    }
}

TEST(ElasticFabric, AnarchyTermsHoldExactlyAcrossASplit)
{
    // 16 agents over 2 shards of 8; cheater 5 is fined, never expelled, so
    // it plays 0 in every play while everyone else plays the dominant 1.
    // Shard 0 splits 4+4 mid-run: its epoch-0 group retires and two fresh
    // groups take over, while shard 1 is carried.
    Fabric fabric{contiguous(16, 2), elastic_config(1, /*seed=*/17, {5})};
    fabric.run_pulses(1);
    fabric.run_plays(2);

    Rebalance_plan plan;
    plan.splits.push_back(Shard_split{0, {4, 5, 6, 7}});
    const Rebalance_report transition = fabric.apply_rebalance(plan);
    ASSERT_EQ(transition.retired, 1);
    ASSERT_EQ(transition.rebuilt, 2);
    fabric.run_plays(3);

    const metrics::Fabric_metrics report = fabric.report();
    ASSERT_EQ(report.per_shard.size(), 4u); // one retiree + three live groups
    ASSERT_EQ(report.epochs, 2);
    double social = 0.0;
    double optimal = 0.0;
    for (const metrics::Shard_sample& sample : report.per_shard) {
        ASSERT_GT(sample.plays, 0) << "epoch " << sample.epoch << " shard " << sample.shard;
        // The all-ones optimum costs one per agent per play.
        ASSERT_TRUE(sample.optimal_cost.has_value());
        EXPECT_EQ(*sample.optimal_cost, static_cast<double>(sample.plays * sample.agents))
            << "epoch " << sample.epoch << " shard " << sample.shard;
        // The cheater's group pays one extra unit per play.
        const bool holds_cheater = sample.epoch == 0 ? sample.shard == 0 : sample.shard == 2;
        const std::int64_t extra = holds_cheater ? sample.plays : 0;
        EXPECT_EQ(sample.social_cost, static_cast<double>(sample.plays * sample.agents + extra))
            << "epoch " << sample.epoch << " shard " << sample.shard;
        social += sample.social_cost;
        optimal += *sample.optimal_cost;
    }
    ASSERT_TRUE(report.price_of_anarchy.has_value());
    EXPECT_EQ(*report.price_of_anarchy, social / optimal);
    EXPECT_GT(*report.price_of_anarchy, 1.0);
}

/// A game in which the last agent has no applicable action at all, so it
/// has no pure profile and no play the authority could ever agree on.
class Actionless_game final : public game::Strategic_game {
public:
    explicit Actionless_game(int n) : n_{n} {}
    int n_agents() const override { return n_; }
    int n_actions(Agent_id i) const override { return i == n_ - 1 ? 0 : 2; }
    double cost(Agent_id, const game::Pure_profile&) const override { return 1.0; }

private:
    int n_;
};

TEST(ElasticFabric, GameWithAnActionlessAgentIsRefusedAtConstructionAndRebalance)
{
    // Four-member groups get the actionless game; larger groups the sound one.
    Fabric_config config = elastic_config(1, /*seed=*/9, {});
    config.spec_factory = [sound = dominant_specs()](int s, const std::vector<Agent_id>& members) {
        authority::Game_spec spec = sound(s, members);
        if (members.size() == 4) {
            spec.game = std::make_shared<Actionless_game>(static_cast<int>(members.size()));
        }
        return spec;
    };
    EXPECT_THROW((Fabric{contiguous(8, 2), config}), common::Contract_error);

    // A split into 4+4 would need the actionless game: refused before the
    // fabric is touched.
    Fabric fabric{contiguous(16, 2), config};
    fabric.run_pulses(1);
    fabric.run_plays(1);
    Rebalance_plan plan;
    plan.splits.push_back(Shard_split{0, {4, 5, 6, 7}});
    EXPECT_THROW(fabric.apply_rebalance(plan), common::Contract_error);
    EXPECT_EQ(fabric.epoch(), 0);
    EXPECT_EQ(fabric.n_shards(), 2);
    fabric.run_plays(1);
    EXPECT_EQ(fabric.report().total_plays, 4);
}

// -------------------------------------------------- Pipelined elastic mode

TEST(PipelinedElastic, MigrationWaitsForTheBatchEdge)
{
    Fabric_config config = elastic_config(2, /*seed=*/41, {4});
    config.batch_k = 4;
    Fabric fabric{contiguous(15, 3), std::move(config)};
    fabric.run_pulses(1);
    fabric.run_plays(4); // one whole batch everywhere
    const common::Pulse batch_window = fabric.shard(0).pulses_for_plays(1);
    EXPECT_EQ(fabric.shard(0).pulses_to_window_edge(), 0); // aligned after a whole batch

    const auto pre = fabric.agent_history(4);
    ASSERT_EQ(pre.size(), 4u);

    // Step into the middle of the next batch, then migrate: the affected
    // shards must run out the in-flight batch (<= one batch window).
    fabric.run_pulses(5);
    Rebalance_plan plan;
    plan.migrations.push_back(Migration{4, 0, 1});
    const Rebalance_report report = fabric.apply_rebalance(plan);
    EXPECT_EQ(report.max_quiesce_pulses, batch_window - 5);

    fabric.run_pulses(batch_window - 5);
    fabric.run_plays(4);
    const auto post = fabric.agent_history(4);
    ASSERT_GT(post.size(), pre.size());
    for (std::size_t i = 0; i < pre.size(); ++i) EXPECT_EQ(post[i], pre[i]) << "entry " << i;
    for (const auto& play : post) EXPECT_EQ(play.action, 0);

    // The batch-edge audit attaches one foul verdict per flagged batch; the
    // folded ledger stays consistent with the folded history across the
    // migration, and the cheater keeps being flagged inside its new group.
    const auto punished_entries = [](const std::vector<Agent_play>& history) {
        int count = 0;
        for (const auto& play : history) count += play.punished ? 1 : 0;
        return count;
    };
    EXPECT_EQ(fabric.agent_standing(4).fouls, punished_entries(post));
    EXPECT_GT(punished_entries(post), punished_entries(pre));
    EXPECT_GT(punished_entries(pre), 0);
}

} // namespace
