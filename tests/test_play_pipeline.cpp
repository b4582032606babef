// The batched play pipeline (src/pipeline/): vector commitments, the
// reference cascade, the batch-edge audit, the Pipeline_authority tier, and
// the pipelined sharded fabric.
//
// The §3.3 pipeline amortizes agreement cost over batches of k plays: one IC
// activation agrees on every agent's Merkle-sealed vector of k action
// commitments, plays open one-by-one, and the §5.3-style deferred audit fires
// at the batch edge — delayed by at most one window, never lost, and honest
// agents are never flagged.
#include <gtest/gtest.h>

#include "game/analysis.h"
#include "game/canonical.h"
#include "pipeline/pipeline_authority.h"
#include "shard/fabric.h"

namespace {

using namespace ga;
using namespace ga::pipeline;
using ga::common::Rng;

/// Binary-action game where action 1 strictly dominates (cost 1 vs 2).
class Dominant_game final : public game::Strategic_game {
public:
    explicit Dominant_game(int n) : n_{n} {}
    int n_agents() const override { return n_; }
    int n_actions(common::Agent_id) const override { return 2; }
    double cost(common::Agent_id i, const game::Pure_profile& p) const override
    {
        return p[static_cast<std::size_t>(i)] == 1 ? 1.0 : 2.0;
    }

private:
    int n_;
};

authority::Game_spec dominant_spec(int n)
{
    authority::Game_spec spec;
    spec.name = "dominant";
    spec.game = std::make_shared<Dominant_game>(n);
    spec.equilibrium.assign(static_cast<std::size_t>(n), {0.0, 1.0});
    return spec;
}

std::vector<std::unique_ptr<authority::Agent_behavior>> honest_behaviors(int n)
{
    std::vector<std::unique_ptr<authority::Agent_behavior>> v;
    for (int i = 0; i < n; ++i) v.push_back(std::make_unique<authority::Honest_behavior>());
    return v;
}

authority::Punishment_factory disconnect_factory()
{
    return [] { return std::make_unique<authority::Disconnect_scheme>(); };
}

Pipeline_authority honest_pipeline(int n, int f, int k, std::uint64_t seed,
                                   std::map<common::Processor_id, Tamper> tampers = {})
{
    return Pipeline_authority{dominant_spec(n), f,  k, honest_behaviors(n), {},
                              disconnect_factory(), Rng{seed}, {}, {}, std::move(tampers)};
}

// ------------------------------------------------------------ Vector commit

TEST(VectorCommit, RootRoundTripBindsArity)
{
    Batch_root root;
    root.k = 8;
    root.root.fill(0xab);
    const common::Bytes wire = encode(root);
    const auto decoded = decode_batch_root(wire, 8);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, root);
    EXPECT_FALSE(decode_batch_root(wire, 4).has_value()) << "arity mismatch must reject";
    EXPECT_FALSE(decode_batch_root({}, 8).has_value());
    common::Bytes truncated{wire.begin(), wire.end() - 1};
    EXPECT_FALSE(decode_batch_root(truncated, 8).has_value());
}

TEST(VectorCommit, RevealVectorRoundTripBindsArity)
{
    Rng rng{7};
    Batch_reveal reveal;
    for (int j = 0; j < 4; ++j) {
        reveal.openings.push_back(crypto::commit(common::bytes_of("x"), rng).opening);
    }
    const common::Bytes wire = encode(reveal);
    const auto decoded = decode_batch_reveal(wire, 4);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->openings.size(), 4u);
    EXPECT_EQ(decoded->openings[2].payload, reveal.openings[2].payload);
    EXPECT_FALSE(decode_batch_reveal(wire, 8).has_value()) << "arity mismatch must reject";
    EXPECT_FALSE(decode_batch_reveal(common::bytes_of("garbage"), 4).has_value());
}

TEST(VectorCommit, SpotRevealRoundTripAndProofBound)
{
    Rng rng{7};
    Spot_reveal reveal;
    reveal.opening = crypto::commit(common::bytes_of("x"), rng).opening;
    reveal.proof.resize(3);
    for (auto& node : reveal.proof) node.sibling.fill(0x5c);
    reveal.proof[1].sibling_is_left = true;

    const common::Bytes wire = encode(reveal);
    const auto decoded = decode_spot_reveal(wire, 3);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->opening.payload, reveal.opening.payload);
    EXPECT_EQ(decoded->proof.size(), 3u);
    EXPECT_TRUE(decoded->proof[1].sibling_is_left);
    EXPECT_FALSE(decode_spot_reveal(wire, 2).has_value()) << "oversized proof must reject";
    EXPECT_FALSE(decode_spot_reveal(common::bytes_of("garbage"), 8).has_value());
}

// ------------------------------------------------------- Reference cascade

TEST(ReferenceCascade, EveryStepIsTheBestResponseProfile)
{
    const auto game = std::make_shared<game::Matrix_game>(game::manipulated_matching_pennies());
    const game::Pure_profile start{0, 0};
    const auto cascade = reference_cascade(*game, start, 6);
    ASSERT_EQ(cascade.size(), 7u);
    EXPECT_EQ(cascade.front(), start);
    for (std::size_t j = 0; j + 1 < cascade.size(); ++j) {
        for (common::Agent_id i = 0; i < game->n_agents(); ++i) {
            EXPECT_EQ(cascade[j + 1][static_cast<std::size_t>(i)],
                      game::best_response(*game, i, cascade[j]))
                << "step " << j << " agent " << i;
        }
    }
}

TEST(ReferenceCascade, DominantGameFixesThePrescription)
{
    Dominant_game game{4};
    const auto cascade = reference_cascade(game, {0, 0, 0, 0}, 3);
    for (std::size_t j = 1; j < cascade.size(); ++j) {
        EXPECT_EQ(cascade[j], (game::Pure_profile{1, 1, 1, 1}));
    }
}

// ------------------------------------------------------------ Play batcher

TEST(PlayBatcher, SealedBatchOpensAsAVectorAndPositionByPosition)
{
    const int k = 8;
    Play_batcher batcher{dominant_spec(4), 0, k};
    EXPECT_FALSE(batcher.built());
    authority::Honest_behavior honest;
    Rng rng{11};
    batcher.build(honest, {0, 0, 0, 0}, 0, rng);
    ASSERT_TRUE(batcher.built());

    const Batch_root root = batcher.root();
    EXPECT_EQ(root.k, static_cast<std::uint32_t>(k));

    // The whole-vector opening (the pipeline's normal O(k) check).
    const auto reveal = decode_batch_reveal(batcher.reveal_bytes({}, rng), k);
    ASSERT_TRUE(reveal.has_value());
    EXPECT_TRUE(opens_vector(root, *reveal));

    // The logarithmic spot openings, with index binding: a position's proof
    // must not open any other position.
    for (int j = 0; j < k; ++j) {
        EXPECT_EQ(batcher.actions()[static_cast<std::size_t>(j)], 1) << "honest = dominant";
        const Spot_reveal spot = batcher.spot_reveal(j);
        EXPECT_TRUE(opens_position(root, j, spot));
        EXPECT_FALSE(opens_position(root, (j + 1) % k, spot));
    }
}

TEST(PlayBatcher, TamperedVectorFailsToOpenTheRoot)
{
    Play_batcher batcher{dominant_spec(4), 2, 4};
    authority::Honest_behavior honest;
    Rng rng{12};
    batcher.build(honest, {1, 1, 1, 1}, 0, rng);
    const Batch_root root = batcher.root();

    const auto honest_reveal = decode_batch_reveal(batcher.reveal_bytes({}, rng), 4);
    ASSERT_TRUE(honest_reveal.has_value());
    EXPECT_TRUE(opens_vector(root, *honest_reveal));

    const auto tampered = decode_batch_reveal(batcher.reveal_bytes(Tamper{1, 0}, rng), 4);
    ASSERT_TRUE(tampered.has_value());
    EXPECT_FALSE(opens_vector(root, *tampered))
        << "one substituted opening must break the whole vector";
}

// ------------------------------------------------------------- Batch audit

struct Audit_fixture {
    authority::Game_spec spec = dominant_spec(4);
    std::vector<game::Pure_profile> cascade;
    std::vector<std::vector<Reveal_slot>> reveals;
    std::vector<bool> has_root;
    std::vector<bool> active;

    explicit Audit_fixture(int k)
        : cascade{reference_cascade(*dominant_spec(4).game, {1, 1, 1, 1}, k)},
          reveals(static_cast<std::size_t>(k), std::vector<Reveal_slot>(4)),
          has_root(4, true),
          active(4, true)
    {
        for (auto& play : reveals) {
            for (auto& slot : play) {
                slot.status = Reveal_slot::Status::verified;
                slot.action = 1;
            }
        }
    }
};

TEST(BatchAudit, CleanBatchFlagsNobody)
{
    Audit_fixture fx{4};
    for (const auto& v : audit_batch(fx.spec, fx.cascade, fx.reveals, fx.has_root, fx.active)) {
        EXPECT_EQ(v.offence, authority::Offence::none);
    }
}

TEST(BatchAudit, OffenceTaxonomyMatchesTheClassicTier)
{
    Audit_fixture fx{4};
    fx.has_root[0] = false;                                          // no sealed vector
    fx.reveals[2][1].status = Reveal_slot::Status::unverifiable;     // vector mismatch
    fx.reveals[1][2].status = Reveal_slot::Status::missing;          // no reveal
    fx.reveals[3][3].action = 0;                                     // dominated action

    const auto verdicts = audit_batch(fx.spec, fx.cascade, fx.reveals, fx.has_root, fx.active);
    EXPECT_EQ(verdicts[0].offence, authority::Offence::missing_commitment);
    EXPECT_EQ(verdicts[1].offence, authority::Offence::commitment_mismatch);
    EXPECT_EQ(verdicts[2].offence, authority::Offence::missing_commitment);
    EXPECT_EQ(verdicts[3].offence, authority::Offence::not_best_response);
}

TEST(BatchAudit, IllegalActionInsideWindow)
{
    Audit_fixture fx{2};
    fx.reveals[0][1].action = 9;
    EXPECT_EQ(audit_batch(fx.spec, fx.cascade, fx.reveals, fx.has_root, fx.active)[1].offence,
              authority::Offence::illegal_action);
}

TEST(BatchAudit, InactiveAgentsAreNotAudited)
{
    Audit_fixture fx{2};
    fx.active[2] = false;
    fx.has_root[2] = false;
    fx.reveals[0][2].status = Reveal_slot::Status::missing;
    EXPECT_EQ(audit_batch(fx.spec, fx.cascade, fx.reveals, fx.has_root, fx.active)[2].offence,
              authority::Offence::none);
}

TEST(BatchAudit, MalformedWindowIncriminatesNobody)
{
    // Post-transient-fault shapes (empty window, wrong cascade arity) must
    // never produce a verdict — a garbage batch cannot frame honest agents.
    Audit_fixture fx{2};
    for (const auto& v : audit_batch(fx.spec, {}, {}, fx.has_root, fx.active)) {
        EXPECT_EQ(v.offence, authority::Offence::none);
    }
    fx.cascade.pop_back();
    for (const auto& v : audit_batch(fx.spec, fx.cascade, fx.reveals, fx.has_root, fx.active)) {
        EXPECT_EQ(v.offence, authority::Offence::none);
    }
}

// ------------------------------------------------- Pipeline authority tier

TEST(PipelineAuthority, ScheduleAmortizesKFold)
{
    // The batched schedule is k-invariant — four phases per batch, the same
    // 4(f+2)+2-pulse period as ONE per-play (k = 1) §3.3 play — so the pulse
    // amortization is exactly k-fold.
    const int r = 2; // EIG, f = 1
    EXPECT_EQ(Pipeline_processor::clock_period_for(r), 4 * (r + 1) + 2);
    const Pipeline_authority per_play = honest_pipeline(4, 1, 1, /*seed=*/1);
    EXPECT_EQ(per_play.pulses_per_batch(), Pipeline_processor::clock_period_for(r));
    Pipeline_authority da = honest_pipeline(4, 1, 8, /*seed=*/1);
    EXPECT_EQ(da.pulses_per_batch(), 4 * (r + 1) + 2);
    EXPECT_EQ(da.pulses_for_plays(8), da.pulses_per_batch());
    EXPECT_EQ(da.pulses_for_plays(9), 2 * da.pulses_per_batch());
    const double batched = static_cast<double>(da.pulses_per_batch()) / 8.0;
    const double single = per_play.pulses_per_batch();
    EXPECT_DOUBLE_EQ(single / batched, 8.0) << "k = 8 amortizes 8x in pulses";
}

TEST(PipelineAuthority, HonestBatchesPublishKPlaysAndNoFouls)
{
    const int k = 4;
    Pipeline_authority da = honest_pipeline(4, 1, k, /*seed=*/2);
    da.run_pulses(1);
    da.run_batches(3);
    ASSERT_EQ(da.agreed_plays().size(), static_cast<std::size_t>(3 * k));
    for (const authority::Play_record& play : da.agreed_plays()) {
        EXPECT_EQ(play.outcome, (game::Pure_profile{1, 1, 1, 1}));
        EXPECT_TRUE(play.punished.empty());
    }
    for (const authority::Standing& standing : da.agreed_standings()) {
        EXPECT_TRUE(standing.active);
        EXPECT_EQ(standing.fouls, 0);
    }
    EXPECT_TRUE(da.disconnected_agents().empty());
}

TEST(PipelineAuthority, ReplicasAgreeBitForBit)
{
    Pipeline_authority da = honest_pipeline(5, 1, 4, /*seed=*/3);
    da.run_pulses(1);
    da.run_batches(2);
    const auto& reference = da.processor(0).plays();
    ASSERT_EQ(reference.size(), 8u);
    for (const common::Processor_id id : da.honest_slots()) {
        EXPECT_EQ(da.processor(id).plays(), reference) << "replica " << id;
        EXPECT_EQ(da.processor(id).batches_completed(), 2);
    }
}

TEST(PipelineAuthority, DeviatorIsCaughtExactlyAtTheBatchEdge)
{
    const int k = 4;
    authority::Game_spec spec = dominant_spec(4);
    auto behaviors = honest_behaviors(4);
    behaviors[2] = std::make_unique<authority::Fixed_action_behavior>(0);
    Pipeline_authority da{spec, 1,  k, std::move(behaviors), {},
                          disconnect_factory(), Rng{4}};
    da.run_pulses(1);
    da.run_batches(1);

    const auto& plays = da.agreed_plays();
    ASSERT_EQ(plays.size(), static_cast<std::size_t>(k));
    for (int j = 0; j < k; ++j) {
        // The deviation is *published* while the window runs (§5.3 exposure)…
        EXPECT_EQ(plays[static_cast<std::size_t>(j)].outcome[2], 0);
        if (j < k - 1) {
            EXPECT_TRUE(plays[static_cast<std::size_t>(j)].punished.empty())
                << "detection must wait for the window edge";
        }
    }
    // …and the verdict lands on the batch edge, attributed to the last play.
    EXPECT_EQ(plays.back().punished, std::vector<common::Agent_id>{2});
    EXPECT_EQ(da.agreed_standings()[2].fouls, 1);
    EXPECT_FALSE(da.agreed_standings()[2].active);
    EXPECT_EQ(da.disconnected_agents(), std::vector<common::Agent_id>{2});
    for (const common::Agent_id honest : {0, 1, 3}) {
        EXPECT_EQ(da.agreed_standings()[static_cast<std::size_t>(honest)].fouls, 0);
    }

    // The next batch substitutes the prescription for the expelled agent.
    da.run_batches(1);
    EXPECT_EQ(da.agreed_plays().back().outcome, (game::Pure_profile{1, 1, 1, 1}));
}

TEST(PipelineAuthority, EquivocatorInsideTheWindowIsFlaggedAtTheEdge)
{
    // The two-faced batch strategy: sealed root is clean, one reveal opens a
    // substituted commitment. The commitment-vector mismatch is detected at
    // the batch edge and the agent disconnected; honest agents stay clean.
    const int k = 4;
    Pipeline_authority da = honest_pipeline(4, 1, k, /*seed=*/5, {{1, Tamper{2, 0}}});
    da.run_pulses(1);
    da.run_batches(1);

    EXPECT_EQ(da.agreed_plays().back().punished, std::vector<common::Agent_id>{1});
    EXPECT_EQ(da.agreed_standings()[1].fouls, 1);
    EXPECT_FALSE(da.agreed_standings()[1].active);
    EXPECT_EQ(da.disconnected_agents(), std::vector<common::Agent_id>{1});
    for (const common::Agent_id honest : {0, 2, 3}) {
        EXPECT_EQ(da.agreed_standings()[static_cast<std::size_t>(honest)].fouls, 0);
        EXPECT_TRUE(da.agreed_standings()[static_cast<std::size_t>(honest)].active);
    }
    // The tampered play's outcome already fell back to the prescription (an
    // unverifiable reveal is never published).
    EXPECT_EQ(da.agreed_plays()[2].outcome[1], 1);
}

TEST(PipelineAuthority, ByzantineBabblerIsExpelledAndPlaysContinue)
{
    authority::Game_spec spec = dominant_spec(4);
    auto behaviors = honest_behaviors(4);
    behaviors[3].reset();
    Pipeline_authority da{spec, 1,  4, std::move(behaviors), {3},
                          disconnect_factory(), Rng{6}};
    da.run_pulses(1);
    da.run_batches(2);
    EXPECT_FALSE(da.agreed_standings()[3].active) << "no sealed vector => flagged at edge 1";
    EXPECT_EQ(da.disconnected_agents(), std::vector<common::Agent_id>{3});
    EXPECT_EQ(da.agreed_plays().size(), 8u);
    for (const common::Agent_id honest : {0, 1, 2}) {
        EXPECT_EQ(da.agreed_standings()[static_cast<std::size_t>(honest)].fouls, 0);
    }
}

TEST(PipelineAuthority, RecoversFromTransientFaultsWithoutFramingHonestAgents)
{
    Pipeline_authority da = honest_pipeline(4, 1, 4, /*seed=*/7);
    da.run_pulses(1);
    da.run_batches(1);
    da.inject_transient_fault();
    // Convergence of the n = 4 clock is quick (E2: ~12.5 pulses mean); give
    // it generous slack, then demand steady-state progress again.
    da.run_pulses(30 * da.pulses_per_batch());
    const std::size_t recovered = da.agreed_plays().size();
    EXPECT_GT(recovered, 4u) << "plays must resume after the fault";
    da.run_batches(1);
    EXPECT_EQ(da.agreed_plays().size(), recovered + 4u);
    for (const authority::Standing& standing : da.agreed_standings()) {
        EXPECT_TRUE(standing.active) << "transient faults must never cost an honest agent";
        EXPECT_EQ(standing.fouls, 0);
    }
}

TEST(PipelineAuthority, ValidatesConstruction)
{
    EXPECT_THROW(honest_pipeline(4, 1, 0, 8), common::Contract_error);
    EXPECT_THROW(honest_pipeline(4, 1, k_max_batch + 1, 8), common::Contract_error);
    EXPECT_THROW(honest_pipeline(4, 1, 4, 8, {{9, Tamper{0, 0}}}), common::Contract_error);
    authority::Game_spec mixed = dominant_spec(4);
    mixed.audit_mode = authority::Audit_mode::mixed_seed;
    EXPECT_THROW((Pipeline_authority{mixed, 1,  4, honest_behaviors(4), {},
                                     disconnect_factory(), Rng{8}}),
                 common::Contract_error);
}

// --------------------------------------------------------- Pipelined fabric

shard::Fabric pipelined_fabric(int agents, int shards, int threads, int k, std::uint64_t seed,
                               const std::set<common::Agent_id>& byzantine = {},
                               std::map<common::Agent_id, Tamper> tampers = {})
{
    shard::Fabric_config config;
    config.f = 1;
    config.spec_factory = [](int, const std::vector<common::Agent_id>& members) {
        return dominant_spec(static_cast<int>(members.size()));
    };
    config.punishment = disconnect_factory();
    config.byzantine = byzantine;
    config.seed = seed;
    config.threads = threads;
    config.batch_k = k;
    config.tampers = std::move(tampers);
    std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors;
    for (common::Agent_id g = 0; g < agents; ++g) {
        if (byzantine.count(g) != 0) {
            behaviors.push_back(nullptr);
        } else {
            behaviors.push_back(std::make_unique<authority::Honest_behavior>());
        }
    }
    return shard::Fabric{shard::Shard_map{agents, shards}, std::move(behaviors),
                         std::move(config)};
}

/// Everything a pipelined-fabric run can observe.
struct Observed {
    metrics::Fabric_metrics report;
    std::vector<std::vector<shard::Agent_play>> histories;
};

Observed observe(int agents, int shards, int threads, int k, int plays, std::uint64_t seed)
{
    shard::Fabric fabric =
        pipelined_fabric(agents, shards, threads, k, seed, /*byzantine=*/{1});
    fabric.run_pulses(1);
    fabric.run_plays(plays);
    Observed observed{fabric.report(), {}};
    for (common::Agent_id g = 0; g < agents; ++g) {
        observed.histories.push_back(fabric.agent_history(g));
    }
    return observed;
}

TEST(PipelinedFabric, RunsEveryShardInPipelinedMode)
{
    shard::Fabric fabric = pipelined_fabric(12, 3, 2, /*k=*/4, /*seed=*/21);
    EXPECT_GT(fabric.batch_k(), 1);
    EXPECT_EQ(fabric.batch_k(), 4);
    fabric.run_pulses(1);
    fabric.run_plays(8);
    const metrics::Fabric_metrics report = fabric.report();
    EXPECT_EQ(report.total_plays, 3 * 8);
    EXPECT_EQ(report.total_fouls, 0);
    EXPECT_EQ(report.total_disconnected, 0);
    for (int s = 0; s < fabric.n_shards(); ++s) {
        EXPECT_EQ(fabric.shard(s).batch_k(), 4) << "every shard batches k = 4 plays";
    }
}

TEST(PipelinedFabric, DeterministicAcrossExecutorWidths)
{
    // Same (seed, map, k): bit-identical verdicts, outcomes, and aggregates
    // on 1, 2, and 4 executor threads — the PR 2 contract extended to
    // pipelined mode.
    const Observed one = observe(12, 3, 1, 4, 8, /*seed=*/31);
    const Observed two = observe(12, 3, 2, 4, 8, /*seed=*/31);
    const Observed four = observe(12, 3, 4, 4, 8, /*seed=*/31);
    EXPECT_EQ(one.report, two.report);
    EXPECT_EQ(one.report, four.report);
    EXPECT_EQ(one.histories, two.histories);
    EXPECT_EQ(one.histories, four.histories);
    EXPECT_GT(one.report.total_plays, 0);
}

TEST(PipelinedFabric, DeterministicAcrossRepeatedRuns)
{
    const Observed first = observe(12, 3, 4, 4, 8, /*seed=*/32);
    const Observed second = observe(12, 3, 4, 4, 8, /*seed=*/32);
    EXPECT_EQ(first.report, second.report);
    EXPECT_EQ(first.histories, second.histories);
    const Observed other_seed = observe(12, 3, 4, 4, 8, /*seed=*/33);
    EXPECT_NE(other_seed.report.total_traffic, first.report.total_traffic)
        << "different seeds must not collide bit-for-bit";
}

TEST(PipelinedFabric, MaliciousAgentsAreAlwaysDetectedByTheWindowEdge)
{
    // A Byzantine slot on shard 0 and an equivocator on shard 2: both must be
    // expelled by their first batch edge, honest agents everywhere unscathed.
    shard::Fabric fabric = pipelined_fabric(12, 3, 2, /*k=*/4, /*seed=*/22,
                                            /*byzantine=*/{1}, {{9, Tamper{1, 0}}});
    fabric.run_pulses(1);
    fabric.run_plays(4);
    EXPECT_EQ(fabric.punished_agents(), (std::vector<common::Agent_id>{1, 9}));
    EXPECT_TRUE(fabric.agent_disconnected(1));
    EXPECT_TRUE(fabric.agent_disconnected(9));
    for (common::Agent_id g = 0; g < fabric.n_agents(); ++g) {
        if (g == 1 || g == 9) continue;
        EXPECT_EQ(fabric.agent_standing(g).fouls, 0) << "agent " << g;
        EXPECT_FALSE(fabric.agent_disconnected(g)) << "agent " << g;
    }
}

TEST(PipelinedFabric, ValidatesConfig)
{
    EXPECT_THROW(pipelined_fabric(12, 3, 1, 0, 1), common::Contract_error);
}

TEST(PipelinedFabric, TamperAtKOneIsFlaggedInTheTamperedPlay)
{
    // k = 1 runs the same processor as every other k, so the equivocation
    // instrumentation works on the per-play schedule too: the substituted
    // opening breaks the tampered agent's one-leaf vector in every play.
    const common::Agent_id tampered = 2;
    const int plays = 4;
    shard::Fabric_config config;
    config.f = 1;
    config.spec_factory = [](int, const std::vector<common::Agent_id>& members) {
        return dominant_spec(static_cast<int>(members.size()));
    };
    // Fined, never expelled: the agent stays in the game and is judged in
    // every play.
    config.punishment = [] { return std::make_unique<authority::Fine_scheme>(1.0, 1e9); };
    config.seed = 41;
    config.batch_k = 1;
    config.telemetry = true;
    config.tampers = {{tampered, Tamper{0, 0}}};
    shard::Fabric fabric{shard::Shard_map{8, 2}, honest_behaviors(8), std::move(config)};
    EXPECT_FALSE(fabric.batch_k() > 1);
    fabric.run_pulses(1);
    fabric.run_plays(plays);

    for (common::Agent_id g = 0; g < fabric.n_agents(); ++g) {
        const auto history = fabric.agent_history(g);
        ASSERT_EQ(history.size(), static_cast<std::size_t>(plays)) << "agent " << g;
        for (const auto& play : history) EXPECT_EQ(play.punished, g == tampered) << "agent " << g;
    }
    const std::vector<telemetry::Evidence> evidence = fabric.provenance(tampered);
    ASSERT_EQ(evidence.size(), static_cast<std::size_t>(plays));
    for (std::size_t p = 0; p < evidence.size(); ++p) {
        EXPECT_EQ(evidence[p].window, static_cast<std::int64_t>(p)) << "one play per window";
        EXPECT_EQ(evidence[p].offence,
                  authority::offence_name(authority::Offence::commitment_mismatch));
    }
}

} // namespace
