// System-level equivocation: Two_faced_processor drives protocol-compliant
// but mutually inconsistent traffic into the clock, SSBA, and authority
// stacks; closure and agreement must survive.
#include <gtest/gtest.h>

#include "clock/clock_sync.h"
#include "pipeline/pipeline_authority.h"
#include "sim/two_faced.h"
#include "ssba/ssba.h"

namespace {

using namespace ga;
using common::Processor_id;
using common::Pulse;
using common::Rng;

TEST(TwoFaced, FacesMustShareId)
{
    auto a = std::make_unique<clock::Clock_sync_processor>(0, 4, 1, 4, Rng{1});
    auto b = std::make_unique<clock::Clock_sync_processor>(1, 4, 1, 4, Rng{2});
    EXPECT_THROW(sim::Two_faced_processor(std::move(a), std::move(b), 2),
                 common::Contract_error);
}

TEST(TwoFaced, ClockClosureSurvivesEquivocatingClock)
{
    // Three honest clocks + one two-faced clock whose faces start at
    // different values (so it reports different clocks to different halves).
    const int n = 4;
    const int f = 1;
    const int period = 4;
    Rng rng{3};
    sim::Engine engine{sim::complete_graph(n), rng.split(0)};
    for (Processor_id id = 0; id < 3; ++id) {
        engine.install(
            std::make_unique<clock::Clock_sync_processor>(id, n, f, period, rng.split(id + 1), 0));
    }
    engine.install(std::make_unique<sim::Two_faced_processor>(
                       std::make_unique<clock::Clock_sync_processor>(3, n, f, period,
                                                                     rng.split(10), 1),
                       std::make_unique<clock::Clock_sync_processor>(3, n, f, period,
                                                                     rng.split(11), 3),
                       /*split_at=*/2),
                   /*byzantine=*/true);

    engine.run_pulse(); // boot
    for (int t = 1; t <= 4 * period; ++t) {
        engine.run_pulse();
        const int expected = t % period;
        for (Processor_id id = 0; id < 3; ++id) {
            EXPECT_EQ(engine.processor_as<clock::Clock_sync_processor>(id).clock(), expected)
                << "pulse " << t;
        }
    }
}

TEST(TwoFaced, SsbaAgreementSurvivesEquivocatingReplica)
{
    const int n = 4;
    const int f = 1;
    const int period = f + 3;
    Rng rng{5};

    const auto provider = [period](Pulse pulse) {
        common::Bytes value;
        common::put_u64(value, static_cast<std::uint64_t>(pulse / period));
        return value;
    };
    const auto evil_provider = [](Pulse) { return common::bytes_of("evil"); };

    sim::Engine engine{sim::complete_graph(n), rng.split(0)};
    for (Processor_id id = 0; id < 3; ++id) {
        engine.install(
            std::make_unique<ssba::Ssba_processor>(id, n, f, period, rng.split(id + 1), provider));
    }
    engine.install(std::make_unique<sim::Two_faced_processor>(
                       std::make_unique<ssba::Ssba_processor>(3, n, f, period, rng.split(20),
                                                              provider),
                       std::make_unique<ssba::Ssba_processor>(3, n, f, period, rng.split(21),
                                                              evil_provider),
                       /*split_at=*/2),
                   /*byzantine=*/true);

    engine.run(1 + period * 8);

    const auto& reference = engine.processor_as<ssba::Ssba_processor>(0).decisions();
    ASSERT_GE(reference.size(), 6u);
    for (Processor_id id = 1; id < 3; ++id) {
        const auto& decisions = engine.processor_as<ssba::Ssba_processor>(id).decisions();
        ASSERT_EQ(decisions.size(), reference.size());
        for (std::size_t w = 0; w < decisions.size(); ++w) {
            EXPECT_EQ(decisions[w].value, reference[w].value) << "window " << w;
        }
    }
    // Validity: the three honest replicas share inputs, so the equivocator
    // cannot force its own value through.
    for (const auto& record : reference) {
        EXPECT_NE(record.value, common::bytes_of("evil"));
        EXPECT_FALSE(record.value.empty());
    }
}

/// Dominant-action game for the authority-level equivocation test.
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

TEST(TwoFaced, AuthorityPunishesEquivocatingReplicaConsistently)
{
    // The equivocator's two faces run the honest authority protocol but
    // commit to different actions (honest face vs deviant face). Interactive
    // consistency forces one agreed commitment set; the honest replicas
    // either see a consistent (then lawful or foul) submission — and always
    // the SAME verdict.
    const int n = 4;
    const int f = 1;

    authority::Game_spec spec;
    spec.name = "dominant";
    spec.game = std::make_shared<Dominant_game>(n);
    spec.equilibrium.assign(static_cast<std::size_t>(n), {0.0, 1.0});

    Rng rng{7};
    sim::Engine engine{sim::complete_graph(n), rng.split(0)};
    const auto punish = [] { return std::make_unique<authority::Disconnect_scheme>(); };
    // One §3.3 play per period: the replicated processor at k = 1.
    const auto replica = [&](Processor_id id, std::unique_ptr<authority::Agent_behavior> behavior,
                             Rng replica_rng) {
        return std::make_unique<pipeline::Pipeline_processor>(
            id, n, f, spec, /*k=*/1, std::move(behavior), punish(), replica_rng,
            bft::ic_eig());
    };
    for (Processor_id id = 0; id < 3; ++id) {
        engine.install(
            replica(id, std::make_unique<authority::Honest_behavior>(), rng.split(id + 1)));
    }
    engine.install(
        std::make_unique<sim::Two_faced_processor>(
            replica(3, std::make_unique<authority::Honest_behavior>(), rng.split(30)),
            replica(3, std::make_unique<authority::Fixed_action_behavior>(0), rng.split(31)),
            /*split_at=*/2),
        /*byzantine=*/true);

    engine.run(1 + 2 * pipeline::Pipeline_processor::clock_period_for(
                       ssba::Clocked_ic::rounds_of(bft::ic_eig(), n, f)));

    // All honest replicas saw the same plays with the same punished sets.
    const auto& reference = engine.processor_as<pipeline::Pipeline_processor>(0).plays();
    ASSERT_FALSE(reference.empty());
    for (Processor_id id = 1; id < 3; ++id) {
        const auto& plays = engine.processor_as<pipeline::Pipeline_processor>(id).plays();
        ASSERT_EQ(plays.size(), reference.size());
        for (std::size_t p = 0; p < plays.size(); ++p) {
            EXPECT_EQ(plays[p].outcome, reference[p].outcome);
            EXPECT_EQ(plays[p].punished, reference[p].punished);
        }
    }
    // The honest agents 0..2 are never punished.
    for (const auto& play : reference) {
        for (const auto punished_agent : play.punished) EXPECT_EQ(punished_agent, 3);
    }
}

} // namespace
