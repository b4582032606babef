// Distributed game-authority tier: the §3.3 sequence of BA activations over
// the simulator — a Pipeline_authority at k = 1, one play per 4-phase clock
// period. Soundness and completeness of punishment across replicas,
// Byzantine-slot handling, replica agreement, self-stabilization after
// transient faults, and equivalence with the local tier.
#include <gtest/gtest.h>

#include <functional>

#include "authority/local_authority.h"
#include "pipeline/pipeline_authority.h"
#include "sim/malicious.h"

namespace {

using namespace ga::authority;
using ga::pipeline::Pipeline_authority;
using ga::common::Agent_id;
using ga::common::Processor_id;
using ga::common::Rng;

/// Four-agent game with a dominant action: cost 1 for action 1, cost 2 for
/// action 0, independent of the others. The unique best response is always 1.
class Dominant_game final : public ga::game::Strategic_game {
public:
    explicit Dominant_game(int n) : n_{n} {}
    int n_agents() const override { return n_; }
    int n_actions(Agent_id) const override { return 2; }
    double cost(Agent_id i, const ga::game::Pure_profile& profile) const override
    {
        validate_profile(profile);
        return profile[static_cast<std::size_t>(i)] == 1 ? 1.0 : 2.0;
    }

private:
    int n_;
};

/// Minority game: your cost is the number of agents (including you) that chose
/// your action — the best response genuinely depends on the previous outcome,
/// exercising the outcome-agreement phase.
class Minority_game final : public ga::game::Strategic_game {
public:
    explicit Minority_game(int n) : n_{n} {}
    int n_agents() const override { return n_; }
    int n_actions(Agent_id) const override { return 2; }
    double cost(Agent_id i, const ga::game::Pure_profile& profile) const override
    {
        validate_profile(profile);
        int same = 0;
        for (const int a : profile)
            if (a == profile[static_cast<std::size_t>(i)]) ++same;
        return static_cast<double>(same);
    }

private:
    int n_;
};

Game_spec dominant_spec(int n)
{
    Game_spec spec;
    spec.name = "dominant";
    spec.game = std::make_shared<Dominant_game>(n);
    spec.equilibrium.assign(static_cast<std::size_t>(n), {0.0, 1.0});
    spec.audit_mode = Audit_mode::pure_best_response;
    return spec;
}

Game_spec minority_spec(int n)
{
    Game_spec spec;
    spec.name = "minority";
    spec.game = std::make_shared<Minority_game>(n);
    spec.equilibrium.assign(static_cast<std::size_t>(n), {1.0, 0.0});
    spec.audit_mode = Audit_mode::pure_best_response;
    return spec;
}

std::vector<std::unique_ptr<Agent_behavior>> honest_behaviors(int n)
{
    std::vector<std::unique_ptr<Agent_behavior>> v;
    for (int i = 0; i < n; ++i) v.push_back(std::make_unique<Honest_behavior>());
    return v;
}

Punishment_factory disconnects()
{
    return [] { return std::make_unique<Disconnect_scheme>(); };
}

Punishment_factory deep_fines()
{
    return [] { return std::make_unique<Fine_scheme>(1.0, 1e9); };
}

TEST(DistributedAuthority, AllHonestPlaysCompleteWithReplicaAgreement)
{
    const int n = 4;
    const int f = 1;
    Pipeline_authority authority{dominant_spec(n), f, /*k=*/1, honest_behaviors(n),
                                 {}, disconnects(), Rng{1}};
    authority.run_pulses(1 + 3 * authority.pulses_per_batch());

    const auto slots = authority.honest_slots();
    const auto& reference = authority.processor(slots.front()).plays();
    ASSERT_GE(reference.size(), 2u);
    for (const Processor_id id : slots) {
        const auto& plays = authority.processor(id).plays();
        ASSERT_EQ(plays.size(), reference.size()) << "processor " << id;
        for (std::size_t p = 0; p < plays.size(); ++p) {
            EXPECT_EQ(plays[p].outcome, reference[p].outcome);
            EXPECT_TRUE(plays[p].punished.empty());
            // Honest agents play the dominant action.
            for (const int a : plays[p].outcome) EXPECT_EQ(a, 1);
        }
        EXPECT_EQ(authority.processor(id).executive().active_count(), n);
    }
}

TEST(DistributedAuthority, OutcomeDependentGameReplicatesConsistently)
{
    const int n = 4;
    const int f = 1;
    Pipeline_authority authority{minority_spec(n), f, /*k=*/1, honest_behaviors(n),
                                 {}, disconnects(), Rng{2}};
    authority.run_pulses(1 + 4 * authority.pulses_per_batch());

    const auto slots = authority.honest_slots();
    const auto& reference = authority.processor(slots.front()).plays();
    ASSERT_GE(reference.size(), 3u);
    for (const Processor_id id : slots) {
        const auto& plays = authority.processor(id).plays();
        ASSERT_EQ(plays.size(), reference.size());
        for (std::size_t p = 0; p < plays.size(); ++p) {
            EXPECT_EQ(plays[p].outcome, reference[p].outcome);
            EXPECT_TRUE(plays[p].punished.empty()); // honest BR is never foul
        }
    }
}

TEST(DistributedAuthority, GameDeviantIsPunishedByEveryReplica)
{
    const int n = 4;
    const int f = 1;
    auto behaviors = honest_behaviors(n);
    behaviors[2] = std::make_unique<Fixed_action_behavior>(0); // never the BR
    Pipeline_authority authority{dominant_spec(n), f, /*k=*/1, std::move(behaviors),
                                 {}, disconnects(), Rng{3}};
    authority.run_pulses(1 + 2 * authority.pulses_per_batch());

    for (const Processor_id id : authority.honest_slots()) {
        const auto& plays = authority.processor(id).plays();
        ASSERT_FALSE(plays.empty());
        ASSERT_EQ(plays.front().punished.size(), 1u) << "processor " << id;
        EXPECT_EQ(plays.front().punished.front(), 2);
        EXPECT_FALSE(authority.processor(id).executive().standing(2).active);
    }
    // The physical network enforcement followed the replicas' ledgers.
    EXPECT_TRUE(authority.engine().is_disconnected(2));
}

TEST(DistributedAuthority, ByzantineBabblerIsPunishedAndDisconnected)
{
    const int n = 4;
    const int f = 1;
    auto behaviors = honest_behaviors(n);
    behaviors[3].reset(); // slot 3 is Byzantine
    Pipeline_authority authority{dominant_spec(n), f, /*k=*/1, std::move(behaviors),
                                 {3}, disconnects(), Rng{4}};
    authority.run_pulses(1 + 2 * authority.pulses_per_batch());

    for (const Processor_id id : authority.honest_slots()) {
        const auto& plays = authority.processor(id).plays();
        ASSERT_FALSE(plays.empty());
        bool flagged = false;
        for (const auto& play : plays)
            for (const Agent_id j : play.punished) flagged |= j == 3;
        EXPECT_TRUE(flagged) << "processor " << id;
        EXPECT_FALSE(authority.processor(id).executive().standing(3).active);
    }
    EXPECT_TRUE(authority.engine().is_disconnected(3));
}

TEST(DistributedAuthority, SilentByzantineIsAlsoCaught)
{
    const int n = 4;
    const int f = 1;
    auto behaviors = honest_behaviors(n);
    behaviors[3].reset();
    Pipeline_authority authority{
        dominant_spec(n), f, /*k=*/1, std::move(behaviors), {3}, disconnects(), Rng{5},
        [](Processor_id id, Rng) { return std::make_unique<ga::sim::Silent_processor>(id); }};
    authority.run_pulses(1 + 2 * authority.pulses_per_batch());

    for (const Processor_id id : authority.honest_slots()) {
        EXPECT_FALSE(authority.processor(id).executive().standing(3).active);
    }
}

TEST(DistributedAuthority, SelfStabilizesAfterTransientFault)
{
    const int n = 4;
    const int f = 1;
    // Deep fines: convergence-period misfires must not permanently exclude
    // anyone (the executive ledger is not itself self-stabilizing; §4).
    Pipeline_authority authority{minority_spec(n), f, /*k=*/1, honest_behaviors(n),
                                 {}, deep_fines(), Rng{6}};
    authority.run_pulses(1 + 2 * authority.pulses_per_batch());
    authority.inject_transient_fault();

    // Re-converge: run until honest clocks agree, then flush one full play.
    const auto clocks_agree = [&] {
        int value = -1;
        for (const Processor_id id : authority.honest_slots()) {
            const int c = authority.processor(id).clock();
            if (value < 0) value = c;
            if (c != value) return false;
        }
        return true;
    };
    int guard = 0;
    while (!clocks_agree() && guard < 300000) {
        authority.run_pulses(1);
        ++guard;
    }
    ASSERT_TRUE(clocks_agree()) << "clocks failed to re-synchronize";
    authority.run_pulses(authority.pulses_per_batch());

    // Closure: the next plays complete identically on all replicas with no
    // fouls for honest agents.
    std::vector<std::size_t> floor;
    std::vector<int> fouls_floor;
    for (const Processor_id id : authority.honest_slots()) {
        floor.push_back(authority.processor(id).plays().size());
        int fouls = 0;
        for (Agent_id j = 0; j < n; ++j)
            fouls += authority.processor(id).executive().standing(j).fouls;
        fouls_floor.push_back(fouls);
    }

    authority.run_pulses(3 * authority.pulses_per_batch());

    // Post-recovery plays complete at identical pulses on every replica, so
    // the log *tails* must match even if the fault garbled one in-flight
    // play's accounting differently across replicas.
    const auto slots = authority.honest_slots();
    const auto& reference = authority.processor(slots.front()).plays();
    constexpr std::size_t tail = 2;
    ASSERT_GE(reference.size(), tail);
    for (std::size_t s = 0; s < slots.size(); ++s) {
        const auto& plays = authority.processor(slots[s]).plays();
        ASSERT_GT(plays.size(), floor[s]) << "no plays completed after recovery";
        ASSERT_GE(plays.size(), tail);
        for (std::size_t t = 1; t <= tail; ++t) {
            EXPECT_EQ(plays[plays.size() - t].outcome,
                      reference[reference.size() - t].outcome);
            EXPECT_EQ(plays[plays.size() - t].completed_at,
                      reference[reference.size() - t].completed_at);
        }
        // No new fouls accrued after recovery.
        int fouls = 0;
        for (Agent_id j = 0; j < n; ++j)
            fouls += authority.processor(slots[s]).executive().standing(j).fouls;
        EXPECT_EQ(fouls, fouls_floor[s]) << "honest agent punished after recovery";
    }
}

// Cross-tier oracle: Local_authority is the reference the replicated tier
// must reproduce play for play. One deviator per row, deep fines so the
// deviator stays in the game and is judged every play, and the
// outcome-dependent minority game so each play's audit standard is the
// previous play's agreed outcome.
TEST(DistributedAuthority, MatchesLocalTierVerdicts)
{
    const int n = 5;
    const int f = 1;
    const int plays = 6;
    const Agent_id deviator = 2;
    const std::vector<std::pair<const char*, std::function<std::unique_ptr<Agent_behavior>()>>>
        attackers = {
            {"fixed-action", [] { return std::make_unique<Fixed_action_behavior>(0); }},
            {"fake-reveal", [] { return std::make_unique<Fake_reveal_behavior>(); }},
            {"illegal-action", [] { return std::make_unique<Illegal_action_behavior>(); }},
            {"malicious", [] { return std::make_unique<Malicious_behavior>(); }},
        };
    const std::vector<std::pair<const char*, Ic_factory>> substrates = {
        {"eig", ic_eig()},
        {"parallel-ic", ic_parallel_phase_king()},
    };

    for (const auto& [attacker, make_attacker] : attackers) {
        for (const auto& [substrate, ic] : substrates) {
            SCOPED_TRACE(std::string{attacker} + " over " + substrate);
            auto local_behaviors = honest_behaviors(n);
            local_behaviors[deviator] = make_attacker();
            Local_authority local{minority_spec(n), std::move(local_behaviors),
                                  deep_fines()(), Rng{7}};

            auto replicated_behaviors = honest_behaviors(n);
            replicated_behaviors[deviator] = make_attacker();
            Pipeline_authority replicated{minority_spec(n), f, /*k=*/1,
                                          std::move(replicated_behaviors), /*byzantine=*/{},
                                          deep_fines(), Rng{8}, /*make_byzantine=*/{}, ic};
            replicated.run_pulses(1 + plays * replicated.pulses_per_batch());
            const auto& agreed = replicated.agreed_plays();
            ASSERT_GE(agreed.size(), static_cast<std::size_t>(plays));

            int flagged_plays = 0;
            for (int p = 0; p < plays; ++p) {
                const Round_report report = local.play_round();
                std::vector<Agent_id> local_punished;
                for (const Verdict& v : report.verdicts)
                    if (v.offence != Offence::none) local_punished.push_back(v.agent);
                EXPECT_EQ(agreed[static_cast<std::size_t>(p)].punished, local_punished)
                    << "play " << p;
                EXPECT_EQ(agreed[static_cast<std::size_t>(p)].outcome, report.outcome)
                    << "play " << p;
                // Only the deviator is ever flagged (a fixed action is lawful
                // in the plays where it happens to be the best response).
                for (const Agent_id a : local_punished) EXPECT_EQ(a, deviator) << "play " << p;
                flagged_plays += local_punished.empty() ? 0 : 1;
            }
            EXPECT_GT(flagged_plays, 0);
        }
    }
}

TEST(DistributedAuthority, ConstructorValidation)
{
    EXPECT_THROW(Pipeline_authority(dominant_spec(4), 2, /*k=*/1, honest_behaviors(4), {},
                                    disconnects(), Rng{9}),
                 ga::common::Contract_error); // n=4 needs n>3f -> f<=1
    EXPECT_THROW(Pipeline_authority(dominant_spec(4), 1, /*k=*/1, honest_behaviors(4), {1, 2},
                                    disconnects(), Rng{9}),
                 ga::common::Contract_error); // 2 byzantine slots > f
}

} // namespace
