// The polynomial authority mode: the per-play (k = 1) Pipeline_authority
// running on parallel interactive consistency over Turpin-Coan/phase-king
// instead of EIG.
// Requires n > 4f; must produce the same verdicts and outcomes as the EIG
// mode, at polynomial message cost.
#include <gtest/gtest.h>

#include "pipeline/pipeline_authority.h"
#include "sim/malicious.h"

namespace {

using namespace ga::authority;
using ga::pipeline::Pipeline_authority;
using ga::pipeline::Pipeline_processor;
using ga::bft::Ic_factory;
using ga::bft::ic_eig;
using ga::bft::ic_parallel_phase_king;
using ga::common::Agent_id;
using ga::common::Processor_id;
using ga::common::Rng;

class Dominant_game final : public ga::game::Strategic_game {
public:
    explicit Dominant_game(int n) : n_{n} {}
    int n_agents() const override { return n_; }
    int n_actions(Agent_id) const override { return 2; }
    double cost(Agent_id i, const ga::game::Pure_profile& p) const override
    {
        return p[static_cast<std::size_t>(i)] == 1 ? 1.0 : 2.0;
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

TEST(ScalableAuthority, RoundBudgetIsPolynomialSchedule)
{
    // EIG at f=1: 2 send rounds; parallel IC: 1 + (2 + 2*(1+1)) = 7 rounds.
    EXPECT_EQ(Pipeline_processor::ic_rounds_of(ic_eig(), 5, 1), 2);
    EXPECT_EQ(Pipeline_processor::ic_rounds_of(ic_parallel_phase_king(), 5, 1), 7);
}

TEST(ScalableAuthority, ChooseIcFollowsTheMeasuredCrossover)
{
    // bft::choose_ic encodes E7's BM_authority_play crossover: EIG wins at
    // f = 1, parallel-IC from f = 2 on — but only where n > 4f allows it.
    EXPECT_EQ(Pipeline_processor::ic_rounds_of(ga::bft::choose_ic(4, 1), 4, 1),
              Pipeline_processor::ic_rounds_of(ic_eig(), 4, 1));
    EXPECT_EQ(Pipeline_processor::ic_rounds_of(ga::bft::choose_ic(5, 1), 5, 1),
              Pipeline_processor::ic_rounds_of(ic_eig(), 5, 1));
    EXPECT_EQ(Pipeline_processor::ic_rounds_of(ga::bft::choose_ic(9, 2), 9, 2),
              Pipeline_processor::ic_rounds_of(ic_parallel_phase_king(), 9, 2));
    EXPECT_EQ(Pipeline_processor::ic_rounds_of(ga::bft::choose_ic(13, 3), 13, 3),
              Pipeline_processor::ic_rounds_of(ic_parallel_phase_king(), 13, 3));
    // n = 7, f = 2 violates parallel-IC's n > 4f: EIG is the only option.
    EXPECT_EQ(Pipeline_processor::ic_rounds_of(ga::bft::choose_ic(7, 2), 7, 2),
              Pipeline_processor::ic_rounds_of(ic_eig(), 7, 2));
}

TEST(ScalableAuthority, DefaultSubstrateIsAutoSelected)
{
    // A default-constructed authority (no explicit Ic_factory) gets the
    // crossover substrate: EIG's 4(2+1)+2 period at f = 1, parallel-IC's
    // 4(9+1)+2 at n = 9, f = 2.
    Pipeline_authority at_f1{dominant_spec(5), 1, /*k=*/1, honest_behaviors(5), {},
                             disconnects(),    Rng{17}};
    EXPECT_EQ(at_f1.pulses_per_batch(), 14);
    Pipeline_authority at_f2{dominant_spec(9), 2, /*k=*/1, honest_behaviors(9), {},
                             disconnects(),    Rng{18}};
    EXPECT_EQ(at_f2.pulses_per_batch(), 42);

    // The override still wins.
    Pipeline_authority forced{dominant_spec(9), 2, /*k=*/1, honest_behaviors(9), {},
                              disconnects(),    Rng{19}, {},
                              ic_eig()};
    EXPECT_EQ(forced.pulses_per_batch(), 18);
}

TEST(ScalableAuthority, AutoSelectedPlaysStillAgree)
{
    // End-to-end sanity at the auto-selected f = 2 point.
    const int n = 9;
    Pipeline_authority authority{dominant_spec(n), 2, /*k=*/1, honest_behaviors(n), {},
                                 disconnects(),    Rng{20}};
    authority.run_pulses(1 + 2 * authority.pulses_per_batch());
    const auto& reference = authority.processor(0).plays();
    ASSERT_GE(reference.size(), 2u);
    for (const Processor_id id : authority.honest_slots()) {
        EXPECT_EQ(authority.processor(id).plays().size(), reference.size());
    }
}

TEST(ScalableAuthority, AllHonestPlaysAgreeAcrossReplicas)
{
    const int n = 5;
    const int f = 1;
    Pipeline_authority authority{dominant_spec(n), f, /*k=*/1, honest_behaviors(n), {},
                                 disconnects(),    Rng{1},      {},
                                 ic_parallel_phase_king()};
    authority.run_pulses(1 + 3 * authority.pulses_per_batch());

    const auto slots = authority.honest_slots();
    const auto& reference = authority.processor(slots.front()).plays();
    ASSERT_GE(reference.size(), 2u);
    for (const Processor_id id : slots) {
        const auto& plays = authority.processor(id).plays();
        ASSERT_EQ(plays.size(), reference.size());
        for (std::size_t p = 0; p < plays.size(); ++p) {
            EXPECT_EQ(plays[p].outcome, reference[p].outcome);
            EXPECT_TRUE(plays[p].punished.empty());
        }
    }
}

TEST(ScalableAuthority, DeviantPunishedSameAsEigMode)
{
    const int n = 5;
    const int f = 1;

    auto run_mode = [&](Ic_factory factory) {
        auto behaviors = honest_behaviors(n);
        behaviors[2] = std::make_unique<Fixed_action_behavior>(0);
        Pipeline_authority authority{dominant_spec(n), f, /*k=*/1, std::move(behaviors), {},
                                     disconnects(),    Rng{2}, {},
                                     std::move(factory)};
        authority.run_pulses(1 + 2 * authority.pulses_per_batch());
        return authority.processor(0).plays().front().punished;
    };

    const auto eig_punished = run_mode(ic_eig());
    const auto pic_punished = run_mode(ic_parallel_phase_king());
    EXPECT_EQ(eig_punished, pic_punished);
    ASSERT_EQ(pic_punished.size(), 1u);
    EXPECT_EQ(pic_punished.front(), 2);
}

TEST(ScalableAuthority, ByzantineBabblerStillCaught)
{
    const int n = 5;
    const int f = 1;
    auto behaviors = honest_behaviors(n);
    behaviors[4].reset();
    Pipeline_authority authority{dominant_spec(n), f, /*k=*/1, std::move(behaviors), {4},
                                 disconnects(),    Rng{3}, {},
                                 ic_parallel_phase_king()};
    authority.run_pulses(1 + 2 * authority.pulses_per_batch());

    for (const Processor_id id : authority.honest_slots()) {
        EXPECT_FALSE(authority.processor(id).executive().standing(4).active);
    }
    EXPECT_TRUE(authority.engine().is_disconnected(4));
}

TEST(ScalableAuthority, MessageBytesBeatEigAtHighF)
{
    // n = 9, f = 2: count one play's traffic under both modes.
    const int n = 9;
    const int f = 2;
    auto run_mode = [&](Ic_factory factory) {
        Pipeline_authority authority{dominant_spec(n), f, /*k=*/1, honest_behaviors(n), {},
                                     disconnects(),    Rng{4}, {},
                                     std::move(factory)};
        authority.run_pulses(1 + authority.pulses_per_batch());
        return authority.engine().stats().payload_bytes;
    };
    const auto eig_bytes = run_mode(ic_eig());
    const auto pic_bytes = run_mode(ic_parallel_phase_king());
    EXPECT_LT(pic_bytes, eig_bytes);
}

TEST(ScalableAuthority, SelfStabilizesAfterTransientFault)
{
    const int n = 5;
    const int f = 1;
    Pipeline_authority authority{dominant_spec(n),
                                 f, /*k=*/1, honest_behaviors(n),
                                    {},
                                    [] { return std::make_unique<Fine_scheme>(1.0, 1e9); },
                                    Rng{5},
                                    {},
                                    ic_parallel_phase_king()};
    authority.run_pulses(1 + 2 * authority.pulses_per_batch());
    authority.inject_transient_fault();

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
    while (!clocks_agree() && guard < 500000) {
        authority.run_pulses(1);
        ++guard;
    }
    ASSERT_TRUE(clocks_agree());
    authority.run_pulses(authority.pulses_per_batch());

    std::vector<std::size_t> floor;
    for (const Processor_id id : authority.honest_slots())
        floor.push_back(authority.processor(id).plays().size());
    authority.run_pulses(2 * authority.pulses_per_batch());

    const auto slots = authority.honest_slots();
    const auto& reference = authority.processor(slots.front()).plays();
    for (std::size_t s = 0; s < slots.size(); ++s) {
        const auto& plays = authority.processor(slots[s]).plays();
        ASSERT_GT(plays.size(), floor[s]);
        EXPECT_EQ(plays.back().outcome, reference.back().outcome);
        EXPECT_EQ(plays.back().completed_at, reference.back().completed_at);
    }
}

} // namespace
