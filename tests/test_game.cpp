// Game-theory library tests: profiles, best responses, pure/mixed equilibria,
// social cost, anarchy/stability prices, and the paper's Fig. 1 numbers.
#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "game/analysis.h"
#include "game/canonical.h"
#include "game/congestion.h"
#include "game/linalg.h"
#include "game/mac_game.h"
#include "game/matrix_game.h"
#include "game/mixed.h"

namespace {

using namespace ga::game;

// ---------------------------------------------------------------- Matrix_game

TEST(MatrixGame, FlatIndexIsMixedRadix)
{
    const Matrix_game g{"t", {2, 3}, {{0, 1, 2, 3, 4, 5}, {0, 0, 0, 0, 0, 0}}};
    EXPECT_EQ(g.flat_index({0, 0}), 0u);
    EXPECT_EQ(g.flat_index({0, 2}), 2u);
    EXPECT_EQ(g.flat_index({1, 0}), 3u);
    EXPECT_EQ(g.flat_index({1, 2}), 5u);
    EXPECT_DOUBLE_EQ(g.cost(0, {1, 2}), 5.0);
}

TEST(MatrixGame, FromPayoffsNegatesIntoCosts)
{
    const Matrix_game mp = matching_pennies();
    EXPECT_DOUBLE_EQ(mp.payoff(0, {mp_heads, mp_heads}), +1.0);
    EXPECT_DOUBLE_EQ(mp.cost(0, {mp_heads, mp_heads}), -1.0);
    EXPECT_DOUBLE_EQ(mp.payoff(1, {mp_heads, mp_heads}), -1.0);
}

TEST(MatrixGame, ValidateProfileRejectsBadShapes)
{
    const Matrix_game mp = matching_pennies();
    EXPECT_THROW(mp.validate_profile({0}), ga::common::Contract_error);
    EXPECT_THROW(mp.validate_profile({0, 2}), ga::common::Contract_error);
    EXPECT_THROW(mp.validate_profile({-1, 0}), ga::common::Contract_error);
}

TEST(MatrixGame, ProfileCountMultiplies)
{
    const Matrix_game g = manipulated_matching_pennies();
    EXPECT_EQ(g.profile_count(), 6);
}

// ---------------------------------------------------------------- analysis

TEST(Analysis, ForEachProfileVisitsAll)
{
    const Matrix_game g = manipulated_matching_pennies();
    int visits = 0;
    for_each_profile(g, [&](const Pure_profile&) { ++visits; });
    EXPECT_EQ(visits, 6);
}

TEST(Analysis, ForEachProfileCountsInMixedRadixLastAgentFastest)
{
    const std::vector<double> zeros(6, 0.0);
    const Matrix_game g{"radix", {2, 1, 3}, {zeros, zeros, zeros}};
    std::vector<Pure_profile> visited;
    for_each_profile(g, [&](const Pure_profile& pi) { visited.push_back(pi); });
    const std::vector<Pure_profile> expected{{0, 0, 0}, {0, 0, 1}, {0, 0, 2},
                                             {1, 0, 0}, {1, 0, 1}, {1, 0, 2}};
    EXPECT_EQ(visited, expected);
}

TEST(Analysis, BestResponsePrisonersDilemmaIsDefect)
{
    const Matrix_game pd = prisoners_dilemma();
    EXPECT_EQ(best_response(pd, 0, {0, 0}), 1);
    EXPECT_EQ(best_response(pd, 0, {0, 1}), 1);
    EXPECT_EQ(best_response(pd, 1, {1, 0}), 1);
}

TEST(Analysis, BestResponseSetReportsTies)
{
    // A game where agent 0 is indifferent between both actions.
    const Matrix_game g{"tie", {2, 2}, {{1, 1, 1, 1}, {0, 1, 2, 3}}};
    EXPECT_EQ(best_response_set(g, 0, {0, 0}), (std::vector<int>{0, 1}));
}

TEST(Analysis, PrisonersDilemmaUniquePneIsDefectDefect)
{
    const Matrix_game pd = prisoners_dilemma();
    const auto equilibria = pure_nash_equilibria(pd);
    ASSERT_EQ(equilibria.size(), 1u);
    EXPECT_EQ(equilibria[0], (Pure_profile{1, 1}));
}

TEST(Analysis, MatchingPenniesHasNoPne)
{
    EXPECT_TRUE(pure_nash_equilibria(matching_pennies()).empty());
}

TEST(Analysis, CoordinationGameHasTwoPnes)
{
    const auto equilibria = pure_nash_equilibria(coordination_game());
    ASSERT_EQ(equilibria.size(), 2u);
    EXPECT_EQ(equilibria[0], (Pure_profile{0, 0}));
    EXPECT_EQ(equilibria[1], (Pure_profile{1, 1}));
}

TEST(Analysis, SocialCostSumsHonestAgentsOnly)
{
    const Matrix_game pd = prisoners_dilemma();
    EXPECT_DOUBLE_EQ(social_cost(pd, {1, 1}), 4.0);
    EXPECT_DOUBLE_EQ(social_cost(pd, {1, 1}, {true, false}), 2.0);
}

TEST(Analysis, SocialOptimumOfPrisonersDilemmaIsCooperate)
{
    const auto opt = social_optimum(prisoners_dilemma());
    EXPECT_EQ(opt.profile, (Pure_profile{0, 0}));
    EXPECT_DOUBLE_EQ(opt.cost, 2.0);
}

/// The optimum as a plain social_cost scan: the first strict minimum in
/// for_each_profile order, and how many profiles reach it.
struct Scanned_optimum {
    Social_optimum optimum;
    int minimizers = 0;
};

Scanned_optimum scan_optimum(const Strategic_game& game)
{
    Scanned_optimum scan;
    scan.optimum.cost = std::numeric_limits<double>::infinity();
    for_each_profile(game, [&](const Pure_profile& pi) {
        const double cost = social_cost(game, pi);
        if (cost < scan.optimum.cost) {
            scan.optimum = {pi, cost};
            scan.minimizers = 1;
        } else if (cost == scan.optimum.cost) {
            ++scan.minimizers;
        }
    });
    return scan;
}

/// Four agents with {2, 3, 4, 2} actions and costs drawn from {0, 1, 2}, so
/// many profiles tie on social cost.
Matrix_game seeded_tie_game(std::uint64_t seed)
{
    const std::vector<int> actions{2, 3, 4, 2};
    ga::common::Rng rng{seed};
    std::vector<std::vector<double>> costs(actions.size(), std::vector<double>(48));
    for (auto& agent : costs) {
        for (double& cost : agent) cost = static_cast<double>(rng.below(3));
    }
    return Matrix_game{"ties", actions, std::move(costs)};
}

TEST(Analysis, SocialOptimumMatchesASocialCostScanExactly)
{
    const Matrix_game ties = seeded_tie_game(/*seed=*/19);
    const Singleton_congestion_game congestion{5, {{1.0, 0.0}, {2.0, 0.5}, {0.5, 1.25}}};
    const Mac_game mac{4, {0.1, 0.3, 0.7, 1.0}, 0.2};
    const Matrix_game pd = prisoners_dilemma();
    const Matrix_game coordination = coordination_game();
    const Matrix_game pennies = matching_pennies();
    const std::vector<std::pair<const char*, const Strategic_game*>> games{
        {"prisoners_dilemma", &pd}, {"coordination", &coordination},
        {"matching_pennies", &pennies}, {"congestion", &congestion},
        {"mac", &mac},           {"seeded_ties", &ties}};
    for (const auto& [name, game] : games) {
        const Scanned_optimum reference = scan_optimum(*game);
        const Social_optimum optimum = social_optimum(*game);
        EXPECT_EQ(optimum.cost, reference.optimum.cost) << name;
        EXPECT_EQ(optimum.profile, reference.optimum.profile) << name;
    }
    // The seeded game really exercises the first-strict-minimum tie-break.
    EXPECT_GT(scan_optimum(ties).minimizers, 1);
}

/// Two agents, the second with no action at all: no pure profile exists.
class Actionless_game final : public Strategic_game {
public:
    int n_agents() const override { return 2; }
    int n_actions(ga::common::Agent_id i) const override { return i == 0 ? 2 : 0; }
    double cost(ga::common::Agent_id, const Pure_profile&) const override { return 0.0; }
};

TEST(Analysis, SocialOptimumRefusesAnAgentWithoutActions)
{
    EXPECT_THROW((void)social_optimum(Actionless_game{}), ga::common::Contract_error);
}

TEST(Analysis, AnarchyAndStabilityPricesOfCoordination)
{
    const Matrix_game g = coordination_game();
    ASSERT_TRUE(price_of_anarchy(g).has_value());
    EXPECT_DOUBLE_EQ(*price_of_anarchy(g), 3.0);  // worst PNE (B,B): 6 vs OPT 2
    EXPECT_DOUBLE_EQ(*price_of_stability(g), 1.0); // best PNE (A,A)
}

TEST(Analysis, PoAUndefinedWithoutPne)
{
    EXPECT_FALSE(price_of_anarchy(matching_pennies()).has_value());
}

// ---------------------------------------------------------------- mixed

TEST(Mixed, MatchingPenniesHalfHalfIsEquilibrium)
{
    const Matrix_game mp = matching_pennies();
    const Mixed_profile sigma{{0.5, 0.5}, {0.5, 0.5}};
    EXPECT_TRUE(is_mixed_nash(mp, sigma));
    EXPECT_NEAR(expected_cost(mp, 0, sigma), 0.0, 1e-12);
    EXPECT_NEAR(expected_cost(mp, 1, sigma), 0.0, 1e-12);
}

TEST(Mixed, MatchingPenniesClosedForm)
{
    const auto sigma = mixed_nash_2x2(matching_pennies());
    ASSERT_TRUE(sigma.has_value());
    EXPECT_NEAR((*sigma)[0][0], 0.5, 1e-12);
    EXPECT_NEAR((*sigma)[1][0], 0.5, 1e-12);
}

TEST(Mixed, PrisonersDilemmaHasNoInteriorMixedEquilibrium)
{
    EXPECT_FALSE(mixed_nash_2x2(prisoners_dilemma()).has_value());
}

TEST(Mixed, SupportEnumerationFindsMatchingPenniesEquilibrium)
{
    const auto equilibria = support_enumeration_2p(matching_pennies());
    ASSERT_EQ(equilibria.size(), 1u);
    EXPECT_NEAR(equilibria[0][0][0], 0.5, 1e-9);
    EXPECT_NEAR(equilibria[0][1][1], 0.5, 1e-9);
}

TEST(Mixed, SupportEnumerationFindsAllThreeCoordinationEquilibria)
{
    // Two pure + one mixed equilibrium.
    const auto equilibria = support_enumeration_2p(coordination_game());
    EXPECT_EQ(equilibria.size(), 3u);
}

TEST(Mixed, ExpectedCostOfActionMatchesManualComputation)
{
    const Matrix_game mp = matching_pennies();
    const Mixed_profile sigma{{0.5, 0.5}, {0.25, 0.75}};
    // Agent 0 playing heads: cost = 0.25*(-1) + 0.75*(+1) = 0.5.
    EXPECT_NEAR(expected_cost_of_action(mp, 0, mp_heads, sigma), 0.5, 1e-12);
    EXPECT_NEAR(expected_cost_of_action(mp, 0, mp_tails, sigma), -0.5, 1e-12);
}

// ----------------------------------------------------- Fig. 1 (the paper)

TEST(Fig1, ManipulationMatrixMatchesThePaper)
{
    const Matrix_game g = manipulated_matching_pennies();
    // Row = A in {Heads, Tails}; columns = B in {Heads, Tails, Manipulate}.
    EXPECT_DOUBLE_EQ(g.payoff(0, {0, 0}), +1);
    EXPECT_DOUBLE_EQ(g.payoff(1, {0, 0}), -1);
    EXPECT_DOUBLE_EQ(g.payoff(0, {0, 1}), -1);
    EXPECT_DOUBLE_EQ(g.payoff(1, {0, 1}), +1);
    EXPECT_DOUBLE_EQ(g.payoff(0, {0, 2}), +1);
    EXPECT_DOUBLE_EQ(g.payoff(1, {0, 2}), -1);
    EXPECT_DOUBLE_EQ(g.payoff(0, {1, 0}), -1);
    EXPECT_DOUBLE_EQ(g.payoff(1, {1, 0}), +1);
    EXPECT_DOUBLE_EQ(g.payoff(0, {1, 1}), +1);
    EXPECT_DOUBLE_EQ(g.payoff(1, {1, 1}), -1);
    EXPECT_DOUBLE_EQ(g.payoff(0, {1, 2}), -9);
    EXPECT_DOUBLE_EQ(g.payoff(1, {1, 2}), +9);
}

TEST(Fig1, ManipulateIsBsBestResponseToHonestMixing)
{
    // Against A playing (1/2, 1/2), B's expected payoffs are:
    // Heads: 0, Tails: 0, Manipulate: (-1+9)/2 = 4  ->  B manipulates.
    const Matrix_game g = manipulated_matching_pennies();
    const Mixed_profile sigma{{0.5, 0.5}, {0.0, 0.0, 1.0}};
    EXPECT_NEAR(expected_cost_of_action(g, 1, mp_manipulate, sigma), -4.0, 1e-12);
    EXPECT_NEAR(expected_cost_of_action(g, 1, mp_heads, sigma), 0.0, 1e-12);
    EXPECT_NEAR(expected_cost_of_action(g, 1, mp_tails, sigma), 0.0, 1e-12);
}

TEST(Fig1, ManipulationShiftsExpectedPayoffsTo4AndMinus4)
{
    // The paper: B raises its expected profit from 0 to 4 while A drops to -4.
    const Matrix_game g = manipulated_matching_pennies();
    const Mixed_profile sigma{{0.5, 0.5}, {0.0, 0.0, 1.0}};
    EXPECT_NEAR(expected_cost(g, 0, sigma), 4.0, 1e-12);  // A's cost = -payoff
    EXPECT_NEAR(expected_cost(g, 1, sigma), -4.0, 1e-12); // B's cost
}

// ---------------------------------------------------------------- linalg

TEST(Linalg, SolvesRegularSystem)
{
    const auto x = solve_linear_system({{2, 1}, {1, 3}}, {5, 10});
    ASSERT_TRUE(x.has_value());
    EXPECT_NEAR((*x)[0], 1.0, 1e-12);
    EXPECT_NEAR((*x)[1], 3.0, 1e-12);
}

TEST(Linalg, DetectsSingularMatrix)
{
    EXPECT_FALSE(solve_linear_system({{1, 2}, {2, 4}}, {1, 2}).has_value());
}

TEST(Linalg, PivotingHandlesZeroDiagonal)
{
    const auto x = solve_linear_system({{0, 1}, {1, 0}}, {2, 3});
    ASSERT_TRUE(x.has_value());
    EXPECT_NEAR((*x)[0], 3.0, 1e-12);
    EXPECT_NEAR((*x)[1], 2.0, 1e-12);
}

// ---------------------------------------------------------------- strategy

TEST(Strategy, IsDistributionChecks)
{
    EXPECT_TRUE(is_distribution({0.5, 0.5}));
    EXPECT_TRUE(is_distribution({1.0}));
    EXPECT_FALSE(is_distribution({0.5, 0.4}));
    EXPECT_FALSE(is_distribution({-0.1, 1.1}));
    EXPECT_FALSE(is_distribution({}));
}

TEST(Strategy, PureAsMixedIsDegenerate)
{
    const auto s = pure_as_mixed(2, 4);
    EXPECT_EQ(s, (Mixed_strategy{0.0, 0.0, 1.0, 0.0}));
    EXPECT_THROW(pure_as_mixed(4, 4), ga::common::Contract_error);
}

} // namespace
