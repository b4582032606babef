#include "game/analysis.h"

#include <limits>

namespace ga::game {

namespace {

/// Agent i's cost for each of its actions against `pi`, one at a time,
/// through a per-thread probe profile whose capacity is reused: the judicial
/// path asks this for every agent of every play, on every replica. Not
/// reentrant: a game's cost function must not itself ask for best responses.
class Deviation_costs {
public:
    Deviation_costs(const Strategic_game& game, common::Agent_id i, const Pure_profile& pi)
        : game_{game}, i_{i}, probe_{probe_profile()}
    {
        common::ensure(i >= 0 && i < game.n_agents(), "best response: agent out of range");
        probe_.assign(pi.begin(), pi.end());
    }

    double operator()(int action)
    {
        probe_[static_cast<std::size_t>(i_)] = action;
        return game_.cost(i_, probe_);
    }

private:
    static Pure_profile& probe_profile()
    {
        thread_local Pure_profile probe;
        return probe;
    }

    const Strategic_game& game_;
    common::Agent_id i_;
    Pure_profile& probe_;
};

} // namespace

std::vector<int> best_response_set(const Strategic_game& game, common::Agent_id i,
                                   const Pure_profile& pi, double eps)
{
    Deviation_costs cost{game, i, pi};
    double best = std::numeric_limits<double>::infinity();
    std::vector<double> costs(static_cast<std::size_t>(game.n_actions(i)));
    for (int a = 0; a < game.n_actions(i); ++a) {
        costs[static_cast<std::size_t>(a)] = cost(a);
        best = std::min(best, costs[static_cast<std::size_t>(a)]);
    }
    std::vector<int> responses;
    for (int a = 0; a < game.n_actions(i); ++a) {
        if (costs[static_cast<std::size_t>(a)] <= best + eps) responses.push_back(a);
    }
    return responses;
}

int best_response(const Strategic_game& game, common::Agent_id i, const Pure_profile& pi)
{
    // best_response_set(...).front() without the set: the minimum cost
    // first, then the lowest action within eps of it (a second cost pass
    // that usually stops early, instead of a stored cost vector).
    constexpr double eps = 1e-9;
    Deviation_costs cost{game, i, pi};
    double best = std::numeric_limits<double>::infinity();
    for (int a = 0; a < game.n_actions(i); ++a) best = std::min(best, cost(a));
    for (int a = 0; a < game.n_actions(i); ++a) {
        if (cost(a) <= best + eps) return a;
    }
    throw common::Contract_error{"best_response: agent has no action"};
}

bool is_best_response(const Strategic_game& game, common::Agent_id i, const Pure_profile& pi,
                      double eps)
{
    // Played action within eps of the minimum, in one cost pass.
    Deviation_costs cost{game, i, pi};
    const int played = pi[static_cast<std::size_t>(i)];
    double best = std::numeric_limits<double>::infinity();
    double played_cost = std::numeric_limits<double>::quiet_NaN();
    for (int a = 0; a < game.n_actions(i); ++a) {
        const double c = cost(a);
        best = std::min(best, c);
        if (a == played) played_cost = c;
    }
    return played_cost <= best + eps; // false for an illegitimate action (NaN)
}

bool is_pure_nash(const Strategic_game& game, const Pure_profile& pi, double eps)
{
    game.validate_profile(pi);
    for (common::Agent_id i = 0; i < game.n_agents(); ++i) {
        if (!is_best_response(game, i, pi, eps)) return false;
    }
    return true;
}

std::vector<Pure_profile> pure_nash_equilibria(const Strategic_game& game, double eps)
{
    std::vector<Pure_profile> equilibria;
    for_each_profile(game, [&](const Pure_profile& pi) {
        if (is_pure_nash(game, pi, eps)) equilibria.push_back(pi);
    });
    return equilibria;
}

double social_cost(const Strategic_game& game, const Pure_profile& pi,
                   const std::vector<bool>& honest)
{
    game.validate_profile(pi);
    common::ensure(honest.empty() || static_cast<int>(honest.size()) == game.n_agents(),
                   "social_cost: honest mask size mismatch");
    double total = 0.0;
    for (common::Agent_id i = 0; i < game.n_agents(); ++i) {
        if (!honest.empty() && !honest[static_cast<std::size_t>(i)]) continue;
        total += game.cost(i, pi);
    }
    return total;
}

Social_optimum social_optimum(const Strategic_game& game)
{
    const int n = game.n_agents();
    for (common::Agent_id i = 0; i < n; ++i) {
        common::ensure(game.n_actions(i) >= 1, "social_optimum: agent with no actions");
    }
    Social_optimum best;
    best.cost = std::numeric_limits<double>::infinity();
    for_each_profile(game, [&](const Pure_profile& pi) {
        // social_cost's sum, in its order, without its per-profile checks.
        double cost = 0.0;
        for (common::Agent_id i = 0; i < n; ++i) cost += game.cost(i, pi);
        if (cost < best.cost) {
            best.cost = cost;
            best.profile = pi;
        }
    });
    return best;
}

namespace {

std::optional<double> equilibrium_ratio(const Strategic_game& game, bool worst)
{
    const std::vector<Pure_profile> equilibria = pure_nash_equilibria(game);
    if (equilibria.empty()) return std::nullopt;
    const double optimum = social_optimum(game).cost;
    if (optimum <= 0.0) return std::nullopt;

    double selected = worst ? -std::numeric_limits<double>::infinity()
                            : std::numeric_limits<double>::infinity();
    for (const Pure_profile& pi : equilibria) {
        const double cost = social_cost(game, pi);
        selected = worst ? std::max(selected, cost) : std::min(selected, cost);
    }
    return selected / optimum;
}

} // namespace

std::optional<double> price_of_anarchy(const Strategic_game& game)
{
    return equilibrium_ratio(game, /*worst=*/true);
}

std::optional<double> price_of_stability(const Strategic_game& game)
{
    return equilibrium_ratio(game, /*worst=*/false);
}

} // namespace ga::game
