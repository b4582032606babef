// Pure-strategy analysis: best responses, pure Nash equilibria, social cost,
// and the anarchy/stability cost criteria the paper builds on (§2, §6).
#ifndef GA_GAME_ANALYSIS_H
#define GA_GAME_ANALYSIS_H

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "game/strategic_game.h"

namespace ga::game {

/// Invoke `visit` on every pure profile of the game, in mixed-radix order
/// with agent 0 the most significant digit: the last agent's action varies
/// fastest, starting from the all-zeros profile. The profiles are legitimate
/// only when every agent has at least one action; a game in which some agent
/// has none has no pure profile, yet `visit` still sees the all-zeros one,
/// so callers that need legitimacy check n_actions first.
template <typename Visit>
void for_each_profile(const Strategic_game& game, Visit&& visit)
{
    const int n = game.n_agents();
    std::vector<int> radix(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) radix[static_cast<std::size_t>(i)] = game.n_actions(i);
    Pure_profile profile(static_cast<std::size_t>(n), 0);
    while (true) {
        visit(std::as_const(profile));
        int digit = n - 1;
        while (digit >= 0) {
            const auto d = static_cast<std::size_t>(digit);
            if (++profile[d] < radix[d]) break;
            profile[d] = 0;
            --digit;
        }
        if (digit < 0) return;
    }
}

/// The set of cost-minimizing actions of agent i against profile `pi`
/// (pi's own i-th entry is ignored); within `eps` of the minimum.
std::vector<int> best_response_set(const Strategic_game& game, common::Agent_id i,
                                   const Pure_profile& pi, double eps = 1e-9);

/// Canonical best response: the lowest-index element of best_response_set —
/// the deterministic tie-break honest agents and auditors share (§3.2's foul
/// rule compares against the *set*, so ties never incriminate).
int best_response(const Strategic_game& game, common::Agent_id i, const Pure_profile& pi);

/// True iff agent i's action in `pi` is within `eps` of its best response.
bool is_best_response(const Strategic_game& game, common::Agent_id i, const Pure_profile& pi,
                      double eps = 1e-9);

/// Pure Nash equilibrium test (§2).
bool is_pure_nash(const Strategic_game& game, const Pure_profile& pi, double eps = 1e-9);

/// All PNEs by exhaustive enumeration (small games only).
std::vector<Pure_profile> pure_nash_equilibria(const Strategic_game& game, double eps = 1e-9);

/// Social cost: sum of individual costs of the agents selected by `honest`
/// (all agents when the mask is empty) — the paper's §2 definition.
double social_cost(const Strategic_game& game, const Pure_profile& pi,
                   const std::vector<bool>& honest = {});

/// The profile minimizing social cost (the centralistic optimum): the first
/// strict minimum in for_each_profile order, with each profile's cost summed
/// exactly as social_cost sums it, so both the profile and the double match
/// a social_cost scan. Throws Contract_error when some agent has no action.
struct Social_optimum {
    Pure_profile profile;
    double cost = 0.0;
};
Social_optimum social_optimum(const Strategic_game& game);

/// Price of anarchy: worst-PNE social cost / optimum ([18,17]); nullopt when
/// the game has no PNE. Degenerate optima (<= 0) yield nullopt as well, since
/// the ratio criterion is meaningless there.
std::optional<double> price_of_anarchy(const Strategic_game& game);

/// Price of stability: best-PNE social cost / optimum ([3]).
std::optional<double> price_of_stability(const Strategic_game& game);

} // namespace ga::game

#endif // GA_GAME_ANALYSIS_H
