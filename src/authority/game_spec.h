// The elected game: what the legislative service outputs and the other two
// services enforce (§3.1: "the service defines the cost functions"; we assume
// fixed preferences and a game elected before the system starts, with
// re-election available through Legislative_service).
//
// A Game_spec is the single artifact the three authority services share: the
// legislative service produces it (election over candidates), the judicial
// service audits plays against it (its equilibrium profile and audit mode
// decide what counts as a foul), and the executive service publishes outcomes
// and costs drawn from its cost functions. Both authority tiers
// (local_authority.h, pipeline/pipeline_processor.h) are constructed from one.
#ifndef GA_AUTHORITY_GAME_SPEC_H
#define GA_AUTHORITY_GAME_SPEC_H

#include <memory>
#include <string>

#include "game/strategic_game.h"

namespace ga::authority {

/// How the judicial service audits plays.
enum class Audit_mode {
    pure_best_response, ///< §3.2: foul iff the action is not a best response
                        ///< to the previous play's profile
    mixed_seed,         ///< §5.3: foul iff the action deviates from the
                        ///< committed-seed sample of the elected mixed profile
    mixed_seed_batched, ///< §5.3 extension: per-play audits check only
                        ///< commitments/legitimacy; the seed replay runs once
                        ///< per `audit_window` plays (cheaper, detection is
                        ///< delayed to the window edge)
};

struct Game_spec {
    std::string name;
    std::shared_ptr<const game::Strategic_game> game;
    /// The elected strategy profile: the mixed equilibrium agents are expected
    /// to sample from under mixed_seed auditing; under pure auditing only used
    /// to prescribe the very first play (deterministic argmax per agent).
    game::Mixed_profile equilibrium;
    Audit_mode audit_mode = Audit_mode::pure_best_response;
    /// Plays per batched-audit window (mixed_seed_batched only; >= 1).
    int audit_window = 1;
};

/// Deterministic first-play profile: every agent's highest-probability action
/// (lowest index on ties) — identical at every honest processor by design.
game::Pure_profile first_play_profile(const Game_spec& spec);

} // namespace ga::authority

#endif // GA_AUTHORITY_GAME_SPEC_H
