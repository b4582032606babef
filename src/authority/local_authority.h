// Local (single-process) game-authority tier.
//
// Runs the full §3.3 play pipeline — prescription, commitment, reveal,
// judicial audit, executive punishment, outcome publication — with real
// cryptographic commitments but without the BFT transport, so experiments can
// run 10^5+ plays per second. The replicated tier
// (pipeline/pipeline_authority.h, k = 1 for the per-play schedule) runs the
// same play over the simulator with Byzantine agreement per phase;
// integration tests pin the two tiers to the same verdicts.
#ifndef GA_AUTHORITY_LOCAL_AUTHORITY_H
#define GA_AUTHORITY_LOCAL_AUTHORITY_H

#include <memory>

#include "authority/agent.h"
#include "authority/game_spec.h"
#include "authority/judicial.h"
#include "authority/punishment.h"
#include "crypto/seed_commitment.h"

namespace ga::authority {

/// Everything one play produced (the "published" information of §3.4).
struct Round_report {
    int round = 0;
    game::Pure_profile revealed;    ///< decoded actions (-1 = nothing usable)
    game::Pure_profile outcome;     ///< recorded outcome (illegal entries replaced
                                    ///< by the prescription so the next audit has
                                    ///< a well-formed profile to respond to)
    std::vector<Verdict> verdicts;  ///< one per agent
    std::vector<double> costs;      ///< per-agent cost this play (0 if suspended)
    bool suspended = false;         ///< true when a disconnection left the game
                                    ///< without its full agent set (costs stop)
    [[nodiscard]] int foul_count() const;
};

class Local_authority {
public:
    /// `behaviors[i]` drives agent i. With Audit_mode::mixed_seed the
    /// authority draws and commits one seed per agent up front (§5.3) and
    /// prescriptions are seed samples of the elected mixed profile; under
    /// pure auditing prescriptions are best responses to the previous play.
    Local_authority(Game_spec spec, std::vector<std::unique_ptr<Agent_behavior>> behaviors,
                    std::unique_ptr<Punishment_scheme> punishment, common::Rng rng);

    /// Execute one play of the elected game.
    Round_report play_round();

    /// Execute `count` plays and return the last report.
    Round_report play_rounds(int count);

    [[nodiscard]] const Game_spec& spec() const { return spec_; }
    [[nodiscard]] const Executive_service& executive() const { return executive_; }

    /// Import an exclusion decided outside this authority instance (e.g. a
    /// previous era's expulsion carried over by Governance). Not a new foul.
    void exclude_agent(common::Agent_id i) { executive_.deactivate(i); }
    [[nodiscard]] int rounds_played() const { return round_; }

    /// §5.2 batched credibility audit over all plays so far: flags agents
    /// whose revealed histories defy the elected mixture. Applies the
    /// punishment scheme to every flagged agent and returns the verdicts.
    std::vector<Verdict> credibility_audit();

private:
    [[nodiscard]] int prescribed_action(common::Agent_id i) const;
    [[nodiscard]] bool mixed_mode() const
    {
        return spec_.audit_mode == Audit_mode::mixed_seed ||
               spec_.audit_mode == Audit_mode::mixed_seed_batched;
    }
    /// §5.3 window edge: replay the committed seeds over the whole window and
    /// punish every deviation (appends the verdicts to `report`).
    void window_audit(Round_report& report);

    Game_spec spec_;
    std::vector<std::unique_ptr<Agent_behavior>> behaviors_;
    std::unique_ptr<Punishment_scheme> punishment_;
    common::Rng rng_;
    Judicial_service judicial_;
    Executive_service executive_;
    std::vector<crypto::Seed_commitment> seeds_; ///< mixed auditing only
    game::Pure_profile previous_;
    std::vector<std::vector<int>> histories_;  ///< recorded outcomes per agent
    std::vector<std::vector<int>> revealed_;   ///< raw revealed actions per agent
    std::vector<std::vector<int>> prescribed_; ///< seed prescriptions per agent
    int round_ = 0;
};

} // namespace ga::authority

#endif // GA_AUTHORITY_LOCAL_AUTHORITY_H
