#include "pipeline/play_batcher.h"

#include "authority/judicial.h"
#include "game/analysis.h"

namespace ga::pipeline {

std::vector<game::Pure_profile> reference_cascade(const game::Strategic_game& game,
                                                  const game::Pure_profile& start, int k)
{
    common::ensure(static_cast<int>(start.size()) == game.n_agents(),
                   "reference_cascade: start profile arity");
    std::vector<game::Pure_profile> cascade;
    cascade.reserve(static_cast<std::size_t>(k) + 1);
    cascade.push_back(start);
    for (int j = 0; j < k; ++j) {
        const game::Pure_profile& q = cascade.back();
        game::Pure_profile next(q.size());
        for (common::Agent_id i = 0; i < game.n_agents(); ++i) {
            next[static_cast<std::size_t>(i)] = game::best_response(game, i, q);
        }
        cascade.push_back(std::move(next));
    }
    return cascade;
}

Play_batcher::Play_batcher(authority::Game_spec spec, common::Agent_id self, int k)
    : spec_{std::move(spec)}, self_{self}, k_{k}
{
    common::ensure(spec_.game != nullptr, "Play_batcher: null game");
    common::ensure(k_ >= 1 && k_ <= k_max_batch, "Play_batcher: batch arity out of range");
    common::ensure(self_ >= 0 && self_ < spec_.game->n_agents(),
                   "Play_batcher: agent out of range");
}

void Play_batcher::build(authority::Agent_behavior& behavior, const game::Pure_profile& start,
                         int first_round, common::Rng& rng)
{
    const std::vector<game::Pure_profile> cascade = reference_cascade(*spec_.game, start, k_);

    actions_.clear();
    committed_.clear();
    actions_.reserve(static_cast<std::size_t>(k_));
    committed_.reserve(static_cast<std::size_t>(k_));
    std::vector<common::Bytes> leaves;
    leaves.reserve(static_cast<std::size_t>(k_));

    for (int j = 0; j < k_; ++j) {
        authority::Play_context ctx;
        ctx.game = spec_.game.get();
        ctx.self = self_;
        ctx.previous = &cascade[static_cast<std::size_t>(j)];
        ctx.prescribed_action =
            game::best_response(*spec_.game, self_, cascade[static_cast<std::size_t>(j)]);
        ctx.round = first_round + j;
        ctx.rng = &rng;
        const authority::Play_decision decision = behavior.decide(ctx);

        crypto::Committed committed =
            crypto::commit(authority::Judicial_service::encode_action(decision.action), rng);
        if (!decision.honest_opening) {
            // Dishonest opening (e.g. Fake_reveal_behavior): the stored
            // opening no longer re-commits to the sealed leaf, so the reveal
            // fails inclusion — flagged commitment_mismatch at the batch edge.
            committed.opening.payload =
                authority::Judicial_service::encode_action(decision.action + 1);
        }
        actions_.push_back(decision.action);
        leaves.push_back(leaf_payload(j, committed.commitment));
        committed_.push_back(std::move(committed));
    }
    tree_ = std::make_unique<crypto::Merkle_tree>(leaves);
}

void Play_batcher::reset()
{
    actions_.clear();
    committed_.clear();
    tree_.reset();
}

Batch_root Play_batcher::root() const
{
    common::ensure(built(), "Play_batcher: no sealed batch");
    return Batch_root{tree_->root(), static_cast<std::uint32_t>(k_)};
}

common::Bytes Play_batcher::reveal_bytes(const std::optional<Tamper>& tamper,
                                         common::Rng& rng) const
{
    common::ensure(built(), "Play_batcher: no sealed batch");

    Batch_reveal reveal;
    reveal.openings.reserve(static_cast<std::size_t>(k_));
    for (int play = 0; play < k_; ++play) {
        if (tamper.has_value() && tamper->play == play) {
            // Equivocate: open a fresh commitment to the secretly preferred
            // action. The rebuilt leaf differs from the sealed one, so the
            // vector no longer opens the agreed root.
            reveal.openings.push_back(
                crypto::commit(authority::Judicial_service::encode_action(tamper->action), rng)
                    .opening);
        } else {
            reveal.openings.push_back(committed_[static_cast<std::size_t>(play)].opening);
        }
    }
    return encode(reveal);
}

Spot_reveal Play_batcher::spot_reveal(int play) const
{
    common::ensure(built(), "Play_batcher: no sealed batch");
    common::ensure(play >= 0 && play < k_, "Play_batcher: play out of range");
    return Spot_reveal{committed_[static_cast<std::size_t>(play)].opening,
                       tree_->prove(static_cast<std::size_t>(play))};
}

} // namespace ga::pipeline
