// Exponential-information-gathering Byzantine agreement
// (Lamport-Shostak-Pease [19] / Bar-Noy-Dolev-Dwork-Strong formulation).
//
// f+1 rounds, optimal resilience n > 3f, exponential message size — exactly
// the "proof of existence" protocol the paper invokes in §3.3/§4. One
// activation simultaneously yields:
//   * interactive consistency: an agreed vector with one slot per processor,
//     where honest slots carry the honest processors' real inputs — this is
//     what the play protocol uses to agree on the set of commitments; and
//   * consensus: a deterministic reduction of that vector.
#ifndef GA_BFT_EIG_H
#define GA_BFT_EIG_H

#include "bft/session.h"

namespace ga::bft {

class Eig_session final : public Ic_session {
public:
    /// One activation for processor `self` of an n-processor system tolerating
    /// f Byzantine faults; requires n > 3f. `input` is this processor's value.
    Eig_session(int n, int f, common::Processor_id self, Value input);

    [[nodiscard]] common::Round total_rounds() const override { return f_ + 1; }
    void append_message_for_round(common::Round r, common::Bytes& out) override;
    void deliver_round(common::Round r, const Round_payloads& payloads) override;
    [[nodiscard]] bool done() const override { return done_; }

    /// Consensus value: the most frequent non-bottom entry of the agreed
    /// vector (lexicographically smallest on ties), or bottom if none.
    [[nodiscard]] Value decision() const override;

    /// Interactive-consistency output: slot j is the value all honest
    /// processors attribute to processor j. Valid only when done().
    [[nodiscard]] const std::vector<Value>& agreed_vector() const override;

    /// Keeps the laid-out tree table, the arena and the scratch.
    void restart(Value input) override;

private:
    /// One tree node: its value lives in arena_[offset, offset + size).
    struct Node {
        std::size_t offset = 0;
        std::size_t size = 0;
        bool present = false;
    };

    [[nodiscard]] common::Byte_view view(const Node& node) const
    {
        return common::Byte_view{arena_}.subspan(node.offset, node.size);
    }
    void lay_out();
    void store(std::size_t node, common::Byte_view value);
    void relay(common::Round r, std::size_t rank, common::Bytes& payload, std::uint32_t& pairs);
    /// Decodes one sender's round-r pairs into the next level.
    void store_pairs(common::Round r, common::Processor_id sender, common::Byte_view payload);
    void resolve_all();
    common::Byte_view resolve(int level, std::size_t rank);

    int n_;
    int f_;
    common::Processor_id self_;
    Value input_;
    // The tree, levels 1..f+1 back to back. A level-k node is labelled by a
    // path [p1..pk] of distinct ids (pk said that p(k-1) said ... that p1's
    // input is v) and sits at level_base_[k] + rank(path) (level_base_[f+2]
    // is the table size), where rank orders a level's paths
    // lexicographically:
    //   rank([p1]) = p1,
    //   rank(path+[j]) = rank(path)*(n-|path|) + (j - #{p in path : p < j}),
    // so a node's n-|path| children are contiguous in the next level. Laid
    // out on first use, so a session built only to ask total_rounds()
    // allocates nothing. Values are copied into one arena, once, on store;
    // a node that holds its parent's value (an honest relay, a self-relay)
    // shares the parent's bytes instead.
    std::vector<std::size_t> level_base_;
    std::vector<Node> nodes_;
    common::Bytes arena_;
    std::vector<common::Processor_id> path_;  // scratch: the path being walked or decoded
    std::vector<common::Byte_view> votes_;    // scratch: child values under resolution
    std::vector<Value> agreed_vector_;
    bool done_ = false;
};

/// The number of (path, value) pairs an honest processor relays in round r —
/// the per-message payload growth that makes EIG exponential (bench E7).
std::int64_t eig_pairs_in_round(int n, common::Round r);

} // namespace ga::bft

#endif // GA_BFT_EIG_H
