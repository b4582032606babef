// Turpin-Coan reduction: multivalued Byzantine consensus from binary
// consensus at the cost of two extra rounds.
//
// Used to lift Phase_king_session to the arbitrary byte-string values the
// game authority agrees on (outcomes, commitment digests, foul sets), giving
// a fully polynomial multivalued path alongside EIG.
//
// The tagged codec and the vote tally with its two round rules are free so
// that Turpin_coan_session and parallel IC's fused instances run one copy.
#ifndef GA_BFT_TURPIN_COAN_H
#define GA_BFT_TURPIN_COAN_H

#include <functional>
#include <memory>
#include <utility>

#include "bft/session.h"

namespace ga::bft {

/// Wire format of the reduction rounds: 1 tag byte (0 = bottom, 1 = value),
/// then the length-prefixed value.
void put_tagged(common::Bytes& out, std::optional<common::Byte_view> value);

/// True iff `section` is a well-formed tagged non-bottom value, which is
/// then viewed in `value`. Bottom, malformed sections and sections with
/// trailing bytes cast no vote.
[[nodiscard]] inline bool tagged_vote(common::Byte_view section, common::Byte_view& value)
{
    if (section.empty() || section[0] != 1) return false;
    common::Byte_reader reader{section.subspan(1)};
    return reader.try_get_view(value) && reader.exhausted();
}

/// The non-bottom votes of one reduction round as distinct values with their
/// counts. Reuse one tally across rounds: clear() keeps its capacity, so a
/// steady-state round allocates nothing. The tally holds views, valid as long
/// as the payloads they were read from.
class Vote_tally {
public:
    void clear()
    {
        entries_.clear();
        votes_ = 0;
    }

    void add(common::Byte_view value);

    /// Number of votes added since clear().
    [[nodiscard]] int votes() const { return votes_; }

    /// Round-0 rule: the value with at least `threshold` votes. With
    /// threshold n - f and n > 3f at most one value qualifies.
    [[nodiscard]] std::optional<common::Byte_view> quorum(int threshold) const;

    /// Round-1 rule: the value with the most votes; a tie goes to the
    /// lexicographically smallest (unsigned bytes), as a std::map walk would.
    [[nodiscard]] std::optional<common::Byte_view> plurality() const;

private:
    std::vector<std::pair<common::Byte_view, int>> entries_;
    int votes_ = 0;
};

/// Round-1 rule for the binary stage's input: 1 iff at least n - f
/// processors sent a non-bottom value.
[[nodiscard]] inline int binary_input(const Vote_tally& tally, int n, int f)
{
    return tally.votes() >= n - f ? 1 : 0;
}

/// Builds the underlying binary session once the binary input is known.
using Binary_session_factory =
    std::function<std::unique_ptr<Session>(int n, int f, common::Processor_id self, int input)>;

class Turpin_coan_session final : public Session {
public:
    /// Multivalued consensus on `input` (any byte string). The resilience is
    /// that of the inner binary protocol (n > 4f with phase king; the
    /// reduction itself only needs n > 3f).
    Turpin_coan_session(int n, int f, common::Processor_id self, Value input,
                        Binary_session_factory make_binary);

    [[nodiscard]] common::Round total_rounds() const override;
    void append_message_for_round(common::Round r, common::Bytes& out) override;
    void deliver_round(common::Round r, const Round_payloads& payloads) override;
    [[nodiscard]] bool done() const override { return done_; }
    [[nodiscard]] Value decision() const override;

private:
    /// Refills tally_ with the round's non-bottom votes.
    void tally_round(const Round_payloads& payloads);

    int n_;
    int f_;
    common::Processor_id self_;
    Value input_;
    Binary_session_factory make_binary_;
    std::unique_ptr<Session> binary_;

    std::optional<Value> x_;         // round-0 quorum value (nullopt = bottom)
    Value candidate_;                // most common non-bottom x seen in round 1
    bool candidate_valid_ = false;
    bool done_ = false;
    Vote_tally tally_;
};

} // namespace ga::bft

#endif // GA_BFT_TURPIN_COAN_H
