// Turpin-Coan reduction: multivalued Byzantine consensus from binary
// consensus at the cost of one extra round.
//
// Used to lift Phase_king_session to the arbitrary byte-string values the
// game authority agrees on (outcomes, commitment digests, foul sets), giving
// a fully polynomial multivalued path alongside EIG.
//
// The classic reduction spends two rounds (a quorum round, then a plurality
// round) and needs only n > 3f. Phase king, its binary substrate here,
// already needs n > 4f, and at n > 4f one echo round suffices:
//   - every processor broadcasts its value;
//   - each takes the plurality w of the echoes (ties to the
//     lexicographically smallest value);
//   - it enters the binary stage with 1 iff w got at least n - f votes, and
//     decides w iff the binary stage decides 1 (else the empty default).
// Agreement: if the binary stage decides 1, some honest processor entered
// with 1, so at least n - 2f honest processors echoed w. Every honest
// processor then counts w at least n - 2f > 2f times and any other value at
// most 2f times, so all of them hold the same plurality w. Validity: an
// honest-unanimous value gets n - f votes everywhere, so every honest
// processor enters with 1 and phase king's validity decides 1.
//
// The tagged codec and the vote tally are free so that Turpin_coan_session
// and parallel IC's fused instances run one copy.
#ifndef GA_BFT_TURPIN_COAN_H
#define GA_BFT_TURPIN_COAN_H

#include <functional>
#include <memory>

#include "bft/session.h"

namespace ga::bft {

/// Wire format of the echo round: 1 tag byte (0 = bottom, 1 = value),
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

/// The non-bottom votes of one echo round as distinct values with their
/// counts. Reuse one tally across rounds: clear() keeps its capacity, so a
/// steady-state round allocates nothing. The tally holds views, valid as long
/// as the payloads they were read from.
class Vote_tally {
public:
    struct Entry {
        common::Byte_view value;
        int votes = 0;
    };

    void clear() { entries_.clear(); }

    void add(common::Byte_view value);

    /// The value with the most votes, with its count; a tie goes to the
    /// lexicographically smallest (unsigned bytes), as a std::map walk would.
    [[nodiscard]] std::optional<Entry> plurality() const;

private:
    std::vector<Entry> entries_;
};

/// The echo round's binary input: 1 iff the plurality got at least n - f
/// votes.
[[nodiscard]] inline int echo_bit(const std::optional<Vote_tally::Entry>& plurality, int n,
                                  int f)
{
    return plurality.has_value() && plurality->votes >= n - f ? 1 : 0;
}

/// Builds the underlying binary session once the binary input is known.
using Binary_session_factory =
    std::function<std::unique_ptr<Session>(int n, int f, common::Processor_id self, int input)>;

class Turpin_coan_session final : public Session {
public:
    /// Multivalued consensus on `input` (any byte string). Requires n > 4f:
    /// the one-round echo rule needs it, and so does phase king.
    Turpin_coan_session(int n, int f, common::Processor_id self, Value input,
                        Binary_session_factory make_binary);

    [[nodiscard]] common::Round total_rounds() const override;
    void append_message_for_round(common::Round r, common::Bytes& out) override;
    void deliver_round(common::Round r, const Round_payloads& payloads) override;
    [[nodiscard]] bool done() const override { return done_; }
    [[nodiscard]] Value decision() const override;

private:
    int n_;
    int f_;
    common::Processor_id self_;
    Value input_;
    Binary_session_factory make_binary_;
    std::unique_ptr<Session> binary_;

    Value candidate_; // the echo round's plurality value ...
    bool candidate_valid_ = false; // ... or none (no vote was cast)
    bool done_ = false;
    Vote_tally tally_;
};

} // namespace ga::bft

#endif // GA_BFT_TURPIN_COAN_H
