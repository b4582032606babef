// Interactive consistency from n parallel Turpin-Coan/phase-king instances.
//
// EIG gives IC "for free" but with exponential payloads; this session builds
// IC from polynomial multivalued consensus at one extra dissemination round:
//   round 0: every processor broadcasts its own value;
//   round 1: the Turpin-Coan echo round of n parallel instances, instance j
//   seeded with whatever arrived from j in round 0 (the empty value if
//   nothing usable);
//   rounds 2..2f+3: the instances' phase-king rounds.
// Validity of the inner protocol makes honest slot j decide j's real value at
// every honest processor; agreement makes the whole vector identical.
//
// The n instances are fused into one session: their state lives in arrays
// indexed by instance, and since every deliver_round moves all of them to the
// same round, their progress is one set of scalars. A round's message is one
// length-prefixed section per instance, written straight into one payload.
// An incoming round is decoded in one sender-major pass: exchange rounds
// count each sender's bits straight into per-instance counters, king rounds
// read only the king's payload, and the echo round decodes each tagged
// section inline into an instance-major vote table. The per-instance
// rules (tagged codec, vote tally, phase king's majority and king adoption)
// are the ones Turpin_coan_session and Phase_king_session run, so the wire
// bytes are those of n standalone Turpin-Coan-over-phase-king sessions side
// by side.
//
// restart() keeps every per-instance buffer, so an owner that restarts one
// session per activation reaches a steady state with no heap traffic beyond
// the payloads it mints.
#ifndef GA_BFT_PARALLEL_IC_H
#define GA_BFT_PARALLEL_IC_H

#include <cstdint>

#include "bft/phase_king.h"
#include "bft/session.h"
#include "bft/turpin_coan.h"

namespace ga::bft {

class Parallel_ic_session final : public Ic_session {
public:
    /// Requires n > 4f (phase king's resilience).
    Parallel_ic_session(int n, int f, common::Processor_id self, Value input);

    /// The dissemination round, Turpin-Coan's echo round, then phase king's.
    [[nodiscard]] common::Round total_rounds() const override
    {
        return 2 + phase_king_rounds(f_);
    }
    void append_message_for_round(common::Round r, common::Bytes& out) override;
    void deliver_round(common::Round r, const Round_payloads& payloads) override;
    [[nodiscard]] bool done() const override { return done_; }

    /// Consensus reduction: most frequent non-bottom slot (ties lexicographic).
    [[nodiscard]] Value decision() const override;

    /// The agreed vector (one slot per source); valid only when done().
    [[nodiscard]] const std::vector<Value>& agreed_vector() const override;

    void restart(Value input) override;

private:
    /// Splits one sender's payload into its n sections (row_). False when
    /// the payload is missing, malformed, or has trailing bytes: the sender
    /// is then distrusted for every instance.
    bool split(const std::optional<common::Byte_view>& payload);

    void deliver_echo_round(const Round_payloads& payloads);
    void deliver_exchange_round(const Round_payloads& payloads);
    void deliver_king_round(const Round_payloads& payloads, common::Round pk_round);

    int n_;
    int f_;
    common::Processor_id self_;
    Value input_;

    // Progress, shared by all instances.
    bool seeded_ = false;         // round 0 delivered: the instances exist
    bool binary_started_ = false; // echo round delivered: phase king runs
    bool done_ = false;

    // Per-instance state, indexed by instance j.
    std::vector<Value> seed_;                // Turpin-Coan input: j's round-0 value
    std::vector<Value> candidate_;           // echo-round plurality value ...
    std::vector<std::uint8_t> candidate_valid_;
    std::vector<std::uint8_t> pref_;         // phase-king preference
    std::vector<Phase_majority> majority_;   // last exchange round's majority

    // Round scratch, valid only inside deliver_round: one sender's sections;
    // the echo round's votes, instance-major (instance j's votes are
    // votes_[j * n, j * n + vote_count_[j]), in sender order); the exchange
    // rounds' bit counts (bits_[2j + b] counts b for instance j).
    std::vector<common::Byte_view> row_;
    std::vector<common::Byte_view> votes_;
    std::vector<int> vote_count_;
    std::vector<int> bits_;
    Vote_tally tally_;

    std::vector<Value> agreed_vector_;
};

} // namespace ga::bft

#endif // GA_BFT_PARALLEL_IC_H
