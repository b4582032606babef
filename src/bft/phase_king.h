// Phase-king binary Byzantine consensus (Berman-Garay-Perry family).
//
// f+1 phases of two rounds each; polynomial message complexity O(f n^2) with
// constant-size payloads, at the price of resilience n > 4f (the classic
// two-round-per-phase variant, cf. Attiya & Welch, ch. 5). This is the
// "further research can improve the design and allow better scalability"
// counterpart to EIG: bench E7 contrasts the two. Its n > 4f is also what
// lets Turpin_coan_session lift it to multivalued consensus with a single
// echo round (see turpin_coan.h), so the multivalued stack needs n > 4f and
// nothing more.
//
// The codec and the two per-phase rules are free functions so that
// Phase_king_session and parallel IC's fused instances run one copy of them.
#ifndef GA_BFT_PHASE_KING_H
#define GA_BFT_PHASE_KING_H

#include "bft/session.h"

namespace ga::bft {

/// Send rounds of phase king: f+1 phases of (universal exchange, king round).
[[nodiscard]] constexpr common::Round phase_king_rounds(int f) { return 2 * (f + 1); }

/// Wire format: one byte, 0 or 1.
void put_bit(common::Bytes& out, int bit);

/// Decodes a 1-byte binary payload; anything else reads as "missing".
[[nodiscard]] inline std::optional<int> decode_bit(const std::optional<common::Byte_view>& payload)
{
    if (!payload.has_value() || payload->size() != 1 || (*payload)[0] > 1) return std::nullopt;
    return static_cast<int>((*payload)[0]);
}

/// Exchange-round outcome: the majority bit and how many votes it got.
struct Phase_majority {
    int maj = 0;
    int mult = 0;
};

/// Exchange-round rule: strict majority of ones, else zero.
[[nodiscard]] inline Phase_majority phase_majority(int zeros, int ones)
{
    return ones > zeros ? Phase_majority{1, ones} : Phase_majority{0, zeros};
}

/// King-round rule: keep the majority when it is overwhelming (mult > n/2 + f),
/// else adopt the king's bit (0 when the king sent nothing usable).
[[nodiscard]] inline int king_adopt(Phase_majority majority, std::optional<int> king_bit, int n,
                                    int f)
{
    if (majority.mult > n / 2 + f) return majority.maj;
    return king_bit.value_or(0);
}

class Phase_king_session final : public Session {
public:
    /// Binary consensus for processor `self`; input must be 0 or 1.
    /// Requires n > 4f.
    Phase_king_session(int n, int f, common::Processor_id self, int input);

    [[nodiscard]] common::Round total_rounds() const override { return phase_king_rounds(f_); }
    void append_message_for_round(common::Round r, common::Bytes& out) override;
    void deliver_round(common::Round r, const Round_payloads& payloads) override;
    [[nodiscard]] bool done() const override { return done_; }

    /// Decision encoded as a 1-byte Value (0x00 or 0x01).
    [[nodiscard]] Value decision() const override;

    /// Convenience access to the binary decision.
    [[nodiscard]] int binary_decision() const;

private:
    int n_;
    int f_;
    common::Processor_id self_;
    int pref_; // current preference, 0 or 1
    Phase_majority majority_;
    bool done_ = false;
};

} // namespace ga::bft

#endif // GA_BFT_PHASE_KING_H
