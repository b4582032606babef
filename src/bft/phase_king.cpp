#include "bft/phase_king.h"

#include "common/ensure.h"

namespace ga::bft {

namespace {

/// Decode a 1-byte binary payload; anything else reads as "missing".
std::optional<int> decode_bit(const std::optional<common::Byte_view>& payload)
{
    if (!payload.has_value() || payload->size() != 1) return std::nullopt;
    const std::uint8_t byte = (*payload)[0];
    if (byte > 1) return std::nullopt;
    return static_cast<int>(byte);
}

common::Bytes encode_bit(int bit)
{
    return common::Bytes{static_cast<std::uint8_t>(bit)};
}

} // namespace

Phase_king_session::Phase_king_session(int n, int f, common::Processor_id self, int input)
    : n_{n}, f_{f}, self_{self}, pref_{input}
{
    common::ensure(n_ >= 1, "Phase_king_session: n must be positive");
    common::ensure(f_ >= 0, "Phase_king_session: f must be non-negative");
    common::ensure(n_ > 4 * f_, "Phase_king_session requires n > 4f");
    common::ensure(self_ >= 0 && self_ < n_, "Phase_king_session: self out of range");
    common::ensure(input == 0 || input == 1, "Phase_king_session: binary input required");
}

common::Bytes Phase_king_session::message_for_round(common::Round r)
{
    if (r < 0 || r >= total_rounds()) return {};
    const int phase = r / 2;
    if (r % 2 == 0) return encode_bit(pref_); // universal exchange
    // King round: only processor `phase` speaks.
    if (self_ == phase) return encode_bit(maj_);
    return {};
}

void Phase_king_session::deliver_round(common::Round r, const Round_payloads& payloads)
{
    if (r < 0 || r >= total_rounds() || done_) return;
    common::ensure(static_cast<int>(payloads.size()) == n_,
                   "Phase_king_session::deliver_round: payload vector size mismatch");

    const int phase = r / 2;
    if (r % 2 == 0) {
        int count[2] = {0, 0};
        for (common::Processor_id sender = 0; sender < n_; ++sender) {
            const auto bit = decode_bit(payloads[static_cast<std::size_t>(sender)]);
            if (bit.has_value()) ++count[*bit];
        }
        maj_ = count[1] > count[0] ? 1 : 0;
        mult_ = count[maj_];
    } else {
        const auto king_bit = decode_bit(payloads[static_cast<std::size_t>(phase)]);
        if (mult_ > n_ / 2 + f_) {
            pref_ = maj_;
        } else {
            pref_ = king_bit.value_or(0);
        }
        if (r == total_rounds() - 1) done_ = true;
    }
}

Value Phase_king_session::decision() const
{
    common::ensure(done_, "Phase_king_session::decision before completion");
    return encode_bit(pref_);
}

int Phase_king_session::binary_decision() const
{
    common::ensure(done_, "Phase_king_session::binary_decision before completion");
    return pref_;
}

} // namespace ga::bft
