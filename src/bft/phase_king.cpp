#include "bft/phase_king.h"

#include "common/ensure.h"

namespace ga::bft {

void put_bit(common::Bytes& out, int bit)
{
    out.push_back(static_cast<std::uint8_t>(bit));
}

Phase_king_session::Phase_king_session(int n, int f, common::Processor_id self, int input)
    : n_{n}, f_{f}, self_{self}, pref_{input}
{
    common::ensure(n_ >= 1, "Phase_king_session: n must be positive");
    common::ensure(f_ >= 0, "Phase_king_session: f must be non-negative");
    common::ensure(n_ > 4 * f_, "Phase_king_session requires n > 4f");
    common::ensure(self_ >= 0 && self_ < n_, "Phase_king_session: self out of range");
    common::ensure(input == 0 || input == 1, "Phase_king_session: binary input required");
}

void Phase_king_session::append_message_for_round(common::Round r, common::Bytes& out)
{
    if (r < 0 || r >= total_rounds()) return;
    const int phase = r / 2;
    if (r % 2 == 0) {
        put_bit(out, pref_); // universal exchange
    } else if (self_ == phase) {
        put_bit(out, majority_.maj); // king round: only processor `phase` speaks
    }
}

void Phase_king_session::deliver_round(common::Round r, const Round_payloads& payloads)
{
    if (r < 0 || r >= total_rounds() || done_) return;
    common::ensure(static_cast<int>(payloads.size()) == n_,
                   "Phase_king_session::deliver_round: payload vector size mismatch");

    const int phase = r / 2;
    if (r % 2 == 0) {
        int count[2] = {0, 0};
        for (const auto& payload : payloads) {
            const auto bit = decode_bit(payload);
            if (bit.has_value()) ++count[*bit];
        }
        majority_ = phase_majority(count[0], count[1]);
    } else {
        pref_ = king_adopt(majority_, decode_bit(payloads[static_cast<std::size_t>(phase)]), n_,
                           f_);
        if (r == total_rounds() - 1) done_ = true;
    }
}

Value Phase_king_session::decision() const
{
    common::ensure(done_, "Phase_king_session::decision before completion");
    Value value;
    put_bit(value, pref_);
    return value;
}

int Phase_king_session::binary_decision() const
{
    common::ensure(done_, "Phase_king_session::binary_decision before completion");
    return pref_;
}

} // namespace ga::bft
