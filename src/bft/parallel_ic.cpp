#include "bft/parallel_ic.h"

#include <algorithm>

#include "common/ensure.h"

namespace ga::bft {

Parallel_ic_session::Parallel_ic_session(int n, int f, common::Processor_id self, Value input)
    : n_{n}, f_{f}, self_{self}, input_{std::move(input)}
{
    common::ensure(f_ >= 0 && n_ > 4 * f_, "Parallel_ic_session requires f >= 0 and n > 4f");
    common::ensure(self_ >= 0 && self_ < n_, "Parallel_ic_session: self out of range");
    const auto instances = static_cast<std::size_t>(n_);
    seed_.resize(instances);
    x_.resize(instances);
    x_valid_.resize(instances);
    candidate_.resize(instances);
    candidate_valid_.resize(instances);
    pref_.resize(instances);
    majority_.resize(instances);
    sections_.resize(instances * instances);
    sender_ok_.resize(instances);
}

common::Bytes Parallel_ic_session::message_for_round(common::Round r)
{
    common::Bytes payload;
    if (r == 0) {
        common::put_bytes(payload, input_);
        return payload;
    }
    if (!seeded_) return payload;

    // Section j is what instance j, as a standalone Turpin_coan_session,
    // would send in round r - 1; it is written in place behind a length
    // prefix that is filled in once the section's size is known.
    const common::Round tc_round = r - 1;
    const common::Round pk_round = tc_round - 2;
    const bool pk_speaks = binary_started_ && pk_round >= 0 && pk_round < phase_king_rounds(f_);
    const auto n = static_cast<std::size_t>(n_);
    std::size_t size = n * (4 + 5); // prefix plus tag and value length, or a bit
    for (std::size_t j = 0; j < n; ++j) {
        if (tc_round == 0) size += seed_[j].size();
        if (tc_round == 1 && x_valid_[j]) size += x_[j].size();
    }
    payload.reserve(size);
    for (std::size_t j = 0; j < n; ++j) {
        const std::size_t prefix = payload.size();
        common::put_u32(payload, 0);
        if (tc_round == 0) {
            put_tagged(payload, seed_[j]);
        } else if (tc_round == 1) {
            put_tagged(payload, x_valid_[j] ? std::optional<common::Byte_view>{x_[j]}
                                            : std::nullopt);
        } else if (pk_speaks) {
            if (pk_round % 2 == 0) {
                put_bit(payload, pref_[j]); // universal exchange
            } else if (self_ == pk_round / 2) {
                put_bit(payload, majority_[j].maj); // king round: only the king speaks
            }
        }
        const std::size_t length = payload.size() - prefix - 4;
        for (std::size_t i = 0; i < 4; ++i)
            payload[prefix + i] = static_cast<std::uint8_t>(length >> (8 * i)); // as put_u32
    }
    return payload;
}

void Parallel_ic_session::deliver_round(common::Round r, const Round_payloads& payloads)
{
    if (done_ || r < 0) return;
    common::ensure(static_cast<int>(payloads.size()) == n_,
                   "Parallel_ic_session::deliver_round: payload arity mismatch");

    if (r == 0) {
        for (int j = 0; j < n_; ++j) {
            const auto i = static_cast<std::size_t>(j);
            Value& seed = seed_[i];
            seed.clear();
            if (j == self_) {
                seed = input_; // own slot always carries the real input
                continue;
            }
            if (!payloads[i].has_value()) continue;
            common::Byte_reader reader{*payloads[i]};
            common::Byte_view value;
            if (reader.try_get_view(value) && reader.exhausted())
                seed.assign(value.begin(), value.end());
        }
        // Fresh instances: no quorum value, no candidate, no binary stage.
        std::fill(x_valid_.begin(), x_valid_.end(), std::uint8_t{0});
        std::fill(candidate_valid_.begin(), candidate_valid_.end(), std::uint8_t{0});
        binary_started_ = false;
        seeded_ = true;
        return;
    }
    if (!seeded_) return; // out-of-schedule call after a fault

    const common::Round tc_round = r - 1;
    const common::Round pk_round = tc_round - 2;
    if (tc_round >= 2 && (!binary_started_ || pk_round >= phase_king_rounds(f_))) return;
    split(payloads);
    if (tc_round == 0) {
        deliver_quorum_round();
    } else if (tc_round == 1) {
        deliver_candidate_round();
    } else {
        deliver_phase_king_round(pk_round);
    }
}

void Parallel_ic_session::split(const Round_payloads& payloads)
{
    const auto n = static_cast<std::size_t>(n_);
    for (std::size_t sender = 0; sender < n; ++sender) {
        bool ok = payloads[sender].has_value();
        if (ok) {
            common::Byte_reader reader{*payloads[sender]};
            for (std::size_t j = 0; ok && j < n; ++j)
                ok = reader.try_get_view(sections_[sender * n + j]);
            ok = ok && reader.exhausted();
        }
        sender_ok_[sender] = ok ? 1 : 0;
    }
}

std::optional<common::Byte_view> Parallel_ic_session::section(std::size_t sender,
                                                              std::size_t instance) const
{
    if (!sender_ok_[sender]) return std::nullopt;
    return sections_[sender * static_cast<std::size_t>(n_) + instance];
}

void Parallel_ic_session::tally_instance(std::size_t instance)
{
    tally_.clear();
    for (std::size_t sender = 0; sender < static_cast<std::size_t>(n_); ++sender) {
        const auto decoded = decode_tagged(section(sender, instance));
        if (decoded.has_value() && decoded->has_value()) tally_.add(**decoded);
    }
}

void Parallel_ic_session::deliver_quorum_round()
{
    for (std::size_t j = 0; j < static_cast<std::size_t>(n_); ++j) {
        tally_instance(j);
        const auto x = tally_.quorum(n_ - f_);
        x_valid_[j] = x.has_value() ? 1 : 0;
        if (x.has_value()) x_[j].assign(x->begin(), x->end());
    }
}

void Parallel_ic_session::deliver_candidate_round()
{
    for (std::size_t j = 0; j < static_cast<std::size_t>(n_); ++j) {
        tally_instance(j);
        const auto best = tally_.plurality();
        candidate_valid_[j] = best.has_value() ? 1 : 0;
        if (best.has_value()) candidate_[j].assign(best->begin(), best->end());
        // The binary stage starts afresh, as a new Phase_king_session would.
        pref_[j] = static_cast<std::uint8_t>(binary_input(tally_, n_, f_));
        majority_[j] = Phase_majority{};
    }
    binary_started_ = true;
}

void Parallel_ic_session::deliver_phase_king_round(common::Round r)
{
    const auto n = static_cast<std::size_t>(n_);
    if (r % 2 == 0) {
        for (std::size_t j = 0; j < n; ++j) {
            int count[2] = {0, 0};
            for (std::size_t sender = 0; sender < n; ++sender) {
                const auto bit = decode_bit(section(sender, j));
                if (bit.has_value()) ++count[*bit];
            }
            majority_[j] = phase_majority(count[0], count[1]);
        }
        return;
    }
    const auto king = static_cast<std::size_t>(r / 2);
    for (std::size_t j = 0; j < n; ++j) {
        pref_[j] = static_cast<std::uint8_t>(
            king_adopt(majority_[j], decode_bit(section(king, j)), n_, f_));
    }
    if (r != phase_king_rounds(f_) - 1) return;

    // Instance j decides its candidate iff phase king decided 1.
    agreed_vector_.assign(n, Value{});
    for (std::size_t j = 0; j < n; ++j) {
        if (pref_[j] == 1 && candidate_valid_[j]) agreed_vector_[j] = std::move(candidate_[j]);
    }
    done_ = true;
}

const std::vector<Value>& Parallel_ic_session::agreed_vector() const
{
    common::ensure(done_, "Parallel_ic_session::agreed_vector before completion");
    return agreed_vector_;
}

Value Parallel_ic_session::decision() const
{
    common::ensure(done_, "Parallel_ic_session::decision before completion");
    Vote_tally votes;
    for (const Value& value : agreed_vector_) {
        if (!value.empty()) votes.add(value);
    }
    const auto best = votes.plurality();
    if (!best.has_value()) return Value{};
    return Value(best->begin(), best->end());
}

} // namespace ga::bft
