#include "bft/parallel_ic.h"

#include <algorithm>

#include "common/ensure.h"

namespace ga::bft {

Parallel_ic_session::Parallel_ic_session(int n, int f, common::Processor_id self, Value input)
    : n_{n}, f_{f}, self_{self}
{
    common::ensure(f_ >= 0 && n_ > 4 * f_, "Parallel_ic_session requires f >= 0 and n > 4f");
    common::ensure(self_ >= 0 && self_ < n_, "Parallel_ic_session: self out of range");
    restart(std::move(input));
}

void Parallel_ic_session::restart(Value input)
{
    input_ = std::move(input);
    seeded_ = false;
    binary_started_ = false;
    done_ = false;
    // Sized once; a restart keeps every buffer and its values' capacity.
    const auto instances = static_cast<std::size_t>(n_);
    seed_.resize(instances);
    candidate_.resize(instances);
    candidate_valid_.resize(instances);
    pref_.resize(instances);
    majority_.resize(instances);
    row_.resize(instances);
    votes_.resize(instances * instances);
    vote_count_.resize(instances);
    bits_.resize(2 * instances);
}

void Parallel_ic_session::append_message_for_round(common::Round r, common::Bytes& out)
{
    if (r == 0) {
        common::put_bytes(out, input_);
        return;
    }
    if (!seeded_) return;

    // Section j is what instance j, as a standalone Turpin_coan_session,
    // would send in round r - 1; it is written in place behind a length
    // prefix that is filled in once the section's size is known.
    const bool echo = r == 1;
    const common::Round pk_round = r - 2;
    const bool pk_speaks = binary_started_ && pk_round >= 0 && pk_round < phase_king_rounds(f_);
    const auto n = static_cast<std::size_t>(n_);
    std::size_t size = n * (4 + 5); // prefix plus tag and value length, or a bit
    if (echo) {
        for (const Value& seed : seed_) size += seed.size();
    }
    out.reserve(out.size() + size);
    for (std::size_t j = 0; j < n; ++j) {
        const std::size_t prefix = out.size();
        common::put_u32(out, 0);
        if (echo) {
            put_tagged(out, seed_[j]);
        } else if (pk_speaks) {
            if (pk_round % 2 == 0) {
                put_bit(out, pref_[j]); // universal exchange
            } else if (self_ == pk_round / 2) {
                put_bit(out, majority_[j].maj); // king round: only the king speaks
            }
        }
        const std::size_t length = out.size() - prefix - 4;
        for (std::size_t i = 0; i < 4; ++i)
            out[prefix + i] = static_cast<std::uint8_t>(length >> (8 * i)); // as put_u32
    }
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
            if (j == self_) {
                seed = input_; // own slot always carries the real input
                continue;
            }
            seed.clear();
            if (!payloads[i].has_value()) continue;
            common::Byte_reader reader{*payloads[i]};
            common::Byte_view value;
            if (reader.try_get_view(value) && reader.exhausted())
                seed.assign(value.begin(), value.end());
        }
        // Fresh instances: no candidate, no binary stage.
        std::fill(candidate_valid_.begin(), candidate_valid_.end(), std::uint8_t{0});
        binary_started_ = false;
        seeded_ = true;
        return;
    }
    if (!seeded_) return; // out-of-schedule call after a fault

    const common::Round pk_round = r - 2;
    if (pk_round >= 0 && (!binary_started_ || pk_round >= phase_king_rounds(f_))) return;
    if (pk_round < 0) {
        deliver_echo_round(payloads);
    } else if (pk_round % 2 == 0) {
        deliver_exchange_round(payloads);
    } else {
        deliver_king_round(payloads, pk_round);
    }
}

bool Parallel_ic_session::split(const std::optional<common::Byte_view>& payload)
{
    if (!payload.has_value()) return false;
    common::Byte_reader reader{*payload};
    for (common::Byte_view& section : row_) {
        if (!reader.try_get_view(section)) return false;
    }
    return reader.exhausted();
}

void Parallel_ic_session::deliver_echo_round(const Round_payloads& payloads)
{
    const auto n = static_cast<std::size_t>(n_);
    std::fill(vote_count_.begin(), vote_count_.end(), 0);
    common::Byte_view value;
    for (std::size_t sender = 0; sender < n; ++sender) {
        if (!split(payloads[sender])) continue;
        for (std::size_t j = 0; j < n; ++j) {
            if (tagged_vote(row_[j], value))
                votes_[j * n + static_cast<std::size_t>(vote_count_[j]++)] = value;
        }
    }

    for (std::size_t j = 0; j < n; ++j) {
        tally_.clear();
        const auto first = votes_.begin() + static_cast<std::ptrdiff_t>(j * n);
        for (auto vote = first; vote != first + vote_count_[j]; ++vote) tally_.add(*vote);
        const auto best = tally_.plurality();
        candidate_valid_[j] = best.has_value() ? 1 : 0;
        if (best.has_value()) candidate_[j].assign(best->value.begin(), best->value.end());
        // The binary stage starts afresh, as a new Phase_king_session would.
        pref_[j] = static_cast<std::uint8_t>(echo_bit(best, n_, f_));
        majority_[j] = Phase_majority{};
    }
    binary_started_ = true;
}

void Parallel_ic_session::deliver_exchange_round(const Round_payloads& payloads)
{
    const auto n = static_cast<std::size_t>(n_);
    std::fill(bits_.begin(), bits_.end(), 0);
    for (std::size_t sender = 0; sender < n; ++sender) {
        if (!split(payloads[sender])) continue;
        for (std::size_t j = 0; j < n; ++j) {
            const common::Byte_view section = row_[j];
            if (section.size() == 1 && section[0] <= 1) ++bits_[2 * j + section[0]];
        }
    }
    for (std::size_t j = 0; j < n; ++j)
        majority_[j] = phase_majority(bits_[2 * j], bits_[2 * j + 1]);
}

void Parallel_ic_session::deliver_king_round(const Round_payloads& payloads,
                                             common::Round pk_round)
{
    const auto n = static_cast<std::size_t>(n_);
    const bool heard = split(payloads[static_cast<std::size_t>(pk_round / 2)]);
    for (std::size_t j = 0; j < n; ++j) {
        const std::optional<int> king_bit = heard ? decode_bit(row_[j]) : std::nullopt;
        pref_[j] = static_cast<std::uint8_t>(king_adopt(majority_[j], king_bit, n_, f_));
    }
    if (pk_round != phase_king_rounds(f_) - 1) return;

    // Instance j decides its candidate iff phase king decided 1. Swapping
    // the candidate in keeps both values' buffers for the next activation.
    agreed_vector_.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
        if (pref_[j] == 1 && candidate_valid_[j]) {
            agreed_vector_[j].swap(candidate_[j]);
        } else {
            agreed_vector_[j].clear();
        }
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
    return Value(best->value.begin(), best->value.end());
}

} // namespace ga::bft
