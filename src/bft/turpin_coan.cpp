#include "bft/turpin_coan.h"

#include <algorithm>

#include "common/ensure.h"

namespace ga::bft {

namespace {

// Wire format: 1 tag byte (0 = bottom, 1 = value) then the length-prefixed value.
common::Bytes encode_tagged(const std::optional<Value>& value)
{
    common::Bytes payload;
    if (!value.has_value()) {
        payload.push_back(0);
        return payload;
    }
    payload.push_back(1);
    common::put_bytes(payload, *value);
    return payload;
}

/// nullopt = missing or malformed; an inner nullopt = bottom; otherwise a
/// view of the tagged value inside `payload`.
std::optional<std::optional<common::Byte_view>> decode_tagged(
    const std::optional<common::Byte_view>& payload)
{
    if (!payload.has_value()) return std::nullopt;
    try {
        common::Byte_reader reader{*payload};
        const std::uint8_t tag = reader.get_u8();
        if (tag == 0) {
            if (!reader.exhausted()) return std::nullopt;
            return std::optional<common::Byte_view>{std::nullopt};
        }
        if (tag != 1) return std::nullopt;
        const common::Byte_view value = reader.get_view();
        if (!reader.exhausted()) return std::nullopt;
        return std::optional<common::Byte_view>{value};
    } catch (const common::Decode_error&) {
        return std::nullopt;
    }
}

/// Flat vote tally of one reduction round: the non-bottom values, sorted so
/// that equal values are adjacent and runs come in lexicographic (unsigned
/// byte) order — the key order of a std::map<Value, int>.
std::vector<common::Byte_view> sorted_votes(const Round_payloads& payloads)
{
    std::vector<common::Byte_view> votes;
    votes.reserve(payloads.size());
    for (const auto& payload : payloads) {
        const auto decoded = decode_tagged(payload);
        if (decoded.has_value() && decoded->has_value()) votes.push_back(**decoded);
    }
    std::sort(votes.begin(), votes.end(), [](common::Byte_view a, common::Byte_view b) {
        return std::ranges::lexicographical_compare(a, b);
    });
    return votes;
}

/// Calls visit(value, count) for each distinct value of a sorted tally, in
/// lexicographic order.
template <typename Visit>
void for_each_run(const std::vector<common::Byte_view>& votes, Visit visit)
{
    for (std::size_t begin = 0; begin < votes.size();) {
        std::size_t end = begin + 1;
        while (end < votes.size() && std::ranges::equal(votes[end], votes[begin])) ++end;
        visit(votes[begin], static_cast<int>(end - begin));
        begin = end;
    }
}

} // namespace

Turpin_coan_session::Turpin_coan_session(int n, int f, common::Processor_id self, Value input,
                                         Binary_session_factory make_binary)
    : n_{n}, f_{f}, self_{self}, input_{std::move(input)}, make_binary_{std::move(make_binary)}
{
    common::ensure(n_ > 3 * f_, "Turpin_coan_session requires n > 3f");
    common::ensure(self_ >= 0 && self_ < n_, "Turpin_coan_session: self out of range");
    common::ensure(make_binary_ != nullptr, "Turpin_coan_session: null binary factory");
}

common::Round Turpin_coan_session::total_rounds() const
{
    // Two reduction rounds plus the binary protocol; the binary session is
    // created lazily, so ask a throwaway instance for its round count.
    if (binary_) return 2 + binary_->total_rounds();
    return 2 + make_binary_(n_, f_, self_, 0)->total_rounds();
}

common::Bytes Turpin_coan_session::message_for_round(common::Round r)
{
    if (r == 0) return encode_tagged(input_);
    if (r == 1) return encode_tagged(x_);
    if (binary_) return binary_->message_for_round(r - 2);
    return {};
}

void Turpin_coan_session::deliver_round(common::Round r, const Round_payloads& payloads)
{
    if (done_ || r < 0) return;
    common::ensure(static_cast<int>(payloads.size()) == n_,
                   "Turpin_coan_session::deliver_round: payload vector size mismatch");

    if (r == 0) {
        // x := the smallest value with >= n-f occurrences (unique when n > 3f).
        x_.reset();
        for_each_run(sorted_votes(payloads), [&](common::Byte_view value, int count) {
            if (!x_ && count >= n_ - f_) x_.emplace(value.begin(), value.end());
        });
        return;
    }

    if (r == 1) {
        // Most votes wins; runs arrive in lexicographic order and only a
        // strictly larger count replaces the leader, so ties go to the
        // smallest value.
        const std::vector<common::Byte_view> votes = sorted_votes(payloads);
        std::optional<common::Byte_view> best;
        int best_count = 0;
        for_each_run(votes, [&](common::Byte_view value, int count) {
            if (count > best_count) {
                best = value;
                best_count = count;
            }
        });
        candidate_valid_ = best.has_value();
        if (candidate_valid_) candidate_.assign(best->begin(), best->end());
        const int non_bottom = static_cast<int>(votes.size());
        const int binary_input = non_bottom >= n_ - f_ ? 1 : 0;
        binary_ = make_binary_(n_, f_, self_, binary_input);
        return;
    }

    if (!binary_) return; // transient-fault remnant: out-of-schedule call
    binary_->deliver_round(r - 2, payloads);
    if (binary_->done()) done_ = true;
}

Value Turpin_coan_session::decision() const
{
    common::ensure(done_ && binary_, "Turpin_coan_session::decision before completion");
    const Value binary_decision = binary_->decision();
    const bool decided_one = binary_decision.size() == 1 && binary_decision[0] == 1;
    if (decided_one && candidate_valid_) return candidate_;
    return Value{};
}

} // namespace ga::bft
