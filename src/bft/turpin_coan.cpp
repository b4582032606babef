#include "bft/turpin_coan.h"

#include <algorithm>

#include "common/ensure.h"

namespace ga::bft {

void put_tagged(common::Bytes& out, std::optional<common::Byte_view> value)
{
    if (!value.has_value()) {
        out.push_back(0);
        return;
    }
    out.push_back(1);
    common::put_bytes(out, *value);
}

void Vote_tally::add(common::Byte_view value)
{
    ++votes_;
    for (auto& [seen, count] : entries_) {
        if (std::ranges::equal(seen, value)) {
            ++count;
            return;
        }
    }
    entries_.emplace_back(value, 1);
}

std::optional<common::Byte_view> Vote_tally::quorum(int threshold) const
{
    for (const auto& [value, count] : entries_) {
        if (count >= threshold) return value;
    }
    return std::nullopt;
}

std::optional<common::Byte_view> Vote_tally::plurality() const
{
    const std::pair<common::Byte_view, int>* best = nullptr;
    for (const auto& entry : entries_) {
        if (best == nullptr || entry.second > best->second ||
            (entry.second == best->second &&
             std::ranges::lexicographical_compare(entry.first, best->first))) {
            best = &entry;
        }
    }
    if (best == nullptr) return std::nullopt;
    return best->first;
}

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

void Turpin_coan_session::append_message_for_round(common::Round r, common::Bytes& out)
{
    if (r >= 2) {
        if (binary_) binary_->append_message_for_round(r - 2, out);
        return;
    }
    if (r == 0) put_tagged(out, input_);
    if (r == 1) put_tagged(out, x_);
}

void Turpin_coan_session::tally_round(const Round_payloads& payloads)
{
    tally_.clear();
    common::Byte_view value;
    for (const auto& payload : payloads) {
        if (payload.has_value() && tagged_vote(*payload, value)) tally_.add(value);
    }
}

void Turpin_coan_session::deliver_round(common::Round r, const Round_payloads& payloads)
{
    if (done_ || r < 0) return;
    common::ensure(static_cast<int>(payloads.size()) == n_,
                   "Turpin_coan_session::deliver_round: payload vector size mismatch");

    if (r == 0) {
        tally_round(payloads);
        x_.reset();
        if (const auto x = tally_.quorum(n_ - f_)) x_.emplace(x->begin(), x->end());
        return;
    }

    if (r == 1) {
        tally_round(payloads);
        const auto best = tally_.plurality();
        candidate_valid_ = best.has_value();
        if (candidate_valid_) candidate_.assign(best->begin(), best->end());
        binary_ = make_binary_(n_, f_, self_, binary_input(tally_, n_, f_));
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
