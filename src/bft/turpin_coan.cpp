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
    for (Entry& entry : entries_) {
        if (std::ranges::equal(entry.value, value)) {
            ++entry.votes;
            return;
        }
    }
    entries_.push_back({value, 1});
}

std::optional<Vote_tally::Entry> Vote_tally::plurality() const
{
    const Entry* best = nullptr;
    for (const Entry& entry : entries_) {
        if (best == nullptr || entry.votes > best->votes ||
            (entry.votes == best->votes &&
             std::ranges::lexicographical_compare(entry.value, best->value))) {
            best = &entry;
        }
    }
    if (best == nullptr) return std::nullopt;
    return *best;
}

Turpin_coan_session::Turpin_coan_session(int n, int f, common::Processor_id self, Value input,
                                         Binary_session_factory make_binary)
    : n_{n}, f_{f}, self_{self}, input_{std::move(input)}, make_binary_{std::move(make_binary)}
{
    common::ensure(f_ >= 0 && n_ > 4 * f_, "Turpin_coan_session requires f >= 0 and n > 4f");
    common::ensure(self_ >= 0 && self_ < n_, "Turpin_coan_session: self out of range");
    common::ensure(make_binary_ != nullptr, "Turpin_coan_session: null binary factory");
}

common::Round Turpin_coan_session::total_rounds() const
{
    // The echo round plus the binary protocol; the binary session is created
    // lazily, so ask a throwaway instance for its round count.
    if (binary_) return 1 + binary_->total_rounds();
    return 1 + make_binary_(n_, f_, self_, 0)->total_rounds();
}

void Turpin_coan_session::append_message_for_round(common::Round r, common::Bytes& out)
{
    if (r == 0) {
        put_tagged(out, input_);
    } else if (r >= 1 && binary_) {
        binary_->append_message_for_round(r - 1, out);
    }
}

void Turpin_coan_session::deliver_round(common::Round r, const Round_payloads& payloads)
{
    if (done_ || r < 0) return;
    common::ensure(static_cast<int>(payloads.size()) == n_,
                   "Turpin_coan_session::deliver_round: payload vector size mismatch");

    if (r == 0) {
        tally_.clear();
        common::Byte_view value;
        for (const auto& payload : payloads) {
            if (payload.has_value() && tagged_vote(*payload, value)) tally_.add(value);
        }
        const auto best = tally_.plurality();
        candidate_valid_ = best.has_value();
        if (candidate_valid_) candidate_.assign(best->value.begin(), best->value.end());
        binary_ = make_binary_(n_, f_, self_, echo_bit(best, n_, f_));
        return;
    }

    if (!binary_) return; // transient-fault remnant: out-of-schedule call
    binary_->deliver_round(r - 1, payloads);
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
