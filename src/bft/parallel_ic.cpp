#include "bft/parallel_ic.h"

#include <map>

#include "common/ensure.h"

namespace ga::bft {

Parallel_ic_session::Parallel_ic_session(int n, int f, common::Processor_id self, Value input,
                                         Multivalued_session_factory make_inner)
    : n_{n}, f_{f}, self_{self}, input_{std::move(input)}, make_inner_{std::move(make_inner)}
{
    common::ensure(n_ > 3 * f_, "Parallel_ic_session requires n > 3f");
    common::ensure(self_ >= 0 && self_ < n_, "Parallel_ic_session: self out of range");
    common::ensure(make_inner_ != nullptr, "Parallel_ic_session: null inner factory");
}

common::Round Parallel_ic_session::total_rounds() const
{
    if (!instances_.empty()) return 1 + instances_.front()->total_rounds();
    return 1 + make_inner_(n_, f_, self_, Value{})->total_rounds();
}

common::Bytes Parallel_ic_session::message_for_round(common::Round r)
{
    if (r == 0) {
        common::Bytes payload;
        common::put_bytes(payload, input_);
        return payload;
    }
    if (instances_.empty()) return {};
    common::Bytes payload;
    for (const auto& instance : instances_) {
        common::put_bytes(payload, instance->message_for_round(r - 1));
    }
    return payload;
}

void Parallel_ic_session::deliver_round(common::Round r, const Round_payloads& payloads)
{
    if (done_ || r < 0) return;
    common::ensure(static_cast<int>(payloads.size()) == n_,
                   "Parallel_ic_session::deliver_round: payload arity mismatch");

    if (r == 0) {
        instances_.clear();
        instances_.reserve(static_cast<std::size_t>(n_));
        for (int j = 0; j < n_; ++j) {
            Value seed;
            const auto& payload = payloads[static_cast<std::size_t>(j)];
            if (payload.has_value()) {
                try {
                    common::Byte_reader reader{*payload};
                    const common::Byte_view value = reader.get_view();
                    if (reader.exhausted()) seed.assign(value.begin(), value.end());
                } catch (const common::Decode_error&) {
                }
            }
            if (j == self_) seed = input_; // own slot always carries the real input
            instances_.push_back(make_inner_(n_, f_, self_, std::move(seed)));
        }
        per_instance_.assign(static_cast<std::size_t>(n_),
                             Round_payloads(static_cast<std::size_t>(n_)));
        return;
    }

    if (instances_.empty()) return; // out-of-schedule call after a fault

    // Split each sender's concatenated payload into per-instance views of
    // its sections (per_instance_[j][sender] = sender's section for j).
    const auto reset_sender = [&](std::size_t sender) {
        for (Round_payloads& instance : per_instance_) instance[sender].reset();
    };
    for (int s = 0; s < n_; ++s) {
        const auto sender = static_cast<std::size_t>(s);
        const auto& payload = payloads[sender];
        if (!payload.has_value()) {
            reset_sender(sender);
            continue;
        }
        try {
            common::Byte_reader reader{*payload};
            for (Round_payloads& instance : per_instance_) instance[sender] = reader.get_view();
            // Trailing junk: distrust the sender entirely this round.
            if (!reader.exhausted()) reset_sender(sender);
        } catch (const common::Decode_error&) {
            reset_sender(sender);
        }
    }

    bool all_done = true;
    for (int j = 0; j < n_; ++j) {
        instances_[static_cast<std::size_t>(j)]->deliver_round(
            r - 1, per_instance_[static_cast<std::size_t>(j)]);
        all_done &= instances_[static_cast<std::size_t>(j)]->done();
    }
    if (all_done) {
        agreed_vector_.clear();
        agreed_vector_.reserve(static_cast<std::size_t>(n_));
        for (const auto& instance : instances_) agreed_vector_.push_back(instance->decision());
        done_ = true;
    }
}

const std::vector<Value>& Parallel_ic_session::agreed_vector() const
{
    common::ensure(done_, "Parallel_ic_session::agreed_vector before completion");
    return agreed_vector_;
}

Value Parallel_ic_session::decision() const
{
    common::ensure(done_, "Parallel_ic_session::decision before completion");
    std::map<Value, int> votes;
    for (const Value& value : agreed_vector_) {
        if (!value.empty()) ++votes[value];
    }
    Value best{};
    int best_count = 0;
    for (const auto& [value, count] : votes) {
        if (count > best_count) {
            best = value;
            best_count = count;
        }
    }
    return best;
}

} // namespace ga::bft
