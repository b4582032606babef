#include "bft/eig.h"

#include <algorithm>

#include "common/ensure.h"

namespace ga::bft {

Eig_session::Eig_session(int n, int f, common::Processor_id self, Value input)
    : n_{n}, f_{f}, self_{self}, input_{std::move(input)}
{
    common::ensure(n_ >= 1, "Eig_session: n must be positive");
    common::ensure(f_ >= 0, "Eig_session: f must be non-negative");
    common::ensure(n_ > 3 * f_, "Eig_session requires n > 3f");
    common::ensure(self_ >= 0 && self_ < n_, "Eig_session: self out of range");
}

bool Eig_session::valid_path(const Path& path, std::size_t expected_len) const
{
    if (path.size() != expected_len) return false;
    for (std::size_t i = 0; i < path.size(); ++i) {
        if (path[i] < 0 || path[i] >= n_) return false;
        for (std::size_t j = i + 1; j < path.size(); ++j)
            if (path[i] == path[j]) return false;
    }
    return true;
}

common::Bytes Eig_session::message_for_round(common::Round r)
{
    common::Bytes payload;
    if (r < 0 || r > f_) return payload; // defensive after transient faults

    // Round 0: broadcast own input as the empty-path pair. Round r>0: relay
    // every stored level-r node whose path does not already contain self.
    std::vector<std::pair<Path, const Value*>> pairs;
    if (r == 0) {
        static const Path empty_path{};
        pairs.emplace_back(empty_path, &input_);
    } else {
        pairs.reserve(tree_.size());
        for (const auto& [path, value] : tree_) {
            if (path.size() != static_cast<std::size_t>(r)) continue;
            if (std::find(path.begin(), path.end(), self_) != path.end()) continue;
            pairs.emplace_back(path, &value);
        }
    }

    std::size_t wire_size = 4;
    for (const auto& [path, value] : pairs) wire_size += 4 + 4 * path.size() + 4 + value->size();
    payload.reserve(wire_size);

    common::put_u32(payload, static_cast<std::uint32_t>(pairs.size()));
    for (const auto& [path, value] : pairs) {
        common::put_u32(payload, static_cast<std::uint32_t>(path.size()));
        for (const common::Processor_id id : path)
            common::put_u32(payload, static_cast<std::uint32_t>(id));
        common::put_bytes(payload, *value);
    }

    // Self-delivery: our own relays are part of our tree (node path+self),
    // so the session works whether or not the transport echoes broadcasts
    // back to their sender.
    for (const auto& [path, value] : pairs) {
        Path extended = path;
        extended.push_back(self_);
        tree_.emplace(std::move(extended), *value);
    }
    return payload;
}

void Eig_session::deliver_round(common::Round r, const Round_payloads& payloads)
{
    if (r < 0 || r > f_ || done_) return;
    common::ensure(static_cast<int>(payloads.size()) == n_,
                   "Eig_session::deliver_round: payload vector size mismatch");

    for (common::Processor_id sender = 0; sender < n_; ++sender) {
        const auto& payload = payloads[static_cast<std::size_t>(sender)];
        if (!payload.has_value()) continue;
        try {
            common::Byte_reader reader{*payload};
            const std::uint32_t count = reader.get_u32();
            // A legitimate round-r message carries at most the number of
            // level-r nodes; anything larger is Byzantine spam — clamp it.
            const std::int64_t limit = eig_pairs_in_round(n_, r);
            if (static_cast<std::int64_t>(count) > limit) continue;
            for (std::uint32_t p = 0; p < count; ++p) {
                const std::uint32_t path_len = reader.get_u32();
                if (path_len > static_cast<std::uint32_t>(f_ + 1)) throw common::Decode_error{"path too long"};
                Path path;
                path.reserve(path_len);
                for (std::uint32_t i = 0; i < path_len; ++i)
                    path.push_back(static_cast<common::Processor_id>(reader.get_u32()));
                Value value = reader.get_bytes();

                if (!valid_path(path, static_cast<std::size_t>(r))) continue;
                if (std::find(path.begin(), path.end(), sender) != path.end()) continue;
                path.push_back(sender);
                // First writer wins: a duplicate (path) pair in one round is
                // itself Byzantine behaviour; honest senders never repeat.
                tree_.emplace(std::move(path), std::move(value));
            }
        } catch (const common::Decode_error&) {
            // Malformed payload: treat the entire message as missing.
        }
    }

    if (r == f_) {
        resolve_all();
        done_ = true;
    }
}

Value Eig_session::resolve(const Path& path) const
{
    if (path.size() == static_cast<std::size_t>(f_) + 1) {
        const auto it = tree_.find(path);
        return it == tree_.end() ? Value{} : it->second;
    }

    // Internal node: strict majority over all children path+[j], j not in path.
    std::map<Value, int, Value_order> votes;
    int children = 0;
    Path child = path;
    child.push_back(0);
    for (common::Processor_id j = 0; j < n_; ++j) {
        if (std::find(path.begin(), path.end(), j) != path.end()) continue;
        ++children;
        child.back() = j;
        ++votes[resolve(child)];
    }
    for (const auto& [value, count] : votes) {
        if (2 * count > children) return value;
    }
    return Value{};
}

void Eig_session::resolve_all()
{
    agreed_vector_.assign(static_cast<std::size_t>(n_), Value{});
    for (common::Processor_id source = 0; source < n_; ++source) {
        Path path{source};
        if (source == self_) {
            // Own subtree root holds the local input directly.
            tree_.emplace(path, input_);
        }
        agreed_vector_[static_cast<std::size_t>(source)] = resolve(path);
    }
}

const std::vector<Value>& Eig_session::agreed_vector() const
{
    common::ensure(done_, "Eig_session::agreed_vector before completion");
    return agreed_vector_;
}

Value Eig_session::decision() const
{
    common::ensure(done_, "Eig_session::decision before completion");
    std::map<Value, int, Value_order> votes;
    for (const Value& value : agreed_vector_) {
        if (!value.empty()) ++votes[value];
    }
    Value best{};
    int best_count = 0;
    for (const auto& [value, count] : votes) {
        if (count > best_count) { // map order makes ties lexicographically smallest
            best = value;
            best_count = count;
        }
    }
    return best;
}

std::int64_t eig_pairs_in_round(int n, common::Round r)
{
    // Number of paths of length r over n distinct ids: n * (n-1) * ... (r terms).
    std::int64_t pairs = 1;
    for (common::Round i = 0; i < r; ++i) pairs *= (n - i);
    return pairs;
}

} // namespace ga::bft
