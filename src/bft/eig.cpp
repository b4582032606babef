#include "bft/eig.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/ensure.h"

namespace ga::bft {

namespace {

bool same_value(common::Byte_view a, common::Byte_view b)
{
    return a.size() == b.size() &&
           (a.data() == b.data() || a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

/// #{p in path : p < id} — `id`'s index among the ids a child of `path` may
/// append, i.e. the child's offset below its parent's rank.
std::size_t index_below(const std::vector<common::Processor_id>& path, common::Processor_id id)
{
    return static_cast<std::size_t>(id) -
           static_cast<std::size_t>(std::count_if(path.begin(), path.end(),
                                                  [id](common::Processor_id p) { return p < id; }));
}

} // namespace

Eig_session::Eig_session(int n, int f, common::Processor_id self, Value input)
    : n_{n}, f_{f}, self_{self}
{
    common::ensure(n_ >= 1, "Eig_session: n must be positive");
    common::ensure(f_ >= 0, "Eig_session: f must be non-negative");
    common::ensure(n_ > 3 * f_, "Eig_session requires n > 3f");
    common::ensure(self_ >= 0 && self_ < n_, "Eig_session: self out of range");
    restart(std::move(input));
}

void Eig_session::restart(Value input)
{
    input_ = std::move(input);
    done_ = false;
    // The laid-out table and the arena keep their capacity; only their
    // contents go.
    std::fill(nodes_.begin(), nodes_.end(), Node{});
    arena_.clear();
}

void Eig_session::lay_out()
{
    if (!nodes_.empty()) return;
    // Level k holds n(n-1)...(n-k+1) nodes; n > 3f keeps every factor >= 1.
    level_base_.assign(static_cast<std::size_t>(f_) + 3, 0);
    std::size_t width = 1;
    for (int k = 1; k <= f_ + 1; ++k) {
        const auto choices = static_cast<std::size_t>(n_ - k + 1);
        common::ensure(width <= nodes_.max_size() / choices, "Eig_session: tree too large");
        width *= choices;
        const std::size_t base = level_base_[static_cast<std::size_t>(k)];
        common::ensure(width <= nodes_.max_size() - base, "Eig_session: tree too large");
        level_base_[static_cast<std::size_t>(k) + 1] = base + width;
    }
    nodes_.resize(level_base_.back());
    path_.reserve(static_cast<std::size_t>(f_) + 1);
    votes_.reserve(static_cast<std::size_t>(n_) * static_cast<std::size_t>(f_ + 1));
}

void Eig_session::store(std::size_t node, common::Byte_view value)
{
    Node& slot = nodes_[node];
    if (slot.present) return; // first writer wins
    slot = Node{arena_.size(), value.size(), true};
    arena_.insert(arena_.end(), value.begin(), value.end());
}

void Eig_session::append_message_for_round(common::Round r, common::Bytes& out)
{
    if (r < 0 || r > f_) return; // defensive after transient faults
    lay_out();

    // Round 0: broadcast own input as the empty-path pair. Round r>0: relay
    // every stored level-r node whose path does not already contain self, in
    // rank order — which is lexicographic path order.
    //
    // Self-delivery: our own relays are part of our tree (node path+self),
    // so the session works whether or not the transport echoes broadcasts
    // back to their sender.
    if (r == 0) {
        out.reserve(out.size() + 12 + input_.size());
        common::put_u32(out, 1);
        common::put_u32(out, 0);
        common::put_bytes(out, input_);
        store(level_base_[1] + static_cast<std::size_t>(self_), input_);
        return;
    }
    const std::size_t width = level_base_[static_cast<std::size_t>(r) + 1] -
                              level_base_[static_cast<std::size_t>(r)];
    out.reserve(out.size() + 4 + width * (8 + 4 * static_cast<std::size_t>(r)) + arena_.size());
    const std::size_t count_at = out.size();
    common::put_u32(out, 0); // pair count, patched once the walk is done
    std::uint32_t pairs = 0;
    path_.clear();
    relay(r, 0, out, pairs);
    for (std::size_t b = 0; b < 4; ++b)
        out[count_at + b] = static_cast<std::uint8_t>(pairs >> (8 * b));
}

void Eig_session::relay(common::Round r, std::size_t rank, common::Bytes& payload,
                        std::uint32_t& pairs)
{
    // path_ is a level-|path_| path of rank `rank`; walk its descendants on
    // level r in rank order, skipping every subtree whose path holds self.
    const auto depth = static_cast<common::Round>(path_.size());
    if (depth == r) {
        const Node node = nodes_[level_base_[static_cast<std::size_t>(r)] + rank];
        if (!node.present) return;
        common::put_u32(payload, static_cast<std::uint32_t>(r));
        for (const common::Processor_id id : path_)
            common::put_u32(payload, static_cast<std::uint32_t>(id));
        common::put_bytes(payload, view(node));
        ++pairs;
        // The self-relay path+self shares the relayed node's arena bytes.
        Node& echo = nodes_[level_base_[static_cast<std::size_t>(r) + 1] +
                            rank * static_cast<std::size_t>(n_ - r) + index_below(path_, self_)];
        if (!echo.present) echo = node;
        return;
    }
    std::size_t child = rank * static_cast<std::size_t>(n_ - depth);
    for (common::Processor_id j = 0; j < n_; ++j) {
        if (std::find(path_.begin(), path_.end(), j) != path_.end()) continue;
        if (j != self_) {
            path_.push_back(j);
            relay(r, child, payload, pairs);
            path_.pop_back();
        }
        ++child;
    }
}

void Eig_session::deliver_round(common::Round r, const Round_payloads& payloads)
{
    if (r < 0 || r > f_ || done_) return;
    common::ensure(static_cast<int>(payloads.size()) == n_,
                   "Eig_session::deliver_round: payload vector size mismatch");
    lay_out();

    if (r == 0) {
        // Round 0 stores every sender's input, so one reservation covers it.
        // Later rounds mostly share their parent's bytes (honest relays).
        std::size_t received = 0;
        for (const auto& payload : payloads)
            if (payload.has_value()) received += payload->size();
        arena_.reserve(arena_.size() + received);
    }

    for (common::Processor_id sender = 0; sender < n_; ++sender) {
        const auto& payload = payloads[static_cast<std::size_t>(sender)];
        if (payload.has_value()) store_pairs(r, sender, *payload);
    }

    if (r == f_) {
        resolve_all();
        done_ = true;
    }
}

void Eig_session::store_pairs(common::Round r, common::Processor_id sender,
                              common::Byte_view payload)
{
    // A legitimate round-r message carries at most the number of level-r
    // nodes; anything larger is Byzantine spam — that sender is dropped. A
    // malformed pair ends the sender's message, but the pairs decoded
    // before it stay in the tree.
    common::Byte_reader reader{payload};
    std::uint32_t count = 0;
    if (!reader.try_get_u32(count) || static_cast<std::int64_t>(count) > eig_pairs_in_round(n_, r))
        return;
    const auto children = static_cast<std::size_t>(n_ - r);
    const std::size_t next_level = level_base_[static_cast<std::size_t>(r) + 1];
    for (std::uint32_t p = 0; p < count; ++p) {
        std::uint32_t path_len = 0;
        if (!reader.try_get_u32(path_len) || path_len > static_cast<std::uint32_t>(f_ + 1)) return;
        // Fold the path into its level-r rank while decoding. A path that is
        // not r distinct in-range ids, or that holds the sender, skips the
        // pair — which is still decoded in full, so a truncation anywhere in
        // it ends the message.
        bool keep = path_len == static_cast<std::uint32_t>(r);
        std::size_t rank = 0;
        path_.clear();
        for (std::uint32_t i = 0; i < path_len; ++i) {
            std::uint32_t raw = 0;
            if (!reader.try_get_u32(raw)) return;
            const auto id = static_cast<common::Processor_id>(raw);
            if (!keep) continue;
            if (id < 0 || id >= n_ || id == sender ||
                std::find(path_.begin(), path_.end(), id) != path_.end()) {
                keep = false;
                continue;
            }
            rank = rank * static_cast<std::size_t>(n_ - static_cast<int>(i)) +
                   index_below(path_, id);
            path_.push_back(id);
        }
        common::Byte_view value;
        if (!reader.try_get_view(value)) return;
        if (!keep) continue;
        // First writer wins: a duplicate (path) pair in one round is itself
        // Byzantine behaviour; honest senders never repeat.
        const std::size_t node = next_level + rank * children + index_below(path_, sender);
        if (nodes_[node].present) continue;
        // An honest relay repeats the value this processor holds for the
        // parent path; it shares the parent's arena bytes, which also lets
        // resolve's comparisons stop at the pointer.
        if (r > 0) {
            const Node& parent = nodes_[level_base_[static_cast<std::size_t>(r)] + rank];
            if (parent.present && same_value(view(parent), value)) {
                nodes_[node] = parent;
                continue;
            }
        }
        store(node, value);
    }
}

common::Byte_view Eig_session::resolve(int level, std::size_t rank)
{
    if (level == f_ + 1) {
        const Node& node = nodes_[level_base_[static_cast<std::size_t>(level)] + rank];
        return node.present ? view(node) : common::Byte_view{};
    }

    // Internal node: strict majority over its n-level children, which sit
    // contiguously on the next level. A strict majority is unique, so one
    // candidate pass (Boyer-Moore) plus a count finds it if there is one.
    const auto children = static_cast<std::size_t>(n_ - level);
    const std::size_t mark = votes_.size();
    for (std::size_t c = 0; c < children; ++c)
        votes_.push_back(resolve(level + 1, rank * children + c));
    common::Byte_view candidate{};
    std::size_t lead = 0;
    for (std::size_t c = mark; c < votes_.size(); ++c) {
        if (lead == 0) {
            candidate = votes_[c];
            lead = 1;
        } else if (same_value(votes_[c], candidate)) {
            ++lead;
        } else {
            --lead;
        }
    }
    std::size_t support = 0;
    for (std::size_t c = mark; c < votes_.size(); ++c)
        if (same_value(votes_[c], candidate)) ++support;
    votes_.resize(mark);
    return 2 * support > children ? candidate : common::Byte_view{};
}

void Eig_session::resolve_all()
{
    // Own subtree root holds the local input directly.
    store(level_base_[1] + static_cast<std::size_t>(self_), input_);
    agreed_vector_.resize(static_cast<std::size_t>(n_)); // values keep their capacity
    for (common::Processor_id source = 0; source < n_; ++source) {
        const common::Byte_view value = resolve(1, static_cast<std::size_t>(source));
        agreed_vector_[static_cast<std::size_t>(source)].assign(value.begin(), value.end());
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
