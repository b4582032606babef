#include "crypto/merkle.h"

#include "common/ensure.h"

namespace ga::crypto {

// Both digests stream their one-byte domain tag and their input into the
// hash; no preimage is assembled.

Digest Merkle_tree::leaf_digest(common::Byte_view payload)
{
    static constexpr std::uint8_t tag = 0x00;
    Sha256 hash;
    hash.update(&tag, 1);
    hash.update(payload);
    return hash.finish();
}

Digest Merkle_tree::node_digest(const Digest& left, const Digest& right)
{
    static constexpr std::uint8_t tag = 0x01;
    Sha256 hash;
    hash.update(&tag, 1);
    hash.update(left.data(), left.size());
    hash.update(right.data(), right.size());
    return hash.finish();
}

Merkle_tree::Merkle_tree(const std::vector<common::Bytes>& leaves)
{
    common::ensure(!leaves.empty(), "Merkle_tree requires at least one leaf");
    std::vector<Digest> level;
    level.reserve(leaves.size());
    for (const auto& leaf : leaves) level.push_back(leaf_digest(leaf));
    levels_.push_back(std::move(level));

    while (levels_.back().size() > 1) {
        const auto& below = levels_.back();
        std::vector<Digest> above;
        above.reserve((below.size() + 1) / 2);
        for (std::size_t i = 0; i + 1 < below.size(); i += 2)
            above.push_back(node_digest(below[i], below[i + 1]));
        if (below.size() % 2 == 1) above.push_back(below.back()); // promote odd node
        levels_.push_back(std::move(above));
    }
}

Merkle_proof Merkle_tree::prove(std::size_t index) const
{
    common::ensure(index < leaf_count(), "Merkle_tree::prove: index out of range");
    Merkle_proof proof;
    std::size_t pos = index;
    for (std::size_t depth = 0; depth + 1 < levels_.size(); ++depth) {
        const auto& level = levels_[depth];
        const std::size_t sibling = (pos % 2 == 0) ? pos + 1 : pos - 1;
        if (sibling < level.size()) {
            proof.push_back(Proof_node{level[sibling], sibling < pos});
        }
        pos /= 2;
    }
    return proof;
}

bool verify_inclusion(const Digest& root, const common::Bytes& payload, const Merkle_proof& proof)
{
    Digest current = Merkle_tree::leaf_digest(payload);
    for (const auto& node : proof) {
        current = node.sibling_is_left ? Merkle_tree::node_digest(node.sibling, current)
                                       : Merkle_tree::node_digest(current, node.sibling);
    }
    return current == root;
}

} // namespace ga::crypto
