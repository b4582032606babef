#include "pipeline/vector_commit.h"

#include <algorithm>
#include <array>

namespace ga::pipeline {

namespace {

/// Honest openings carry a 32-byte nonce and a 4-byte action encoding;
/// anything materially larger is Byzantine spam.
constexpr std::size_t k_max_opening_bytes = 64;

} // namespace

common::Bytes encode(const Batch_root& value)
{
    common::Bytes out;
    common::put_u32(out, value.k);
    out.insert(out.end(), value.root.begin(), value.root.end());
    return out;
}

std::optional<Batch_root> decode_batch_root(const common::Bytes& bytes, int expected_k)
{
    Batch_root value;
    if (bytes.size() != 4 + value.root.size()) return std::nullopt;
    common::Byte_reader reader{bytes};
    value.k = reader.get_u32(); // in bounds: sized above
    if (value.k != static_cast<std::uint32_t>(expected_k)) return std::nullopt;
    std::copy(bytes.begin() + 4, bytes.end(), value.root.begin());
    return value;
}

common::Bytes leaf_payload(int play, const crypto::Commitment& commitment)
{
    common::Bytes out;
    common::put_u32(out, static_cast<std::uint32_t>(play));
    out.insert(out.end(), commitment.digest.begin(), commitment.digest.end());
    return out;
}

common::Bytes encode(const Batch_reveal& value)
{
    common::Bytes out;
    common::put_u32(out, static_cast<std::uint32_t>(value.openings.size()));
    for (const crypto::Opening& opening : value.openings) {
        common::put_bytes(out, crypto::encode(opening));
    }
    return out;
}

bool decode_batch_reveal(common::Byte_view bytes, int expected_k, Batch_reveal& out)
{
    common::Byte_reader reader{bytes};
    std::uint32_t count = 0;
    if (!reader.try_get_u32(count) || count != static_cast<std::uint32_t>(expected_k)) return false;
    // Every opening takes at least its own prefix and its two inner ones.
    if (count > reader.remaining() / 12) return false;
    out.openings.resize(count);
    for (crypto::Opening& opening : out.openings) {
        common::Byte_view opening_bytes;
        if (!reader.try_get_view(opening_bytes) ||
            opening_bytes.size() > k_max_opening_bytes + 8) {
            return false;
        }
        common::Byte_reader opening_reader{opening_bytes};
        if (!crypto::decode_opening(opening_reader, opening) || !opening_reader.exhausted())
            return false;
    }
    return reader.exhausted();
}

std::optional<Batch_reveal> decode_batch_reveal(const common::Bytes& bytes, int expected_k)
{
    Batch_reveal value;
    if (!decode_batch_reveal(bytes, expected_k, value)) return std::nullopt;
    return value;
}

bool opens_vector(const Batch_root& root, const Batch_reveal& reveal)
{
    if (reveal.openings.size() != root.k || reveal.openings.empty()) return false;
    // Merkle_tree's root without the tree: leaves fold left to right over a
    // stack of subtree roots, merging while the top two have equal height;
    // what is left merges right to left, which is exactly where the level
    // build promotes its odd nodes. The stack holds one root per height.
    std::array<crypto::Digest, 64> stack;
    std::array<int, 64> height{};
    std::size_t depth = 0;
    std::array<std::uint8_t, 4 + std::tuple_size_v<crypto::Digest>> leaf; // leaf_payload's bytes
    for (std::size_t j = 0; j < reveal.openings.size(); ++j) {
        const crypto::Commitment commitment = crypto::recommit(reveal.openings[j]);
        for (std::size_t b = 0; b < 4; ++b) leaf[b] = static_cast<std::uint8_t>(j >> (8 * b));
        std::copy(commitment.digest.begin(), commitment.digest.end(), leaf.begin() + 4);
        stack[depth] = crypto::Merkle_tree::leaf_digest(leaf);
        height[depth++] = 0;
        while (depth >= 2 && height[depth - 2] == height[depth - 1]) {
            stack[depth - 2] = crypto::Merkle_tree::node_digest(stack[depth - 2], stack[depth - 1]);
            ++height[depth - 2];
            --depth;
        }
    }
    for (; depth >= 2; --depth)
        stack[depth - 2] = crypto::Merkle_tree::node_digest(stack[depth - 2], stack[depth - 1]);
    return stack[0] == root.root;
}

common::Bytes encode(const Spot_reveal& value)
{
    common::Bytes out;
    common::put_bytes(out, crypto::encode(value.opening));
    common::put_u32(out, static_cast<std::uint32_t>(value.proof.size()));
    for (const crypto::Proof_node& node : value.proof) {
        out.insert(out.end(), node.sibling.begin(), node.sibling.end());
        out.push_back(node.sibling_is_left ? 1 : 0);
    }
    return out;
}

std::optional<Spot_reveal> decode_spot_reveal(const common::Bytes& bytes, int max_proof_nodes)
{
    try {
        common::Byte_reader reader{bytes};
        Spot_reveal value;
        const common::Bytes opening_bytes = reader.get_bytes();
        common::Byte_reader opening_reader{opening_bytes};
        value.opening = crypto::decode_opening(opening_reader);
        if (!opening_reader.exhausted()) return std::nullopt;
        const std::uint32_t nodes = reader.get_u32();
        if (nodes > static_cast<std::uint32_t>(max_proof_nodes)) return std::nullopt;
        value.proof.resize(nodes);
        for (crypto::Proof_node& node : value.proof) {
            for (auto& byte : node.sibling) byte = reader.get_u8();
            node.sibling_is_left = reader.get_u8() == 1;
        }
        if (!reader.exhausted()) return std::nullopt;
        return value;
    } catch (const common::Decode_error&) {
        return std::nullopt;
    }
}

bool opens_position(const Batch_root& root, int play, const Spot_reveal& reveal)
{
    const crypto::Commitment committed = crypto::recommit(reveal.opening);
    return crypto::verify_inclusion(root.root, leaf_payload(play, committed), reveal.proof);
}

} // namespace ga::pipeline
