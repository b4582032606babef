// Merkle trees over SHA-256.
//
// Supports the batched-audit extension of §5.3: instead of auditing every
// round, agents commit to the Merkle root of a whole window of per-round
// values; during an audit, individual rounds are opened with logarithmic-size
// inclusion proofs.
#ifndef GA_CRYPTO_MERKLE_H
#define GA_CRYPTO_MERKLE_H

#include <vector>

#include "crypto/sha256.h"

namespace ga::crypto {

/// One step of an inclusion proof: the sibling digest and which side it is on.
struct Proof_node {
    Digest sibling{};
    bool sibling_is_left = false;
};

/// Inclusion proof for one leaf.
using Merkle_proof = std::vector<Proof_node>;

/// Immutable Merkle tree built over leaf payloads. Leaves are domain-separated
/// from interior nodes (0x00 / 0x01 prefixes) to rule out second-preimage
/// splicing attacks. Odd nodes are promoted (Bitcoin-style duplication is not
/// used, so no mutation ambiguity).
class Merkle_tree {
public:
    /// Build from leaf payloads; at least one leaf required.
    explicit Merkle_tree(const std::vector<common::Bytes>& leaves);

    [[nodiscard]] const Digest& root() const { return levels_.back().front(); }
    [[nodiscard]] std::size_t leaf_count() const { return levels_.front().size(); }

    /// Inclusion proof for leaf `index`.
    [[nodiscard]] Merkle_proof prove(std::size_t index) const;

    /// Digest of a leaf payload (domain-separated), exposed for verification.
    static Digest leaf_digest(common::Byte_view payload);

    /// Digest of an interior node over its two children (domain-separated).
    static Digest node_digest(const Digest& left, const Digest& right);

private:
    std::vector<std::vector<Digest>> levels_; // levels_[0] = leaves, back() = root
};

/// Verify that `payload` is the `index`-free leaf under `root` via `proof`.
bool verify_inclusion(const Digest& root, const common::Bytes& payload, const Merkle_proof& proof);

} // namespace ga::crypto

#endif // GA_CRYPTO_MERKLE_H
