// Wire codec of the batched play pipeline's vector commitments.
//
// One batch seals an agent's next k action commitments under a single Merkle
// root (crypto/merkle.h), so one IC activation agrees on a whole batch where
// the per-play §3.3 schedule (k = 1) needs one per play. The wire artifacts:
//
//  - Batch_root:   what the batch-commit phase agrees on per agent — the
//                  Merkle root plus the batch arity k (binding k rules out
//                  roots built over a different batch shape);
//  - leaf payload: what position j of the vector commits to — the play index
//                  and the action commitment digest. Binding the index into
//                  the leaf prevents the reorder attack where an equivocator
//                  commits to several actions and picks which one to open at
//                  each position;
//  - Batch_reveal: what the batch-reveal phase agrees on per agent — the
//                  whole vector of k openings. Verifiers recompute every
//                  commitment (crypto::recommit), rebuild the Merkle tree,
//                  and compare roots: one O(k) check per agent per batch
//                  opens all k positions at once, and any substituted opening
//                  anywhere in the vector changes the rebuilt root;
//  - Spot_reveal:  the logarithmic alternative for opening one position out
//                  of a sealed vector (opening + inclusion proof) — the §5.3
//                  spot-audit path, worthwhile when only a sample of a large
//                  window is audited rather than the whole batch.
//
// Every decoder tolerates arbitrary Byzantine bytes: malformed input decodes
// to nullopt, never throws past the codec boundary.
#ifndef GA_PIPELINE_VECTOR_COMMIT_H
#define GA_PIPELINE_VECTOR_COMMIT_H

#include <optional>

#include "crypto/commitment.h"
#include "crypto/merkle.h"

namespace ga::pipeline {

/// Upper bound on batch arity (bounds wire payloads and schedule state).
constexpr int k_max_batch = 64;

/// The value one agent proposes to the batch-commit IC activation.
struct Batch_root {
    crypto::Digest root{};  ///< Merkle root over the k leaf payloads
    std::uint32_t k = 0;    ///< batch arity the root was built for

    friend bool operator==(const Batch_root&, const Batch_root&) = default;
};

common::Bytes encode(const Batch_root& value);

/// Decode and validate a batch root; nullopt when malformed or when the
/// declared arity differs from `expected_k`.
std::optional<Batch_root> decode_batch_root(const common::Bytes& bytes, int expected_k);

/// The payload committed at vector position `play`: (index, commitment).
common::Bytes leaf_payload(int play, const crypto::Commitment& commitment);

/// What the batch-reveal phase carries: all k openings, in position order.
struct Batch_reveal {
    std::vector<crypto::Opening> openings;
};

common::Bytes encode(const Batch_reveal& value);

/// Decode a reveal vector; nullopt when malformed, when the vector does not
/// hold exactly `expected_k` openings, or when any opening exceeds the wire
/// bounds an honest batcher produces.
std::optional<Batch_reveal> decode_batch_reveal(const common::Bytes& bytes, int expected_k);

/// decode_batch_reveal into `out`, reusing its openings' buffers: the
/// replicas' steady-state decode. False exactly when the form above
/// returns nullopt, and then `out` is unspecified.
bool decode_batch_reveal(common::Byte_view bytes, int expected_k, Batch_reveal& out);

/// True iff `reveal` opens the whole vector sealed under `root`: recompute
/// every position's commitment, rebuild the Merkle tree, compare roots.
/// O(k) hashes — cheaper than k inclusion proofs when the full batch is
/// audited (the pipeline's normal mode).
bool opens_vector(const Batch_root& root, const Batch_reveal& reveal);

/// One position's logarithmic spot opening.
struct Spot_reveal {
    crypto::Opening opening;    ///< opens the action commitment of one play
    crypto::Merkle_proof proof; ///< inclusion of that play's leaf
};

common::Bytes encode(const Spot_reveal& value);

/// Decode a spot reveal; nullopt when malformed or when the proof exceeds
/// `max_proof_nodes` (ceil(log2 k) for any honest batch).
std::optional<Spot_reveal> decode_spot_reveal(const common::Bytes& bytes, int max_proof_nodes);

/// True iff `reveal` opens position `play` of the vector sealed under `root`.
bool opens_position(const Batch_root& root, int play, const Spot_reveal& reveal);

} // namespace ga::pipeline

#endif // GA_PIPELINE_VECTOR_COMMIT_H
