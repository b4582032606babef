// Hash commitments (Blum-style bit/byte commitment over SHA-256).
//
// §3.3: agents announce a commitment to their chosen action without revealing
// it, so all choices are private and simultaneous; after all commitments are
// agreed upon (via Byzantine agreement), agents open them. Binding comes from
// collision resistance, hiding from the 256-bit random nonce.
#ifndef GA_CRYPTO_COMMITMENT_H
#define GA_CRYPTO_COMMITMENT_H

#include "common/rng.h"
#include "crypto/sha256.h"

namespace ga::crypto {

/// The public half of a commitment: a digest of (nonce || payload).
struct Commitment {
    Digest digest{};

    friend bool operator==(const Commitment&, const Commitment&) = default;
};

/// The private half: what the committer must present to open.
struct Opening {
    common::Bytes nonce;   ///< 32 random bytes
    common::Bytes payload; ///< the committed value
};

/// Result of committing to `payload`; nonce drawn from `rng`.
struct Committed {
    Commitment commitment;
    Opening opening;
};

/// Commit to a payload with a fresh 256-bit nonce.
Committed commit(const common::Bytes& payload, common::Rng& rng);

/// Recompute the digest for an opening (deterministic).
Commitment recommit(const Opening& opening);

/// True iff `opening` opens `commitment`.
bool verify(const Commitment& commitment, const Opening& opening);

/// Wire encoding helpers (commitments and openings travel inside BA payloads).
common::Bytes encode(const Commitment& commitment);
Commitment decode_commitment(common::Byte_reader& reader);
common::Bytes encode(const Opening& opening);
Opening decode_opening(common::Byte_reader& reader);

/// decode_opening for untrusted input: false on an underrun (the reader's
/// position is then unspecified); otherwise fills `opening`, reusing its
/// buffers' capacity.
bool decode_opening(common::Byte_reader& reader, Opening& opening);

} // namespace ga::crypto

#endif // GA_CRYPTO_COMMITMENT_H
