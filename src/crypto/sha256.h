// SHA-256 (FIPS 180-4), from scratch.
//
// The commitment scheme of §3.3/§5.3 needs a collision-resistant hash; nothing
// else in the repository depends on external crypto libraries, so the whole
// middleware builds offline. Compression dispatches at runtime to the x86
// SHA-NI instruction set when the CPU provides it (the batched play pipeline
// rebuilds a Merkle tree per agent per window, so block throughput is on the
// authority tier's hot path); the portable implementation is the fallback and
// the reference both paths are tested against.
#ifndef GA_CRYPTO_SHA256_H
#define GA_CRYPTO_SHA256_H

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace ga::crypto {

/// A 256-bit digest.
using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 context.
class Sha256 {
public:
    Sha256();

    /// Absorb more input; may be called repeatedly.
    void update(const std::uint8_t* data, std::size_t len);
    void update(common::Byte_view data) { update(data.data(), data.size()); }

    /// Finish and return the digest; the context must not be reused afterwards.
    Digest finish();

private:
    std::array<std::uint32_t, 8> state_;
    std::array<std::uint8_t, 64> buffer_;
    std::size_t buffered_ = 0;
    std::uint64_t total_bits_ = 0;
    bool finished_ = false;
};

/// One-shot convenience.
Digest sha256(const common::Bytes& data);

/// Digest as a 64-char lower-case hex string.
std::string digest_hex(const Digest& digest);

/// True when this build and CPU run the SHA-NI accelerated compression.
bool sha256_accelerated();

namespace detail {

/// Compress `blocks` consecutive 64-byte blocks into `state`. The dispatcher
/// picks SHA-NI when available; the portable path is the FIPS reference
/// (exposed so tests can cross-check the two).
void compress(std::array<std::uint32_t, 8>& state, const std::uint8_t* data, std::size_t blocks);
void compress_portable(std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
                       std::size_t blocks);

} // namespace detail

} // namespace ga::crypto

#endif // GA_CRYPTO_SHA256_H
