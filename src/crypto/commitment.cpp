#include "crypto/commitment.h"

namespace ga::crypto {

namespace {

constexpr std::size_t nonce_size = 32;

} // namespace

Committed commit(const common::Bytes& payload, common::Rng& rng)
{
    Opening opening;
    opening.nonce.reserve(nonce_size);
    for (std::size_t i = 0; i < nonce_size; i += 8) {
        const std::uint64_t word = rng.next_u64();
        for (int b = 0; b < 8; ++b)
            opening.nonce.push_back(static_cast<std::uint8_t>(word >> (8 * b)));
    }
    opening.payload = payload;
    return Committed{recommit(opening), std::move(opening)};
}

namespace {

/// Stream one length-prefixed blob (common::put_bytes' encoding).
void absorb_blob(Sha256& hash, common::Byte_view blob)
{
    const auto size = static_cast<std::uint32_t>(blob.size());
    const std::array<std::uint8_t, 4> prefix = {
        static_cast<std::uint8_t>(size), static_cast<std::uint8_t>(size >> 8),
        static_cast<std::uint8_t>(size >> 16), static_cast<std::uint8_t>(size >> 24)};
    hash.update(prefix.data(), prefix.size());
    hash.update(blob);
}

} // namespace

Commitment recommit(const Opening& opening)
{
    // The digest of put_bytes(nonce) || put_bytes(payload), streamed.
    Sha256 hash;
    absorb_blob(hash, opening.nonce);
    absorb_blob(hash, opening.payload);
    return Commitment{hash.finish()};
}

bool verify(const Commitment& commitment, const Opening& opening)
{
    return recommit(opening) == commitment;
}

common::Bytes encode(const Commitment& commitment)
{
    return common::Bytes{commitment.digest.begin(), commitment.digest.end()};
}

Commitment decode_commitment(common::Byte_reader& reader)
{
    Commitment commitment;
    for (auto& byte : commitment.digest) byte = reader.get_u8();
    return commitment;
}

common::Bytes encode(const Opening& opening)
{
    common::Bytes out;
    common::put_bytes(out, opening.nonce);
    common::put_bytes(out, opening.payload);
    return out;
}

Opening decode_opening(common::Byte_reader& reader)
{
    Opening opening;
    opening.nonce = reader.get_bytes();
    opening.payload = reader.get_bytes();
    return opening;
}

bool decode_opening(common::Byte_reader& reader, Opening& opening)
{
    common::Byte_view nonce;
    common::Byte_view payload;
    if (!reader.try_get_view(nonce) || !reader.try_get_view(payload)) return false;
    opening.nonce.assign(nonce.begin(), nonce.end());
    opening.payload.assign(payload.begin(), payload.end());
    return true;
}

} // namespace ga::crypto
