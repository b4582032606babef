#include "crypto/sha256.h"

#include <cstring>

#include "common/ensure.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define GA_SHA_NI_BUILD 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace ga::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> k_round = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

#ifdef GA_SHA_NI_BUILD

/// One-time CPUID probe: SHA extensions plus the SSE4.1/SSSE3 shuffles the
/// kernel below uses.
bool detect_sha_ni()
{
    unsigned a = 0;
    unsigned b = 0;
    unsigned c = 0;
    unsigned d = 0;
    if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
    const bool sha = (b & (1u << 29)) != 0;
    if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
    const bool sse41 = (c & (1u << 19)) != 0;
    const bool ssse3 = (c & (1u << 9)) != 0;
    return sha && sse41 && ssse3;
}

/// Four rounds: two _mm_sha256rnds2_epu32 halves over one message quad.
__attribute__((target("sha,sse4.1,ssse3"))) inline void
sha_ni_rounds4(__m128i& state0, __m128i& state1, __m128i msg)
{
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));
}

__attribute__((target("sha,sse4.1,ssse3"))) inline __m128i sha_ni_k4(int g)
{
    return _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(&k_round[static_cast<std::size_t>(4 * g)]));
}

/// SHA-NI compression: the standard two-lane formulation (state packed as
/// ABEF/CDGH, four message words per _mm_sha256rnds2_epu32 pair).
__attribute__((target("sha,sse4.1,ssse3"))) void
compress_sha_ni(std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
                std::size_t blocks)
{
    const __m128i byteswap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

    __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
    __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
    tmp = _mm_shuffle_epi32(tmp, 0xB1);
    state1 = _mm_shuffle_epi32(state1, 0x1B);
    __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);         // ABEF
    state1 = _mm_blend_epi16(state1, tmp, 0xF0);              // CDGH

    while (blocks-- > 0) {
        const __m128i abef_save = state0;
        const __m128i cdgh_save = state1;

        __m128i m[4];
        for (int g = 0; g < 4; ++g) {
            m[g] = _mm_shuffle_epi8(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)), byteswap);
        }

        for (int g = 0; g < 4; ++g) sha_ni_rounds4(state0, state1, _mm_add_epi32(m[g], sha_ni_k4(g)));
        for (int g = 4; g < 16; ++g) {
            // w[t] = w[t-16] + s0(w[t-15]) + w[t-7] + s1(w[t-2]), four at a
            // time: msg1 folds in s0, the alignr supplies w[t-7], msg2 s1.
            const __m128i w15 = m[(g + 1) % 4];
            const __m128i w2 = m[(g + 2) % 4];
            const __m128i w1 = m[(g + 3) % 4];
            m[g % 4] = _mm_sha256msg2_epu32(
                _mm_add_epi32(_mm_sha256msg1_epu32(m[g % 4], w15), _mm_alignr_epi8(w1, w2, 4)),
                w1);
            sha_ni_rounds4(state0, state1, _mm_add_epi32(m[g % 4], sha_ni_k4(g)));
        }

        state0 = _mm_add_epi32(state0, abef_save);
        state1 = _mm_add_epi32(state1, cdgh_save);
        data += 64;
    }

    tmp = _mm_shuffle_epi32(state0, 0x1B);
    state1 = _mm_shuffle_epi32(state1, 0xB1);
    state0 = _mm_blend_epi16(tmp, state1, 0xF0);
    state1 = _mm_alignr_epi8(state1, tmp, 8);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

#endif // GA_SHA_NI_BUILD

} // namespace

namespace detail {

void compress_portable(std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
                       std::size_t blocks)
{
    while (blocks-- > 0) {
        std::array<std::uint32_t, 64> w;
        for (std::size_t t = 0; t < 16; ++t) {
            w[t] = (static_cast<std::uint32_t>(data[4 * t]) << 24) |
                   (static_cast<std::uint32_t>(data[4 * t + 1]) << 16) |
                   (static_cast<std::uint32_t>(data[4 * t + 2]) << 8) |
                   static_cast<std::uint32_t>(data[4 * t + 3]);
        }
        for (std::size_t t = 16; t < 64; ++t) {
            const std::uint32_t s0 =
                rotr(w[t - 15], 7) ^ rotr(w[t - 15], 18) ^ (w[t - 15] >> 3);
            const std::uint32_t s1 = rotr(w[t - 2], 17) ^ rotr(w[t - 2], 19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16] + s0 + w[t - 7] + s1;
        }

        std::uint32_t a = state[0];
        std::uint32_t b = state[1];
        std::uint32_t c = state[2];
        std::uint32_t d = state[3];
        std::uint32_t e = state[4];
        std::uint32_t f = state[5];
        std::uint32_t g = state[6];
        std::uint32_t h = state[7];

        for (std::size_t t = 0; t < 64; ++t) {
            const std::uint32_t big_s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            const std::uint32_t ch = (e & f) ^ (~e & g);
            const std::uint32_t temp1 = h + big_s1 + ch + k_round[t] + w[t];
            const std::uint32_t big_s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            const std::uint32_t temp2 = big_s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + temp1;
            d = c;
            c = b;
            b = a;
            a = temp1 + temp2;
        }

        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
        data += 64;
    }
}

void compress(std::array<std::uint32_t, 8>& state, const std::uint8_t* data, std::size_t blocks)
{
#ifdef GA_SHA_NI_BUILD
    static const bool accelerated = detect_sha_ni();
    if (accelerated) {
        compress_sha_ni(state, data, blocks);
        return;
    }
#endif
    compress_portable(state, data, blocks);
}

} // namespace detail

bool sha256_accelerated()
{
#ifdef GA_SHA_NI_BUILD
    static const bool accelerated = detect_sha_ni();
    return accelerated;
#else
    return false;
#endif
}

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19},
      buffer_{}
{
}

void Sha256::update(const std::uint8_t* data, std::size_t len)
{
    common::ensure(!finished_, "Sha256::update after finish");
    if (len == 0) return; // an empty view may carry a null data pointer
    total_bits_ += static_cast<std::uint64_t>(len) * 8;

    // Top up a partially filled block first.
    if (buffered_ != 0) {
        const std::size_t take = std::min(len, buffer_.size() - buffered_);
        std::memcpy(buffer_.data() + buffered_, data, take);
        buffered_ += take;
        data += take;
        len -= take;
        if (buffered_ == buffer_.size()) {
            detail::compress(state_, buffer_.data(), 1);
            buffered_ = 0;
        }
    }
    // Whole blocks straight from the input, no buffering.
    if (len >= 64) {
        const std::size_t blocks = len / 64;
        detail::compress(state_, data, blocks);
        data += blocks * 64;
        len -= blocks * 64;
    }
    if (len > 0) {
        std::memcpy(buffer_.data(), data, len);
        buffered_ = len;
    }
}

Digest Sha256::finish()
{
    common::ensure(!finished_, "Sha256::finish called twice");

    // Padding: 0x80, zeros to 56 mod 64, then the message length in bits
    // (big-endian) — assembled in one or two tail blocks, compressed at once.
    std::array<std::uint8_t, 128> tail{};
    std::memcpy(tail.data(), buffer_.data(), buffered_);
    tail[buffered_] = 0x80;
    const std::size_t tail_len = buffered_ < 56 ? 64 : 128;
    for (int i = 0; i < 8; ++i) {
        tail[tail_len - 8 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(total_bits_ >> (56 - 8 * i));
    }
    detail::compress(state_, tail.data(), tail_len / 64);
    buffered_ = 0;
    finished_ = true;

    Digest digest;
    for (std::size_t i = 0; i < state_.size(); ++i) {
        digest[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
        digest[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
        digest[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
        digest[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
    }
    return digest;
}

Digest sha256(const common::Bytes& data)
{
    Sha256 ctx;
    ctx.update(data);
    return ctx.finish();
}

std::string digest_hex(const Digest& digest)
{
    return common::to_hex(common::Bytes{digest.begin(), digest.end()});
}

} // namespace ga::crypto
