#include "common/rng.h"

#include <cmath>

namespace ga::common {

namespace {

std::uint64_t rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    Split_mix64 seeder{seed};
    for (auto& word : state_) word = seeder.next();
    if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) state_[0] = 1;
}

std::uint64_t Rng::next_u64()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

std::uint64_t Rng::below(std::uint64_t bound)
{
    ensure(bound > 0, "Rng::below requires a positive bound");
    // A power of two divides 2^64, so its limit, max() - max() % bound, is
    // 2^64 - bound and its remainder a mask: the same rejection rule on the
    // same stream, without the two divisions.
    const bool power_of_two = (bound & (bound - 1)) == 0;
    const std::uint64_t limit = power_of_two ? 0 - bound : max() - max() % bound;
    std::uint64_t draw = next_u64();
    while (draw >= limit) draw = next_u64();
    return power_of_two ? draw & (bound - 1) : draw % bound;
}

std::int64_t Rng::between(std::int64_t lo, std::int64_t hi)
{
    ensure(lo <= hi, "Rng::between requires lo <= hi");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform01()
{
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p)
{
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
}

std::size_t Rng::weighted(const std::vector<double>& weights)
{
    double total = 0.0;
    for (const double w : weights) {
        ensure(w >= 0.0 && std::isfinite(w), "Rng::weighted requires finite non-negative weights");
        total += w;
    }
    ensure(total > 0.0, "Rng::weighted requires at least one positive weight");
    double point = uniform01() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        point -= weights[i];
        if (point < 0.0) return i;
    }
    return weights.size() - 1; // numerical slack: land on the last positive weight
}

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t stream)
{
    // Two SplitMix64 steps over the mixed pair: one finalizer already
    // decorrelates adjacent streams; the second guards against the base seed
    // and stream index cancelling in the pre-mix.
    Split_mix64 mixer{base_seed ^ (stream * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL)};
    mixer.next();
    return mixer.next();
}

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t stream, std::uint64_t substream)
{
    return derive_seed(derive_seed(base_seed, stream), substream);
}

std::uint64_t derive_seed(std::uint64_t base_seed, std::string_view tag)
{
    // FNV-1a 64 over the tag bytes; the hash then rides the ordinary
    // integer-stream derivation. 64-bit dispersion keeps a named stream from
    // landing on the dense small-integer indices used for ids.
    std::uint64_t hash = 14695981039346656037ULL;
    for (const char c : tag) {
        hash ^= static_cast<std::uint8_t>(c);
        hash *= 1099511628211ULL;
    }
    return derive_seed(base_seed, hash);
}

std::uint64_t derive_seed(std::uint64_t base_seed, std::string_view tag, std::uint64_t substream)
{
    return derive_seed(derive_seed(base_seed, tag), substream);
}

Rng Rng::split(std::uint64_t stream)
{
    // Derive a child seed from fresh output mixed with the stream index so
    // different streams cannot collide for the first 2^64 draws.
    Split_mix64 mixer{next_u64() ^ (stream * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL)};
    return Rng{mixer.next()};
}

} // namespace ga::common
