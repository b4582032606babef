// The judicial path's hashing, vector opening, best-response and decoding
// primitives against straightforward reference copies kept in this file:
// preimage-vector hashes, a level-by-level Merkle root, best_response_set
// scans, and Decode_error-throwing decoders. Each optimised primitive must
// return exactly what its reference does, on honest and Byzantine input.
#include <gtest/gtest.h>

#include <limits>
#include <optional>

#include "crypto/commitment.h"
#include "crypto/merkle.h"
#include "game/analysis.h"
#include "game/congestion.h"
#include "game/matrix_game.h"
#include "pipeline/pipeline_processor.h"
#include "pipeline/vector_commit.h"

namespace {

using namespace ga;
using common::Bytes;
using common::Rng;
using crypto::Digest;

Bytes random_bytes(Rng& rng, std::size_t size)
{
    Bytes out(size);
    for (auto& byte : out) byte = static_cast<std::uint8_t>(rng.below(256));
    return out;
}

// ---------------------------------------------------------------- references

Digest ref_recommit(const crypto::Opening& opening)
{
    Bytes preimage;
    common::put_bytes(preimage, opening.nonce);
    common::put_bytes(preimage, opening.payload);
    return crypto::sha256(preimage);
}

Digest ref_leaf_digest(const Bytes& payload)
{
    Bytes preimage;
    preimage.reserve(1 + payload.size()); // GCC 12 -Warray-bounds false positive otherwise
    preimage.push_back(0x00);
    preimage.insert(preimage.end(), payload.begin(), payload.end());
    return crypto::sha256(preimage);
}

Digest ref_node_digest(const Digest& left, const Digest& right)
{
    Bytes preimage;
    preimage.reserve(1 + left.size() + right.size());
    preimage.push_back(0x01);
    preimage.insert(preimage.end(), left.begin(), left.end());
    preimage.insert(preimage.end(), right.begin(), right.end());
    return crypto::sha256(preimage);
}

/// Level by level, pairing from the left and promoting an odd last node.
Digest ref_merkle_root(const std::vector<Bytes>& leaves)
{
    std::vector<Digest> level;
    for (const Bytes& leaf : leaves) level.push_back(ref_leaf_digest(leaf));
    while (level.size() > 1) {
        std::vector<Digest> above;
        for (std::size_t i = 0; i + 1 < level.size(); i += 2)
            above.push_back(ref_node_digest(level[i], level[i + 1]));
        if (level.size() % 2 == 1) above.push_back(level.back());
        level = std::move(above);
    }
    return level.front();
}

std::vector<int> ref_best_response_set(const game::Strategic_game& game, common::Agent_id i,
                                       const game::Pure_profile& pi, double eps)
{
    game::Pure_profile probe = pi;
    double best = std::numeric_limits<double>::infinity();
    std::vector<double> costs(static_cast<std::size_t>(game.n_actions(i)));
    for (int a = 0; a < game.n_actions(i); ++a) {
        probe[static_cast<std::size_t>(i)] = a;
        costs[static_cast<std::size_t>(a)] = game.cost(i, probe);
        best = std::min(best, costs[static_cast<std::size_t>(a)]);
    }
    std::vector<int> responses;
    for (int a = 0; a < game.n_actions(i); ++a) {
        if (costs[static_cast<std::size_t>(a)] <= best + eps) responses.push_back(a);
    }
    return responses;
}

std::optional<pipeline::Batch_root> ref_decode_batch_root(const Bytes& bytes, int expected_k)
{
    try {
        common::Byte_reader reader{bytes};
        pipeline::Batch_root value;
        value.k = reader.get_u32();
        for (auto& byte : value.root) byte = reader.get_u8();
        if (!reader.exhausted()) return std::nullopt;
        if (value.k != static_cast<std::uint32_t>(expected_k)) return std::nullopt;
        return value;
    } catch (const common::Decode_error&) {
        return std::nullopt;
    }
}

std::optional<pipeline::Batch_reveal> ref_decode_batch_reveal(const Bytes& bytes, int expected_k)
{
    try {
        common::Byte_reader reader{bytes};
        const std::uint32_t count = reader.get_u32();
        if (count != static_cast<std::uint32_t>(expected_k)) return std::nullopt;
        pipeline::Batch_reveal value;
        for (std::uint32_t i = 0; i < count; ++i) {
            const Bytes opening_bytes = reader.get_bytes();
            if (opening_bytes.size() > 64 + 8) return std::nullopt;
            common::Byte_reader opening_reader{opening_bytes};
            crypto::Opening opening;
            opening.nonce = opening_reader.get_bytes();
            opening.payload = opening_reader.get_bytes();
            if (!opening_reader.exhausted()) return std::nullopt;
            value.openings.push_back(std::move(opening));
        }
        if (!reader.exhausted()) return std::nullopt;
        return value;
    } catch (const common::Decode_error&) {
        return std::nullopt;
    }
}

std::optional<game::Pure_profile> ref_decode_profile(const Bytes& bytes,
                                                     const authority::Game_spec& spec)
{
    const int n = spec.game->n_agents();
    try {
        common::Byte_reader reader{bytes};
        const std::uint32_t size = reader.get_u32();
        if (size != static_cast<std::uint32_t>(n)) return std::nullopt;
        game::Pure_profile profile(static_cast<std::size_t>(n));
        for (auto& a : profile) a = static_cast<int>(reader.get_u32());
        if (!reader.exhausted()) return std::nullopt;
        for (common::Agent_id i = 0; i < n; ++i) {
            if (!spec.game->is_legitimate_action(i, profile[static_cast<std::size_t>(i)]))
                return std::nullopt;
        }
        return profile;
    } catch (const common::Decode_error&) {
        return std::nullopt;
    }
}

/// The replica inbox parse as it read each message with throwing reads.
struct Ref_pulse {
    bool beacon = false;
    int clock = 0;
    bool has_section = false;
    int phase = 0;
    common::Round round = 0;
    common::Byte_view section;
};

Ref_pulse ref_parse_pulse(common::Byte_view payload)
{
    Ref_pulse out;
    try {
        common::Byte_reader reader{payload};
        out.clock = static_cast<int>(reader.get_u32());
        out.beacon = true;
        if (reader.get_u8() == 1) {
            const auto phase = static_cast<int>(reader.get_u8());
            const auto round = static_cast<common::Round>(reader.get_u32());
            const common::Byte_view section = reader.get_view();
            if (reader.exhausted()) {
                out.has_section = true;
                out.phase = phase;
                out.round = round;
                out.section = section;
            }
        }
    } catch (const common::Decode_error&) {
    }
    return out;
}

// ------------------------------------------------------------------- digests

crypto::Opening random_opening(Rng& rng)
{
    crypto::Opening opening;
    opening.nonce = random_bytes(rng, static_cast<std::size_t>(rng.below(70)));
    opening.payload = random_bytes(rng, static_cast<std::size_t>(rng.below(70)));
    return opening;
}

TEST(JudicialPathDigest, RecommitEqualsThePreimageHash)
{
    Rng rng{11};
    for (int trial = 0; trial < 500; ++trial) {
        const crypto::Opening opening = random_opening(rng);
        EXPECT_EQ(crypto::recommit(opening).digest, ref_recommit(opening)) << trial;
    }
    // An honest commitment's opening verifies under both.
    const crypto::Committed honest = crypto::commit(common::bytes_of("act"), rng);
    EXPECT_EQ(honest.commitment.digest, ref_recommit(honest.opening));
}

TEST(JudicialPathDigest, LeafAndNodeDigestsEqualThePreimageHashes)
{
    Rng rng{12};
    for (int trial = 0; trial < 300; ++trial) {
        const Bytes a = random_bytes(rng, static_cast<std::size_t>(rng.below(140)));
        const Bytes b = random_bytes(rng, static_cast<std::size_t>(rng.below(140)));
        EXPECT_EQ(crypto::Merkle_tree::leaf_digest(a), ref_leaf_digest(a));
        // A two-leaf root is one node digest over the two leaf digests.
        EXPECT_EQ((crypto::Merkle_tree{{a, b}}.root()),
                  ref_node_digest(ref_leaf_digest(a), ref_leaf_digest(b)));
    }
}

TEST(JudicialPathDigest, MerkleRootsAndProofsMatchTheLevelReference)
{
    Rng rng{13};
    for (std::size_t k = 1; k <= 40; ++k) {
        std::vector<Bytes> leaves;
        for (std::size_t j = 0; j < k; ++j) leaves.push_back(random_bytes(rng, 36));
        const crypto::Merkle_tree tree{leaves};
        EXPECT_EQ(tree.root(), ref_merkle_root(leaves)) << "k = " << k;
        for (std::size_t j = 0; j < k; ++j)
            EXPECT_TRUE(crypto::verify_inclusion(tree.root(), leaves[j], tree.prove(j)));
    }
}

// --------------------------------------------------------------- opens_vector

struct Sealed_vector {
    pipeline::Batch_root root;
    pipeline::Batch_reveal reveal;
};

Sealed_vector seal(Rng& rng, int k)
{
    Sealed_vector sealed;
    std::vector<Bytes> leaves;
    for (int j = 0; j < k; ++j) {
        Bytes action;
        common::put_u32(action, static_cast<std::uint32_t>(rng.below(4)));
        const crypto::Committed committed = crypto::commit(action, rng);
        leaves.push_back(pipeline::leaf_payload(j, committed.commitment));
        sealed.reveal.openings.push_back(committed.opening);
    }
    sealed.root.k = static_cast<std::uint32_t>(k);
    sealed.root.root = ref_merkle_root(leaves);
    return sealed;
}

/// The pre-streaming verifier: recommit, rebuild the whole tree, compare.
bool ref_opens_vector(const pipeline::Batch_root& root, const pipeline::Batch_reveal& reveal)
{
    if (reveal.openings.size() != root.k || reveal.openings.empty()) return false;
    std::vector<Bytes> leaves;
    for (std::size_t j = 0; j < reveal.openings.size(); ++j) {
        crypto::Commitment commitment{ref_recommit(reveal.openings[j])};
        leaves.push_back(pipeline::leaf_payload(static_cast<int>(j), commitment));
    }
    return crypto::Merkle_tree{leaves}.root() == root.root;
}

TEST(JudicialPathOpens, HonestVectorsOpenForEveryArity)
{
    Rng rng{21};
    for (int k = 1; k <= 9; ++k) {
        const Sealed_vector sealed = seal(rng, k);
        EXPECT_TRUE(ref_opens_vector(sealed.root, sealed.reveal)) << "k = " << k;
        EXPECT_TRUE(pipeline::opens_vector(sealed.root, sealed.reveal)) << "k = " << k;
    }
}

TEST(JudicialPathOpens, HonestVectorsOpenUpToTheLargestBatch)
{
    // Every arity up to k_max_batch: each odd-promotion shape of the tree.
    Rng rng{23};
    for (int k = 1; k <= pipeline::k_max_batch; ++k) {
        const Sealed_vector sealed = seal(rng, k);
        EXPECT_TRUE(pipeline::opens_vector(sealed.root, sealed.reveal)) << "k = " << k;
        pipeline::Batch_root wrong = sealed.root;
        wrong.root[0] ^= 0x01;
        EXPECT_FALSE(pipeline::opens_vector(wrong, sealed.reveal)) << "k = " << k;
    }
}

TEST(JudicialPathOpens, TamperedVectorsAgreeWithTheTreeRebuild)
{
    Rng rng{22};
    for (int k = 1; k <= 9; ++k) {
        for (int trial = 0; trial < 12; ++trial) {
            Sealed_vector sealed = seal(rng, k);
            pipeline::Batch_reveal& reveal = sealed.reveal;
            const auto j = static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(k)));
            switch (trial % 6) {
            case 0: reveal.openings[j].payload.push_back(0); break;
            case 1: reveal.openings[j].nonce[0] ^= 0x01; break;
            case 2: // swap two positions (the reorder attack)
                std::swap(reveal.openings[j], reveal.openings[(j + 1) % reveal.openings.size()]);
                break;
            case 3: reveal.openings.pop_back(); break;
            case 4: reveal.openings.push_back(reveal.openings.front()); break;
            case 5: sealed.root.root[static_cast<std::size_t>(trial) % 32] ^= 0x80; break;
            }
            EXPECT_EQ(pipeline::opens_vector(sealed.root, reveal),
                      ref_opens_vector(sealed.root, reveal))
                << "k = " << k << " trial " << trial;
        }
    }
    // Arity mismatch and the empty vector never open.
    Sealed_vector sealed = seal(rng, 3);
    sealed.root.k = 4;
    EXPECT_FALSE(pipeline::opens_vector(sealed.root, sealed.reveal));
    EXPECT_FALSE(pipeline::opens_vector(pipeline::Batch_root{}, pipeline::Batch_reveal{}));
}

// ------------------------------------------------------------- best response

/// Costs drawn from a handful of levels, some offset by less than eps and
/// some by more, so ties inside and just outside eps both occur.
double tied_cost(Rng& rng)
{
    static constexpr double offsets[] = {0.0, 0.0, 1e-10, -1e-10, 5e-9, 1e-12};
    return static_cast<double>(rng.below(4)) + offsets[rng.below(6)];
}

game::Matrix_game random_matrix_game(Rng& rng)
{
    const int agents = 2 + static_cast<int>(rng.below(2));
    std::vector<int> actions;
    std::size_t profiles = 1;
    for (int i = 0; i < agents; ++i) {
        actions.push_back(1 + static_cast<int>(rng.below(4)));
        profiles *= static_cast<std::size_t>(actions.back());
    }
    std::vector<std::vector<double>> costs(static_cast<std::size_t>(agents));
    for (auto& tensor : costs)
        for (std::size_t p = 0; p < profiles; ++p) tensor.push_back(tied_cost(rng));
    return game::Matrix_game{"random", actions, costs};
}

game::Singleton_congestion_game random_congestion_game(Rng& rng)
{
    std::vector<game::Affine_latency> resources;
    const int count = 1 + static_cast<int>(rng.below(4));
    for (int r = 0; r < count; ++r)
        resources.push_back({static_cast<double>(rng.below(3)), static_cast<double>(rng.below(3))});
    return game::Singleton_congestion_game{2 + static_cast<int>(rng.below(4)), resources};
}

void expect_best_response_matches(const game::Strategic_game& game, Rng& rng)
{
    for (int trial = 0; trial < 20; ++trial) {
        game::Pure_profile pi(static_cast<std::size_t>(game.n_agents()));
        for (int i = 0; i < game.n_agents(); ++i)
            pi[static_cast<std::size_t>(i)] =
                static_cast<int>(rng.below(static_cast<std::uint64_t>(game.n_actions(i))));
        for (int i = 0; i < game.n_agents(); ++i) {
            const std::vector<int> set = ref_best_response_set(game, i, pi, 1e-9);
            EXPECT_EQ(game::best_response(game, i, pi), set.front());
            for (const double eps : {1e-9, 0.0, 1e-11, 0.5}) {
                const std::vector<int> eps_set = ref_best_response_set(game, i, pi, eps);
                const bool expected =
                    std::find(eps_set.begin(), eps_set.end(), pi[static_cast<std::size_t>(i)]) !=
                    eps_set.end();
                EXPECT_EQ(game::is_best_response(game, i, pi, eps), expected) << "eps " << eps;
            }
            EXPECT_EQ(game::best_response_set(game, i, pi), set);
        }
    }
}

TEST(JudicialPathBestResponse, MatchesTheSetScanOnRandomMatrixGames)
{
    Rng rng{31};
    for (int g = 0; g < 60; ++g) expect_best_response_matches(random_matrix_game(rng), rng);
}

TEST(JudicialPathBestResponse, MatchesTheSetScanOnRandomCongestionGames)
{
    Rng rng{32};
    for (int g = 0; g < 60; ++g) expect_best_response_matches(random_congestion_game(rng), rng);
}

// ------------------------------------------------------------------ decoders

bool same_reveal(const std::optional<pipeline::Batch_reveal>& a,
                 const std::optional<pipeline::Batch_reveal>& b)
{
    if (a.has_value() != b.has_value()) return false;
    if (!a.has_value()) return true;
    if (a->openings.size() != b->openings.size()) return false;
    for (std::size_t j = 0; j < a->openings.size(); ++j) {
        if (a->openings[j].nonce != b->openings[j].nonce ||
            a->openings[j].payload != b->openings[j].payload)
            return false;
    }
    return true;
}

/// Every prefix of `valid`, then `trials` random buffers and as many
/// byte-mutated copies of `valid`.
template <typename Check>
void for_each_probe(const Bytes& valid, Rng& rng, int trials, const Check& check)
{
    for (std::size_t cut = 0; cut <= valid.size(); ++cut)
        check(Bytes(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut)));
    for (int trial = 0; trial < trials; ++trial) {
        check(random_bytes(rng, static_cast<std::size_t>(rng.below(2 * valid.size() + 8))));
        Bytes mutated = valid;
        const auto flips = 1 + rng.below(3);
        for (std::uint64_t i = 0; i < flips; ++i)
            mutated[static_cast<std::size_t>(rng.below(mutated.size()))] =
                static_cast<std::uint8_t>(rng.below(256));
        if (rng.chance(0.3)) mutated.push_back(static_cast<std::uint8_t>(rng.below(256)));
        check(mutated);
    }
}

TEST(JudicialPathDecode, BatchRootMatchesTheThrowingDecoder)
{
    Rng rng{41};
    for (const int k : {1, 4}) {
        pipeline::Batch_root root;
        root.k = static_cast<std::uint32_t>(k);
        for (auto& byte : root.root) byte = static_cast<std::uint8_t>(rng.below(256));
        for_each_probe(pipeline::encode(root), rng, 10000, [&](const Bytes& bytes) {
            EXPECT_EQ(pipeline::decode_batch_root(bytes, k), ref_decode_batch_root(bytes, k));
        });
    }
}

TEST(JudicialPathDecode, BatchRevealMatchesTheThrowingDecoder)
{
    Rng rng{42};
    for (const int k : {1, 3}) {
        const Sealed_vector sealed = seal(rng, k);
        for_each_probe(pipeline::encode(sealed.reveal), rng, 10000, [&](const Bytes& bytes) {
            EXPECT_TRUE(same_reveal(pipeline::decode_batch_reveal(bytes, k),
                                    ref_decode_batch_reveal(bytes, k)));
        });
    }
    // The smallest openings (empty nonce and payload, 12 bytes each on the
    // wire) decode in both.
    for (const int k : {1, 3, 7}) {
        pipeline::Batch_reveal minimal;
        minimal.openings.resize(static_cast<std::size_t>(k));
        const Bytes wire = pipeline::encode(minimal);
        EXPECT_TRUE(ref_decode_batch_reveal(wire, k).has_value());
        EXPECT_TRUE(same_reveal(pipeline::decode_batch_reveal(wire, k),
                                ref_decode_batch_reveal(wire, k)));
    }
    // Oversized openings are rejected by both.
    pipeline::Batch_reveal big;
    big.openings.push_back({Bytes(40, 1), Bytes(40, 2)});
    const Bytes wire = pipeline::encode(big);
    EXPECT_FALSE(ref_decode_batch_reveal(wire, 1).has_value());
    EXPECT_FALSE(pipeline::decode_batch_reveal(wire, 1).has_value());
}

TEST(JudicialPathDecode, BatchRevealIntoScratchMatchesTheThrowingDecoder)
{
    // The replicas decode every agent's vector into one reused Batch_reveal;
    // whatever the previous decode left in it must not leak into the next.
    Rng rng{43};
    pipeline::Batch_reveal scratch;
    const Sealed_vector sealed = seal(rng, 3);
    for_each_probe(pipeline::encode(sealed.reveal), rng, 10000, [&](const Bytes& bytes) {
        const auto expected = ref_decode_batch_reveal(bytes, 3);
        const bool decoded = pipeline::decode_batch_reveal(bytes, 3, scratch);
        ASSERT_EQ(decoded, expected.has_value());
        if (decoded) {
            EXPECT_TRUE(same_reveal(scratch, expected));
        }
    });
}

TEST(JudicialPathDecode, ProfileMatchesTheThrowingDecoder)
{
    authority::Game_spec spec;
    spec.game = std::make_shared<game::Singleton_congestion_game>(
        4, std::vector<game::Affine_latency>{{1, 0}, {2, 1}, {1, 3}});
    Rng rng{44};
    game::Pure_profile scratch;
    for (const game::Pure_profile& valid :
         {game::Pure_profile{0, 2, 1, 1}, game::Pure_profile{2, 2, 2, 0}}) {
        for_each_probe(pipeline::encode_profile(valid), rng, 10000, [&](const Bytes& bytes) {
            const auto expected = ref_decode_profile(bytes, spec);
            const bool decoded = pipeline::decode_profile(bytes, spec, scratch);
            ASSERT_EQ(decoded, expected.has_value());
            if (decoded) {
                EXPECT_EQ(scratch, *expected);
            }
        });
    }
    // Out-of-range actions decode nowhere.
    EXPECT_FALSE(pipeline::decode_profile(pipeline::encode_profile({0, 3, 1, 1}), spec, scratch));
}

TEST(JudicialPathDecode, InboxParseMatchesTheThrowingParse)
{
    Rng rng{45};
    Bytes with_section;
    common::put_u32(with_section, 17);
    with_section.push_back(1);
    with_section.push_back(2);
    common::put_u32(with_section, 5);
    common::put_bytes(with_section, random_bytes(rng, 23));
    Bytes beacon_only;
    common::put_u32(beacon_only, 9);
    beacon_only.push_back(0);
    for (const Bytes& valid : {with_section, beacon_only}) {
        for_each_probe(valid, rng, 10000, [&](const Bytes& bytes) {
            const Ref_pulse expected = ref_parse_pulse(bytes);
            pipeline::Pulse_message parsed;
            ASSERT_EQ(pipeline::parse_pulse_message(bytes, parsed), expected.beacon);
            if (!expected.beacon) return;
            EXPECT_EQ(parsed.clock, expected.clock);
            ASSERT_EQ(parsed.has_section, expected.has_section);
            if (!expected.has_section) return;
            EXPECT_EQ(parsed.phase, expected.phase);
            EXPECT_EQ(parsed.round, expected.round);
            EXPECT_EQ(parsed.section.data(), expected.section.data());
            EXPECT_EQ(parsed.section.size(), expected.section.size());
        });
    }
}

} // namespace
