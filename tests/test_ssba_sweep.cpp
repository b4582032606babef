// Parameterized SSBA property sweep: Theorem 1's closure properties across
// (n, f, period) combinations — one decision per window, agreement, validity.
#include <gtest/gtest.h>

#include "crypto/commitment.h"
#include "sim/engine.h"
#include "sim/malicious.h"
#include "ssba/ssba.h"

namespace {

using namespace ga::ssba;
using ga::common::Bytes;
using ga::common::Processor_id;
using ga::common::Pulse;
using ga::common::Rng;

struct Sweep_param {
    int n;
    int f;
    int period_slack; ///< period = f + 3 + slack
};

class Ssba_sweep : public ::testing::TestWithParam<Sweep_param> {};

TEST_P(Ssba_sweep, ClosureAcrossParameters)
{
    const auto [n, f, slack] = GetParam();
    const int period = f + 3 + slack;

    Rng rng{static_cast<std::uint64_t>(n * 100 + f * 10 + slack)};
    ga::sim::Engine engine{ga::sim::complete_graph(n), rng.split(0)};
    const auto provider = [period](Pulse pulse) {
        Bytes value;
        ga::common::put_u64(value, static_cast<std::uint64_t>(pulse / period));
        return value;
    };
    for (Processor_id id = 0; id < n - f; ++id) {
        engine.install(
            std::make_unique<Ssba_processor>(id, n, f, period, rng.split(id + 1), provider));
    }
    for (Processor_id id = n - f; id < n; ++id) {
        engine.install(std::make_unique<ga::sim::Random_babbler>(id, rng.split(100 + id), 32),
                       /*byzantine=*/true);
    }

    const int windows = 5;
    engine.run(1 + period * (windows + 1));

    const auto& reference = engine.processor_as<Ssba_processor>(0).decisions();
    ASSERT_GE(static_cast<int>(reference.size()), windows);
    for (Processor_id id = 1; id < n - f; ++id) {
        const auto& decisions = engine.processor_as<Ssba_processor>(id).decisions();
        ASSERT_EQ(decisions.size(), reference.size()) << "termination differs at " << id;
        for (std::size_t w = 0; w < decisions.size(); ++w) {
            EXPECT_EQ(decisions[w].value, reference[w].value);         // agreement
            EXPECT_EQ(decisions[w].decided_at, reference[w].decided_at);
            EXPECT_FALSE(decisions[w].value.empty());                  // validity
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sweeps, Ssba_sweep,
                         ::testing::Values(Sweep_param{4, 1, 0}, Sweep_param{4, 1, 2},
                                           Sweep_param{5, 1, 0}, Sweep_param{6, 1, 1},
                                           Sweep_param{7, 2, 0}, Sweep_param{7, 2, 3},
                                           Sweep_param{4, 0, 0}, Sweep_param{10, 3, 0}),
                         [](const ::testing::TestParamInfo<Sweep_param>& info) {
                             // Appended piecewise: GCC 12 flags "lit" +
                             // std::to_string with a false -Wrestrict.
                             std::string name = "n";
                             name += std::to_string(info.param.n);
                             name += "_f";
                             name += std::to_string(info.param.f);
                             name += "_slack";
                             name += std::to_string(info.param.period_slack);
                             return name;
                         });

// Crypto property sweep: commitments bind and verify across payload sizes.
class Commitment_sweep : public ::testing::TestWithParam<int> {};

TEST_P(Commitment_sweep, BindsAcrossPayloadSizes)
{
    const auto size = static_cast<std::size_t>(GetParam());
    Rng rng{static_cast<std::uint64_t>(size) + 1};
    Bytes payload(size);
    for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.below(256));

    const ga::crypto::Committed committed = ga::crypto::commit(payload, rng);
    EXPECT_TRUE(ga::crypto::verify(committed.commitment, committed.opening));

    if (size > 0) {
        auto tampered = committed.opening;
        tampered.payload[size / 2] ^= 0x01;
        EXPECT_FALSE(ga::crypto::verify(committed.commitment, tampered));
    }
    auto truncated = committed.opening;
    truncated.payload.push_back(0x00);
    EXPECT_FALSE(ga::crypto::verify(committed.commitment, truncated));
}

INSTANTIATE_TEST_SUITE_P(Sizes, Commitment_sweep,
                         ::testing::Values(0, 1, 4, 31, 32, 33, 64, 255, 1024, 65536));

} // namespace
