// SSBA (Theorem 1): the clock-triggered EIG composition terminates once per
// M-pulse window with agreement and validity, self-stabilizes after transient
// faults, and tolerates Byzantine babblers.
#include <gtest/gtest.h>

#include "sim/engine.h"
#include "sim/malicious.h"
#include "ssba/ssba.h"
#include "wire/codec.h"

namespace {

using namespace ga::ssba;
using ga::common::Bytes;
using ga::common::Processor_id;
using ga::common::Pulse;
using ga::common::Rng;

Input_provider window_index_provider(int period)
{
    return [period](Pulse pulse) {
        Bytes value;
        ga::common::put_u64(value, static_cast<std::uint64_t>(pulse / period));
        return value;
    };
}

struct Ssba_fixture {
    Ssba_fixture(int n, int f, int period, std::uint64_t seed, Input_provider provider)
        : n_{n}, f_{f}, engine{ga::sim::complete_graph(n), Rng{seed}.split(0)}
    {
        Rng rng{seed};
        for (Processor_id id = 0; id < n - f; ++id) {
            engine.install(
                std::make_unique<Ssba_processor>(id, n, f, period, rng.split(id + 1), provider));
        }
        for (Processor_id id = n - f; id < n; ++id) {
            engine.install(std::make_unique<ga::sim::Random_babbler>(id, rng.split(100 + id), 48),
                           /*byzantine=*/true);
        }
    }

    bool clocks_agree()
    {
        int value = -1;
        for (Processor_id id = 0; id < n_ - f_; ++id) {
            const int c = engine.processor_as<Ssba_processor>(id).clock();
            if (value < 0) value = c;
            if (c != value) return false;
        }
        return true;
    }

    int converge(int cap = 200000)
    {
        int pulses = 0;
        while (!clocks_agree() && pulses < cap) {
            engine.run_pulse();
            ++pulses;
        }
        return pulses;
    }

    const Ssba_processor& honest(Processor_id id)
    {
        return engine.processor_as<Ssba_processor>(id);
    }

    int n_;
    int f_;
    ga::sim::Engine engine;
};

// Differential pin: every honest replica's decisions, as (decided_at, FNV-1a
// of the value), for fault-free runs — all n processors honest, each
// proposing its id and the window index. The schedule starts an activation
// at clock 1, sends round c-1 and delivers round c-2, so any change to the
// composition's timing or to what it agrees on moves these numbers.
struct Pin_point {
    int n;
    int f;
    int period;
    std::vector<Pulse> decided_at; ///< one per window
};

TEST(Ssba, FaultFreeDecisionsMatchPin)
{
    // Window w's decision is processor 0's input (the smallest value of the
    // agreed vector), the same bytes at every (n, f, M).
    const std::vector<std::uint64_t> value_hashes = {
        6082024272624116885ULL,  3849708865656527476ULL,  10546655086559295703ULL,
        8314339679591706294ULL,  15599506718463310865ULL, 13367191311495721456ULL,
    };
    const std::vector<Pin_point> points = {
        {4, 1, 4, {3, 7, 11, 15, 19, 23}},
        {7, 2, 5, {4, 9, 14, 19, 24, 29}},
        {4, 1, 9, {3, 12, 21, 30, 39, 48}},
    };
    for (const Pin_point& point : points) {
        std::vector<std::pair<Pulse, std::uint64_t>> expected;
        for (std::size_t w = 0; w < point.decided_at.size(); ++w)
            expected.emplace_back(point.decided_at[w], value_hashes[w]);

        Rng rng{41};
        ga::sim::Engine engine{ga::sim::complete_graph(point.n), rng.split(0)};
        for (Processor_id id = 0; id < point.n; ++id) {
            const int period = point.period;
            engine.install(std::make_unique<Ssba_processor>(
                id, point.n, point.f, period, rng.split(id + 1), [id, period](Pulse pulse) {
                    Bytes value;
                    ga::common::put_u32(value, static_cast<std::uint32_t>(id));
                    ga::common::put_u64(value, static_cast<std::uint64_t>(pulse / period));
                    return value;
                }));
        }
        engine.run(1 + point.period * static_cast<int>(point.decided_at.size()));
        for (Processor_id id = 0; id < point.n; ++id) {
            std::vector<std::pair<Pulse, std::uint64_t>> seen;
            for (const Agreement_record& record :
                 engine.processor_as<Ssba_processor>(id).decisions()) {
                seen.emplace_back(record.decided_at, ga::wire::fnv1a(record.value));
            }
            EXPECT_EQ(seen, expected) << "(n, f, M) = (" << point.n << ", " << point.f << ", "
                                      << point.period << "), replica " << id;
        }
    }
}

TEST(Ssba, RejectsTooSmallPeriod)
{
    Rng rng{1};
    EXPECT_THROW(Ssba_processor(0, 4, 1, 3, rng, window_index_provider(4)),
                 ga::common::Contract_error);
}

TEST(Ssba, SynchronizedBootDecidesOncePerWindow)
{
    const int n = 4;
    const int f = 1;
    const int period = f + 3;
    Ssba_fixture fx{n, f, period, 3, window_index_provider(period)};

    const int windows = 6;
    fx.engine.run(1 + period * (windows + 1)); // boot pulse + windows

    for (Processor_id id = 0; id < n - f; ++id) {
        const auto& decisions = fx.honest(id).decisions();
        EXPECT_GE(static_cast<int>(decisions.size()), windows) << "processor " << id;
    }
}

TEST(Ssba, AgreementAndValidityEveryWindow)
{
    const int n = 4;
    const int f = 1;
    const int period = f + 3;
    Ssba_fixture fx{n, f, period, 7, window_index_provider(period)};

    fx.engine.run(1 + period * 8);

    const auto& reference = fx.honest(0).decisions();
    ASSERT_GE(reference.size(), 6u);
    for (Processor_id id = 1; id < n - f; ++id) {
        const auto& decisions = fx.honest(id).decisions();
        ASSERT_EQ(decisions.size(), reference.size());
        for (std::size_t w = 0; w < decisions.size(); ++w) {
            // Agreement.
            EXPECT_EQ(decisions[w].value, reference[w].value);
            // Termination at the same pulse (synchronous lockstep).
            EXPECT_EQ(decisions[w].decided_at, reference[w].decided_at);
        }
    }
    // Validity: all honest propose the same window index, so every decision
    // must be non-empty (the common input, not the default).
    for (const auto& record : reference) EXPECT_FALSE(record.value.empty());
}

TEST(Ssba, SelfStabilizesAfterTransientFault)
{
    const int n = 4;
    const int f = 1;
    const int period = f + 3;
    Ssba_fixture fx{n, f, period, 11, window_index_provider(period)};

    fx.engine.run(1 + period * 3); // healthy prefix
    fx.engine.inject_transient_fault();

    const int convergence_pulses = fx.converge();
    ASSERT_TRUE(fx.clocks_agree()) << "clocks did not re-synchronize";
    fx.engine.run(period); // flush the first possibly-partial window

    // Audit 4 windows after recovery.
    std::vector<std::size_t> floor;
    for (Processor_id id = 0; id < n - f; ++id)
        floor.push_back(fx.honest(id).decisions().size());

    for (int w = 1; w <= 4; ++w) {
        fx.engine.run(period);
        for (Processor_id id = 0; id < n - f; ++id) {
            const auto& decisions = fx.honest(id).decisions();
            ASSERT_EQ(decisions.size(), floor[static_cast<std::size_t>(id)] +
                                            static_cast<std::size_t>(w))
                << "termination violated after fault (window " << w << ")";
        }
        const Bytes& reference = fx.honest(0).decisions().back().value;
        EXPECT_FALSE(reference.empty());
        for (Processor_id id = 1; id < n - f; ++id)
            EXPECT_EQ(fx.honest(id).decisions().back().value, reference);
    }
    (void)convergence_pulses;
}

TEST(Ssba, SevenProcessorsTwoByzantine)
{
    const int n = 7;
    const int f = 2;
    const int period = f + 3;
    Ssba_fixture fx{n, f, period, 13, window_index_provider(period)};

    fx.engine.run(1 + period * 5);
    const auto& reference = fx.honest(0).decisions();
    ASSERT_GE(reference.size(), 4u);
    for (Processor_id id = 1; id < n - f; ++id) {
        ASSERT_EQ(fx.honest(id).decisions().size(), reference.size());
        for (std::size_t w = 0; w < reference.size(); ++w)
            EXPECT_EQ(fx.honest(id).decisions()[w].value, reference[w].value);
    }
}

TEST(Ssba, LargerPeriodStillExactlyOneAgreementPerWindow)
{
    // M larger than the minimum: the BA occupies the front of the window and
    // the rest idles — still exactly one agreement per wrap (Lemma 3).
    const int n = 4;
    const int f = 1;
    const int period = f + 7;
    Ssba_fixture fx{n, f, period, 17, window_index_provider(period)};

    fx.engine.run(1 + period * 5);
    for (Processor_id id = 0; id < n - f; ++id) {
        EXPECT_EQ(fx.honest(id).decisions().size(), 5u);
    }
}

TEST(Ssba, DivergentInputsStillAgree)
{
    // Each processor proposes its own id: agreement must hold regardless.
    const int n = 4;
    const int f = 1;
    const int period = f + 3;

    Rng rng{23};
    ga::sim::Engine engine{ga::sim::complete_graph(n), rng.split(0)};
    for (Processor_id id = 0; id < n - f; ++id) {
        engine.install(std::make_unique<Ssba_processor>(
            id, n, f, period, rng.split(id + 1), [id](Pulse) {
                Bytes value;
                ga::common::put_u32(value, static_cast<std::uint32_t>(id));
                return value;
            }));
    }
    engine.install(std::make_unique<ga::sim::Random_babbler>(3, rng.split(50), 48),
                   /*byzantine=*/true);

    engine.run(1 + period * 5);
    const auto& reference = engine.processor_as<Ssba_processor>(0).decisions();
    ASSERT_GE(reference.size(), 4u);
    for (Processor_id id = 1; id < n - f; ++id) {
        const auto& decisions = engine.processor_as<Ssba_processor>(id).decisions();
        ASSERT_EQ(decisions.size(), reference.size());
        for (std::size_t w = 0; w < decisions.size(); ++w)
            EXPECT_EQ(decisions[w].value, reference[w].value);
    }
}

} // namespace
