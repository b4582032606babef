// Golden pins: absolute results of one fixed engine schedule under three net
// models.
//
// The engine suites compare runs against each other (1 vs N threads, clean
// vs prompt delta 3); these pin what the runs produce. A change to the
// gather order, the delivery-wheel slot a message lands in, or the order in
// which a transient fault garbles in-flight traffic shows up here even when
// it changes every thread count the same way.
//
//   schedule : n = 7 on a complete graph, six recording processors and one
//              Random_babbler; disconnect(4) after pulse 5, a transient
//              fault after pulse 8, 14 pulses in all;
//   models   : clean; delta 1 with 20 % loss; delta 3 with jitter 0.5,
//              10 % loss, inbox shuffle and one partition window;
//   threads  : every model at 1 and 4 workers, both pinned to one value.
//
// Pinned per run: the absolute Traffic_stats and an FNV-1a digest of each
// honest recipient's delivery log of (pulse, from, sent_at, payload).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "sim/engine.h"
#include "sim/malicious.h"

namespace {

using namespace ga::sim;
using ga::common::Bytes;
using ga::common::Processor_id;
using ga::common::Rng;

constexpr int n = 7;
constexpr Processor_id babbler = 6;
constexpr int honest = 6;

/// FNV-1a over a delivery log, fed field by field in little-endian order.
class Fnv1a {
public:
    void add(std::uint64_t value, int bytes)
    {
        for (int i = 0; i < bytes; ++i) {
            hash_ ^= (value >> (8 * i)) & 0xffU;
            hash_ *= 0x100000001b3ULL;
        }
    }
    [[nodiscard]] std::uint64_t value() const { return hash_; }

private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Digests every delivery (pulse, sender, sent_at, payload) and broadcasts a
/// payload derived from its id and the pulse.
class Recorder final : public Processor {
public:
    explicit Recorder(Processor_id id) : Processor{id} {}

    void on_pulse(Pulse_context& ctx) override
    {
        for (const Message& m : ctx.inbox()) {
            log_.add(static_cast<std::uint64_t>(ctx.pulse()), 8);
            log_.add(static_cast<std::uint64_t>(m.from), 4);
            log_.add(static_cast<std::uint64_t>(m.sent_at), 8);
            log_.add(m.payload.size(), 4);
            for (const std::uint8_t byte : m.payload.bytes()) log_.add(byte, 1);
        }
        Bytes payload;
        ga::common::put_u32(payload, static_cast<std::uint32_t>(id()));
        ga::common::put_u64(payload, static_cast<std::uint64_t>(ctx.pulse()) * 0x9e3779b9ULL);
        ctx.broadcast(std::move(payload));
    }

    /// State corruption consumes one engine draw, as a real processor's does,
    /// so the garble draws that follow are offset the way they are in a run.
    void corrupt(Rng& rng) override { static_cast<void>(rng.next_u64()); }

    [[nodiscard]] std::uint64_t digest() const { return log_.value(); }

private:
    Fnv1a log_;
};

struct Golden {
    Traffic_stats stats;
    std::array<std::uint64_t, honest> digests{};
};

Golden run(const Net_model& net, int threads)
{
    Engine engine{complete_graph(n), Rng{2024}, Engine_config{threads}, net};
    for (Processor_id id = 0; id < n; ++id) {
        if (id == babbler) {
            engine.install(std::make_unique<Random_babbler>(id, Rng{31}, 24), true);
        } else {
            engine.install(std::make_unique<Recorder>(id));
        }
    }
    engine.run(6);
    engine.disconnect(4);
    engine.run(3);
    engine.inject_transient_fault();
    engine.run(5);

    Golden golden;
    golden.stats = engine.stats();
    for (Processor_id id = 0; id < honest; ++id)
        golden.digests[static_cast<std::size_t>(id)] = engine.processor_as<Recorder>(id).digest();
    return golden;
}

void expect_pinned(const Net_model& net, const Golden& expected)
{
    for (const int threads : {1, 4}) {
        const Golden got = run(net, threads);
        EXPECT_EQ(got.stats.pulses, expected.stats.pulses) << threads << " threads";
        EXPECT_EQ(got.stats.messages, expected.stats.messages) << threads << " threads";
        EXPECT_EQ(got.stats.payload_bytes, expected.stats.payload_bytes) << threads << " threads";
        EXPECT_EQ(got.stats.dropped, expected.stats.dropped) << threads << " threads";
        EXPECT_EQ(got.stats.delayed, expected.stats.delayed) << threads << " threads";
        for (std::size_t id = 0; id < got.digests.size(); ++id) {
            EXPECT_EQ(got.digests[id], expected.digests[id])
                << "recipient " << id << ", " << threads << " threads";
        }
    }
}

TEST(GoldenEngine, CleanModel)
{
    const Golden expected{{14, 492, 5830, 0, 0},
                          {1406863668949654750ULL, 2181982176176529662ULL,
                           7809446401546140087ULL, 7710084649445669815ULL,
                           12454041101066535785ULL, 17762118939835996166ULL}};
    expect_pinned(Net_model{}, expected);
}

TEST(GoldenEngine, LossyPromptModel)
{
    Net_model net;
    net.drop = 0.2;
    net.seed = 5;
    const Golden expected{{14, 492, 5830, 82, 0},
                          {12366615478577829666ULL, 13187405886948311612ULL,
                           16037287783559687852ULL, 17213068837613787462ULL,
                           11052707398809933979ULL, 16498532970747044233ULL}};
    expect_pinned(net, expected);
}

TEST(GoldenEngine, TimedAdversarialModel)
{
    Net_model net;
    net.delta = 3;
    net.jitter = 0.5;
    net.drop = 0.1;
    net.shuffle = true;
    net.seed = 13;
    net.windows.push_back({3, 7, {1, 2}});
    const Golden expected{{14, 492, 5830, 119, 177},
                          {12530851544265541588ULL, 7225696535255199543ULL,
                           13036146291743240003ULL, 15573226492423193553ULL,
                           561835668759310421ULL, 2872937940574291262ULL}};
    expect_pinned(net, expected);
}

} // namespace
