// The adversarial network layer (sim::Net_model): config validation, verdict
// purity, delta-bounded timed delivery, drop accounting, partition windows
// with healing, deterministic inbox shuffling, clean-model equivalence with
// the classic transport, and bit-identical 1-vs-N-thread traces under a
// lossy, reordered net.
#include <gtest/gtest.h>

#include <tuple>

#include "common/ensure.h"
#include "sim/engine.h"
#include "sim/malicious.h"

namespace {

using namespace ga::sim;
using ga::common::Bytes;
using ga::common::Contract_error;
using ga::common::Processor_id;
using ga::common::Pulse;
using ga::common::Rng;

/// Records every delivery (pulse, sender, sent_at, payload) and broadcasts a
/// payload derived from its id and the pulse, so traces capture delivery
/// order, timing, and content exactly.
class Recorder final : public Processor {
public:
    explicit Recorder(Processor_id id) : Processor{id} {}

    void on_pulse(Pulse_context& ctx) override
    {
        for (const Message& m : ctx.inbox())
            trace.emplace_back(ctx.pulse(), m.from, m.sent_at, m.payload.bytes());
        Bytes payload;
        ga::common::put_u32(payload, static_cast<std::uint32_t>(id()));
        ga::common::put_u64(payload, static_cast<std::uint64_t>(ctx.pulse()));
        ctx.broadcast(std::move(payload));
    }

    void corrupt(Rng&) override {}

    std::vector<std::tuple<Pulse, Processor_id, Pulse, Bytes>> trace;
};

using Trace = std::vector<std::tuple<Pulse, Processor_id, Pulse, Bytes>>;

std::vector<Trace> recorder_run(int n, Pulse pulses, Net_model net, int threads = 1)
{
    Engine engine{complete_graph(n), Rng{7}, Engine_config{threads}, std::move(net)};
    for (Processor_id id = 0; id < n; ++id) engine.install(std::make_unique<Recorder>(id));
    engine.run(pulses);
    std::vector<Trace> traces;
    for (Processor_id id = 0; id < n; ++id)
        traces.push_back(engine.processor_as<Recorder>(id).trace);
    return traces;
}

TEST(NetModel, DefaultModelIsClean)
{
    EXPECT_TRUE(Net_model{}.is_clean());
    Net_model delayed;
    delayed.delta = 2;
    EXPECT_FALSE(delayed.is_clean());
    Net_model lossy;
    lossy.drop = 0.1;
    EXPECT_FALSE(lossy.is_clean());
    Net_model windowed;
    windowed.windows.push_back({5, 10, {}});
    EXPECT_FALSE(windowed.is_clean());
}

TEST(NetModel, ValidateRejectsBadKnobs)
{
    const auto validated = [](auto mutate) {
        Net_model net;
        mutate(net);
        net.validate(4);
    };
    EXPECT_THROW(validated([](Net_model& m) { m.delta = 0; }), Contract_error);
    EXPECT_THROW(validated([](Net_model& m) { m.delta = 65; }), Contract_error);
    EXPECT_THROW(validated([](Net_model& m) { m.jitter = -0.1; }), Contract_error);
    EXPECT_THROW(validated([](Net_model& m) { m.jitter = 1.5; }), Contract_error);
    EXPECT_THROW(validated([](Net_model& m) { m.drop = 1.0; }), Contract_error);
    EXPECT_THROW(validated([](Net_model& m) { m.windows.push_back({8, 3, {}}); }),
                 Contract_error);
    EXPECT_THROW(validated([](Net_model& m) { m.windows.push_back({0, 5, {4}}); }),
                 Contract_error);
    EXPECT_NO_THROW(validated([](Net_model& m) {
        m.delta = 64;
        m.jitter = 0.5;
        m.drop = 0.99;
        m.windows.push_back({3, 8, {0, 3}});
    }));
}

TEST(NetModel, VerdictIsAPureFunctionOfSeedAndEdge)
{
    Net_model net;
    net.delta = 4;
    net.jitter = 0.5;
    net.drop = 0.2;
    net.seed = 99;

    Net_model twin = net;
    for (Pulse t = 0; t < 50; ++t) {
        for (Processor_id from = 0; from < 3; ++from) {
            for (Processor_id to = 0; to < 3; ++to) {
                for (int index = 0; index < 3; ++index) {
                    const Net_verdict a = net.verdict(t, from, to, index);
                    const Net_verdict b = twin.verdict(t, from, to, index);
                    EXPECT_EQ(a.dropped, b.dropped);
                    EXPECT_EQ(a.delay, b.delay);
                    EXPECT_GE(a.delay, 1);
                    EXPECT_LE(a.delay, net.delta);
                }
            }
        }
    }

    // Different seeds give different schedules (overwhelmingly likely over
    // 450 drop decisions at p = 0.2).
    Net_model other = net;
    other.seed = 100;
    bool differs = false;
    for (Pulse t = 0; t < 50 && !differs; ++t) {
        for (int index = 0; index < 3; ++index) {
            const Net_verdict a = net.verdict(t, 0, 1, index);
            const Net_verdict b = other.verdict(t, 0, 1, index);
            differs |= a.dropped != b.dropped || a.delay != b.delay;
        }
    }
    EXPECT_TRUE(differs);
}

TEST(NetModel, CleanModelMatchesClassicTransportExactly)
{
    const int n = 5;
    const Pulse pulses = 30;
    const auto classic = recorder_run(n, pulses, Net_model{});
    Net_model prompt; // delta > 1 but every message prompt and nothing lost
    prompt.delta = 3;
    prompt.jitter = 0.0;
    const auto delayed = recorder_run(n, pulses, prompt);
    EXPECT_EQ(classic, delayed);
}

TEST(NetModel, EveryDeliveryRespectsTheDeltaBound)
{
    const int n = 4;
    Net_model net;
    net.delta = 4;
    net.jitter = 1.0;
    net.seed = 5;
    const auto traces = recorder_run(n, 40, net);
    int observed = 0;
    for (const Trace& trace : traces) {
        for (const auto& [pulse, from, sent_at, payload] : trace) {
            const Pulse age = pulse - sent_at - 1;
            EXPECT_GE(age, 0);
            EXPECT_LT(age, net.delta);
            ++observed;
        }
    }
    EXPECT_GT(observed, 0);
}

TEST(NetModel, LosslessDeliveryConservesEveryMessage)
{
    // With no drop and no windows, every offered message is delivered exactly
    // once: messages sent in the last delta pulses may still be in flight.
    const int n = 4;
    const Pulse pulses = 32;
    Net_model net;
    net.delta = 4;
    net.jitter = 0.7;
    net.seed = 11;
    Engine engine{complete_graph(n), Rng{7}, {}, net};
    for (Processor_id id = 0; id < n; ++id) engine.install(std::make_unique<Recorder>(id));
    engine.run(pulses);
    std::int64_t delivered = 0;
    for (Processor_id id = 0; id < n; ++id)
        delivered += static_cast<std::int64_t>(engine.processor_as<Recorder>(id).trace.size());
    EXPECT_EQ(engine.stats().dropped, 0);
    const std::int64_t offered = engine.stats().messages;
    const std::int64_t in_flight_bound = static_cast<std::int64_t>(n) * (n - 1) * (net.delta - 1);
    EXPECT_LE(delivered, offered);
    EXPECT_GE(delivered, offered - in_flight_bound);
}

TEST(NetModel, DropAccountingBalances)
{
    const int n = 4;
    Net_model net;
    net.drop = 0.3;
    net.seed = 21;
    Engine engine{complete_graph(n), Rng{7}, {}, net};
    for (Processor_id id = 0; id < n; ++id) engine.install(std::make_unique<Recorder>(id));
    engine.run(40);
    std::int64_t delivered = 0;
    for (Processor_id id = 0; id < n; ++id)
        delivered += static_cast<std::int64_t>(engine.processor_as<Recorder>(id).trace.size());
    EXPECT_GT(engine.stats().dropped, 0);
    // Offered traffic splits into delivered + dropped + in flight; at
    // delta = 1 only the final pulse's sends can still be in flight.
    const std::int64_t in_flight = engine.stats().messages - delivered - engine.stats().dropped;
    EXPECT_GE(in_flight, 0);
    EXPECT_LE(in_flight, static_cast<std::int64_t>(n) * (n - 1));
}

TEST(NetModel, FullOutageWindowSilencesTheNetworkThenHeals)
{
    const int n = 3;
    Net_model net;
    net.windows.push_back({5, 10, {}});
    const auto traces = recorder_run(n, 20, net);
    for (const Trace& trace : traces) {
        bool healed = false;
        for (const auto& [pulse, from, sent_at, payload] : trace) {
            EXPECT_FALSE(sent_at >= 5 && sent_at < 10)
                << "message sent during the outage was delivered";
            healed |= sent_at >= 10;
        }
        EXPECT_TRUE(healed) << "delivery did not resume after the window";
    }
}

TEST(NetModel, PartitionWindowCutsExactlyTheIsolatedEdges)
{
    const int n = 4;
    Net_model net;
    net.windows.push_back({3, 8, {0}}); // processor 0 is cut off both ways
    const auto traces = recorder_run(n, 16, net);
    for (Processor_id to = 0; to < n; ++to) {
        for (const auto& [pulse, from, sent_at, payload] : traces[static_cast<std::size_t>(to)]) {
            const bool in_window = sent_at >= 3 && sent_at < 8;
            const bool crosses_cut = (from == 0) != (to == 0);
            EXPECT_FALSE(in_window && crosses_cut)
                << "cut edge " << from << "->" << to << " delivered at " << pulse;
        }
    }
    // Edges among {1, 2, 3} kept flowing through the window.
    bool inside_window_traffic = false;
    for (const auto& [pulse, from, sent_at, payload] : traces[1])
        inside_window_traffic |= from != 0 && sent_at >= 3 && sent_at < 8;
    EXPECT_TRUE(inside_window_traffic);
}

TEST(NetModel, ShuffleIsDeterministicAndContentPreserving)
{
    const int n = 5;
    Net_model net;
    net.shuffle = true;
    net.seed = 31;
    const auto a = recorder_run(n, 20, net);
    const auto b = recorder_run(n, 20, net);
    EXPECT_EQ(a, b);

    // Same deliveries as the classic transport, as multisets per pulse.
    auto shuffled = a;
    auto classic = recorder_run(n, 20, Net_model{});
    for (std::size_t id = 0; id < shuffled.size(); ++id) {
        auto& lhs = shuffled[id];
        auto& rhs = classic[id];
        std::sort(lhs.begin(), lhs.end());
        std::sort(rhs.begin(), rhs.end());
        EXPECT_EQ(lhs, rhs) << "recipient " << id;
    }
}

TEST(NetModel, AdversarialTracesAreThreadCountInvariant)
{
    const int n = 9;
    Net_model net;
    net.delta = 3;
    net.jitter = 0.6;
    net.drop = 0.1;
    net.shuffle = true;
    net.seed = 77;
    net.windows.push_back({10, 14, {2, 5}});
    const auto reference = recorder_run(n, 50, net, /*threads=*/1);
    for (const int threads : {2, 4}) {
        EXPECT_EQ(recorder_run(n, 50, net, threads), reference) << threads << " threads";
    }
}

TEST(NetModel, ByzantineSenderCannotForgeTimestamps)
{
    // The transport stamps sent_at on every validated message, so even a
    // babbling Byzantine sender's traffic carries true send pulses and obeys
    // the delta bound on delivery age.
    const int n = 4;
    Net_model net;
    net.delta = 3;
    net.jitter = 1.0;
    net.seed = 13;
    Engine engine{complete_graph(n), Rng{3}, {}, net};
    engine.install(std::make_unique<Random_babbler>(0, Rng{123}), /*byzantine=*/true);
    for (Processor_id id = 1; id < n; ++id) engine.install(std::make_unique<Recorder>(id));
    engine.run(30);
    int from_byzantine = 0;
    for (Processor_id id = 1; id < n; ++id) {
        for (const auto& [pulse, from, sent_at, payload] :
             engine.processor_as<Recorder>(id).trace) {
            const Pulse age = pulse - sent_at - 1;
            EXPECT_GE(age, 0);
            EXPECT_LT(age, net.delta);
            from_byzantine += from == 0 ? 1 : 0;
        }
    }
    EXPECT_GT(from_byzantine, 0);
}

} // namespace
