// Per-pulse traffic as the engine accounts it: deltas of Engine::stats()
// between pulses and Engine::in_flight() after each — the schedule shape of
// the SSBA composition (quiet wrap slots vs busy BA rounds) and the net-fault
// columns under clean, lossy and delayed delivery.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "ssba/ssba.h"

namespace {

using namespace ga::sim;
using ga::common::Bytes;
using ga::common::Processor_id;
using ga::common::Rng;

/// Traffic of one executed pulse: the delta of the engine's cumulative
/// accounting, plus the backlog due past the next pulse.
struct Pulse_delta {
    std::int64_t messages = 0;
    std::int64_t payload_bytes = 0;
    std::int64_t dropped = 0;
    std::int64_t delayed = 0;
    std::int64_t deferred = 0;
};

/// Run `pulses` pulses and return each one's delta, in pulse order.
std::vector<Pulse_delta> run_deltas(Engine& engine, int pulses)
{
    std::vector<Pulse_delta> deltas;
    Traffic_stats last = engine.stats();
    for (int t = 0; t < pulses; ++t) {
        engine.run_pulse();
        const Traffic_stats& now = engine.stats();
        deltas.push_back({now.messages - last.messages, now.payload_bytes - last.payload_bytes,
                          now.dropped - last.dropped, now.delayed - last.delayed,
                          engine.in_flight()});
        last = now;
    }
    return deltas;
}

class Chatty final : public Processor {
public:
    explicit Chatty(Processor_id id) : Processor{id} {}
    void on_pulse(Pulse_context& ctx) override { ctx.broadcast(Bytes{0x01, 0x02}); }
    void corrupt(Rng&) override {}
};

TEST(Trace, SsbaScheduleShowsBusyAndQuietSlots)
{
    // SSBA bundles BA payloads only on scheduled rounds: the busiest pulse
    // must carry strictly more bytes than the quietest (clock-only) pulse.
    const int n = 4;
    const int f = 1;
    const int period = f + 3;
    Rng rng{5};
    Engine engine{complete_graph(n), rng.split(0)};
    for (Processor_id id = 0; id < n; ++id) {
        engine.install(std::make_unique<ga::ssba::Ssba_processor>(
            id, n, f, period, rng.split(id + 1), [](ga::common::Pulse) {
                return ga::common::bytes_of("v");
            }));
    }
    const std::vector<Pulse_delta> deltas = run_deltas(engine, 3 * period + 1);
    // Message *count* is constant (everyone broadcasts every pulse); the
    // schedule shows in the bytes: BA-round pulses carry strictly more.
    std::int64_t min_bytes = deltas[2].payload_bytes;
    std::int64_t max_bytes = deltas[2].payload_bytes;
    std::int64_t max_messages = 0;
    for (std::size_t i = 2; i < deltas.size(); ++i) {
        min_bytes = std::min(min_bytes, deltas[i].payload_bytes);
        max_bytes = std::max(max_bytes, deltas[i].payload_bytes);
    }
    for (const Pulse_delta& d : deltas) max_messages = std::max(max_messages, d.messages);
    EXPECT_GT(max_bytes, min_bytes);
    EXPECT_EQ(max_messages, n * (n - 1)); // full-mesh every pulse
}

TEST(Trace, NetFaultColumnsStayZeroUnderCleanModel)
{
    Engine engine{complete_graph(3)};
    for (Processor_id id = 0; id < 3; ++id) engine.install(std::make_unique<Chatty>(id));
    for (const Pulse_delta& d : run_deltas(engine, 4)) {
        EXPECT_EQ(d.dropped, 0);
        EXPECT_EQ(d.delayed, 0);
        EXPECT_EQ(d.deferred, 0);
    }
}

TEST(Trace, RecordsNetFaultDeltasUnderLossyModel)
{
    Net_model net;
    net.delta = 3;
    net.jitter = 0.5;
    net.drop = 0.3;
    net.seed = 11;
    Engine engine{complete_graph(4), Rng{7}, {}, net};
    for (Processor_id id = 0; id < 4; ++id) engine.install(std::make_unique<Chatty>(id));
    std::int64_t dropped = 0;
    std::int64_t delayed = 0;
    for (const Pulse_delta& d : run_deltas(engine, 32)) {
        dropped += d.dropped;
        delayed += d.delayed;
        EXPECT_GE(d.deferred, 0);
    }
    // Per-pulse deltas sum back to the engine's cumulative accounting.
    EXPECT_EQ(dropped, engine.stats().dropped);
    EXPECT_EQ(delayed, engine.stats().delayed);
    EXPECT_GT(dropped, 0);
    EXPECT_GT(delayed, 0);
}

/// Broadcasts every pulse and logs (delivery pulse, send pulse) of each
/// message it consumes.
class Arrivals final : public Processor {
public:
    explicit Arrivals(Processor_id id) : Processor{id} {}
    void on_pulse(Pulse_context& ctx) override
    {
        for (const Message& m : ctx.inbox()) log.emplace_back(ctx.pulse(), m.sent_at);
        ctx.broadcast(Bytes{0x01});
    }
    void corrupt(Rng&) override {}

    std::vector<std::pair<ga::common::Pulse, ga::common::Pulse>> log;
};

TEST(Trace, DeferredCountsOnlyMessagesPastTheNextPulse)
{
    const int n = 4;
    const int pulses = 24;
    Net_model net;
    net.delta = 3;
    net.jitter = 1.0;
    net.seed = 19;
    Engine engine{complete_graph(n), Rng{3}, {}, net};
    for (Processor_id id = 0; id < n; ++id) engine.install(std::make_unique<Arrivals>(id));
    const std::vector<Pulse_delta> deltas = run_deltas(engine, pulses);
    // Every message sent at or before p has been consumed by pulse p + delta,
    // so the logs are complete for each p checked here.
    std::int64_t total_deferred = 0;
    for (int p = 0; p + net.delta < pulses; ++p) {
        std::int64_t past_next = 0;
        for (Processor_id id = 0; id < n; ++id) {
            for (const auto& [delivered, sent] : engine.processor_as<Arrivals>(id).log)
                if (sent <= p && delivered > p + 1) ++past_next;
        }
        EXPECT_EQ(deltas[static_cast<std::size_t>(p)].deferred, past_next) << "pulse " << p;
        total_deferred += past_next;
    }
    EXPECT_GT(total_deferred, 0);

    // A delta = 1 model delivers everything at the next pulse, lossy or not.
    Net_model lossy;
    lossy.drop = 0.3;
    lossy.seed = 19;
    Engine prompt{complete_graph(n), Rng{3}, {}, lossy};
    for (Processor_id id = 0; id < n; ++id) prompt.install(std::make_unique<Arrivals>(id));
    for (const Pulse_delta& d : run_deltas(prompt, pulses)) EXPECT_EQ(d.deferred, 0);
    EXPECT_GT(prompt.stats().dropped, 0);
}

} // namespace
