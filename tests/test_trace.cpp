// Trace observer: per-pulse traffic deltas, bounded capacity, schedule shape
// of the SSBA composition (quiet wrap slots vs busy BA rounds).
#include <gtest/gtest.h>

#include <sstream>
#include <utility>
#include <vector>

#include "sim/trace.h"
#include "ssba/ssba.h"

namespace {

using namespace ga::sim;
using ga::common::Bytes;
using ga::common::Processor_id;
using ga::common::Rng;

class Chatty final : public Processor {
public:
    explicit Chatty(Processor_id id) : Processor{id} {}
    void on_pulse(Pulse_context& ctx) override { ctx.broadcast(Bytes{0x01, 0x02}); }
    void corrupt(Rng&) override {}
};

TEST(Trace, RecordsPerPulseDeltas)
{
    Engine engine{complete_graph(3)};
    for (Processor_id id = 0; id < 3; ++id) engine.install(std::make_unique<Chatty>(id));
    Trace trace;
    for (int t = 0; t < 4; ++t) {
        engine.run_pulse();
        trace.sample(engine);
    }
    ASSERT_EQ(trace.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(trace.at(i).messages, 6);       // 3 processors x 2 neighbors
        EXPECT_EQ(trace.at(i).payload_bytes, 12); // 2 bytes each
    }
    EXPECT_DOUBLE_EQ(trace.mean_messages(), 6.0);
}

TEST(Trace, CapacityBoundsMemory)
{
    Engine engine{complete_graph(2)};
    engine.install(std::make_unique<Chatty>(0));
    engine.install(std::make_unique<Chatty>(1));
    Trace trace{3};
    for (int t = 0; t < 10; ++t) {
        engine.run_pulse();
        trace.sample(engine);
    }
    EXPECT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.at(0).pulse, 7); // oldest retained = pulse 7
}

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
    Trace trace;
    for (int t = 0; t < 3 * period + 1; ++t) {
        engine.run_pulse();
        trace.sample(engine);
    }
    // Message *count* is constant (everyone broadcasts every pulse); the
    // schedule shows in the bytes: BA-round pulses carry strictly more.
    std::int64_t min_bytes = trace.at(2).payload_bytes;
    std::int64_t max_bytes = trace.at(2).payload_bytes;
    for (std::size_t i = 2; i < trace.size(); ++i) {
        min_bytes = std::min(min_bytes, trace.at(i).payload_bytes);
        max_bytes = std::max(max_bytes, trace.at(i).payload_bytes);
    }
    EXPECT_GT(max_bytes, min_bytes);
    EXPECT_EQ(trace.busiest().messages, n * (n - 1)); // full-mesh every pulse
}

TEST(Trace, PrintsTable)
{
    Engine engine{complete_graph(2)};
    engine.install(std::make_unique<Chatty>(0));
    engine.install(std::make_unique<Chatty>(1));
    Trace trace;
    engine.run_pulse();
    trace.sample(engine);
    std::ostringstream out;
    trace.print(out);
    EXPECT_NE(out.str().find("pulse"), std::string::npos);
    EXPECT_NE(out.str().find("2"), std::string::npos);
}

TEST(Trace, NetFaultColumnsStayZeroUnderCleanModel)
{
    Engine engine{complete_graph(3)};
    for (Processor_id id = 0; id < 3; ++id) engine.install(std::make_unique<Chatty>(id));
    Trace trace;
    for (int t = 0; t < 4; ++t) {
        engine.run_pulse();
        trace.sample(engine);
    }
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(trace.at(i).dropped, 0);
        EXPECT_EQ(trace.at(i).delayed, 0);
        EXPECT_EQ(trace.at(i).deferred, 0);
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
    Trace trace;
    std::int64_t dropped = 0;
    std::int64_t delayed = 0;
    for (int t = 0; t < 32; ++t) {
        engine.run_pulse();
        trace.sample(engine);
        dropped += trace.at(trace.size() - 1).dropped;
        delayed += trace.at(trace.size() - 1).delayed;
        EXPECT_GE(trace.at(trace.size() - 1).deferred, 0);
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
    Trace trace;
    for (int t = 0; t < pulses; ++t) {
        engine.run_pulse();
        trace.sample(engine);
    }
    // Every message sent at or before p has been consumed by pulse p + delta,
    // so the logs are complete for each p checked here.
    std::int64_t total_deferred = 0;
    for (int p = 0; p + net.delta < pulses; ++p) {
        std::int64_t past_next = 0;
        for (Processor_id id = 0; id < n; ++id) {
            for (const auto& [delivered, sent] : engine.processor_as<Arrivals>(id).log)
                if (sent <= p && delivered > p + 1) ++past_next;
        }
        EXPECT_EQ(trace.at(static_cast<std::size_t>(p)).deferred, past_next) << "pulse " << p;
        total_deferred += past_next;
    }
    EXPECT_GT(total_deferred, 0);

    // A delta = 1 model delivers everything at the next pulse, lossy or not.
    Net_model lossy;
    lossy.drop = 0.3;
    lossy.seed = 19;
    Engine prompt{complete_graph(n), Rng{3}, {}, lossy};
    for (Processor_id id = 0; id < n; ++id) prompt.install(std::make_unique<Arrivals>(id));
    Trace prompt_trace;
    for (int t = 0; t < pulses; ++t) {
        prompt.run_pulse();
        prompt_trace.sample(prompt);
        EXPECT_EQ(prompt_trace.at(prompt_trace.size() - 1).deferred, 0);
    }
    EXPECT_GT(prompt.stats().dropped, 0);
}

TEST(Trace, CountsEvictedRowsInsteadOfSilentWraparound)
{
    Engine engine{complete_graph(2)};
    engine.install(std::make_unique<Chatty>(0));
    engine.install(std::make_unique<Chatty>(1));
    Trace trace{3};
    EXPECT_EQ(trace.dropped_oldest(), 0);
    for (int t = 0; t < 10; ++t) {
        engine.run_pulse();
        trace.sample(engine);
    }
    EXPECT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.dropped_oldest(), 7);
    std::ostringstream out;
    trace.print(out);
    EXPECT_NE(out.str().find("7 older pulse"), std::string::npos);
    EXPECT_NE(out.str().find("dropped"), std::string::npos);
    EXPECT_NE(out.str().find("deferred"), std::string::npos);
}

TEST(Trace, EmptyTraceGuards)
{
    Trace trace;
    EXPECT_THROW(static_cast<void>(trace.busiest()), ga::common::Contract_error);
    EXPECT_THROW(static_cast<void>(trace.mean_messages()), ga::common::Contract_error);
    EXPECT_THROW(static_cast<void>(trace.at(0)), ga::common::Contract_error);
    EXPECT_THROW(Trace{0}, ga::common::Contract_error);
}

} // namespace
