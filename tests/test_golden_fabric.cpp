// Golden pins: absolute results of two fixed fabric runs.
//
// The determinism suites compare runs against each other (1 vs N threads,
// loopback vs ring); these pin what the runs produce. Each run records the
// fabric's aggregated traffic, its agreed plays, fouls and expulsions, and
// an FNV-1a digest of the telemetry JSON and of the Chrome-trace JSON — so a
// refactor that moves a telemetry hook, a span, or a single wire byte shows
// up here even when every run still agrees with itself.
//
//   static  : k = 1, 8 agents in 2 shards, one fined Fixed_action cheater,
//             telemetry and tracing on;
//   elastic : k = 4, delta 2 with jitter, ring transport, watchdog and
//             tracing on, one migration mid-run.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "shard/fabric.h"

namespace {

using namespace ga;
using namespace ga::shard;
using common::Agent_id;

std::uint64_t fnv1a(std::string_view text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/// Two-action game with a dominant strategy (action 1): a Fixed_action(0)
/// agent deviates every play.
class Dominant_game final : public game::Strategic_game {
public:
    explicit Dominant_game(int n) : n_{n} {}
    int n_agents() const override { return n_; }
    int n_actions(Agent_id) const override { return 2; }
    double cost(Agent_id i, const game::Pure_profile& p) const override
    {
        return p[static_cast<std::size_t>(i)] == 1 ? 1.0 : 2.0;
    }

private:
    int n_;
};

Fabric_config base_config(std::uint64_t seed)
{
    Fabric_config config;
    config.f = 1;
    config.spec_factory = [](int, const std::vector<Agent_id>& members) {
        authority::Game_spec spec;
        spec.name = "dominant";
        spec.game = std::make_shared<Dominant_game>(static_cast<int>(members.size()));
        spec.equilibrium.assign(members.size(), {0.0, 1.0});
        spec.audit_mode = authority::Audit_mode::pure_best_response;
        return spec;
    };
    config.punishment = [] { return std::make_unique<authority::Fine_scheme>(1.0, 1e9); };
    config.seed = seed;
    return config;
}

struct Golden {
    sim::Traffic_stats traffic;
    std::int64_t plays = 0;
    std::int64_t fouls = 0;
    int disconnected = 0;
    std::uint64_t telemetry_hash = 0;
    std::uint64_t trace_hash = 0;
};

Golden observe(const Fabric& fabric)
{
    const metrics::Fabric_metrics report = fabric.report();
    Golden g;
    g.traffic = report.total_traffic;
    g.plays = report.total_plays;
    g.fouls = report.total_fouls;
    g.disconnected = report.total_disconnected;
    g.telemetry_hash = fnv1a(telemetry::to_json(fabric.telemetry_report()));
    g.trace_hash = fnv1a(telemetry::to_chrome_trace(fabric.trace_report()));
    return g;
}

void expect_pin(const Golden& got, const Golden& want)
{
    EXPECT_EQ(got.traffic.messages, want.traffic.messages);
    EXPECT_EQ(got.traffic.payload_bytes, want.traffic.payload_bytes);
    EXPECT_EQ(got.traffic.pulses, want.traffic.pulses);
    EXPECT_EQ(got.traffic.delayed, want.traffic.delayed);
    EXPECT_EQ(got.plays, want.plays);
    EXPECT_EQ(got.fouls, want.fouls);
    EXPECT_EQ(got.disconnected, want.disconnected);
    EXPECT_EQ(got.telemetry_hash, want.telemetry_hash) << std::hex << got.telemetry_hash;
    EXPECT_EQ(got.trace_hash, want.trace_hash) << std::hex << got.trace_hash;
}

TEST(GoldenFabric, StaticTracedRunMatchesPin)
{
    Fabric_config config = base_config(/*seed=*/41);
    config.telemetry = true;
    config.trace = true;
    std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors;
    for (Agent_id g = 0; g < 8; ++g) {
        if (g == 5) {
            behaviors.push_back(std::make_unique<authority::Fixed_action_behavior>(0));
        } else {
            behaviors.push_back(std::make_unique<authority::Honest_behavior>());
        }
    }
    Fabric fabric{Shard_map{8, 2}, std::move(behaviors), std::move(config)};
    fabric.run_pulses(1);
    fabric.run_plays(4);

    Golden want;
    want.traffic.messages = 1368;
    want.traffic.payload_bytes = 76728;
    want.traffic.pulses = 114;
    want.traffic.delayed = 0;
    want.plays = 8;
    want.fouls = 4;
    want.disconnected = 0;
    want.telemetry_hash = 0xebf109f5d7984d46ULL;
    want.trace_hash = 0xb3a10e03dbbaf560ULL;
    const Golden got = observe(fabric);
    expect_pin(got, want);
}

TEST(GoldenFabric, ElasticRingRunMatchesPin)
{
    Fabric_config config = base_config(/*seed=*/43);
    config.batch_k = 4;
    config.net.delta = 2;
    config.net.jitter = 0.5;
    config.net.seed = 11;
    config.transport.kind = wire::Transport_kind::ring;
    config.watchdog = telemetry::Watchdog_config{};
    config.trace = true;
    config.behavior_factory = [](Agent_id g) -> std::unique_ptr<authority::Agent_behavior> {
        if (g == 7) return std::make_unique<authority::Fixed_action_behavior>(0);
        return std::make_unique<authority::Honest_behavior>();
    };
    Fabric fabric{Shard_map{15, 3}, std::move(config)};
    fabric.run_pulses(1);
    fabric.run_plays(8);

    Rebalance_plan plan;
    plan.migrations.push_back(Migration{7, 1, 0});
    fabric.apply_rebalance(plan);
    fabric.run_plays(8);

    Golden want;
    want.traffic.messages = 6934;
    want.traffic.payload_bytes = 856462;
    want.traffic.pulses = 341;
    want.traffic.delayed = 3419;
    want.plays = 48;
    want.fouls = 4;
    want.disconnected = 0;
    want.telemetry_hash = 0x7d0d9063016bb7a0ULL;
    want.trace_hash = 0x0dc3df1010088d16ULL;
    const Golden got = observe(fabric);
    expect_pin(got, want);
}

} // namespace
