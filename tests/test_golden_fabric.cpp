// Golden pins: absolute results of three fixed fabric runs.
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
//             tracing on, one migration mid-run;
//   ingest  : k = 2 behind the front door, watchdog and tracing on, a
//             cheater expelled in epoch 0, then a split and a merge relabel
//             while inlets hold queued work — pinned at 1 and 3 threads,
//             with every Ingest_totals field and a digest of every agent's
//             cross-epoch history, standing and expulsion flag;
//   net     : k = 1 under a partition window already active at every
//             group's first pulse, a later outage and a later partition,
//             watchdog and tracing on, a transient fault mid-run and one
//             migration — pinned at 1 and 3 threads, with a digest of every
//             agent's provenance, so the net-window spans, the fault marker
//             and the retired group's track, snapshot and evidence are all
//             covered. Only the cheater is ever fined: the fault never
//             convicts an honest agent.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
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
    want.traffic.messages = 1272;
    want.traffic.payload_bytes = 76248;
    want.traffic.pulses = 106;
    want.traffic.delayed = 0;
    want.plays = 8;
    want.fouls = 4;
    want.disconnected = 0;
    want.telemetry_hash = 0xa5224f4ce8a69c1eULL;
    want.trace_hash = 0x3e34bc13c77b7b38ULL;
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
    want.traffic.messages = 6446;
    want.traffic.payload_bytes = 854022;
    want.traffic.pulses = 317;
    want.traffic.delayed = 3178;
    want.plays = 48;
    want.fouls = 4;
    want.disconnected = 0;
    want.telemetry_hash = 0xa20b7924aed31eabULL;
    want.trace_hash = 0x3a5214419a804dddULL;
    const Golden got = observe(fabric);
    expect_pin(got, want);
}

/// Every agent's cross-epoch view — history, standing, expulsion flag —
/// serialized exactly (hexfloat doubles) and hashed.
std::uint64_t agent_views_hash(const Fabric& fabric)
{
    std::ostringstream out;
    out << std::hexfloat;
    for (Agent_id g = 0; g < fabric.n_agents(); ++g) {
        out << g << ':';
        for (const Agent_play& play : fabric.agent_history(g)) {
            out << play.completed_at << ',' << play.action << ',' << play.punished << ';';
        }
        const authority::Standing st = fabric.agent_standing(g);
        out << '|' << st.active << ',' << st.fines << ',' << st.reputation << ','
            << st.cumulative_cost << ',' << st.fouls << '|' << fabric.agent_disconnected(g)
            << '\n';
    }
    return fnv1a(out.str());
}

struct Golden_ingest {
    Golden run;
    ingest::Ingest_totals totals;
    std::uint64_t agents_hash = 0;
};

Golden_ingest run_ingest_elastic(int threads)
{
    Fabric_config config = base_config(/*seed=*/47);
    config.threads = threads;
    config.batch_k = 2;
    // Expelled once its fines pass the deposit: the fourth foul.
    config.punishment = [] { return std::make_unique<authority::Fine_scheme>(1.0, 3.0); };
    config.watchdog = telemetry::Watchdog_config{};
    config.trace = true;
    ingest::Ingest_config front;
    front.capacity = 2;
    front.queue_capacity = 8;
    config.ingest = front;
    config.behavior_factory = [](Agent_id g) -> std::unique_ptr<authority::Agent_behavior> {
        if (g == 2) return std::make_unique<authority::Fixed_action_behavior>(0);
        return std::make_unique<authority::Honest_behavior>();
    };
    Fabric fabric{Shard_map{16, 2}, std::move(config)};
    fabric.run_pulses(1);

    std::int64_t client = 0;
    const auto offer = [&fabric, &client] {
        for (Agent_id g = 0; g < fabric.n_agents(); g += 3) {
            (void)fabric.submit(ingest::Submission{g, 0, client++, 0});
        }
    };
    const auto serve = [&](int windows) {
        for (int w = 0; w < windows; ++w) {
            offer();
            (void)fabric.pump_ingest();
        }
    };
    serve(5);
    EXPECT_TRUE(fabric.agent_disconnected(2)) << "the cheater must be expelled before the split";

    // Split shard 0 ({0..7}) with work still queued: both halves rebuild and
    // the cheater's new group re-expels it.
    offer();
    Rebalance_plan split;
    split.splits.push_back(Shard_split{0, {4, 5, 6, 7}});
    fabric.apply_rebalance(split);
    serve(3);

    // Merge shard 0 ({0..3}) into shard 1 ({8..15}): shard 2 ({4..7}) is
    // relabeled onto id 0 and carried with its queued inlet.
    offer();
    Rebalance_plan merge;
    merge.merges.push_back(Shard_merge{0, 1});
    const Rebalance_report report = fabric.apply_rebalance(merge);
    EXPECT_EQ(report.carried, 1);
    EXPECT_EQ(fabric.n_shards(), 2);
    serve(3);
    EXPECT_EQ(fabric.punished_agents(), std::vector<Agent_id>{2}) << "honest agents flagged";

    Golden_ingest out;
    out.run = observe(fabric);
    out.totals = fabric.ingest_totals();
    out.agents_hash = agent_views_hash(fabric);
    return out;
}

TEST(GoldenFabric, IngestElasticRunMatchesPin)
{
    Golden_ingest want;
    want.run.traffic.messages = 14968;
    want.run.traffic.payload_bytes = 2438768;
    want.run.traffic.pulses = 330;
    want.run.traffic.delayed = 0;
    want.run.plays = 50;
    want.run.fouls = 10;
    want.run.disconnected = 1;
    want.run.telemetry_hash = 0x7cfe9f0896e2fd26ULL;
    want.run.trace_hash = 0xae98112dfd451a78ULL;
    want.totals.offered = 78;
    want.totals.accepted = 49;
    want.totals.queued = 4;
    want.totals.retry_after = 10;
    want.totals.shed = 15;
    want.totals.shed_deadline = 0;
    want.totals.served = 46;
    want.totals.completed = 46;
    want.totals.queue_depth_max = 13;
    want.agents_hash = 0x53f9f8aba9bf570bULL;
    for (const int threads : {1, 3}) {
        SCOPED_TRACE(threads);
        const Golden_ingest got = run_ingest_elastic(threads);
        expect_pin(got.run, want.run);
        EXPECT_EQ(got.totals.offered, want.totals.offered);
        EXPECT_EQ(got.totals.accepted, want.totals.accepted);
        EXPECT_EQ(got.totals.queued, want.totals.queued);
        EXPECT_EQ(got.totals.retry_after, want.totals.retry_after);
        EXPECT_EQ(got.totals.shed, want.totals.shed);
        EXPECT_EQ(got.totals.shed_deadline, want.totals.shed_deadline);
        EXPECT_EQ(got.totals.served, want.totals.served);
        EXPECT_EQ(got.totals.completed, want.totals.completed);
        EXPECT_EQ(got.totals.queue_depth_max, want.totals.queue_depth_max);
        EXPECT_EQ(got.agents_hash, want.agents_hash) << std::hex << got.agents_hash;
    }
}

/// Every agent's provenance, every Evidence field, serialized and hashed.
std::uint64_t provenance_hash(const Fabric& fabric)
{
    std::ostringstream out;
    for (Agent_id g = 0; g < fabric.n_agents(); ++g) {
        out << g << ':';
        for (const telemetry::Evidence& ev : fabric.provenance(g)) {
            out << ev.shard << ',' << ev.epoch << ',' << ev.window << ',' << ev.at << ','
                << ev.agent << ',' << ev.offence << ',' << ev.committed << ',' << ev.revealed
                << ',' << ev.expected << ',' << ev.ic_activation << ',' << ev.expelled << ','
                << ev.expelled_at << '[';
            for (const int slot : ev.flagged_by) out << slot << ' ';
            out << "];";
        }
        out << '\n';
    }
    return fnv1a(out.str());
}

struct Golden_net {
    Golden run;
    std::uint64_t provenance_hash = 0;
};

Golden_net run_traced_net(int threads)
{
    Fabric_config config = base_config(/*seed=*/53);
    config.threads = threads;
    config.watchdog = telemetry::Watchdog_config{};
    config.trace = true;
    // Per-group engine pulses: the first window is active at pulse 0, so it
    // opens before every group's boot pulse — the rebuilt groups' too.
    config.net.windows = {sim::Net_window{0, 3, {1}}, sim::Net_window{30, 34, {}},
                          sim::Net_window{70, 76, {0, 2}}};
    config.behavior_factory = [](Agent_id g) -> std::unique_ptr<authority::Agent_behavior> {
        if (g == 6) return std::make_unique<authority::Fixed_action_behavior>(0);
        return std::make_unique<authority::Honest_behavior>();
    };
    Fabric fabric{Shard_map{9, 2}, std::move(config)};
    fabric.run_pulses(1);
    fabric.run_plays(3);
    fabric.inject_transient_fault();
    fabric.run_plays(6);

    Rebalance_plan plan;
    plan.migrations.push_back(Migration{0, 0, 1});
    fabric.apply_rebalance(plan);
    fabric.run_plays(6);

    EXPECT_EQ(fabric.punished_agents(), std::vector<Agent_id>{6}) << "honest agents fined";
    Golden_net out;
    out.run = observe(fabric);
    out.provenance_hash = provenance_hash(fabric);
    return out;
}

TEST(GoldenFabric, TracedNetWindowsAndFaultRunMatchesPin)
{
    Golden_net want;
    want.run.traffic.messages = 6520;
    want.run.traffic.payload_bytes = 315809;
    want.run.traffic.pulses = 408;
    want.run.traffic.delayed = 0;
    want.run.plays = 16;
    want.run.fouls = 7;
    want.run.disconnected = 0;
    want.run.telemetry_hash = 0x5f9aa2fda5da2199ULL;
    want.run.trace_hash = 0xdd79352ac90a1595ULL;
    want.provenance_hash = 0x4517593f1d628108ULL;
    for (const int threads : {1, 3}) {
        SCOPED_TRACE(threads);
        const Golden_net got = run_traced_net(threads);
        expect_pin(got.run, want.run);
        EXPECT_EQ(got.provenance_hash, want.provenance_hash) << std::hex << got.provenance_hash;
    }
}

} // namespace
