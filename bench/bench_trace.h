// Shared --trace plumbing for the bench mains: `bench_x --trace out.json`
// writes a Perfetto-loadable Chrome trace-event JSON artifact beside the
// bench's table output.
//
// Benches that run a traced fabric of their own dump it with
// dump_chrome_trace; every other main calls dump_fabric_trace, which runs
// the canonical traced workload below — small, seeded, with a cheater per
// shard and a lossy delta-2 net, so the trace carries batch windows, plays,
// IC rounds and fouls — and dumps that. It sets no burst/partition window
// and injects no fault, so it has no net_window or transient_fault spans
// (GoldenFabric.TracedNetWindowsAndFaultRunMatchesPin pins those). Either
// way the artifact is deterministic: same bytes on every run and executor
// width.
#ifndef GA_BENCH_BENCH_TRACE_H
#define GA_BENCH_BENCH_TRACE_H

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "ingest/workload.h"
#include "shard/fabric.h"

namespace ga::bench {

/// Write `fabric`'s causal spans (plus its telemetry journal as instant
/// events) as Chrome trace-event JSON to `path`. True on success or when
/// `path` is empty (flag absent).
inline bool dump_chrome_trace(const std::string& path, const shard::Fabric& fabric)
{
    if (path.empty()) return true;
    const telemetry::Report report = fabric.telemetry_report();
    const std::string json = telemetry::to_chrome_trace(fabric.trace_report(), &report);
    std::ofstream out{path};
    if (!out) {
        std::cerr << "cannot open --trace path: " << path << "\n";
        return false;
    }
    out << json << "\n";
    return static_cast<bool>(out);
}

namespace trace_detail {

/// Two-action dominant-strategy game sized to its shard's population.
class Dominant_game final : public game::Strategic_game {
public:
    explicit Dominant_game(int n) : n_{n} {}
    int n_agents() const override { return n_; }
    int n_actions(common::Agent_id) const override { return 2; }
    double cost(common::Agent_id i, const game::Pure_profile& p) const override
    {
        return p[static_cast<std::size_t>(i)] == 1 ? 1.0 : 2.0;
    }

private:
    int n_;
};

} // namespace trace_detail

/// The canonical traced workload: 10 agents over 2 shards (f = 1) under a
/// lossy delta-2 net, one fixed-action cheater per shard, tracing and the
/// watchdog both on, 4 plays. Shared by every bench main without a traced
/// fabric of its own. `with_ingest` additionally opens the front door
/// (capacity 2, queue 8, two priority classes) so drive_ingest_demo can push
/// it into overload.
inline shard::Fabric make_trace_workload(bool with_ingest = false)
{
    constexpr int k_agents = 10;
    shard::Fabric_config config;
    config.f = 1;
    config.spec_factory = [](int, const std::vector<common::Agent_id>& members) {
        authority::Game_spec spec;
        spec.name = "dominant";
        spec.game = std::make_shared<trace_detail::Dominant_game>(static_cast<int>(members.size()));
        spec.equilibrium.assign(members.size(), {0.0, 1.0});
        return spec;
    };
    config.punishment = [] { return std::make_unique<authority::Fine_scheme>(1.0, 1e9); };
    config.seed = 2026;
    config.trace = true;
    config.watchdog = telemetry::Watchdog_config{};
    config.net.delta = 2;
    config.net.jitter = 0.25;
    config.net.drop = 0.01;
    config.net.seed = 5;
    if (with_ingest) {
        ingest::Ingest_config front;
        front.capacity = 2;
        front.queue_capacity = 8;
        front.priorities = 2;
        config.ingest = front;
    }
    std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors;
    for (common::Agent_id g = 0; g < k_agents; ++g) {
        if (g == 2 || g == k_agents - 3) {
            behaviors.push_back(std::make_unique<authority::Fixed_action_behavior>(0));
        } else {
            behaviors.push_back(std::make_unique<authority::Honest_behavior>());
        }
    }
    return shard::Fabric{shard::Shard_map{k_agents, 2}, std::move(behaviors), std::move(config)};
}

/// Drive an overloading open-loop population through a with-ingest canonical
/// workload for `windows` ingest windows: 6 clients across every agent at 4x
/// the 2-shard service rate, seeded retries — enough offered load that every
/// admission verdict (accepted, queued, retry_after, shed) and the
/// degraded/overloaded health states all appear in the telemetry. Returns
/// the client-side view of the run. Deterministic like the fabric itself.
inline ingest::Load_stats drive_ingest_demo(shard::Fabric& fabric, int windows = 12)
{
    ingest::Workload_config wl;
    wl.clients = 6;
    for (common::Agent_id g = 0; g < fabric.n_agents(); ++g) wl.targets.push_back(g);
    wl.priorities = 2;
    wl.rate_num = 8; // vs 2 plays/window service across both shards
    wl.rate_den = 1;
    wl.seed = 17;
    ingest::Open_loop_load load{wl};
    for (std::int64_t t = 0; t < windows; ++t) {
        for (const ingest::Submission& sub : load.tick(t)) {
            load.on_result(sub, fabric.submit(sub), t);
        }
        (void)fabric.pump_ingest();
    }
    return load.stats();
}

/// Run the canonical workload and dump its trace to `path`. True on success
/// or when `path` is empty.
inline bool dump_fabric_trace(const std::string& path)
{
    if (path.empty()) return true;
    shard::Fabric fabric = make_trace_workload();
    fabric.run_pulses(1);
    fabric.run_plays(4);
    return dump_chrome_trace(path, fabric);
}

} // namespace ga::bench

#endif // GA_BENCH_BENCH_TRACE_H
