// Experiment E12 — sharded authority fabric throughput.
//
// The paper's single game authority completes one play per 4(f+2)-pulse clock
// period, and BA cost per pulse grows superlinearly in the replica-group
// size, so one big group is the worst way to serve a large population. This
// bench fixes the population and splits it across 1, 2, 4, and 8 concurrent
// authority groups: total steady-state plays/sec should grow near-linearly
// (and faster, since each group also shrinks) with the shard count.
//
// The second half checks the fabric's determinism contract: a multi-threaded
// fabric run must be bit-identical — same verdicts, outcomes, and aggregated
// stats — to the 1-thread run with the same fabric seed. The process exits
// non-zero when either the scaling floor (8 shards >= 4x 1 shard) or the
// determinism contract fails, so CI can run it as a smoke test
// (`bench_shard_fabric --smoke`).
#include <chrono>
#include <cstring>
#include <iostream>
#include <thread>

#include "bench_json.h"
#include "bench_trace.h"
#include "common/table.h"
#include "shard/fabric.h"

namespace {

using namespace ga;
using namespace ga::shard;

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

Shard_spec_factory dominant_specs()
{
    return [](int, const std::vector<common::Agent_id>& members) {
        authority::Game_spec spec;
        spec.name = "dominant";
        spec.game = std::make_shared<Dominant_game>(static_cast<int>(members.size()));
        spec.equilibrium.assign(members.size(), {0.0, 1.0});
        return spec;
    };
}

std::vector<std::unique_ptr<authority::Agent_behavior>>
population(int agents, const std::set<common::Agent_id>& cheaters = {})
{
    std::vector<std::unique_ptr<authority::Agent_behavior>> v;
    for (common::Agent_id g = 0; g < agents; ++g) {
        if (cheaters.count(g) != 0) {
            v.push_back(std::make_unique<authority::Fixed_action_behavior>(0));
        } else {
            v.push_back(std::make_unique<authority::Honest_behavior>());
        }
    }
    return v;
}

Fabric make_fabric(int agents, int shards, int threads, std::uint64_t seed,
                   const std::set<common::Agent_id>& cheaters = {})
{
    Fabric_config config;
    config.f = 1;
    config.spec_factory = dominant_specs();
    config.punishment = [] { return std::make_unique<authority::Fine_scheme>(1.0, 1e9); };
    config.seed = seed;
    config.threads = threads;
    return Fabric{Shard_map{agents, shards}, population(agents, cheaters), std::move(config)};
}

struct Throughput {
    std::int64_t plays = 0;
    double seconds = 0.0;
    double messages_per_play = 0.0;
    int pulses_per_play = 0;
};

/// Steady-state measurement: warm up one full play everywhere, then time
/// `plays` plays per shard.
Throughput measure(int agents, int shards, int threads, int plays)
{
    Fabric fabric = make_fabric(agents, shards, threads, /*seed=*/2026);
    fabric.run_pulses(1);
    fabric.run_plays(1);
    const metrics::Fabric_metrics before = fabric.report();

    const auto start = std::chrono::steady_clock::now();
    fabric.run_plays(plays);
    const auto stop = std::chrono::steady_clock::now();

    const metrics::Fabric_metrics after = fabric.report();
    Throughput result;
    result.pulses_per_play = static_cast<int>(fabric.shard(0).pulses_for_plays(1));
    result.plays = after.total_plays - before.total_plays;
    result.seconds = std::chrono::duration<double>(stop - start).count();
    result.messages_per_play =
        static_cast<double>(after.total_traffic.messages - before.total_traffic.messages) /
        static_cast<double>(result.plays);
    return result;
}

/// Everything a run can observe: the aggregated report plus each agent's
/// routed play history (actions + verdicts).
struct Observed {
    metrics::Fabric_metrics report;
    std::vector<std::vector<Agent_play>> histories;
};

Observed observe(int agents, int shards, int threads, int plays, std::uint64_t seed)
{
    Fabric fabric = make_fabric(agents, shards, threads, seed, /*cheaters=*/{2, agents - 3});
    fabric.run_pulses(1);
    fabric.run_plays(plays);
    Observed observed{fabric.report(), {}};
    for (common::Agent_id g = 0; g < agents; ++g) {
        observed.histories.push_back(fabric.agent_history(g));
    }
    return observed;
}

} // namespace

int main(int argc, char** argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    }
    const std::string json_path = ga::bench::json_path(argc, argv);

    const int agents = smoke ? 16 : 40;
    const std::vector<int> shard_counts = smoke ? std::vector<int>{1, 2, 4}
                                                : std::vector<int>{1, 2, 4, 8};
    const int plays = smoke ? 2 : 6;
    const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());

    std::cout << "=== E12: sharded authority fabric throughput ===\n\n"
              << "Fixed population of " << agents << " agents, f = 1 per shard, EIG substrate;\n"
              << "each row splits the same population across more concurrent authority groups\n"
              << "(executor threads = min(shards, hardware = " << hardware << ")).\n\n";

    common::Table table{{"shards", "agents/shard", "pulses/play", "plays", "wall ms", "plays/sec",
                         "msgs/play", "speedup"}};
    telemetry::Json_writer rows;
    rows.begin_array();
    double baseline = 0.0;
    double ratio_at_max_shards = 0.0;
    for (const int shards : shard_counts) {
        const int threads = std::min<int>(shards, static_cast<int>(hardware));
        const Throughput t = measure(agents, shards, threads, plays);
        const double per_sec = static_cast<double>(t.plays) / t.seconds;
        if (shards == 1) baseline = per_sec;
        const double speedup = per_sec / baseline;
        ratio_at_max_shards = speedup;
        table.add_row({std::to_string(shards), std::to_string(agents / shards),
                       std::to_string(t.pulses_per_play), std::to_string(t.plays),
                       common::fixed(t.seconds * 1e3, 1), common::fixed(per_sec, 1),
                       common::fixed(t.messages_per_play, 0), common::fixed(speedup, 2)});
        rows.begin_object();
        rows.field("shards", shards);
        rows.field("threads", threads);
        rows.field("plays", t.plays);
        rows.field("plays_per_sec", per_sec);
        rows.field("speedup", speedup);
        rows.end_object();
    }
    rows.end_array();
    table.print(std::cout);

    const bool scaling_ok = smoke || ratio_at_max_shards >= 4.0;
    std::cout << "\nScaling floor (8 shards >= 4x 1 shard): "
              << (smoke ? "skipped (--smoke)" : (scaling_ok ? "PASS" : "FAIL")) << "\n";

    // ---- Determinism contract: N-thread run bit-identical to 1-thread run.
    const int det_agents = smoke ? 12 : 24;
    const int det_shards = 3;
    const int det_plays = smoke ? 2 : 3;
    const Observed single = observe(det_agents, det_shards, 1, det_plays, /*seed=*/7);
    const Observed pooled = observe(det_agents, det_shards, 4, det_plays, /*seed=*/7);
    const bool deterministic =
        single.report == pooled.report && single.histories == pooled.histories;
    std::cout << "Determinism (1 thread vs 4 threads, seed 7): verdicts + aggregated stats "
              << (deterministic ? "bit-identical" : "DIVERGED") << "\n";
    std::cout << "  " << single.report.total_plays << " plays, " << single.report.total_fouls
              << " fouls, " << single.report.total_traffic.messages << " messages\n\n";

    ga::bench::Json_report report{"bench_shard_fabric"};
    report.field("experiment", "E12");
    report.field("smoke", smoke);
    report.field("agents", agents);
    report.field("plays_per_shard", plays);
    report.raw("rows", rows.take());
    report.field("scaling_speedup", ratio_at_max_shards);
    report.field("scaling_ok", scaling_ok);
    report.field("deterministic", deterministic);
    if (!report.write(json_path)) return 1;
    if (!ga::bench::dump_fabric_trace(ga::bench::trace_path(argc, argv))) return 1;

    if (!deterministic || !scaling_ok) return 1;
    std::cout << "OK\n";
    return 0;
}
