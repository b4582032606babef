// Experiment E15 — elastic fabric under skewed load.
//
// E12 showed the fabric's plays/sec scaling when the population is split
// evenly; this bench starts from the regime that breaks a static partition:
// one hot shard holding most of the population (BA cost per play grows
// superlinearly in group size, so the hot group pins the fabric's wall
// clock). The static fabric has no remedy. The elastic fabric runs a
// load-threshold rebalance policy between play windows: once the hot
// shard's per-play wire cost pulls away from the fabric mean it is split at
// a play-window edge — only the affected shards pause, for at most one
// window — and the freed cadence turns directly into throughput.
//
// Self-enforced guardrails (non-zero exit; CI runs `--smoke`):
//   - the elastic run beats the static map on plays/sec by >= 1.5x (full
//     mode only; smoke runs are too short to time),
//   - the policy actually rebalanced (epoch > 0) and every transition paused
//     affected shards for at most one play window,
//   - the whole elastic run — epochs, topology, verdicts, histories,
//     aggregated stats — is bit-identical across executor threads {1, 2, 4}
//     and across repeated runs (the determinism contract extended to
//     (seed, initial map, rebalance policy, config)).
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

/// Skewed initial topology: shard 0 owns `hot` agents, two cold shards of 4.
Shard_map skewed_map(int hot)
{
    std::vector<int> shard_of(static_cast<std::size_t>(hot + 8), 0);
    for (int g = hot; g < hot + 4; ++g) shard_of[static_cast<std::size_t>(g)] = 1;
    for (int g = hot + 4; g < hot + 8; ++g) shard_of[static_cast<std::size_t>(g)] = 2;
    return Shard_map{shard_of};
}

Fabric_config base_config(int threads, std::uint64_t seed, bool elastic)
{
    Fabric_config config;
    config.f = 1;
    config.spec_factory = dominant_specs();
    config.punishment = [] { return std::make_unique<authority::Fine_scheme>(1.0, 1e9); };
    config.seed = seed;
    config.threads = threads;
    config.behavior_factory = [](common::Agent_id) {
        return std::make_unique<authority::Honest_behavior>();
    };
    if (elastic) config.rebalance = rebalance_load_threshold(/*ratio=*/1.5, /*min_members=*/4);
    return config;
}

struct Run_result {
    std::int64_t plays = 0;
    double seconds = 0.0;
    int epochs = 0;
    int final_shards = 0;
    common::Pulse worst_pause = 0;
    bool pause_bounded = true;
};

/// Warm every shard up with one play, then time `windows` windows of
/// `plays_per_window` plays each, consulting the rebalance policy (if any)
/// between windows.
Run_result run(int hot, int threads, std::uint64_t seed, bool elastic, int windows,
               int plays_per_window)
{
    Fabric fabric{skewed_map(hot), base_config(threads, seed, elastic)};
    fabric.run_pulses(1);
    fabric.run_plays(1);
    const std::int64_t before = fabric.report().total_plays;

    Run_result result;
    const auto start = std::chrono::steady_clock::now();
    for (int w = 0; w < windows; ++w) {
        fabric.run_plays(plays_per_window);
        if (!elastic) continue;
        // One play window, at the cadence of the shards about to be paused.
        common::Pulse window = 0;
        for (int s = 0; s < fabric.n_shards(); ++s) {
            window = std::max(window, fabric.shard(s).pulses_for_plays(1));
        }
        if (fabric.maybe_rebalance()) {
            const Rebalance_report& report = *fabric.last_rebalance();
            result.worst_pause = std::max(result.worst_pause, report.max_quiesce_pulses);
            if (report.max_quiesce_pulses > window) result.pause_bounded = false;
        }
    }
    const auto stop = std::chrono::steady_clock::now();

    result.plays = fabric.report().total_plays - before;
    result.seconds = std::chrono::duration<double>(stop - start).count();
    result.epochs = fabric.epoch();
    result.final_shards = fabric.n_shards();
    return result;
}

/// Everything an elastic run can observe, for the determinism check.
struct Observed {
    metrics::Fabric_metrics report;
    std::vector<std::vector<Agent_play>> histories;
    int epoch = 0;
    std::vector<int> assignment;
};

Observed observe(int hot, int threads, std::uint64_t seed, int windows, int plays_per_window)
{
    Fabric fabric{skewed_map(hot), base_config(threads, seed, /*elastic=*/true)};
    fabric.run_pulses(1);
    for (int w = 0; w < windows; ++w) {
        fabric.run_plays(plays_per_window);
        fabric.maybe_rebalance();
    }
    Observed observed;
    observed.report = fabric.report();
    for (common::Agent_id g = 0; g < fabric.n_agents(); ++g) {
        observed.histories.push_back(fabric.agent_history(g));
    }
    observed.epoch = fabric.epoch();
    observed.assignment = fabric.map().assignment();
    return observed;
}

bool identical(const Observed& a, const Observed& b)
{
    return a.report == b.report && a.histories == b.histories && a.epoch == b.epoch &&
           a.assignment == b.assignment;
}

} // namespace

int main(int argc, char** argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    }
    const std::string json_path = ga::bench::json_path(argc, argv);

    const int hot = smoke ? 12 : 32;
    const int windows = smoke ? 2 : 6;
    const int plays_per_window = 2;
    const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
    const int threads = std::min(8, static_cast<int>(hardware));

    std::cout << "=== E15: elastic fabric under skewed load ===\n\n"
              << "Population of " << (hot + 8) << " agents, f = 1; initial map is skewed:\n"
              << "one hot shard of " << hot << " agents plus two cold shards of 4.\n"
              << "The elastic row runs rebalance_load_threshold(1.5, 4) between\n"
              << plays_per_window << "-play windows (" << windows << " windows, " << threads
              << " executor threads).\n\n";

    common::Table table{{"fabric", "windows", "plays", "wall ms", "plays/sec", "epochs",
                         "final shards", "worst pause"}};
    const Run_result fixed =
        run(hot, threads, /*seed=*/2026, /*elastic=*/false, windows, plays_per_window);
    const Run_result elastic =
        run(hot, threads, /*seed=*/2026, /*elastic=*/true, windows, plays_per_window);
    const double static_rate = static_cast<double>(fixed.plays) / fixed.seconds;
    const double elastic_rate = static_cast<double>(elastic.plays) / elastic.seconds;
    table.add_row({"static", std::to_string(windows), std::to_string(fixed.plays),
                   common::fixed(fixed.seconds * 1e3, 1), common::fixed(static_rate, 1), "0",
                   std::to_string(fixed.final_shards), "-"});
    table.add_row({"elastic", std::to_string(windows), std::to_string(elastic.plays),
                   common::fixed(elastic.seconds * 1e3, 1), common::fixed(elastic_rate, 1),
                   std::to_string(elastic.epochs), std::to_string(elastic.final_shards),
                   std::to_string(elastic.worst_pause) + " pulses"});
    table.print(std::cout);

    const double speedup = elastic_rate / static_rate;
    std::cout << "\nElastic vs static plays/sec: " << common::fixed(speedup, 2) << "x\n";

    const bool rebalanced = elastic.epochs > 0;
    std::cout << "Rebalanced under load (epoch > 0): " << (rebalanced ? "PASS" : "FAIL") << "\n";
    const bool pause_ok = elastic.pause_bounded;
    std::cout << "Migration pause <= one play window per affected shard: "
              << (pause_ok ? "PASS" : "FAIL") << "\n";
    const bool scaling_ok = smoke || speedup >= 1.5;
    std::cout << "Throughput floor (elastic >= 1.5x static): "
              << (smoke ? "skipped (--smoke)" : (scaling_ok ? "PASS" : "FAIL")) << "\n";

    // ---- Determinism: the elastic run is a pure function of (seed, initial
    // map, policy, config) — identical across executor widths and repeats.
    const int det_hot = 12;
    const int det_windows = 2;
    const Observed single = observe(det_hot, 1, /*seed=*/7, det_windows, plays_per_window);
    const Observed repeat = observe(det_hot, 1, /*seed=*/7, det_windows, plays_per_window);
    bool deterministic = identical(single, repeat);
    for (const int pool : {2, 4}) {
        deterministic = deterministic &&
                        identical(single, observe(det_hot, pool, /*seed=*/7, det_windows,
                                                  plays_per_window));
    }
    std::cout << "Determinism (threads 1 vs 2 vs 4, repeated runs, seed 7): "
              << (deterministic ? "bit-identical" : "DIVERGED") << "\n";
    std::cout << "  " << single.report.total_plays << " plays over " << (single.epoch + 1)
              << " epochs, " << single.report.total_fouls << " fouls, "
              << single.report.total_traffic.messages << " messages\n\n";

    ga::bench::Json_report json_report{"bench_fabric_elastic"};
    json_report.field("experiment", "E15");
    json_report.field("smoke", smoke);
    json_report.field("static_plays_per_sec", static_rate);
    json_report.field("elastic_plays_per_sec", elastic_rate);
    json_report.field("speedup", speedup);
    json_report.field("epochs", elastic.epochs);
    json_report.field("final_shards", elastic.final_shards);
    json_report.field("rebalanced", rebalanced);
    json_report.field("pause_ok", pause_ok);
    json_report.field("scaling_ok", scaling_ok);
    json_report.field("deterministic", deterministic);
    if (!json_report.write(json_path)) return 1;
    if (!ga::bench::dump_fabric_trace(ga::bench::trace_path(argc, argv))) return 1;

    if (!rebalanced || !pause_ok || !scaling_ok || !deterministic) return 1;
    std::cout << "OK\n";
    return 0;
}
