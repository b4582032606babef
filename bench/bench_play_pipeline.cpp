// Experiment E13 — batched play pipeline throughput.
//
// One classic §3.3 play costs 4 IC activations, pinning a group to its
// 4(f+2)-pulse cadence. The pipeline (src/pipeline/) agrees on k plays per
// activation — outcome, one Merkle-sealed commitment-vector root, one
// opening-vector reveal, one batch-edge audit — so a whole k-play batch
// costs ONE classic period and plays/sec should approach the k-fold
// amortization bound as payload and audit costs amortize. This bench sweeps
// k in {1, 4, 8, 16} x f in {1, 2} on one group (substrate auto-selected by
// bft::choose_ic, the E7 crossover) and reports measured speedup against the
// per-(n, f) k = 1 baseline next to the pulse-count bound.
//
// The second half re-checks the fabric determinism contract in pipelined
// mode: a multi-threaded pipelined fabric run must be bit-identical (same
// verdicts, outcomes, aggregated stats) to the 1-thread run at the same
// seed. The process exits non-zero when the k = 8, f = 1 amortization floor
// or the determinism contract fails, so CI runs it as a smoke test
// (`bench_play_pipeline --smoke`), mirroring the E12 guardrail. The floor is
// judged on paired trials (bench_json.h paired_trials): a warm-up pair, then
// the median of alternating timed trials of the k = 1 and k = 8 groups, with
// every trial and the IQR in --json; the sweep table's speedup column is a
// best-of-passes figure for reading only.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>

#include "bench_json.h"
#include "bench_trace.h"
#include "common/table.h"
#include "shard/fabric.h"

namespace {

using namespace ga;
using namespace ga::pipeline;

/// Two-action dominant-strategy game (the E7/E12 workload).
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

authority::Game_spec dominant_spec(int n)
{
    authority::Game_spec spec;
    spec.name = "dominant";
    spec.game = std::make_shared<Dominant_game>(n);
    spec.equilibrium.assign(static_cast<std::size_t>(n), {0.0, 1.0});
    return spec;
}

std::vector<std::unique_ptr<authority::Agent_behavior>> honest(int n)
{
    std::vector<std::unique_ptr<authority::Agent_behavior>> v;
    for (int i = 0; i < n; ++i) v.push_back(std::make_unique<authority::Honest_behavior>());
    return v;
}

struct Throughput {
    std::int64_t plays = 0;
    double seconds = 0.0;
    int pulses_per_batch = 0;
    double messages_per_play = 0.0;
};

/// An honest group of n agents at f playing batches of k, booted and warmed
/// by one batch.
std::unique_ptr<Pipeline_authority> warm_group(int n, int f, int k)
{
    auto group = std::make_unique<Pipeline_authority>(
        dominant_spec(n), f, k, honest(n), std::set<common::Processor_id>{},
        [] { return std::make_unique<authority::Fine_scheme>(1.0, 1e9); }, common::Rng{2026});
    group->run_pulses(1);
    group->run_batches(1);
    return group;
}

/// Steady-state measurement on one warm group, keeping the best of `repeats`
/// passes of `plays` plays.
Throughput measure(int n, int f, int k, int plays, int repeats)
{
    const std::unique_ptr<Pipeline_authority> warm = warm_group(n, f, k);
    Pipeline_authority& group = *warm;

    Throughput result;
    result.pulses_per_batch = group.pulses_per_batch();
    result.seconds = 1e300;
    for (int pass = 0; pass < repeats; ++pass) {
        const auto before_plays = static_cast<std::int64_t>(group.agreed_plays().size());
        const std::int64_t before_messages = group.traffic().messages;

        const auto start = std::chrono::steady_clock::now();
        group.run_plays(plays);
        const auto stop = std::chrono::steady_clock::now();

        result.plays = static_cast<std::int64_t>(group.agreed_plays().size()) - before_plays;
        result.seconds =
            std::min(result.seconds, std::chrono::duration<double>(stop - start).count());
        result.messages_per_play =
            static_cast<double>(group.traffic().messages - before_messages) /
            static_cast<double>(result.plays);
    }
    return result;
}

/// Pulse-count amortization bound of the schedule: the batched period is
/// k-invariant (one classic period per k plays), so the bound is exactly k;
/// wall-clock speedup approaches it as payload and audit costs amortize.
double pulse_bound(int k)
{
    return static_cast<double>(k);
}

/// Everything a pipelined-fabric run can observe (determinism contract).
struct Observed {
    metrics::Fabric_metrics report;
    std::vector<std::vector<shard::Agent_play>> histories;
};

Observed observe(int agents, int shards, int threads, int k, int plays, std::uint64_t seed)
{
    shard::Fabric_config config;
    config.f = 1;
    config.spec_factory = [](int, const std::vector<common::Agent_id>& members) {
        return dominant_spec(static_cast<int>(members.size()));
    };
    config.punishment = [] { return std::make_unique<authority::Fine_scheme>(1.0, 1e9); };
    config.byzantine = {2, agents - 3};
    config.seed = seed;
    config.threads = threads;
    config.batch_k = k;
    std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors;
    for (common::Agent_id g = 0; g < agents; ++g) {
        if (config.byzantine.count(g) != 0) {
            behaviors.push_back(nullptr);
        } else {
            behaviors.push_back(std::make_unique<authority::Honest_behavior>());
        }
    }
    shard::Fabric fabric{shard::Shard_map{agents, shards}, std::move(behaviors),
                         std::move(config)};
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

    const std::vector<int> batch_sizes{1, 4, 8, 16};
    const std::vector<std::pair<int, int>> systems =
        smoke ? std::vector<std::pair<int, int>>{{4, 1}}
              : std::vector<std::pair<int, int>>{{5, 1}, {9, 2}};
    const int plays = smoke ? 32 : 96;
    const int repeats = smoke ? 5 : 3;

    std::cout << "=== E13: batched play pipeline (k plays per BA activation) ===\n\n"
              << "One authority group, honest population, substrate auto-selected by\n"
              << "bft::choose_ic(n, f); each row amortizes agreement over batches of k plays.\n"
              << "'bound' is the schedule's pulse-count amortization limit for this (k, f).\n\n";

    for (const auto& [n, f] : systems) {
        std::cout << "n = " << n << ", f = " << f << ":\n";
        common::Table table{{"k", "pulses/batch", "pulses/play", "plays", "wall ms",
                             "plays/sec", "msgs/play", "speedup", "bound"}};
        double baseline = 0.0;
        for (const int k : batch_sizes) {
            const Throughput t = measure(n, f, k, plays, repeats);
            const double per_sec = static_cast<double>(t.plays) / t.seconds;
            if (k == 1) baseline = per_sec;
            const double speedup = per_sec / baseline;
            table.add_row({std::to_string(k), std::to_string(t.pulses_per_batch),
                           common::fixed(static_cast<double>(t.pulses_per_batch) / k, 2),
                           std::to_string(t.plays), common::fixed(t.seconds * 1e3, 1),
                           common::fixed(per_sec, 1), common::fixed(t.messages_per_play, 0),
                           common::fixed(speedup, 2), common::fixed(pulse_bound(k), 2)});
        }
        table.print(std::cout);
        std::cout << "\n";
    }

    // ---- Amortization floor on the f = 1 system, judged on paired trials:
    // each step plays one k = 8 batch's worth of plays on either group.
    const int floor_n = systems.front().first;
    const int warmup = 1;
    const int trials = smoke ? 9 : 15;
    const double trial_seconds = smoke ? 0.1 : 0.25;
    const std::unique_ptr<Pipeline_authority> k1 = warm_group(floor_n, 1, 1);
    const std::unique_ptr<Pipeline_authority> k8 = warm_group(floor_n, 1, 8);
    const auto play = [](Pipeline_authority& group) {
        return [&group] {
            const auto before = static_cast<std::int64_t>(group.agreed_plays().size());
            group.run_plays(8);
            return static_cast<std::int64_t>(group.agreed_plays().size()) - before;
        };
    };
    std::cout << "Amortization trials (n = " << floor_n << ", f = 1): " << warmup
              << " warm-up pair, then " << trials << " alternating trials of >= "
              << common::fixed(trial_seconds, 2) << " s, 8 plays per step\n";
    const ga::bench::Paired_trials paired =
        ga::bench::paired_trials(play(*k1), play(*k8), warmup, trials, trial_seconds);
    common::Table trial_table{{"trial", "first", "k = 1 plays/sec", "k = 8 plays/sec", "k8 / k1"}};
    for (std::size_t i = 0; i < paired.trials.size(); ++i) {
        const ga::bench::Trial& t = paired.trials[i];
        trial_table.add_row({std::to_string(i), t.candidate_first ? "k8" : "k1",
                             common::fixed(t.baseline_rate, 1), common::fixed(t.candidate_rate, 1),
                             common::fixed(t.ratio, 2)});
    }
    trial_table.print(std::cout);
    const double speedup_k8_f1 = paired.ratio.median;
    const double floor = smoke ? 2.0 : 3.0;
    const bool amortization_ok = speedup_k8_f1 >= floor;
    std::cout << "\nAmortization floor (median k = 8 / k = 1 plays/sec >= " << floor
              << "x): " << common::fixed(speedup_k8_f1, 2) << "x (quartiles "
              << common::fixed(paired.ratio.q1, 2) << "-" << common::fixed(paired.ratio.q3, 2)
              << ") -> " << (amortization_ok ? "PASS" : "FAIL") << "\n";

    // ---- Determinism contract: pipelined N-thread run bit-identical to the
    // 1-thread run at the same (seed, map, k).
    const int det_agents = smoke ? 12 : 24;
    const int det_plays = smoke ? 8 : 12;
    const Observed single = observe(det_agents, 3, 1, 4, det_plays, /*seed=*/7);
    const Observed pooled = observe(det_agents, 3, 4, 4, det_plays, /*seed=*/7);
    const bool deterministic =
        single.report == pooled.report && single.histories == pooled.histories;
    std::cout << "Determinism (pipelined fabric, 1 thread vs 4 threads, seed 7): "
              << (deterministic ? "bit-identical" : "DIVERGED") << "\n";
    std::cout << "  " << single.report.total_plays << " plays, " << single.report.total_fouls
              << " fouls, " << single.report.total_traffic.messages << " messages\n\n";

    ga::bench::Json_report report{"bench_play_pipeline"};
    report.field("experiment", "E13");
    report.field("smoke", smoke);
    report.field("plays", plays);
    report.raw("amortization", ga::bench::to_json(paired, "k1", "k8", "plays/sec"));
    report.field("speedup_k8_f1", speedup_k8_f1);
    report.field("amortization_ok", amortization_ok);
    report.field("deterministic", deterministic);
    if (!report.write(json_path)) return 1;
    if (!ga::bench::dump_fabric_trace(ga::bench::trace_path(argc, argv))) return 1;

    if (!deterministic || !amortization_ok) return 1;
    std::cout << "OK\n";
    return 0;
}
