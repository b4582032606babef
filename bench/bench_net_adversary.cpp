// Experiment E16 — authority throughput under the adversarial network layer.
//
// The seeded sim::Net_model stretches every delivery into a [1, delta] window
// with optional independent loss; the frame-based clock recovery
// (src/clock/) rebuilds lockstep rounds on top, so one play costs exactly
// (classic period) x delta pulses. This bench sweeps delta in {1, 2, 4} x
// drop in {0, 0.01, 0.05} on one distributed-authority group with a
// Byzantine babbler in the last slot, reporting plays/sec, convergence
// pulses per play, and wire traffic for every cell.
//
// Self-enforced floors (process exits non-zero on violation, so CI runs
// `bench_net_adversary --smoke`):
//   - schedule:    measured pulses/play == classic period x delta (the frame
//                  stretch is exact, never an estimate);
//   - convergence: every delta >= 2 cell completes all requested plays (the
//                  frame's delta retransmissions beat 5% loss), and the
//                  clean delta = 1 cell completes all plays;
//   - determinism: the harshest cell (delta = 4, drop = 0.05) is
//                  bit-identical between 1-thread and 2-thread runs.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>

#include "pipeline/pipeline_authority.h"
#include "bench_json.h"
#include "bench_trace.h"
#include "common/table.h"

namespace {

using namespace ga;
using namespace ga::authority;
using bft::ic_eig;

/// Two-action dominant-strategy game (the E7/E12/E13 workload).
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

Game_spec dominant_spec(int n)
{
    Game_spec spec;
    spec.name = "dominant";
    spec.game = std::make_shared<Dominant_game>(n);
    spec.equilibrium.assign(static_cast<std::size_t>(n), {0.0, 1.0});
    spec.audit_mode = Audit_mode::pure_best_response;
    return spec;
}

sim::Net_model adversarial_net(int delta, double drop, std::uint64_t seed)
{
    sim::Net_model net;
    net.delta = delta;
    // Full jitter + shuffle when frames can absorb it; at delta = 1 the
    // model degenerates to the classic synchronous wire.
    net.jitter = delta > 1 ? 1.0 : 0.0;
    net.shuffle = delta > 1;
    net.drop = drop;
    net.seed = seed;
    return net;
}

struct Cell {
    std::int64_t plays = 0;
    double seconds = 0.0;
    int pulses_per_play = 0;
    double messages_per_play = 0.0;
    std::vector<Play_record> trace;
    std::vector<Standing> standings;
};

/// One (delta, drop) cell: an f = 1 group with a Random_babbler in the last
/// slot, timed over `plays` play periods after a one-play warmup. Keeps the
/// best of `repeats` passes to shield the CI smoke guard from scheduler
/// outliers.
Cell measure(int delta, double drop, int plays, int repeats, int threads = 1)
{
    const int f = 1;
    const int n = 3 * f + 1;
    std::vector<std::unique_ptr<Agent_behavior>> behaviors;
    for (int i = 0; i < n - 1; ++i) behaviors.push_back(std::make_unique<Honest_behavior>());
    behaviors.push_back(nullptr);
    pipeline::Pipeline_authority group{dominant_spec(n),
                                       f,
                                       /*k=*/1,
                                       std::move(behaviors),
                                       {n - 1},
                                       [] { return std::make_unique<Fine_scheme>(1.0, 1e9); },
                                       common::Rng{2026},
                                       {},
                                       ic_eig(),
                                       /*tampers=*/{},
                                       adversarial_net(delta, drop, /*seed=*/16)};
    group.engine().set_threads(threads);
    group.run_pulses(1 + group.pulses_per_batch());

    Cell cell;
    cell.pulses_per_play = group.pulses_per_batch();
    cell.seconds = 1e300;
    for (int pass = 0; pass < repeats; ++pass) {
        const auto before_plays = static_cast<std::int64_t>(group.agreed_plays().size());
        const std::int64_t before_messages = group.traffic().messages;

        const auto start = std::chrono::steady_clock::now();
        group.run_pulses(static_cast<common::Pulse>(plays) *
                         static_cast<common::Pulse>(cell.pulses_per_play));
        const auto stop = std::chrono::steady_clock::now();

        cell.plays = static_cast<std::int64_t>(group.agreed_plays().size()) - before_plays;
        cell.seconds =
            std::min(cell.seconds, std::chrono::duration<double>(stop - start).count());
        cell.messages_per_play =
            static_cast<double>(group.traffic().messages - before_messages) /
            static_cast<double>(std::max<std::int64_t>(cell.plays, 1));
    }
    cell.trace = group.agreed_plays();
    cell.standings = group.agreed_standings();
    return cell;
}

} // namespace

int main(int argc, char** argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    }
    const std::string json_path = ga::bench::json_path(argc, argv);

    const std::vector<int> deltas{1, 2, 4};
    const std::vector<double> drops{0.0, 0.01, 0.05};
    const int plays = smoke ? 6 : 24;
    const int repeats = smoke ? 3 : 2;

    std::cout << "=== E16: authority throughput under adversarial networks ===\n\n"
              << "One f = 1 group (n = 4) with a Byzantine babbler; the seeded Net_model\n"
              << "delays every message into [1, delta] (full jitter + inbox shuffle for\n"
              << "delta > 1) and drops each copy independently. Frame-based clock recovery\n"
              << "re-establishes lockstep rounds, so pulses/play = classic period x delta.\n\n";

    const int classic_period = pipeline::Pipeline_processor::clock_period_for(
        ssba::Clocked_ic::rounds_of(ic_eig(), 4, 1));

    common::Table table{{"delta", "drop", "pulses/play", "plays", "wall ms", "plays/sec",
                         "msgs/play", "fouls"}};
    bool schedule_ok = true;
    bool convergence_ok = true;
    for (const int delta : deltas) {
        for (const double drop : drops) {
            const Cell cell = measure(delta, drop, plays, repeats);
            schedule_ok &= cell.pulses_per_play == classic_period * delta;
            // delta >= 2 cells retransmit every section delta times per
            // frame, beating the sweep's loss rates; the clean delta = 1
            // cell is the classic synchronous baseline.
            if (delta >= 2 || drop == 0.0) convergence_ok &= cell.plays >= plays;
            std::int64_t fouls = 0;
            for (const Standing& s : cell.standings) fouls += s.fouls;
            table.add_row({std::to_string(delta), common::fixed(drop, 2),
                           std::to_string(cell.pulses_per_play), std::to_string(cell.plays),
                           common::fixed(cell.seconds * 1e3, 1),
                           common::fixed(static_cast<double>(cell.plays) / cell.seconds, 1),
                           common::fixed(cell.messages_per_play, 0), std::to_string(fouls)});
        }
    }
    table.print(std::cout);

    std::cout << "\nSchedule floor (pulses/play == " << classic_period
              << " x delta in every cell): " << (schedule_ok ? "PASS" : "FAIL") << "\n";
    std::cout << "Convergence floor (all " << plays
              << " plays agreed in every protected cell): "
              << (convergence_ok ? "PASS" : "FAIL") << "\n";

    // ---- Determinism floor: the harshest cell, 1 thread vs 2 threads.
    const Cell single = measure(4, 0.05, smoke ? 3 : 8, 1, /*threads=*/1);
    const Cell pooled = measure(4, 0.05, smoke ? 3 : 8, 1, /*threads=*/2);
    const bool deterministic =
        single.trace == pooled.trace && single.standings == pooled.standings;
    std::cout << "Determinism (delta = 4, drop = 0.05, 1 thread vs 2 threads): "
              << (deterministic ? "bit-identical" : "DIVERGED") << " (" << single.trace.size()
              << " plays)\n\n";

    ga::bench::Json_report report{"bench_net_adversary"};
    report.field("experiment", "E16");
    report.field("smoke", smoke);
    report.field("classic_period", classic_period);
    report.field("plays_per_cell", plays);
    report.field("schedule_ok", schedule_ok);
    report.field("convergence_ok", convergence_ok);
    report.field("deterministic", deterministic);
    if (!report.write(json_path)) return 1;
    if (!ga::bench::dump_fabric_trace(ga::bench::trace_path(argc, argv))) return 1;

    if (!schedule_ok || !convergence_ok || !deterministic) return 1;
    std::cout << "OK\n";
    return 0;
}
