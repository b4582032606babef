// Experiment E14 — zero-copy parallel pulse engine scaling.
//
// The engine this bench guards delivers each broadcast once (one entry per
// sender, read by every recipient through its inbox view, with no
// per-recipient message or refcount update), allocates nothing per pulse
// (double-buffered inboxes, persistent outboxes), and parallelizes the
// pulse across Engine_config{threads} workers with a sender-id-ordered
// gather that keeps N-thread runs bit-identical to 1-thread runs.
//
// Two workloads, sized n ∈ {64, 256, 1024} and threads ∈ {1, 2, 4, 8}:
//   - broadcast storm: every processor broadcasts 64 B per pulse on K_n and
//     checksums its inbox — pure engine messaging throughput;
//   - authority play: a full per-play (k = 1) Pipeline_authority group
//     (f = 1, parallel phase-king substrate) supervising a dominant-strategy
//     game — the end-to-end protocol stack over the same engine.
//
// Self-enforced (non-zero exit):
//   - determinism: threads ∈ {2, 4} runs bit-identical (stats + per-processor
//     checksums, verdicts + standings) to the 1-thread run — always checked;
//   - storm message counts exactly n(n-1) per pulse (payload sharing must
//     not change Traffic_stats accounting) — always checked;
//   - scaling floor: ≥ 3× pulses/sec at 4 threads vs 1 thread on the n = 1024
//     storm — full mode only, and only when the hardware has ≥ 4 cores (a
//     1-core box cannot express parallel speedup; the floor is then reported
//     as skipped, like E12's smoke behavior).
//
// CI runs `bench_engine_scaling --smoke`: small sizes, determinism + count
// checks enforced, floors skipped.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "authority/agent.h"
#include "pipeline/pipeline_authority.h"
#include "authority/punishment.h"
#include "bench_json.h"
#include "bench_trace.h"
#include "bft/ic_select.h"
#include "common/table.h"
#include "sim/engine.h"

namespace {

using namespace ga;
using sim::Engine;
using sim::Engine_config;

/// Broadcasts one pre-wrapped 64-byte buffer per pulse (the zero-copy idiom)
/// and folds every delivery the inbox view yields — every other sender's
/// entry, in sender order — into a checksum so reads cannot be optimized
/// out.
class Storm_processor final : public sim::Processor {
public:
    explicit Storm_processor(common::Processor_id id)
        : sim::Processor{id}, payload_{common::Bytes(64, static_cast<std::uint8_t>(id))}
    {
    }

    void on_pulse(sim::Pulse_context& ctx) override
    {
        for (const auto& m : ctx.inbox()) {
            checksum += m.payload.size();
            checksum += m.payload[0];
            checksum ^= static_cast<std::uint64_t>(m.from) << (ctx.pulse() % 13);
        }
        ctx.broadcast(payload_);
    }

    void corrupt(common::Rng&) override { checksum = 0; }

    std::uint64_t checksum = 0;

private:
    common::Shared_payload payload_;
};

struct Storm_result {
    double pulses_per_sec = 0.0;
    double msgs_per_sec = 0.0;
    bool counts_exact = false;           ///< messages == pulses * n * (n-1)
    sim::Traffic_stats stats;            ///< totals (determinism comparison)
    std::vector<std::uint64_t> checksums; ///< per-processor (determinism comparison)
};

Storm_result run_storm(int n, int threads, int pulses)
{
    Engine engine{sim::complete_graph(n), common::Rng{7}, Engine_config{threads}};
    for (common::Processor_id id = 0; id < n; ++id)
        engine.install(std::make_unique<Storm_processor>(id));

    engine.run(3); // reach steady state: buffers at high-water capacity
    const sim::Traffic_stats before = engine.stats();
    const auto start = std::chrono::steady_clock::now();
    engine.run(pulses);
    const auto stop = std::chrono::steady_clock::now();

    Storm_result result;
    const double secs = std::chrono::duration<double>(stop - start).count();
    const std::int64_t messages = engine.stats().messages - before.messages;
    result.pulses_per_sec = pulses / secs;
    result.msgs_per_sec = static_cast<double>(messages) / secs;
    result.counts_exact =
        messages == static_cast<std::int64_t>(pulses) * n * (n - 1) &&
        engine.stats().payload_bytes - before.payload_bytes == messages * 64;
    result.stats = engine.stats();
    for (common::Processor_id id = 0; id < n; ++id)
        result.checksums.push_back(engine.processor_as<Storm_processor>(id).checksum);
    return result;
}

/// Two-action dominant-strategy game (action 1 dominates).
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

pipeline::Pipeline_authority make_authority(int n, std::uint64_t seed)
{
    authority::Game_spec spec;
    spec.name = "dominant";
    spec.game = std::make_shared<Dominant_game>(n);
    spec.equilibrium.assign(static_cast<std::size_t>(n), {0.0, 1.0});
    std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors;
    for (int g = 0; g < n; ++g) behaviors.push_back(std::make_unique<authority::Honest_behavior>());
    // Parallel phase-king keeps payloads polynomial, which is what makes the
    // 10^3-replica rows feasible at all (EIG's level-1 relays are O(n) per
    // message and O(n^3) bytes per pulse at this scale).
    return pipeline::Pipeline_authority{
        std::move(spec),
        /*f=*/1,
        /*k=*/1,
        std::move(behaviors),
        /*byzantine=*/{},
        [] { return std::make_unique<authority::Fine_scheme>(1.0, 1e9); },
        common::Rng{seed},
        /*make_byzantine=*/{},
        bft::ic_parallel_phase_king()};
}

struct Authority_result {
    double pulses_per_sec = 0.0;
    double msgs_per_sec = 0.0;
    common::Pulse pulses_per_play = 0;
    std::vector<authority::Play_record> plays;
    std::vector<authority::Standing> standings;
    sim::Traffic_stats stats;
};

Authority_result run_authority(int n, int threads, int plays)
{
    pipeline::Pipeline_authority authority = make_authority(n, /*seed=*/11);
    authority.engine().set_threads(threads);
    authority.run_pulses(1); // first pulse allocates; measure steady state
    const sim::Traffic_stats before = authority.traffic();
    const common::Pulse budget = authority.pulses_for_plays(plays);
    const auto start = std::chrono::steady_clock::now();
    authority.run_pulses(budget);
    const auto stop = std::chrono::steady_clock::now();

    Authority_result result;
    const double secs = std::chrono::duration<double>(stop - start).count();
    result.pulses_per_play = authority.pulses_for_plays(1);
    result.pulses_per_sec = static_cast<double>(budget) / secs;
    result.msgs_per_sec = static_cast<double>(authority.traffic().messages - before.messages) / secs;
    result.plays = authority.agreed_plays();
    result.standings = authority.agreed_standings();
    result.stats = authority.traffic();
    return result;
}

} // namespace

int main(int argc, char** argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    }
    const std::string json_path = ga::bench::json_path(argc, argv);
    const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
    bool ok = true;

    std::cout << "=== E14: zero-copy parallel pulse engine scaling ===\n\n"
              << "hardware threads = " << hardware << (smoke ? " (smoke mode)" : "") << "\n\n";

    // ---- Broadcast storm.
    const std::vector<int> sizes = smoke ? std::vector<int>{16, 64}
                                         : std::vector<int>{64, 256, 1024};
    const std::vector<int> thread_counts = smoke ? std::vector<int>{1, 2, 4}
                                                 : std::vector<int>{1, 2, 4, 8};
    std::cout << "-- broadcast storm: K_n, 64 B broadcast per processor per pulse --\n";
    common::Table storm_table{{"n", "threads", "pulses", "pulses/sec", "Mmsgs/sec", "speedup"}};
    double storm_speedup_1024_t4 = 0.0;
    for (const int n : sizes) {
        const int pulses =
            smoke ? 50 : std::clamp(50'000'000 / (n * n), 30, 3000);
        double baseline = 0.0;
        for (const int threads : thread_counts) {
            const Storm_result r = run_storm(n, threads, pulses);
            if (threads == 1) baseline = r.pulses_per_sec;
            const double speedup = r.pulses_per_sec / baseline;
            if (n == 1024 && threads == 4) storm_speedup_1024_t4 = speedup;
            if (!r.counts_exact) {
                std::cout << "FAIL: storm message/byte counts drifted at n = " << n << "\n";
                ok = false;
            }
            storm_table.add_row({std::to_string(n), std::to_string(threads),
                                 std::to_string(pulses), common::fixed(r.pulses_per_sec, 1),
                                 common::fixed(r.msgs_per_sec / 1e6, 1),
                                 common::fixed(speedup, 2)});
        }
    }
    storm_table.print(std::cout);

    // ---- Determinism: stats and every processor's checksum, 1 vs N threads.
    const int det_n = smoke ? 24 : 48;
    const Storm_result det_single = run_storm(det_n, 1, 40);
    for (const int threads : {2, 4}) {
        const Storm_result det_pooled = run_storm(det_n, threads, 40);
        const bool identical = det_single.stats == det_pooled.stats &&
                               det_single.checksums == det_pooled.checksums;
        std::cout << "storm determinism (1 vs " << threads << " threads, n = " << det_n
                  << "): " << (identical ? "bit-identical" : "DIVERGED") << "\n";
        if (!identical) ok = false;
    }

    // ---- Full authority play over the same engine. Rows stop at n = 256:
    // a full-information IC substrate carries O(n^2) state per replica, so a
    // single 10^3-replica *group* is O(n^3) aggregate memory regardless of
    // engine speed — populations that size are exactly what the shard fabric
    // (E12) splits across many smaller groups. The n = 1024 engine rows are
    // the storm above, where the engine itself is the subject.
    const std::vector<int> authority_sizes = smoke ? std::vector<int>{16}
                                                   : std::vector<int>{64, 256};
    std::cout << "\n-- authority play: Pipeline_authority (k = 1), f = 1, parallel phase-king --\n";
    common::Table play_table{{"n", "threads", "pulses/play", "pulses/sec", "Mmsgs/sec", "speedup"}};
    for (const int n : authority_sizes) {
        double baseline = 0.0;
        for (const int threads : thread_counts) {
            const Authority_result r = run_authority(n, threads, /*plays=*/1);
            if (threads == 1) baseline = r.pulses_per_sec;
            play_table.add_row({std::to_string(n), std::to_string(threads),
                                std::to_string(r.pulses_per_play),
                                common::fixed(r.pulses_per_sec, 1),
                                common::fixed(r.msgs_per_sec / 1e6, 1),
                                common::fixed(r.pulses_per_sec / baseline, 2)});
        }
    }
    play_table.print(std::cout);

    // ---- Authority determinism: verdicts, standings, and traffic.
    const int det_an = smoke ? 16 : 40;
    const Authority_result auth_single = run_authority(det_an, 1, 2);
    const Authority_result auth_pooled = run_authority(det_an, 4, 2);
    const bool auth_identical = auth_single.plays == auth_pooled.plays &&
                                auth_single.standings == auth_pooled.standings &&
                                auth_single.stats == auth_pooled.stats;
    std::cout << "authority determinism (1 vs 4 threads, n = " << det_an
              << "): " << (auth_identical ? "bit-identical" : "DIVERGED") << "\n";
    if (!auth_identical) ok = false;

    // ---- Scaling floor.
    if (smoke) {
        std::cout << "\nScaling floor (n = 1024 storm, 4 threads >= 3x): skipped (--smoke)\n";
    } else if (hardware < 4) {
        std::cout << "\nScaling floor (n = 1024 storm, 4 threads >= 3x): skipped "
                  << "(hardware has " << hardware << " core(s))\n";
    } else {
        const bool floor_ok = storm_speedup_1024_t4 >= 3.0;
        std::cout << "\nScaling floor (n = 1024 storm, 4 threads >= 3x): observed "
                  << common::fixed(storm_speedup_1024_t4, 2) << "x — "
                  << (floor_ok ? "PASS" : "FAIL") << "\n";
        if (!floor_ok) ok = false;
    }

    ga::bench::Json_report report{"bench_engine_scaling"};
    report.field("experiment", "E14");
    report.field("smoke", smoke);
    report.field("hardware_threads", static_cast<int>(hardware));
    report.field("storm_speedup_n1024_t4", storm_speedup_1024_t4);
    report.field("ok", ok);
    if (!report.write(json_path)) return 1;
    if (!ga::bench::dump_fabric_trace(ga::bench::trace_path(argc, argv))) return 1;

    if (!ok) return 1;
    std::cout << "OK\n";
    return 0;
}
