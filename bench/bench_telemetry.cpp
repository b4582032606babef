// Experiment E17 — the telemetry layer's contracts, self-enforced.
//
// A sharded fabric under a lossy partial-synchrony net (delta = 2, 1% drop)
// runs the same workload several ways: no sinks, sinks attached, full
// forensics (sinks + causal tracer + watchdog), and at other executor
// widths. The layer promises:
//
//   - observer purity: the instrumented runs produce exactly the verdicts,
//     standings, traffic, and social cost of the sink-off run (telemetry
//     values are pulse-time and replicated protocol state, never wall
//     clock), and both the telemetry JSON and the Chrome trace JSON are
//     byte-identical across executor threads {1, 2, 4} and repeated runs;
//   - near-zero cost: even with tracing and the watchdog on, steady-state
//     plays/sec loses at most 5% (full mode only; --smoke runs are too
//     short to time);
//   - a quiet watchdog: an honest population over a clean net raises zero
//     alerts, while this lossy two-cheater cell raises at least one — and
//     the alert replays bit-for-bit from (seed, config).
//
// The process exits non-zero when any floor fails, so CI runs it as
// `bench_telemetry --smoke --json artifact.json --trace trace.json` and
// archives both artifacts (the trace is Perfetto-loadable).
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
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

/// How much observability the fabric carries.
enum class Mode { k_null, k_sinks, k_forensics };

Fabric make_fabric(int agents, int shards, int threads, std::uint64_t seed, Mode mode,
                   bool clean_net, bool cheaters)
{
    Fabric_config config;
    config.f = 1;
    config.spec_factory = [](int, const std::vector<common::Agent_id>& members) {
        authority::Game_spec spec;
        spec.name = "dominant";
        spec.game = std::make_shared<Dominant_game>(static_cast<int>(members.size()));
        spec.equilibrium.assign(members.size(), {0.0, 1.0});
        return spec;
    };
    config.punishment = [] { return std::make_unique<authority::Fine_scheme>(1.0, 1e9); };
    config.seed = seed;
    config.threads = threads;
    config.telemetry = mode != Mode::k_null;
    if (mode == Mode::k_forensics) {
        config.trace = true;
        config.watchdog = telemetry::Watchdog_config{};
    }
    if (!clean_net) {
        config.net.delta = 2;
        config.net.jitter = 0.25;
        config.net.drop = 0.01;
        config.net.seed = 5;
    }
    std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors;
    for (common::Agent_id g = 0; g < agents; ++g) {
        if (cheaters && (g == 2 || g == agents - 3)) {
            behaviors.push_back(std::make_unique<authority::Fixed_action_behavior>(0));
        } else {
            behaviors.push_back(std::make_unique<authority::Honest_behavior>());
        }
    }
    return Fabric{Shard_map{agents, shards}, std::move(behaviors), std::move(config)};
}

/// Everything a run can observe, with the telemetry report and trace
/// rendered to their canonical JSON bytes (the determinism units the layer
/// promises).
struct Observed {
    std::int64_t plays = 0;
    std::int64_t fouls = 0;
    std::int64_t messages = 0;
    double social_cost = 0.0;
    std::vector<std::vector<Agent_play>> histories;
    std::string telemetry_json;
    std::string trace_json;
    std::int64_t alerts = 0;
    std::int64_t provenance = 0;
};

Observed observe(int agents, int shards, int threads, int plays, std::uint64_t seed, Mode mode)
{
    Fabric fabric =
        make_fabric(agents, shards, threads, seed, mode, /*clean_net=*/false, /*cheaters=*/true);
    fabric.run_pulses(1);
    fabric.run_plays(plays);
    const metrics::Fabric_metrics report = fabric.report();
    Observed observed;
    observed.plays = report.total_plays;
    observed.fouls = report.total_fouls;
    observed.messages = report.total_traffic.messages;
    observed.social_cost = report.total_social_cost;
    for (common::Agent_id g = 0; g < agents; ++g) {
        observed.histories.push_back(fabric.agent_history(g));
    }
    const telemetry::Report tel = fabric.telemetry_report();
    observed.telemetry_json = telemetry::to_json(tel);
    observed.alerts = static_cast<std::int64_t>(tel.alerts.size());
    observed.provenance = static_cast<std::int64_t>(tel.provenance.size());
    if (mode == Mode::k_forensics) {
        observed.trace_json = telemetry::to_chrome_trace(fabric.trace_report(), &tel);
    }
    return observed;
}

/// Steady-state plays/sec at an observability mode (best of `repeats`).
double measure_rate(int agents, int shards, int threads, int plays, int repeats, Mode mode)
{
    double best = 0.0;
    for (int pass = 0; pass < repeats; ++pass) {
        Fabric fabric = make_fabric(agents, shards, threads, /*seed=*/2026, mode,
                                    /*clean_net=*/false, /*cheaters=*/true);
        fabric.run_pulses(1);
        fabric.run_plays(1); // warm-up: first play allocates
        const std::int64_t before = fabric.report().total_plays;
        const auto start = std::chrono::steady_clock::now();
        fabric.run_plays(plays);
        const auto stop = std::chrono::steady_clock::now();
        const auto done = static_cast<double>(fabric.report().total_plays - before);
        best = std::max(best, done / std::chrono::duration<double>(stop - start).count());
    }
    return best;
}

} // namespace

int main(int argc, char** argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    }
    const std::string json_path = ga::bench::json_path(argc, argv);
    const std::string trace_out = ga::bench::trace_path(argc, argv);

    const int agents = smoke ? 12 : 24;
    const int shards = 3;
    const int plays = smoke ? 4 : 16;
    const int repeats = smoke ? 1 : 3;
    const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
    const int threads = std::min<int>(4, static_cast<int>(hardware));

    std::cout << "=== E17: telemetry layer — observer purity, overhead, forensics ===\n\n"
              << agents << " agents over " << shards << " shards (f = 1, " << threads
              << " executor threads), lossy net delta = 2, drop = 1%;\n"
              << "two fixed-action cheaters keep the foul/expulsion paths hot.\n\n";

    // ---- Overhead: plays/sec at each observability mode, same workload.
    const double rate_off = measure_rate(agents, shards, threads, plays, repeats, Mode::k_null);
    const double rate_on = measure_rate(agents, shards, threads, plays, repeats, Mode::k_sinks);
    const double rate_traced =
        measure_rate(agents, shards, threads, plays, repeats, Mode::k_forensics);
    const double overhead = rate_off > 0.0 ? 1.0 - rate_on / rate_off : 0.0;
    const double overhead_traced = rate_off > 0.0 ? 1.0 - rate_traced / rate_off : 0.0;
    common::Table table{{"mode", "plays", "plays/sec"}};
    table.add_row({"null", std::to_string(plays), common::fixed(rate_off, 1)});
    table.add_row({"sinks", std::to_string(plays), common::fixed(rate_on, 1)});
    table.add_row({"sinks+tracer+watchdog", std::to_string(plays), common::fixed(rate_traced, 1)});
    table.print(std::cout);
    const bool overhead_ok = smoke || (overhead <= 0.05 && overhead_traced <= 0.05);
    std::cout << "\nOverhead vs null (sinks " << common::fixed(overhead * 100.0, 1)
              << "%, forensics " << common::fixed(overhead_traced * 100.0, 1)
              << "%) — floor <= 5%: "
              << (smoke ? "skipped (--smoke)" : (overhead_ok ? "PASS" : "FAIL")) << "\n";

    // ---- Observer purity: verdicts identical at every observability mode.
    const int det_plays = smoke ? 3 : 6;
    const Observed off = observe(agents, shards, 1, det_plays, /*seed=*/7, Mode::k_null);
    const Observed on = observe(agents, shards, 1, det_plays, /*seed=*/7, Mode::k_sinks);
    const Observed forensic = observe(agents, shards, 1, det_plays, /*seed=*/7, Mode::k_forensics);
    const auto same_run = [&](const Observed& x) {
        return off.plays == x.plays && off.fouls == x.fouls && off.messages == x.messages &&
               off.social_cost == x.social_cost && off.histories == x.histories;
    };
    const bool pure = same_run(on) && same_run(forensic);
    std::cout << "Observer purity (sinks / forensics vs null, seed 7): verdicts + stats "
              << (pure ? "identical" : "DIVERGED") << "\n";
    // The null-sink run must export nothing: no shard snapshots, no metrics.
    const bool off_empty = off.telemetry_json.find("\"shards\":[]") != std::string::npos &&
                           off.telemetry_json.find("plays.completed") == std::string::npos;

    // ---- Determinism: telemetry + trace JSON byte-identical across widths.
    bool deterministic = true;
    for (const int pool : {1, 2, 4}) {
        const Observed run = observe(agents, shards, pool, det_plays, /*seed=*/7,
                                     Mode::k_forensics);
        deterministic = deterministic && run.telemetry_json == forensic.telemetry_json &&
                        run.trace_json == forensic.trace_json && run.histories == on.histories;
    }
    std::cout << "Telemetry + trace JSON (threads 1 vs 2 vs 4, repeated runs, seed 7): "
              << (deterministic ? "byte-identical" : "DIVERGED") << " ("
              << forensic.telemetry_json.size() << " + " << forensic.trace_json.size()
              << " bytes)\n";

    // ---- Watchdog: quiet on an honest population over a clean net, loud in
    // this lossy two-cheater cell, and replayable from (seed, config).
    Fabric honest = make_fabric(agents, shards, 1, /*seed=*/7, Mode::k_forensics,
                                /*clean_net=*/true, /*cheaters=*/false);
    honest.run_pulses(1);
    honest.run_plays(det_plays);
    const bool quiet = honest.watchdog_alerts().empty();
    const bool loud = forensic.alerts >= 1 && forensic.provenance >= 1;
    std::cout << "Watchdog: honest x clean cell " << honest.watchdog_alerts().size()
              << " alerts (want 0), lossy cheater cell " << forensic.alerts
              << " alerts / " << forensic.provenance << " evidence chains (want >= 1 each)\n\n";

    ga::bench::Json_report report{"bench_telemetry"};
    report.field("experiment", "E17");
    report.field("smoke", smoke);
    report.field("agents", agents);
    report.field("shards", shards);
    report.field("threads", threads);
    report.field("plays_per_sec_null_sink", rate_off);
    report.field("plays_per_sec_enabled_sink", rate_on);
    report.field("plays_per_sec_forensics", rate_traced);
    report.field("overhead", overhead);
    report.field("overhead_forensics", overhead_traced);
    report.field("overhead_ok", overhead_ok);
    report.field("pure", pure);
    report.field("deterministic", deterministic);
    report.field("watchdog_quiet_honest_clean", quiet);
    report.field("watchdog_alerts_lossy_cell", forensic.alerts);
    report.field("provenance_chains_lossy_cell", forensic.provenance);
    report.raw("telemetry", forensic.telemetry_json);
    if (!report.write(json_path)) return 1;
    if (!trace_out.empty()) {
        std::ofstream out{trace_out};
        if (!out) {
            std::cerr << "cannot open --trace path: " << trace_out << "\n";
            return 1;
        }
        out << forensic.trace_json << "\n";
    }

    if (!overhead_ok || !pure || !deterministic || !off_empty || !quiet || !loud) return 1;
    std::cout << "OK\n";
    return 0;
}
