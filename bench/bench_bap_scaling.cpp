// Experiment E7 — §3.3 protocol costs: what one authority-supervised play
// costs on the wire, and how the two Byzantine agreement protocols scale.
//
// The paper presents its design "to demonstrate the proof of existence,
// rather than the most efficient implementation" and points at better
// scalability as further work. This bench quantifies that: EIG's exponential
// message payloads against phase-king's polynomial ones, plus the per-play
// pulse/message/byte budget of the full distributed play pipeline.
#include <benchmark/benchmark.h>

#include <iostream>

#include "pipeline/pipeline_authority.h"
#include "bench_json.h"
#include "bench_trace.h"
#include "bft/driver.h"
#include "bft/eig.h"
#include "bft/phase_king.h"
#include "bft/turpin_coan.h"
#include "common/table.h"

namespace {

using namespace ga;
using namespace ga::bft;

Drive_result drive_eig(int n, int f)
{
    std::vector<Participant> ps(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        ps[static_cast<std::size_t>(i)].session =
            std::make_unique<Eig_session>(n, f, i, common::bytes_of("v"));
    }
    return drive(ps);
}

Drive_result drive_tc_phase_king(int n, int f)
{
    const Binary_session_factory factory = [](int nn, int ff, common::Processor_id self,
                                              int input) -> std::unique_ptr<Session> {
        return std::make_unique<Phase_king_session>(nn, ff, self, input);
    };
    std::vector<Participant> ps(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        ps[static_cast<std::size_t>(i)].session =
            std::make_unique<Turpin_coan_session>(n, f, i, common::bytes_of("v"), factory);
    }
    return drive(ps);
}

/// Four-agent dominant-action game for the play-cost measurement.
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

void print_tables()
{
    std::cout << "=== E7: agreement-protocol scaling and the cost of one play ===\n\n";

    std::cout << "EIG (n > 3f, f+1 rounds, exponential payloads):\n";
    common::Table eig{{"n", "f", "rounds", "messages", "payload bytes"}};
    for (const auto& [n, f] : std::vector<std::pair<int, int>>{{4, 1}, {7, 2}, {10, 3}, {13, 4}}) {
        const Drive_result r = drive_eig(n, f);
        eig.add_row({std::to_string(n), std::to_string(f), std::to_string(r.rounds),
                     std::to_string(r.messages), std::to_string(r.payload_bytes)});
    }
    eig.print(std::cout);

    std::cout << "\nTurpin-Coan over phase-king (n > 4f, 2+2(f+1) rounds, O(1) payloads):\n";
    common::Table pk{{"n", "f", "rounds", "messages", "payload bytes"}};
    for (const auto& [n, f] : std::vector<std::pair<int, int>>{{5, 1}, {9, 2}, {13, 3}, {17, 4}}) {
        const Drive_result r = drive_tc_phase_king(n, f);
        pk.add_row({std::to_string(n), std::to_string(f), std::to_string(r.rounds),
                    std::to_string(r.messages), std::to_string(r.payload_bytes)});
    }
    pk.print(std::cout);

    std::cout << "\nOne fully-supervised distributed play (4 IC activations, §3.3),\n"
                 "EIG mode vs the polynomial parallel-IC mode:\n";
    common::Table play{{"IC mode", "n", "f", "pulses/play", "messages/play", "bytes/play"}};
    const auto measure_play = [&](const char* label, int n, int f,
                                  bft::Ic_factory factory) {
        authority::Game_spec spec;
        spec.name = "dominant";
        spec.game = std::make_shared<Dominant_game>(n);
        spec.equilibrium.assign(static_cast<std::size_t>(n), {0.0, 1.0});
        std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors;
        for (int i = 0; i < n; ++i)
            behaviors.push_back(std::make_unique<authority::Honest_behavior>());
        pipeline::Pipeline_authority da{
            spec, f, /*k=*/1, std::move(behaviors), {},
            [] { return std::make_unique<authority::Disconnect_scheme>(); }, common::Rng{5},
            {}, std::move(factory)};
        const int plays = 4;
        da.run_pulses(1 + plays * da.pulses_per_batch());
        const auto& stats = da.engine().stats();
        play.add_row({label, std::to_string(n), std::to_string(f),
                      std::to_string(da.pulses_per_batch()),
                      std::to_string(stats.messages / plays),
                      std::to_string(stats.payload_bytes / plays)});
    };
    measure_play("eig", 4, 1, bft::ic_eig());
    measure_play("eig", 7, 2, bft::ic_eig());
    measure_play("eig", 9, 2, bft::ic_eig());
    measure_play("parallel-ic", 5, 1, bft::ic_parallel_phase_king());
    measure_play("parallel-ic", 9, 2, bft::ic_parallel_phase_king());
    play.print(std::cout);

    std::cout << "\nShape check: EIG bytes blow up combinatorially in f while phase-king grows\n"
                 "polynomially — the paper's 'existence vs scalability' trade-off. One play\n"
                 "costs 4 agreement activations (outcome, commit, reveal, foul set).\n\n";
}

void BM_eig_activation(benchmark::State& state)
{
    const int n = static_cast<int>(state.range(0));
    const int f = (n - 1) / 3;
    for (auto _ : state) {
        benchmark::DoNotOptimize(drive_eig(n, f));
    }
}
BENCHMARK(BM_eig_activation)->Arg(4)->Arg(7)->Arg(10)->Arg(13);

void BM_phase_king_activation(benchmark::State& state)
{
    const int n = static_cast<int>(state.range(0));
    const int f = (n - 1) / 4;
    for (auto _ : state) {
        benchmark::DoNotOptimize(drive_tc_phase_king(n, f));
    }
}
BENCHMARK(BM_phase_king_activation)->Arg(5)->Arg(9)->Arg(13)->Arg(17);

/// End-to-end E7: one fully supervised steady-state play (all four IC
/// activations plus commit/reveal/audit), parametrized over the IC substrate
/// so the "cheaper IC" trade-off is measured through the whole authority
/// tier, not just on standalone agreement sessions.
void BM_authority_play(benchmark::State& state)
{
    const bool use_parallel_ic = state.range(0) == 1;
    const int n = static_cast<int>(state.range(1));
    const int f = static_cast<int>(state.range(2));
    std::int64_t plays_done = 0;
    for (auto _ : state) {
        authority::Game_spec spec;
        spec.name = "dominant";
        spec.game = std::make_shared<Dominant_game>(n);
        spec.equilibrium.assign(static_cast<std::size_t>(n), {0.0, 1.0});
        std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors;
        for (int i = 0; i < n; ++i)
            behaviors.push_back(std::make_unique<authority::Honest_behavior>());
        pipeline::Pipeline_authority da{
            spec, f, /*k=*/1, std::move(behaviors), {},
            [] { return std::make_unique<authority::Disconnect_scheme>(); }, common::Rng{7},
            {},   use_parallel_ic ? bft::ic_parallel_phase_king() : bft::ic_eig()};
        da.run_pulses(1 + da.pulses_per_batch());
        plays_done += static_cast<std::int64_t>(da.agreed_plays().size());
        benchmark::DoNotOptimize(da.traffic());
    }
    state.counters["plays"] = static_cast<double>(plays_done);
    state.SetLabel(use_parallel_ic ? "parallel-ic" : "eig");
}
BENCHMARK(BM_authority_play)
    ->ArgNames({"ic", "n", "f"})
    ->Args({0, 5, 1})   // eig
    ->Args({1, 5, 1})   // parallel-ic, same system size
    ->Args({0, 9, 2})
    ->Args({1, 9, 2});

} // namespace

int main(int argc, char** argv)
{
    print_tables();
    std::vector<std::string> args = ga::bench::gbench_args(argc, argv);
    std::vector<char*> argv2;
    argv2.reserve(args.size());
    for (std::string& a : args) argv2.push_back(a.data());
    int argc2 = static_cast<int>(argv2.size());
    benchmark::Initialize(&argc2, argv2.data());
    benchmark::RunSpecifiedBenchmarks();
    if (!ga::bench::dump_fabric_trace(ga::bench::trace_path(argc, argv))) return 1;
    return 0;
}
