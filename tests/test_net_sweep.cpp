// Scenario sweep over the adversarial network layer: the distributed
// authority tier is exercised across a matrix of {attacker mix} x {f} x {net
// model} cells, asserting in every cell that honest agents are never flagged,
// deterministic deviators are caught, replicas agree, and plays keep
// converging within the frame-stretched schedule bound. Separate determinism
// properties pin the whole matrix to bit-identical results across executor
// widths and repeated runs — including an elastic-fabric run under a lossy
// net.
#include <gtest/gtest.h>

#include "pipeline/pipeline_authority.h"
#include "shard/fabric.h"
#include "sim/malicious.h"
#include "sim/two_faced.h"

namespace {

using namespace ga;
using namespace ga::authority;
using common::Agent_id;
using common::Processor_id;
using common::Rng;
using bft::ic_eig;
using bft::ic_parallel_phase_king;

/// Two-action game with a dominant strategy (action 1): honest agents play 1,
/// so any 0 in an outcome marks a deviant.
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

Game_spec dominant_spec(int n)
{
    Game_spec spec;
    spec.name = "dominant";
    spec.game = std::make_shared<Dominant_game>(n);
    spec.equilibrium.assign(static_cast<std::size_t>(n), {0.0, 1.0});
    spec.audit_mode = Audit_mode::pure_best_response;
    return spec;
}

// ------------------------------------------------------------- net models
//
// Each cell is engineered so its assertions are deterministic (or leave
// residual failure odds far below the fixed-seed noise floor):
//   reorder    delta = 4, all messages jittered into [2, 4], shuffled inboxes
//              — nothing is ever lost, so frame retransmission makes
//              delivery certain;
//   lossy      delta = 4, prompt delivery, 5% independent loss — a section
//              survives a frame unless all 4 copies drop (p^4 ~ 6e-6);
//   partition  delta = 4, prompt delivery, repeated full outages shorter
//              than a frame — every frame retains in-time copies, so
//              delivery stays certain and the clocks never lose lockstep.

sim::Net_model clean_net() { return {}; }

sim::Net_model reorder_net(std::uint64_t seed)
{
    sim::Net_model net;
    net.delta = 4;
    net.jitter = 1.0;
    net.shuffle = true;
    net.seed = seed;
    return net;
}

sim::Net_model lossy_net(std::uint64_t seed)
{
    sim::Net_model net;
    net.delta = 4;
    net.jitter = 0.0;
    net.drop = 0.05;
    net.seed = seed;
    return net;
}

sim::Net_model partition_net(std::uint64_t seed)
{
    sim::Net_model net;
    net.delta = 4;
    net.jitter = 0.0;
    net.seed = seed;
    for (common::Pulse begin : {30, 75, 120, 160, 200})
        net.windows.push_back({begin, begin + 2, {}});
    return net;
}

struct Net_case {
    const char* name;
    sim::Net_model net;
};

std::vector<Net_case> net_matrix(std::uint64_t seed)
{
    return {{"clean", clean_net()},
            {"reorder", reorder_net(seed)},
            {"lossy", lossy_net(seed)},
            {"partition", partition_net(seed)}};
}

// ----------------------------------------------------------- attacker mixes

enum class Mix {
    honest,    ///< every agent honest — nobody may ever be flagged
    deviant,   ///< last agent runs the protocol but plays the dominated action
    babbler,   ///< last slot is a Byzantine Random_babbler
    two_faced, ///< last slot equivocates between an honest and a deviant face
};

/// The IC substrate a cell runs on. Each cell uses the smallest group the
/// substrate tolerates: n = 3f + 1 for EIG, n = 4f + 1 for parallel IC.
enum class Substrate { eig, parallel };

struct Cell_result {
    std::vector<Play_record> plays;
    std::vector<Standing> standings;
    bool replicas_agree = false; ///< every honest replica holds `plays`

    friend bool operator==(const Cell_result&, const Cell_result&) = default;
};

Cell_result run_cell(Mix mix, int f, const sim::Net_model& net, int threads = 1,
                     Substrate substrate = Substrate::eig)
{
    const int n = substrate == Substrate::eig ? 3 * f + 1 : 4 * f + 1;
    const Processor_id last = n - 1;
    const bft::Ic_factory ic = substrate == Substrate::eig ? ic_eig() : ic_parallel_phase_king();

    std::vector<std::unique_ptr<Agent_behavior>> behaviors;
    for (int i = 0; i < n - 1; ++i) behaviors.push_back(std::make_unique<Honest_behavior>());
    std::set<Processor_id> byzantine;
    Byzantine_factory make_byzantine;
    switch (mix) {
    case Mix::honest:
        behaviors.push_back(std::make_unique<Honest_behavior>());
        break;
    case Mix::deviant:
        behaviors.push_back(std::make_unique<Fixed_action_behavior>(0));
        break;
    case Mix::babbler:
        behaviors.push_back(nullptr);
        byzantine.insert(last);
        break;
    case Mix::two_faced: {
        behaviors.push_back(nullptr);
        byzantine.insert(last);
        const Game_spec spec = dominant_spec(n);
        const int delta = net.delta;
        make_byzantine = [spec, n, f, ic, delta](Processor_id id, Rng rng) {
            const auto punish = [] { return std::make_unique<Fine_scheme>(1.0, 1e9); };
            return std::make_unique<sim::Two_faced_processor>(
                std::make_unique<pipeline::Pipeline_processor>(
                    id, n, f, spec, /*k=*/1, std::make_unique<Honest_behavior>(), punish(),
                    rng.split(1), ic, std::nullopt, delta),
                std::make_unique<pipeline::Pipeline_processor>(
                    id, n, f, spec, /*k=*/1, std::make_unique<Fixed_action_behavior>(0), punish(),
                    rng.split(2), ic, std::nullopt, delta),
                /*split_at=*/n / 2);
        };
        break;
    }
    }

    pipeline::Pipeline_authority authority{dominant_spec(n),
                                           f,
                                           /*k=*/1,
                                           std::move(behaviors),
                                           byzantine,
                                           [] { return std::make_unique<Fine_scheme>(1.0, 1e9); },
                                           Rng{42},
                                           std::move(make_byzantine),
                                           ic,
                                           /*tampers=*/{},
                                           net};
    authority.engine().set_threads(threads);
    authority.run_pulses(1 + 4 * authority.pulses_per_batch());

    Cell_result result;
    result.plays = authority.agreed_plays();
    result.standings = authority.agreed_standings();
    result.replicas_agree = true;
    for (const Processor_id id : authority.honest_slots())
        result.replicas_agree &= authority.processor(id).plays() == result.plays;
    return result;
}

/// The convergence + soundness + completeness contract of one cell.
void check_cell(const Cell_result& result, Mix mix, const std::string& label)
{
    const auto n = static_cast<Agent_id>(result.standings.size());
    const Agent_id last = n - 1;

    // Convergence: the frame-stretched schedule completed plays (4 play
    // periods were stepped; boot and outage stalls cost at most two).
    ASSERT_GE(result.plays.size(), 2u) << label;

    // Soundness: an honest agent is never flagged, in any cell.
    for (const Play_record& play : result.plays) {
        for (const Agent_id j : play.punished) {
            EXPECT_EQ(j, last) << label << ": honest agent " << j << " flagged";
        }
    }
    for (Agent_id j = 0; j + 1 < n; ++j) {
        EXPECT_EQ(result.standings[static_cast<std::size_t>(j)].fouls, 0)
            << label << ": honest agent " << j;
    }

    // Completeness: deterministic deviators are caught.
    if (mix == Mix::deviant || mix == Mix::babbler) {
        bool caught = false;
        for (const Play_record& play : result.plays)
            for (const Agent_id j : play.punished) caught |= j == last;
        EXPECT_TRUE(caught) << label << ": deviator escaped";
    }
    // (A two-faced equivocator may resolve to its honest face — agreement
    // and honest-soundness are the guarantees there.)
}

TEST(NetSweep, EveryCellConvergesCatchesDeviatorsAndSparesHonest)
{
    for (const int f : {1, 2}) {
        for (const auto& [net_name, net] : net_matrix(/*seed=*/7)) {
            for (const Mix mix :
                 {Mix::honest, Mix::deviant, Mix::babbler, Mix::two_faced}) {
                const std::string label = std::string{net_name} + "/f=" + std::to_string(f) +
                                          "/mix=" + std::to_string(static_cast<int>(mix));
                check_cell(run_cell(mix, f, net), mix, label);
            }
        }
    }
}

TEST(NetSweep, ReplicasAgreeInEveryCell)
{
    // Replica agreement under the harshest cell of the matrix: every honest
    // replica holds identical plays and standings.
    const int f = 1;
    const int n = 3 * f + 1;
    for (const auto& [net_name, net] : net_matrix(/*seed=*/11)) {
        std::vector<std::unique_ptr<Agent_behavior>> behaviors;
        for (int i = 0; i < n - 1; ++i) behaviors.push_back(std::make_unique<Honest_behavior>());
        behaviors.push_back(nullptr);
        pipeline::Pipeline_authority authority{
            dominant_spec(n),
            f,
            /*k=*/1,
            std::move(behaviors),
            {n - 1},
            [] { return std::make_unique<Fine_scheme>(1.0, 1e9); },
            Rng{9},
            {},
            ic_eig(),
            /*tampers=*/{},
            net};
        authority.run_pulses(1 + 4 * authority.pulses_per_batch());
        const auto slots = authority.honest_slots();
        const auto& reference = authority.processor(slots.front()).plays();
        ASSERT_GE(reference.size(), 2u) << net_name;
        for (const Processor_id id : slots) {
            EXPECT_EQ(authority.processor(id).plays(), reference)
                << net_name << " replica " << id;
        }
    }
}

// ------------------------------------------ parallel IC under delta > 1
//
// The parallel-IC substrate (Turpin-Coan over phase-king) at n = 9, f = 2 on
// the two delta = 4 nets that stress the schedule processor's cross-pulse
// section buffer: reordered copies arriving up to three pulses late, and
// retransmitted copies under loss. That buffer is the one place a borrowed
// section view outlives the pulse that received it (its message's payload
// handle keeps it valid), and parallel IC splits every such section again
// into per-instance views. Each cell spares honest agents, catches the
// deviator, keeps replicas in agreement, and is bit-identical at executor
// widths 1 and 4.

void check_parallel_cells(const sim::Net_model& net, const std::string& net_name)
{
    for (const Mix mix : {Mix::deviant, Mix::babbler}) {
        const std::string label =
            net_name + "/parallel/f=2/mix=" + std::to_string(static_cast<int>(mix));
        const Cell_result result = run_cell(mix, /*f=*/2, net, /*threads=*/1, Substrate::parallel);
        ASSERT_EQ(result.standings.size(), 9u) << label;
        check_cell(result, mix, label);
        EXPECT_TRUE(result.replicas_agree) << label;
        EXPECT_EQ(run_cell(mix, 2, net, /*threads=*/4, Substrate::parallel), result)
            << label << " @ 4 threads";
    }
}

TEST(NetSweep, ParallelIcCellsUnderReorderNet)
{
    check_parallel_cells(reorder_net(/*seed=*/7), "reorder");
}

TEST(NetSweep, ParallelIcCellsUnderLossyNet)
{
    check_parallel_cells(lossy_net(/*seed=*/7), "lossy");
}

// ------------------------------------------------- determinism properties

TEST(NetSweep, CellsAreBitIdenticalAcrossThreadCounts)
{
    // The PR 4/5 determinism contract extended to timed delivery: the same
    // (seed, game, config, net model) yields identical traces and verdicts
    // on 1, 2, and 4 engine threads.
    for (const auto& [net_name, net] : net_matrix(/*seed=*/23)) {
        const Cell_result reference = run_cell(Mix::babbler, /*f=*/1, net, /*threads=*/1);
        for (const int threads : {2, 4}) {
            EXPECT_EQ(run_cell(Mix::babbler, 1, net, threads), reference)
                << net_name << " @ " << threads << " threads";
        }
    }
}

TEST(NetSweep, CellsAreBitIdenticalAcrossRepeatedRuns)
{
    for (const auto& [net_name, net] : net_matrix(/*seed=*/31)) {
        const Cell_result first = run_cell(Mix::two_faced, /*f=*/1, net);
        EXPECT_EQ(run_cell(Mix::two_faced, 1, net), first) << net_name;
    }
}

TEST(NetSweep, ElasticFabricUnderLossyNetIsDeterministicAcrossWidths)
{
    // A 15-agent, 3-shard elastic fabric with every engine behind the lossy
    // net: run plays, migrate an agent at the window edge, run more plays —
    // the whole run must be bit-identical across executor widths.
    const auto observe = [](int threads) {
        shard::Fabric_config config;
        config.f = 1;
        config.spec_factory = [](int, const std::vector<Agent_id>& members) {
            return dominant_spec(static_cast<int>(members.size()));
        };
        config.punishment = [] { return std::make_unique<Fine_scheme>(1.0, 1e9); };
        config.seed = 5;
        config.threads = threads;
        config.net = lossy_net(/*seed=*/17);
        config.behavior_factory = [](Agent_id g) -> std::unique_ptr<Agent_behavior> {
            if (g == 2) return std::make_unique<Fixed_action_behavior>(0);
            return std::make_unique<Honest_behavior>();
        };
        shard::Fabric fabric{shard::Shard_map{15, 3}, std::move(config)};
        fabric.run_pulses(1);
        fabric.run_plays(2);
        shard::Rebalance_plan plan;
        plan.migrations.push_back(shard::Migration{2, 0, 1});
        fabric.apply_rebalance(plan);
        fabric.run_plays(2);
        std::vector<std::vector<shard::Agent_play>> histories;
        for (Agent_id g = 0; g < fabric.n_agents(); ++g)
            histories.push_back(fabric.agent_history(g));
        return std::pair{fabric.report(), histories};
    };

    const auto [report, histories] = observe(1);
    EXPECT_GE(report.total_plays, 6);
    bool cheater_caught = false;
    for (const auto& play : histories[2]) cheater_caught |= play.punished;
    EXPECT_TRUE(cheater_caught);
    for (const int threads : {2, 4}) {
        const auto [pooled_report, pooled_histories] = observe(threads);
        EXPECT_TRUE(pooled_report == report) << threads << " threads";
        EXPECT_EQ(pooled_histories, histories) << threads << " threads";
    }
}

TEST(NetSweep, ForensicCellsKeepTheWatchdogHonestAndProvenanceComplete)
{
    // The observability acceptance sweep: with full forensics on (sinks +
    // tracer + watchdog) across the net matrix, the honest x clean cell
    // raises zero alerts, at least one adversarial cell raises an alert, and
    // every agent any cell expelled can answer "why" through provenance().
    struct Forensic_cell {
        std::vector<telemetry::Alert> alerts;
        std::vector<bool> disconnected;                       ///< by global id
        std::vector<std::vector<telemetry::Evidence>> chains; ///< by global id
    };
    const auto run_cell = [](const sim::Net_model& net, bool cheater) {
        shard::Fabric_config config;
        config.f = 1;
        config.spec_factory = [](int, const std::vector<Agent_id>& members) {
            return dominant_spec(static_cast<int>(members.size()));
        };
        config.punishment = [] { return std::make_unique<Disconnect_scheme>(); };
        config.seed = 13;
        config.threads = 2;
        config.net = net;
        config.behavior_factory = [cheater](Agent_id g) -> std::unique_ptr<Agent_behavior> {
            if (cheater && g == 2) return std::make_unique<Fixed_action_behavior>(0);
            return std::make_unique<Honest_behavior>();
        };
        config.trace = true;
        // Expulsion caps the cheater at one foul, so a single-foul interval
        // must already count as a spike in this sweep.
        config.watchdog = telemetry::Watchdog_config{};
        config.watchdog->foul_spike_min = 1;
        shard::Fabric fabric{shard::Shard_map{10, 2}, std::move(config)};
        fabric.run_pulses(1);
        fabric.run_plays(4);
        Forensic_cell cell;
        cell.alerts = fabric.watchdog_alerts();
        for (Agent_id g = 0; g < fabric.n_agents(); ++g) {
            cell.disconnected.push_back(fabric.agent_disconnected(g));
            cell.chains.push_back(fabric.provenance(g));
        }
        return cell;
    };

    bool any_alert = false;
    for (const auto& [net_name, net] : net_matrix(/*seed=*/19)) {
        for (const bool cheater : {false, true}) {
            const std::string label = std::string{net_name} + (cheater ? "/cheater" : "/honest");
            const Forensic_cell cell = run_cell(net, cheater);
            if (!cheater && std::string{net_name} == "clean") {
                EXPECT_TRUE(cell.alerts.empty())
                    << label << ": watchdog must stay quiet on a healthy fabric";
            }
            any_alert = any_alert || !cell.alerts.empty();
            for (std::size_t g = 0; g < cell.disconnected.size(); ++g) {
                if (!cell.disconnected[g]) continue;
                EXPECT_EQ(g, 2u) << label << ": honest agent expelled";
                EXPECT_FALSE(cell.chains[g].empty())
                    << label << ": expelled agent " << g << " has no evidence chain";
            }
            if (cheater) {
                ASSERT_TRUE(cell.disconnected[2]) << label;
                ASSERT_FALSE(cell.chains[2].empty()) << label;
                bool expelled_marked = false;
                for (const telemetry::Evidence& e : cell.chains[2]) expelled_marked |= e.expelled;
                EXPECT_TRUE(expelled_marked) << label;
            }
        }
    }
    EXPECT_TRUE(any_alert) << "no adversarial cell raised a single watchdog alert";
}

} // namespace
