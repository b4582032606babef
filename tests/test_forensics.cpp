// Forensic observability: the causal tracer and its Chrome trace export,
// verdict provenance across elastic epoch transitions, the deterministic
// fabric watchdog, the JSON reader the tooling loads artifacts with, and the
// exhaustive event/alert name tables. The layer-level contracts (observer
// purity, byte-stable exports across executor widths) are enforced here on
// small fabrics; bench_telemetry re-checks them at workload scale.
#include <gtest/gtest.h>

#include <set>

#include "shard/fabric.h"
#include "telemetry/json_parse.h"

namespace {

using namespace ga;
using namespace ga::shard;
using common::Agent_id;

// ------------------------------------------------------------------- Tracer

TEST(ForensicTracer, SpansNestByExplicitParentAndCarryScope)
{
    telemetry::Tracer tracer{2, 1};
    const std::int64_t window = tracer.begin_span("play_window", 10, 0, 7);
    const std::int64_t ic = tracer.begin_span("ic", 12, window, 1, 3);
    tracer.end_span(ic, 18);
    tracer.end_span(window, 20);

    ASSERT_EQ(tracer.spans().size(), 2u);
    const telemetry::Span& outer = tracer.spans()[0];
    const telemetry::Span& inner = tracer.spans()[1];
    EXPECT_EQ(outer.id, 1);
    EXPECT_EQ(outer.parent, 0);
    EXPECT_EQ(outer.name, "play_window");
    EXPECT_EQ(outer.shard, 2);
    EXPECT_EQ(outer.epoch, 1);
    EXPECT_EQ(outer.begin, 10);
    EXPECT_EQ(outer.end, 20);
    EXPECT_EQ(outer.a, 7);
    EXPECT_EQ(inner.id, 2);
    EXPECT_EQ(inner.parent, window);
    EXPECT_EQ(inner.begin, 12);
    EXPECT_EQ(inner.end, 18);
}

TEST(ForensicTracer, EndSpanIsForgiving)
{
    telemetry::Tracer tracer;
    const std::int64_t id = tracer.begin_span("a", 5);
    tracer.end_span(0, 9);   // null id: no-op
    tracer.end_span(42, 9);  // unknown id: no-op
    tracer.end_span(id, 3);  // before begin: clamps to begin
    tracer.end_span(id, 99); // already closed: no-op
    ASSERT_EQ(tracer.spans().size(), 1u);
    EXPECT_EQ(tracer.spans()[0].end, 5);
}

TEST(ForensicTracer, AddSpanRecordsCompletedIntervalsAndRescopes)
{
    telemetry::Tracer tracer{0, 0};
    tracer.add_span("play", 4, 8, 0, 11);
    tracer.set_scope(1, 2); // elastic carry: later spans carry the new scope
    tracer.add_span("play", 9, 13);
    ASSERT_EQ(tracer.spans().size(), 2u);
    EXPECT_EQ(tracer.spans()[0].shard, 0);
    EXPECT_EQ(tracer.spans()[0].epoch, 0);
    EXPECT_EQ(tracer.spans()[1].shard, 1);
    EXPECT_EQ(tracer.spans()[1].epoch, 2);
    EXPECT_EQ(tracer.spans()[1].end, 13);
}

// ------------------------------------------------------------- Trace export

TEST(ForensicTraceExport, EmitsMetadataSpanPairsAndClampsOpenSpans)
{
    telemetry::Trace_report trace;
    telemetry::Tracer track{0, 0};
    const std::int64_t run = track.begin_span("window", 2, 0, 1);
    track.add_span("play", 3, 9, run);
    // `run` is never closed: the exporter must clamp it to the track max.
    trace.shards.push_back({0, 0, track.spans()});

    const std::string json = telemetry::to_chrome_trace(trace);
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
    EXPECT_NE(json.find("\"clamped\":true"), std::string::npos);

    // The export is valid JSON by the repo's own reader.
    const telemetry::Json_parse_result parsed = telemetry::parse_json(json);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_TRUE(parsed.value.at("traceEvents").is_array());
    EXPECT_FALSE(parsed.value.at("traceEvents").array.empty());
}

// ---------------------------------------------------- Fabric-level fixtures

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

Shard_spec_factory dominant_specs()
{
    return [](int, const std::vector<Agent_id>& members) {
        authority::Game_spec spec;
        spec.name = "dominant";
        spec.game = std::make_shared<Dominant_game>(static_cast<int>(members.size()));
        spec.equilibrium.assign(members.size(), {0.0, 1.0});
        spec.audit_mode = authority::Audit_mode::pure_best_response;
        return spec;
    };
}

Behavior_factory cheater_factory(std::set<Agent_id> cheaters)
{
    return [cheaters](Agent_id g) -> std::unique_ptr<authority::Agent_behavior> {
        if (cheaters.count(g) != 0) return std::make_unique<authority::Fixed_action_behavior>(0);
        return std::make_unique<authority::Honest_behavior>();
    };
}

Fabric_config forensic_config(int threads, std::uint64_t seed, std::set<Agent_id> cheaters,
                              bool disconnecting = false)
{
    Fabric_config config;
    config.f = 1;
    config.spec_factory = dominant_specs();
    if (disconnecting) {
        config.punishment = [] { return std::make_unique<authority::Disconnect_scheme>(); };
    } else {
        config.punishment = [] { return std::make_unique<authority::Fine_scheme>(1.0, 1e9); };
    }
    config.seed = seed;
    config.threads = threads;
    config.behavior_factory = cheater_factory(std::move(cheaters));
    config.trace = true;
    config.watchdog = telemetry::Watchdog_config{};
    return config;
}

std::string run_and_export_trace(int threads)
{
    Fabric fabric{Shard_map{10, 2}, forensic_config(threads, /*seed=*/17, {3})};
    fabric.run_pulses(1);
    fabric.run_plays(3);
    Rebalance_plan plan;
    plan.migrations.push_back(Migration{3, 0, 1});
    fabric.apply_rebalance(plan);
    fabric.run_plays(2);
    const telemetry::Report report = fabric.telemetry_report();
    return telemetry::to_chrome_trace(fabric.trace_report(), &report);
}

TEST(ForensicTraceExport, ByteStableAcrossExecutorWidthsAndRepeats)
{
    const std::string reference = run_and_export_trace(1);
    EXPECT_FALSE(reference.empty());
    // Epoch transition visible: the fabric track carries the quiesce span and
    // the migrated cheater's group tracks exist at both epochs.
    EXPECT_NE(reference.find("rebalance_quiesce"), std::string::npos);
    EXPECT_NE(reference.find("fabric_run"), std::string::npos);
    for (const int threads : {1, 2, 4}) {
        EXPECT_EQ(run_and_export_trace(threads), reference) << "threads=" << threads;
    }
}

TEST(ForensicTraceExport, TracingIsObserverPure)
{
    const auto run = [](bool forensics) {
        Fabric_config config = forensic_config(1, /*seed=*/29, {2});
        if (!forensics) {
            config.trace = false;
            config.watchdog.reset();
            config.telemetry = false;
        }
        Fabric fabric{Shard_map{10, 2}, std::move(config)};
        fabric.run_pulses(1);
        fabric.run_plays(3);
        std::vector<std::vector<Agent_play>> histories;
        for (Agent_id g = 0; g < fabric.n_agents(); ++g) {
            histories.push_back(fabric.agent_history(g));
        }
        return std::pair{fabric.report().total_fouls, histories};
    };
    EXPECT_EQ(run(false), run(true));
}

// --------------------------------------------------------------- Provenance

TEST(ForensicProvenance, FlaggedAgentCarriesEvidenceChain)
{
    Fabric fabric{Shard_map{10, 2}, forensic_config(1, /*seed=*/11, {3})};
    fabric.run_pulses(1);
    fabric.run_plays(3);

    const std::vector<telemetry::Evidence> chains = fabric.provenance(3);
    ASSERT_FALSE(chains.empty());
    for (const telemetry::Evidence& e : chains) {
        EXPECT_EQ(e.agent, 3); // globalized
        EXPECT_EQ(e.shard, 0);
        EXPECT_EQ(e.offence, "not-best-response");
        EXPECT_EQ(e.revealed, 0);  // the cheater's dominated action
        EXPECT_EQ(e.expected, 1);  // the audit standard's best response
        EXPECT_GE(static_cast<int>(e.flagged_by.size()), 3); // a majority of 4 replicas
        EXPECT_GT(e.ic_activation, 0);
        EXPECT_GE(e.at, 0);
    }
    // Honest agents carry no evidence.
    EXPECT_TRUE(fabric.provenance(0).empty());
    EXPECT_TRUE(fabric.provenance(9).empty());
}

TEST(ForensicProvenance, ExpelledAgentEvidenceMarksTheExpulsion)
{
    Fabric fabric{Shard_map{10, 2},
                  forensic_config(1, /*seed=*/13, {3}, /*disconnecting=*/true)};
    fabric.run_pulses(1);
    fabric.run_plays(4);

    ASSERT_TRUE(fabric.agent_disconnected(3));
    const std::vector<telemetry::Evidence> chains = fabric.provenance(3);
    ASSERT_FALSE(chains.empty());
    bool expelled = false;
    for (const telemetry::Evidence& e : chains) {
        if (e.expelled) {
            expelled = true;
            EXPECT_GE(e.expelled_at, e.at);
        }
    }
    EXPECT_TRUE(expelled);
}

TEST(ForensicProvenance, SurvivesMigrationSplitAndMergeUnchanged)
{
    // 15 agents over 3 shards of 5; cheaters on shard 0 and shard 2.
    Fabric fabric{Shard_map{15, 3}, forensic_config(1, /*seed=*/19, {4, 12})};
    fabric.run_pulses(1);
    fabric.run_plays(3);

    const std::vector<telemetry::Evidence> pre4 = fabric.provenance(4);
    const std::vector<telemetry::Evidence> pre12 = fabric.provenance(12);
    ASSERT_FALSE(pre4.empty());
    ASSERT_FALSE(pre12.empty());

    // Epoch 1: migrate cheater 4 off shard 0. Folding its retired group's
    // evidence into the carried ledger must not change what provenance
    // serves.
    Rebalance_plan migrate;
    migrate.migrations.push_back(Migration{4, 0, 1});
    fabric.apply_rebalance(migrate);
    EXPECT_EQ(fabric.provenance(4), pre4);
    EXPECT_EQ(fabric.provenance(12), pre12);

    // Epoch 2: merge shard 1 into shard 0 — the last shard (2) is relabeled
    // onto the recycled id 1 and carried; its cheater's chain still reads
    // continuously under the global id.
    Rebalance_plan merge;
    merge.merges.push_back(Shard_merge{1, 0});
    fabric.apply_rebalance(merge);
    EXPECT_EQ(fabric.provenance(4), pre4);
    EXPECT_EQ(fabric.provenance(12), pre12);

    // New fouls keep appending after the ledger-served prefix, tagged with
    // the scope they happen under.
    fabric.run_plays(3);
    const std::vector<telemetry::Evidence> post4 = fabric.provenance(4);
    const std::vector<telemetry::Evidence> post12 = fabric.provenance(12);
    ASSERT_GT(post4.size(), pre4.size());
    ASSERT_GT(post12.size(), pre12.size());
    for (std::size_t i = 0; i < pre4.size(); ++i) EXPECT_EQ(post4[i], pre4[i]);
    for (std::size_t i = 0; i < pre12.size(); ++i) EXPECT_EQ(post12[i], pre12[i]);
    EXPECT_EQ(post4.back().epoch, 2);
    EXPECT_EQ(post12.back().epoch, 2);
    EXPECT_EQ(post12.back().shard, 1); // the relabeled carried shard
    EXPECT_EQ(post12.back().agent, 12);

    // The full-report provenance section carries exactly the per-agent
    // chains, globalized and grouped by agent id.
    const telemetry::Report report = fabric.telemetry_report();
    EXPECT_EQ(report.provenance.size(), post4.size() + post12.size());
}

// ----------------------------------------------------------------- Watchdog

TEST(ForensicWatchdog, QuietOnHonestPopulationOverCleanNet)
{
    Fabric fabric{Shard_map{10, 2}, forensic_config(2, /*seed=*/23, {})};
    fabric.run_pulses(1);
    fabric.run_plays(4);
    EXPECT_TRUE(fabric.watchdog_alerts().empty());
    EXPECT_TRUE(fabric.telemetry_report().alerts.empty());
}

TEST(ForensicWatchdog, CheaterBurstRaisesDeterministicReplayableAlert)
{
    const auto run = [] {
        Fabric fabric{Shard_map{10, 2}, forensic_config(1, /*seed=*/31, {3})};
        fabric.run_pulses(1);
        fabric.run_plays(4);
        return fabric.telemetry_report().alerts;
    };
    const std::vector<telemetry::Alert> alerts = run();
    ASSERT_FALSE(alerts.empty());
    EXPECT_EQ(alerts[0].kind, telemetry::Alert_kind::foul_rate_spike);
    EXPECT_EQ(alerts[0].shard, 0); // the cheater's shard
    // Replayable: the same (seed, map, config) reproduces the alert list
    // bit-for-bit.
    EXPECT_EQ(run(), alerts);
}

TEST(ForensicWatchdog, DivergenceCounterAlertsPerInterval)
{
    telemetry::Telemetry_sink sink{{0, 0}};
    telemetry::Watchdog dog;
    sink.counter("outcome.divergence") += 1;
    dog.observe(sink);
    ASSERT_EQ(dog.alerts().size(), 1u);
    EXPECT_EQ(dog.alerts()[0].kind, telemetry::Alert_kind::replica_divergence);
    dog.observe(sink); // no new divergence: no new alert
    EXPECT_EQ(dog.alerts().size(), 1u);
    sink.counter("outcome.divergence") += 2;
    dog.observe(sink);
    ASSERT_EQ(dog.alerts().size(), 2u);
    EXPECT_EQ(dog.alerts()[1].value, 2);
}

TEST(ForensicWatchdog, ClockHoldStreakBeyondCeilingAlerts)
{
    telemetry::Watchdog_config config;
    config.max_hold_streak = 8;
    telemetry::Watchdog dog{config};
    telemetry::Telemetry_sink sink{{1, 0}};

    telemetry::Event hold;
    hold.kind = telemetry::Event_kind::clock_hold;
    hold.at = 10;
    sink.event(hold);
    dog.observe(sink); // streak still open: nothing yet
    EXPECT_TRUE(dog.alerts().empty());

    telemetry::Event resume;
    resume.kind = telemetry::Event_kind::clock_resume;
    resume.at = 30;
    sink.event(resume);
    dog.observe(sink);
    ASSERT_EQ(dog.alerts().size(), 1u);
    EXPECT_EQ(dog.alerts()[0].kind, telemetry::Alert_kind::clock_hold_streak);
    EXPECT_EQ(dog.alerts()[0].value, 20);
    EXPECT_EQ(dog.alerts()[0].limit, 8);
    EXPECT_EQ(dog.alerts()[0].shard, 1);
}

TEST(ForensicWatchdog, JournalEvictionAlertsOncePerScope)
{
    telemetry::Telemetry_sink sink{{0, 0}, /*journal_capacity=*/4};
    telemetry::Watchdog dog;
    for (int i = 0; i < 10; ++i) {
        telemetry::Event e;
        e.kind = telemetry::Event_kind::play_open;
        e.at = i;
        sink.event(e);
    }
    dog.observe(sink);
    ASSERT_EQ(dog.alerts().size(), 1u);
    EXPECT_EQ(dog.alerts()[0].kind, telemetry::Alert_kind::journal_eviction);
    for (int i = 0; i < 10; ++i) {
        telemetry::Event e;
        e.kind = telemetry::Event_kind::play_open;
        e.at = 10 + i;
        sink.event(e);
    }
    dog.observe(sink); // still evicting, but the scope already fired
    EXPECT_EQ(dog.alerts().size(), 1u);
}

TEST(ForensicWatchdog, QuiesceBeyondOneWindowAlerts)
{
    telemetry::Watchdog dog;
    dog.observe_quiesce(/*shard=*/2, /*epoch=*/1, /*pulses=*/40, /*limit=*/50);
    EXPECT_TRUE(dog.alerts().empty());
    dog.observe_quiesce(2, 1, 60, 50);
    ASSERT_EQ(dog.alerts().size(), 1u);
    EXPECT_EQ(dog.alerts()[0].kind, telemetry::Alert_kind::quiesce_bound);
    EXPECT_EQ(dog.alerts()[0].value, 60);
    EXPECT_EQ(dog.alerts()[0].limit, 50);
}

// -------------------------------------------------------------- JSON reader

TEST(ForensicJsonParse, ReadsScalarsContainersAndEscapes)
{
    const telemetry::Json_parse_result parsed = telemetry::parse_json(
        R"({"a":1,"b":-2.5,"c":true,"d":null,"e":"x\nA","f":[1,2,3],"g":{"h":"i"}})");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const telemetry::Json_value& v = parsed.value;
    EXPECT_EQ(v.at("a").as_int(), 1);
    EXPECT_TRUE(v.at("a").integral);
    EXPECT_DOUBLE_EQ(v.at("b").as_double(), -2.5);
    EXPECT_FALSE(v.at("b").integral);
    EXPECT_TRUE(v.at("c").boolean);
    EXPECT_TRUE(v.at("d").is_null());
    EXPECT_EQ(v.at("e").as_string(), "x\nA");
    ASSERT_EQ(v.at("f").array.size(), 3u);
    EXPECT_EQ(v.at("f").array[2].as_int(), 3);
    EXPECT_EQ(v.at("g").at("h").as_string(), "i");
    // Missing keys chain to the shared null.
    EXPECT_TRUE(v.at("zz").at("deeper").is_null());
    EXPECT_EQ(v.at("zz").as_int(7), 7);
}

TEST(ForensicJsonParse, RejectsMalformedInputWithOffset)
{
    EXPECT_FALSE(telemetry::parse_json("{").ok);
    EXPECT_FALSE(telemetry::parse_json("[1,]").ok);
    EXPECT_FALSE(telemetry::parse_json("{} trailing").ok);
    EXPECT_FALSE(telemetry::parse_json("\"unterminated").ok);
    const telemetry::Json_parse_result bad = telemetry::parse_json("[1, x]");
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error.find("at byte 4"), std::string::npos) << bad.error;
}

TEST(ForensicJsonParse, RoundTripsTheRepoOwnExports)
{
    Fabric fabric{Shard_map{10, 2}, forensic_config(1, /*seed=*/37, {3})};
    fabric.run_pulses(1);
    fabric.run_plays(3);
    const telemetry::Report report = fabric.telemetry_report();

    const telemetry::Json_parse_result parsed = telemetry::parse_json(to_json(report));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.value.at("provenance").array.size(), report.provenance.size());
    EXPECT_EQ(parsed.value.at("alerts").array.size(), report.alerts.size());
    const telemetry::Json_value& first = parsed.value.at("provenance").array.at(0);
    EXPECT_EQ(first.at("agent").as_int(), report.provenance[0].agent);
    EXPECT_EQ(first.at("offence").as_string(), report.provenance[0].offence);
}

// -------------------------------------------------------------- Name tables

TEST(EventKindNames, EveryEnumeratorHasAUniqueStableName)
{
    std::set<std::string> seen;
    for (int k = 0; k < telemetry::k_event_kind_count; ++k) {
        const char* name = telemetry::event_kind_name(static_cast<telemetry::Event_kind>(k));
        ASSERT_NE(name, nullptr) << "kind " << k;
        EXPECT_STRNE(name, "unknown") << "kind " << k;
        EXPECT_TRUE(seen.insert(name).second) << "duplicate name: " << name;
    }
    // Out-of-range values degrade to the sentinel instead of reading past
    // the table.
    EXPECT_STREQ(telemetry::event_kind_name(
                     static_cast<telemetry::Event_kind>(telemetry::k_event_kind_count)),
                 "unknown");
}

TEST(EventKindNames, EveryAlertKindHasAUniqueStableName)
{
    std::set<std::string> seen;
    for (int k = 0; k < telemetry::k_alert_kind_count; ++k) {
        const char* name = telemetry::alert_kind_name(static_cast<telemetry::Alert_kind>(k));
        ASSERT_NE(name, nullptr) << "kind " << k;
        EXPECT_STRNE(name, "unknown") << "kind " << k;
        EXPECT_TRUE(seen.insert(name).second) << "duplicate name: " << name;
    }
    EXPECT_STREQ(telemetry::alert_kind_name(
                     static_cast<telemetry::Alert_kind>(telemetry::k_alert_kind_count)),
                 "unknown");
}

} // namespace
