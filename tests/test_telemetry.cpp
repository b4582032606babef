// Telemetry layer: deterministic counters, pulse-denominated histograms,
// structured event journals, exporters, and the observer-purity contract —
// a run with sinks attached is bit-identical to the same run without, and
// the exported JSON is byte-identical across executor widths and repeats,
// under the lossy net and elastic rebalancing included.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "pipeline/pipeline_authority.h"
#include "metrics/shard_aggregate.h"
#include "shard/fabric.h"
#include "telemetry/export.h"
#include "telemetry/json.h"
#include "telemetry/telemetry.h"

namespace {

using namespace ga;
using namespace ga::telemetry;
using common::Agent_id;
using common::Rng;

// ---------------------------------------------------------------- Histogram

TEST(TelemetryHistogram, LinearBucketsAreExactBelow128)
{
    Histogram h;
    for (std::int64_t v : {0, 1, 63, 127}) h.record(v);
    EXPECT_EQ(h.count(), 4);
    EXPECT_EQ(h.sum(), 191);
    EXPECT_EQ(h.min(), 0);
    EXPECT_EQ(h.max(), 127);
    EXPECT_EQ(h.bucket(0), 1);
    EXPECT_EQ(h.bucket(63), 1);
    EXPECT_EQ(h.bucket(127), 1);
    EXPECT_EQ(Histogram::bucket_floor(63), 63);
}

TEST(TelemetryHistogram, PowerOfTwoRangesAbove128)
{
    Histogram h;
    h.record(128);
    h.record(200);
    h.record(256);
    h.record(300);
    h.record(1 << 20);
    // 128 and 200 share the [128, 256) range; 256 and 300 the [256, 512) one.
    EXPECT_EQ(h.bucket(Histogram::k_linear), 2);
    EXPECT_EQ(h.bucket(Histogram::k_linear + 1), 2);
    EXPECT_EQ(Histogram::bucket_floor(Histogram::k_linear), 128);
    EXPECT_EQ(Histogram::bucket_floor(Histogram::k_linear + 1), 256);
    EXPECT_EQ(h.max(), 1 << 20);
}

TEST(TelemetryHistogram, QuantilesAreExactForSmallValues)
{
    Histogram h;
    for (int v = 1; v <= 100; ++v) h.record(v);
    EXPECT_EQ(h.p50(), 50);
    EXPECT_EQ(h.p99(), 99);
    EXPECT_EQ(h.quantile(1.0), 100);
    EXPECT_EQ(h.quantile(0.0), 1);
    EXPECT_DOUBLE_EQ(h.mean(), 50.5);
}

TEST(TelemetryHistogram, MergeFoldsCountsAndExtremes)
{
    Histogram a;
    Histogram b;
    a.record(3);
    a.record(500);
    b.record(7);
    a.merge(b);
    EXPECT_EQ(a.count(), 3);
    EXPECT_EQ(a.sum(), 510);
    EXPECT_EQ(a.min(), 3);
    EXPECT_EQ(a.max(), 500);
    EXPECT_EQ(a.bucket(3), 1);
    EXPECT_EQ(a.bucket(7), 1);
    Histogram empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 3);
}

// --------------------------------------------------------------------- Sink

TEST(TelemetrySink, ReferencesAreStableAcrossInserts)
{
    Telemetry_sink sink;
    std::int64_t& first = sink.counter("first");
    first = 7;
    for (int i = 0; i < 100; ++i) {
        std::string name = "c";
        name.append(std::to_string(i));
        sink.counter(name) += 1;
    }
    first += 1; // the cached reference must still point at the live node
    EXPECT_EQ(sink.snapshot().counters.at("first"), 8);
    EXPECT_EQ(sink.snapshot().counters.size(), 101u);
}

TEST(TelemetrySink, EventsAreStampedWithTheSinkScope)
{
    Telemetry_sink sink{Telemetry_sink::Scope{3, 2}};
    Event e;
    e.kind = Event_kind::play_open;
    e.window = 5;
    e.at = 40;
    sink.event(std::move(e));
    const Snapshot snap = sink.snapshot();
    ASSERT_EQ(snap.journal.size(), 1u);
    EXPECT_EQ(snap.journal.front().shard, 3);
    EXPECT_EQ(snap.journal.front().epoch, 2);
    EXPECT_EQ(snap.journal.front().window, 5);

    // Re-scoping (the elastic carry path) stamps later events with the new
    // (shard, epoch) while journaled ones keep their original tags.
    sink.set_scope({4, 3});
    Event e2;
    e2.kind = Event_kind::play_seal;
    sink.event(std::move(e2));
    const Snapshot snap2 = sink.snapshot();
    EXPECT_EQ(snap2.journal.front().shard, 3);
    EXPECT_EQ(snap2.journal.back().shard, 4);
    EXPECT_EQ(snap2.journal.back().epoch, 3);
}

TEST(TelemetrySink, JournalEvictsOldestWithCount)
{
    Telemetry_sink sink{Telemetry_sink::Scope{}, /*journal_capacity=*/4};
    for (int i = 0; i < 6; ++i) {
        Event e;
        e.kind = Event_kind::ic_start;
        e.at = i;
        sink.event(std::move(e));
    }
    const Snapshot snap = sink.snapshot();
    EXPECT_EQ(snap.journal.size(), 4u);
    EXPECT_EQ(snap.journal_dropped_oldest, 2);
    EXPECT_EQ(snap.journal.front().at, 2); // oldest retained
}

// ---------------------------------------------------------------- Exporters

Snapshot sample_snapshot()
{
    Telemetry_sink sink{Telemetry_sink::Scope{1, 0}};
    sink.counter("plays.completed") = 3;
    sink.gauge("load") = 1.5;
    sink.histogram("play.latency_pulses").record(24);
    sink.histogram("play.latency_pulses").record(24);
    Event e;
    e.kind = Event_kind::foul;
    e.window = 2;
    e.at = 48;
    e.a = 1;
    e.note = "not-best-response";
    sink.event(std::move(e));
    return sink.snapshot();
}

TEST(TelemetryExport, JsonIsByteStable)
{
    Report report;
    report.shards.push_back({1, 0, sample_snapshot()});
    const std::string once = to_json(report);
    const std::string twice = to_json(report);
    EXPECT_EQ(once, twice);
    EXPECT_NE(once.find("\"plays.completed\":3"), std::string::npos);
    EXPECT_NE(once.find("\"kind\":\"foul\""), std::string::npos);
    EXPECT_NE(once.find("\"note\":\"not-best-response\""), std::string::npos);
    EXPECT_NE(once.find("\"p50\":24"), std::string::npos);
}

TEST(TelemetryExport, CsvCarriesScopedRows)
{
    Report report;
    report.fabric = Snapshot{};
    report.shards.push_back({1, 0, sample_snapshot()});
    const std::string csv = to_csv(report);
    EXPECT_EQ(csv.find("kind,scope,name,count,sum,wsum,min,max,p50,p99,value"), 0u);
    EXPECT_NE(csv.find("counter,s1e0,plays.completed"), std::string::npos);
    // count=2, sum=48, wsum=48 (both samples in the exact-bucket span),
    // min=max=p50=p99=24.
    EXPECT_NE(csv.find("histogram,s1e0,play.latency_pulses,2,48,48,24,24,24,24"),
              std::string::npos);
}

TEST(TelemetryExport, PrintShowsScopesAndJournalTail)
{
    Report report;
    report.shards.push_back({1, 0, sample_snapshot()});
    std::ostringstream out;
    print(out, report);
    EXPECT_NE(out.str().find("s1e0"), std::string::npos);
    EXPECT_NE(out.str().find("foul"), std::string::npos);
    EXPECT_NE(out.str().find("not-best-response"), std::string::npos);
}

// -------------------------------------------------------------- Aggregation

TEST(TelemetryAggregate, MergeSumsWithoutDoubleCounting)
{
    Snapshot a = sample_snapshot();
    Snapshot b = sample_snapshot();
    b.journal_dropped_oldest = 5;
    Snapshot merged;
    merge_into(merged, a);
    merge_into(merged, b);
    EXPECT_EQ(merged.counters.at("plays.completed"), 6);
    EXPECT_DOUBLE_EQ(merged.gauges.at("load"), 3.0);
    EXPECT_EQ(merged.histograms.at("play.latency_pulses").count(), 4);
    EXPECT_EQ(merged.journal.size(), 2u);
    EXPECT_EQ(merged.journal_dropped_oldest, 5);
}

TEST(TelemetryAggregate, ShardSamplesFoldTelemetryIntoTheFabricReport)
{
    metrics::Shard_sample s0;
    s0.shard = 0;
    s0.epoch = 0;
    s0.telemetry = sample_snapshot();
    metrics::Shard_sample s1;
    s1.shard = 1;
    s1.epoch = 0;
    s1.telemetry = sample_snapshot();
    const metrics::Fabric_metrics out = metrics::aggregate_shards({s0, s1});
    EXPECT_EQ(out.telemetry.counters.at("plays.completed"), 6);
    EXPECT_EQ(out.telemetry.histograms.at("play.latency_pulses").count(), 4);
}

// --------------------------------------------------- Authority-group events

using namespace ga::authority;

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

std::vector<std::unique_ptr<Agent_behavior>> honest(int n)
{
    std::vector<std::unique_ptr<Agent_behavior>> v;
    for (int i = 0; i < n; ++i) v.push_back(std::make_unique<Honest_behavior>());
    return v;
}

std::int64_t count_kind(const Snapshot& snap, Event_kind kind)
{
    return std::count_if(snap.journal.begin(), snap.journal.end(),
                         [kind](const Event& e) { return e.kind == kind; });
}

TEST(TelemetryAuthority, PlayLifecycleEventsMatchAgreedPlays)
{
    const int n = 4;
    pipeline::Pipeline_authority authority{
        dominant_spec(n), /*f=*/1, /*k=*/1, honest(n), {},
        [] { return std::make_unique<Disconnect_scheme>(); }, Rng{3}};
    Telemetry_sink sink{Telemetry_sink::Scope{0, 0}};
    authority.set_telemetry(&sink);
    const common::Pulse pulses = 1 + 3 * authority.pulses_per_batch();
    authority.run_pulses(pulses);

    const Snapshot snap = sink.snapshot();
    const auto plays = static_cast<std::int64_t>(authority.agreed_plays().size());
    ASSERT_GE(plays, 2);
    EXPECT_EQ(snap.counters.at("plays.completed"), plays);
    EXPECT_EQ(snap.histograms.at("play.latency_pulses").count(), plays);
    EXPECT_GT(snap.histograms.at("play.latency_pulses").min(), 0);
    EXPECT_EQ(count_kind(snap, Event_kind::play_verdict), plays);
    EXPECT_GE(count_kind(snap, Event_kind::play_open), plays);
    EXPECT_GE(count_kind(snap, Event_kind::play_seal), plays);
    // IC rounds bracketed and counted.
    EXPECT_GT(snap.counters.at("ic.activations"), 0);
    EXPECT_EQ(count_kind(snap, Event_kind::ic_finish),
              snap.histograms.at("ic.activation_pulses").count());
    // Net counters track the engine's accounting from attach time.
    EXPECT_EQ(snap.counters.at("net.pulses"), pulses);
    EXPECT_GT(snap.counters.at("net.messages"), 0);
    // Honest run: no fouls, no expulsions.
    EXPECT_EQ(count_kind(snap, Event_kind::foul), 0);
    EXPECT_EQ(count_kind(snap, Event_kind::expulsion), 0);
}

TEST(TelemetryAuthority, FoulAndExpulsionEventsCarryCause)
{
    const int n = 4;
    std::vector<std::unique_ptr<Agent_behavior>> behaviors = honest(n);
    behaviors[1] = std::make_unique<Fixed_action_behavior>(0); // dominated action
    pipeline::Pipeline_authority authority{
        dominant_spec(n), /*f=*/1, /*k=*/1, std::move(behaviors), {},
        [] { return std::make_unique<Disconnect_scheme>(); }, Rng{4}};
    Telemetry_sink sink;
    authority.set_telemetry(&sink);
    authority.run_pulses(1 + 3 * authority.pulses_per_batch());

    const Snapshot snap = sink.snapshot();
    ASSERT_GE(count_kind(snap, Event_kind::foul), 1);
    ASSERT_GE(count_kind(snap, Event_kind::expulsion), 1);
    for (const Event& e : snap.journal) {
        if (e.kind == Event_kind::foul) {
            EXPECT_EQ(e.a, 1); // the deviant agent
            EXPECT_EQ(e.note, offence_name(Offence::not_best_response));
        }
        if (e.kind == Event_kind::expulsion) {
            EXPECT_EQ(e.a, 1);
            EXPECT_EQ(e.note, "executive order");
        }
    }
}

TEST(TelemetryAuthority, NetWindowEdgesAreJournaled)
{
    const int n = 4;
    sim::Net_model net;
    net.delta = 2;
    net.seed = 17;
    net.windows.push_back({/*begin=*/6, /*end=*/10, /*isolated=*/{3}});
    pipeline::Pipeline_authority authority{dominant_spec(n),
                                           /*f=*/1,
                                           /*k=*/1,
                                           honest(n),
                                           {},
                                           [] { return std::make_unique<Disconnect_scheme>(); },
                                           Rng{5},
                                           /*make_byzantine=*/{},
                                           /*ic_factory=*/{},
                                           /*tampers=*/{},
                                           net};
    Telemetry_sink sink;
    authority.set_telemetry(&sink);
    authority.run_pulses(1 + 2 * authority.pulses_per_batch());

    const Snapshot snap = sink.snapshot();
    ASSERT_EQ(count_kind(snap, Event_kind::net_window_open), 1);
    ASSERT_EQ(count_kind(snap, Event_kind::net_window_close), 1);
    for (const Event& e : snap.journal) {
        if (e.kind == Event_kind::net_window_open) {
            EXPECT_EQ(e.at, 6);
            EXPECT_EQ(e.a, 0); // window index
            EXPECT_EQ(e.b, 1); // isolated processors
        }
        if (e.kind == Event_kind::net_window_close) {
            EXPECT_EQ(e.at, 9);
        }
    }
}

TEST(TelemetryAuthority, ClockHoldsUnderFullOutage)
{
    const int n = 4;
    sim::Net_model net;
    net.seed = 23;
    // Full outage long enough to starve several frame boundaries of beacons.
    net.windows.push_back({/*begin=*/8, /*end=*/40, /*isolated=*/{}});
    pipeline::Pipeline_authority authority{dominant_spec(n),
                                           /*f=*/1,
                                           /*k=*/1,
                                           honest(n),
                                           {},
                                           [] { return std::make_unique<Disconnect_scheme>(); },
                                           Rng{6},
                                           /*make_byzantine=*/{},
                                           /*ic_factory=*/{},
                                           /*tampers=*/{},
                                           net};
    Telemetry_sink sink;
    authority.set_telemetry(&sink);
    authority.run_pulses(60);

    const Snapshot snap = sink.snapshot();
    EXPECT_GT(snap.counters.at("clock.held_boundaries"), 0);
    EXPECT_GE(count_kind(snap, Event_kind::clock_hold), 1);
    // Delivery heals after the window: the hold streak ends.
    EXPECT_GE(count_kind(snap, Event_kind::clock_resume), 1);
}

// ------------------------------------------------------------------- Fabric

using namespace ga::shard;

Shard_spec_factory dominant_specs()
{
    return [](int, const std::vector<Agent_id>& members) {
        Game_spec spec;
        spec.name = "dominant";
        spec.game = std::make_shared<Dominant_game>(static_cast<int>(members.size()));
        spec.equilibrium.assign(members.size(), {0.0, 1.0});
        return spec;
    };
}

/// Skewed three-shard topology: shard 0 hot with `hot` agents, two cold
/// shards of 4 — the load-threshold policy rebalances it.
Shard_map skewed(int hot)
{
    std::vector<int> shard_of(static_cast<std::size_t>(hot + 8), 0);
    for (int g = hot; g < hot + 4; ++g) shard_of[static_cast<std::size_t>(g)] = 1;
    for (int g = hot + 4; g < hot + 8; ++g) shard_of[static_cast<std::size_t>(g)] = 2;
    return Shard_map{shard_of};
}

Fabric_config elastic_lossy_config(int threads, std::uint64_t seed, bool telemetry)
{
    Fabric_config config;
    config.f = 1;
    config.spec_factory = dominant_specs();
    config.punishment = [] { return std::make_unique<Fine_scheme>(1.0, 1e9); };
    config.seed = seed;
    config.threads = threads;
    config.telemetry = telemetry;
    config.behavior_factory = [](Agent_id g) -> std::unique_ptr<Agent_behavior> {
        if (g == 2) return std::make_unique<Fixed_action_behavior>(0);
        return std::make_unique<Honest_behavior>();
    };
    config.rebalance = rebalance_load_threshold(/*ratio=*/1.5, /*min_members=*/4);
    config.net.delta = 2;
    config.net.jitter = 0.25;
    config.net.drop = 0.01;
    config.net.seed = 9;
    return config;
}

struct Elastic_observed {
    std::string telemetry_json;
    std::int64_t plays = 0;
    std::int64_t fouls = 0;
    std::int64_t messages = 0;
    int epoch = 0;
    std::vector<std::vector<Authority_router::Agent_play>> histories;
};

Elastic_observed observe_elastic(int threads, std::uint64_t seed, bool telemetry)
{
    Fabric fabric{skewed(8), elastic_lossy_config(threads, seed, telemetry)};
    fabric.run_pulses(1);
    for (int w = 0; w < 3; ++w) {
        fabric.run_plays(2);
        fabric.maybe_rebalance();
    }
    Elastic_observed observed;
    observed.telemetry_json = to_json(fabric.telemetry_report());
    const metrics::Fabric_metrics report = fabric.report();
    observed.plays = report.total_plays;
    observed.fouls = report.total_fouls;
    observed.messages = report.total_traffic.messages;
    observed.epoch = fabric.epoch();
    for (Agent_id g = 0; g < fabric.n_agents(); ++g) {
        observed.histories.push_back(fabric.agent_history(g));
    }
    return observed;
}

TEST(TelemetryFabric, JsonByteIdenticalAcrossThreadsAndRepeats)
{
    const Elastic_observed reference = observe_elastic(1, /*seed=*/21, true);
    ASSERT_GT(reference.plays, 0);
    ASSERT_GT(reference.epoch, 0); // the skewed map must actually rebalance
    const Elastic_observed repeat = observe_elastic(1, 21, true);
    EXPECT_EQ(reference.telemetry_json, repeat.telemetry_json);
    for (const int threads : {2, 4}) {
        const Elastic_observed pooled = observe_elastic(threads, 21, true);
        EXPECT_EQ(reference.telemetry_json, pooled.telemetry_json) << threads << " threads";
        EXPECT_EQ(reference.histories, pooled.histories);
    }
}

TEST(TelemetryFabric, SinksAreInvisibleToTheProtocol)
{
    const Elastic_observed with = observe_elastic(2, /*seed=*/21, true);
    const Elastic_observed without = observe_elastic(2, 21, false);
    EXPECT_EQ(with.plays, without.plays);
    EXPECT_EQ(with.fouls, without.fouls);
    EXPECT_EQ(with.messages, without.messages);
    EXPECT_EQ(with.epoch, without.epoch);
    EXPECT_EQ(with.histories, without.histories);
    // The disabled run exports an empty report.
    EXPECT_NE(without.telemetry_json.find("\"shards\":[]"), std::string::npos);
    EXPECT_EQ(without.telemetry_json.find("plays.completed"), std::string::npos);
}

TEST(TelemetryFabric, ElasticTransitionsKeepPerLifetimeSnapshots)
{
    Fabric fabric{skewed(8), elastic_lossy_config(1, /*seed=*/21, true)};
    fabric.run_pulses(1);
    for (int w = 0; w < 3; ++w) {
        fabric.run_plays(2);
        fabric.maybe_rebalance();
    }
    ASSERT_GT(fabric.epoch(), 0);
    const Report report = fabric.telemetry_report();

    // Rebalance lifecycle on the fabric-scope sink.
    EXPECT_GE(count_kind(report.fabric, Event_kind::rebalance_proposed), 1);
    EXPECT_GE(count_kind(report.fabric, Event_kind::rebalance_applied), 1);
    EXPECT_GE(report.fabric.counters.at("rebalance.applied"), 1);
    EXPECT_GE(report.fabric.histograms.at("rebalance.quiesce_pulses").count(), 1);

    // One snapshot per group lifetime, sorted by (epoch, shard); retired
    // epoch-0 groups keep their snapshots next to the live ones.
    ASSERT_GT(report.shards.size(), static_cast<std::size_t>(fabric.n_shards()));
    for (std::size_t i = 1; i < report.shards.size(); ++i) {
        const auto a = std::pair{report.shards[i - 1].epoch, report.shards[i - 1].shard};
        const auto b = std::pair{report.shards[i].epoch, report.shards[i].shard};
        EXPECT_LT(a, b); // strictly: unique per (epoch, shard)
    }
    bool any_epoch0 = false;
    for (const Scoped_snapshot& s : report.shards) any_epoch0 |= s.epoch == 0;
    EXPECT_TRUE(any_epoch0);

    // The merged view agrees with the aggregated fabric report.
    const metrics::Fabric_metrics metrics_report = fabric.report();
    EXPECT_EQ(report.merged().counters.at("plays.completed"),
              metrics_report.telemetry.counters.at("plays.completed"));
    EXPECT_EQ(metrics_report.telemetry.counters.at("plays.completed"),
              metrics_report.total_plays);
}

TEST(TelemetryFabric, PipelinedBatchesShareWindowLatency)
{
    const int agents = 8;
    const int k = 4;
    Fabric_config config;
    config.f = 1;
    config.spec_factory = dominant_specs();
    config.punishment = [] { return std::make_unique<Fine_scheme>(1.0, 1e9); };
    config.seed = 13;
    config.batch_k = k;
    config.telemetry = true;
    std::vector<std::unique_ptr<Agent_behavior>> behaviors;
    for (int g = 0; g < agents; ++g) behaviors.push_back(std::make_unique<Honest_behavior>());
    Fabric fabric{Shard_map{agents, 2}, std::move(behaviors), std::move(config)};
    fabric.run_pulses(1);
    fabric.run_plays(2 * k);

    const Snapshot merged = fabric.telemetry_report().merged();
    const std::int64_t batches = merged.counters.at("batches.completed");
    ASSERT_GE(batches, 2);
    EXPECT_EQ(merged.counters.at("plays.completed"), batches * k);
    EXPECT_EQ(merged.histograms.at("batch.window_pulses").count(), batches);
    EXPECT_EQ(merged.histograms.at("play.latency_pulses").count(), batches * k);
    // All k plays of a batch share the open-to-verdict latency, so the
    // latency histogram records each batch's window k times.
    EXPECT_EQ(merged.histograms.at("play.latency_pulses").sum(),
              k * merged.histograms.at("batch.window_pulses").sum());
    // Every play_open journals the k plays it opens.
    for (const Event& e : merged.journal) {
        if (e.kind == Event_kind::play_open) {
            EXPECT_EQ(e.a, k);
        }
    }
}

} // namespace
