// Experiment E19 — wire codec and transport throughput.
//
// The wire layer puts a real boundary's cost model between router and shards:
// every pulse message can be framed through the flat codec and crossed via
// the lock-free SPSC frame ring instead of moving refcounted handles. This
// bench quantifies what that costs:
//
//   1. Codec microbench: encode+decode round-trip rate (frames/sec and
//      bytes/sec) for each of the protocol's payload shapes, from empty
//      heartbeats to KB-scale blobs. Floor: every round-trip is byte-exact —
//      re-encoding the decoded frame reproduces the wire bytes.
//   2. Transport comparison on E12's workload: steady-state fabric plays/sec
//      with the zero-copy loopback link vs the full codec+ring round-trip.
//      Floor: ring >= 0.5x loopback plays/sec — the boundary costs, but it
//      must not halve the fabric.
//   3. Determinism contract: verdicts, play histories, and the telemetry
//      JSON are bit-identical between loopback and ring and across executor
//      widths {1, 2, 4}; the wire census (frames, bytes, batch high water)
//      is printed from the telemetry counters.
//
// Exits non-zero when any floor fails, so CI runs it as a smoke test
// (`bench_wire --smoke --json out.json`).
#include <chrono>
#include <cstring>
#include <iostream>
#include <thread>

#include "bench_json.h"
#include "bench_trace.h"
#include "common/table.h"
#include "shard/fabric.h"
#include "wire/codec.h"
#include "wire/transport.h"

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
                   wire::Transport_kind kind,
                   const std::set<common::Agent_id>& cheaters = {})
{
    Fabric_config config;
    config.f = 1;
    config.spec_factory = dominant_specs();
    config.punishment = [] { return std::make_unique<authority::Fine_scheme>(1.0, 1e9); };
    config.seed = seed;
    config.threads = threads;
    config.telemetry = true;
    config.transport.kind = kind;
    return Fabric{Shard_map{agents, shards}, population(agents, cheaters), std::move(config)};
}

// ------------------------------------------------------------------- Codec

struct Codec_rate {
    double frames_per_sec = 0.0;
    double mbytes_per_sec = 0.0;
    bool exact = true;
};

/// Round-trip `frames` messages of one payload shape through the codec,
/// checking byte-exactness of every re-encoded frame.
Codec_rate measure_codec(std::size_t payload_bytes, int frames, std::uint64_t seed)
{
    common::Rng rng{seed};
    std::vector<sim::Message> batch;
    batch.reserve(static_cast<std::size_t>(frames));
    for (int i = 0; i < frames; ++i) {
        sim::Message msg;
        msg.from = static_cast<common::Processor_id>(rng.below(64));
        msg.to = static_cast<common::Processor_id>(rng.below(64));
        msg.sent_at = static_cast<common::Pulse>(i);
        common::Bytes payload(payload_bytes);
        for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below(256));
        msg.payload = common::Shared_payload{std::move(payload)};
        batch.push_back(std::move(msg));
    }

    const auto start = std::chrono::steady_clock::now();
    common::Bytes buf;
    wire::encode_batch(batch, buf);
    const std::vector<sim::Message> decoded = wire::decode_batch(buf);
    const auto stop = std::chrono::steady_clock::now();

    common::Bytes again;
    wire::encode_batch(decoded, again);

    Codec_rate rate;
    rate.exact = again == buf && decoded.size() == batch.size();
    for (std::size_t i = 0; rate.exact && i < batch.size(); ++i) {
        rate.exact = decoded[i].from == batch[i].from && decoded[i].to == batch[i].to &&
                     decoded[i].sent_at == batch[i].sent_at &&
                     decoded[i].payload.bytes() == batch[i].payload.bytes();
    }
    const double seconds = std::chrono::duration<double>(stop - start).count();
    rate.frames_per_sec = static_cast<double>(frames) / seconds;
    rate.mbytes_per_sec = static_cast<double>(buf.size()) / seconds / 1e6;
    return rate;
}

// --------------------------------------------------------------- Transport

struct Throughput {
    std::int64_t plays = 0;
    double seconds = 0.0;
};

/// Steady-state E12 workload: warm up one pulse + one play, then time
/// `plays` plays per shard over the chosen transport.
Throughput measure_transport(wire::Transport_kind kind, int agents, int shards, int threads,
                             int plays)
{
    Fabric fabric = make_fabric(agents, shards, threads, /*seed=*/2026, kind);
    fabric.run_pulses(1);
    fabric.run_plays(1);
    const std::int64_t before = fabric.report().total_plays;

    const auto start = std::chrono::steady_clock::now();
    fabric.run_plays(plays);
    const auto stop = std::chrono::steady_clock::now();

    Throughput result;
    result.plays = fabric.report().total_plays - before;
    result.seconds = std::chrono::duration<double>(stop - start).count();
    return result;
}

/// Everything a run can observe, JSON included — the bit-identity witness.
struct Observed {
    metrics::Fabric_metrics report;
    std::vector<std::vector<Agent_play>> histories;
    std::string telemetry_json;
};

Observed observe(wire::Transport_kind kind, int agents, int shards, int threads, int plays,
                 std::uint64_t seed)
{
    Fabric fabric =
        make_fabric(agents, shards, threads, seed, kind, /*cheaters=*/{2, agents - 3});
    fabric.run_pulses(1);
    fabric.run_plays(plays);
    Observed observed{fabric.report(), {}, telemetry::to_json(fabric.telemetry_report())};
    for (common::Agent_id g = 0; g < agents; ++g) {
        observed.histories.push_back(fabric.agent_history(g));
    }
    return observed;
}

std::int64_t total_counter(const telemetry::Report& report, const std::string& name)
{
    std::int64_t total = 0;
    for (const telemetry::Scoped_snapshot& s : report.shards) {
        const auto it = s.telemetry.counters.find(name);
        if (it != s.telemetry.counters.end()) total += it->second;
    }
    const auto it = report.fabric.counters.find(name);
    if (it != report.fabric.counters.end()) total += it->second;
    return total;
}

} // namespace

int main(int argc, char** argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    }
    const std::string json_path = ga::bench::json_path(argc, argv);

    std::cout << "=== E19: wire codec + transport throughput ===\n\n";

    // ---- 1. Codec round-trip rates per payload shape.
    struct Shape {
        const char* name;
        std::size_t bytes;
    };
    const Shape shapes[] = {
        {"heartbeat (0 B)", 0},   {"clock beacon (8 B)", 8}, {"commitment (32 B)", 32},
        {"IC section (64 B)", 64}, {"blob (1 KiB)", 1024},
    };
    const int codec_frames = smoke ? 20'000 : 200'000;

    std::cout << "Codec: encode + decode round-trip, " << codec_frames
              << " frames per shape (" << wire::k_frame_overhead
              << " B framing overhead per message).\n\n";
    common::Table codec_table{{"payload", "frames/sec", "MB/sec", "round-trip"}};
    telemetry::Json_writer codec_rows;
    codec_rows.begin_array();
    bool codec_exact = true;
    for (const Shape& shape : shapes) {
        const Codec_rate rate = measure_codec(shape.bytes, codec_frames, /*seed=*/19);
        codec_exact = codec_exact && rate.exact;
        codec_table.add_row({shape.name, common::fixed(rate.frames_per_sec / 1e6, 2) + "M",
                             common::fixed(rate.mbytes_per_sec, 1),
                             rate.exact ? "byte-exact" : "MISMATCH"});
        codec_rows.begin_object();
        codec_rows.field("payload_bytes", static_cast<std::int64_t>(shape.bytes));
        codec_rows.field("frames_per_sec", rate.frames_per_sec);
        codec_rows.field("mbytes_per_sec", rate.mbytes_per_sec);
        codec_rows.field("exact", rate.exact);
        codec_rows.end_object();
    }
    codec_rows.end_array();
    codec_table.print(std::cout);
    std::cout << "\nCodec floor (every round-trip byte-exact): "
              << (codec_exact ? "PASS" : "FAIL") << "\n\n";

    // ---- 2. Ring vs loopback on E12's workload.
    const int agents = smoke ? 16 : 40;
    const int shards = 4;
    const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
    const int threads = std::min<int>(shards, static_cast<int>(hardware));
    const int plays = smoke ? 2 : 6;

    std::cout << "Transport: " << agents << " agents / " << shards << " shards / " << threads
              << " threads, " << plays << " plays per shard (E12 workload).\n\n";
    common::Table link_table{{"transport", "plays", "wall ms", "plays/sec", "vs loopback"}};
    double loopback_rate = 0.0;
    double ring_ratio = 0.0;
    telemetry::Json_writer link_rows;
    link_rows.begin_array();
    for (const auto kind : {wire::Transport_kind::loopback, wire::Transport_kind::ring}) {
        const Throughput t = measure_transport(kind, agents, shards, threads, plays);
        const double per_sec = static_cast<double>(t.plays) / t.seconds;
        if (kind == wire::Transport_kind::loopback) loopback_rate = per_sec;
        const double ratio = per_sec / loopback_rate;
        if (kind == wire::Transport_kind::ring) ring_ratio = ratio;
        link_table.add_row({wire::transport_kind_name(kind), std::to_string(t.plays),
                            common::fixed(t.seconds * 1e3, 1), common::fixed(per_sec, 1),
                            common::fixed(ratio, 2)});
        link_rows.begin_object();
        link_rows.field("transport", wire::transport_kind_name(kind));
        link_rows.field("plays_per_sec", per_sec);
        link_rows.field("ratio_vs_loopback", ratio);
        link_rows.end_object();
    }
    link_rows.end_array();
    link_table.print(std::cout);
    const bool ring_ok = ring_ratio >= 0.5;
    std::cout << "\nRing floor (>= 0.5x loopback plays/sec): "
              << common::fixed(ring_ratio, 2) << "x -> " << (ring_ok ? "PASS" : "FAIL")
              << "\n\n";

    // ---- 3. Determinism: loopback vs ring x executor widths, plus census.
    const int det_agents = smoke ? 12 : 24;
    const int det_plays = smoke ? 2 : 3;
    const Observed reference =
        observe(wire::Transport_kind::loopback, det_agents, 3, 1, det_plays, /*seed=*/7);
    bool deterministic = true;
    for (const int t : {1, 2, 4}) {
        for (const auto kind : {wire::Transport_kind::loopback, wire::Transport_kind::ring}) {
            const Observed run = observe(kind, det_agents, 3, t, det_plays, /*seed=*/7);
            const bool same = run.report == reference.report &&
                              run.histories == reference.histories &&
                              run.telemetry_json == reference.telemetry_json;
            if (!same) {
                std::cout << "DIVERGED: " << wire::transport_kind_name(kind) << " x " << t
                          << " threads\n";
            }
            deterministic = deterministic && same;
        }
    }
    std::cout << "Determinism (loopback vs ring x threads {1, 2, 4}, seed 7): "
              << (deterministic ? "verdicts + telemetry JSON bit-identical" : "DIVERGED")
              << "\n";

    // Wire census from the reference run's telemetry (transport-invariant, so
    // it describes both kinds at once).
    {
        Fabric fabric = make_fabric(det_agents, 3, 1, /*seed=*/7, wire::Transport_kind::ring,
                                    {2, det_agents - 3});
        fabric.run_pulses(1);
        fabric.run_plays(det_plays);
        const telemetry::Report report = fabric.telemetry_report();
        std::cout << "Wire census: " << total_counter(report, "wire.frames") << " frames, "
                  << total_counter(report, "wire.bytes") << " bytes across "
                  << total_counter(report, "wire.pulses") << " non-empty pulses\n\n";
    }

    ga::bench::Json_report report{"bench_wire"};
    report.field("experiment", "E19");
    report.field("smoke", smoke);
    report.raw("codec", codec_rows.take());
    report.field("codec_exact", codec_exact);
    report.raw("transports", link_rows.take());
    report.field("ring_ratio_vs_loopback", ring_ratio);
    report.field("ring_ok", ring_ok);
    report.field("deterministic", deterministic);
    // The reference run's full telemetry report rides along so ga_inspect can
    // render the wire census straight from this artifact.
    report.raw("telemetry", reference.telemetry_json);
    if (!report.write(json_path)) return 1;
    if (!ga::bench::dump_fabric_trace(ga::bench::trace_path(argc, argv))) return 1;

    if (!codec_exact || !ring_ok || !deterministic) return 1;
    std::cout << "OK\n";
    return 0;
}
