// The wire layer: flat frame codec (layout, round-trips, damage detection
// with byte offsets), the zero-copy loopback link, the lock-free SPSC frame
// ring (full/empty/wrap edges, FIFO order, high-water gauges), and the
// fabric-level determinism contract — verdicts, stats, and telemetry JSON
// bit-identical between loopback and ring and across executor widths.
// bench_wire (E19) re-checks codec and transport throughput at scale.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "shard/fabric.h"
#include "telemetry/export.h"
#include "wire/codec.h"
#include "wire/transport.h"

namespace {

using namespace ga;
using common::Agent_id;
using common::Bytes;

sim::Message make_message(common::Processor_id from, common::Processor_id to,
                          Bytes payload, common::Pulse sent_at)
{
    sim::Message msg;
    msg.from = from;
    msg.to = to;
    msg.payload = common::Shared_payload{std::move(payload)};
    msg.sent_at = sent_at;
    return msg;
}

void expect_same_message(const sim::Message& got, const sim::Message& want)
{
    EXPECT_EQ(got.from, want.from);
    EXPECT_EQ(got.to, want.to);
    EXPECT_EQ(got.sent_at, want.sent_at);
    EXPECT_EQ(got.payload.bytes(), want.payload.bytes());
}

/// The Contract_error message `f` throws; empty when it does not throw.
template <typename F>
std::string thrown_what(F&& f)
{
    try {
        f();
    } catch (const common::Contract_error& e) {
        return e.what();
    }
    return {};
}

// -------------------------------------------------------------------- Codec

TEST(Wire, FrameLayoutMatchesTheDocumentedOffsets)
{
    const sim::Message msg = make_message(3, 7, Bytes{0xAA, 0xBB, 0xCC}, 0x0102030405060708);
    EXPECT_EQ(wire::encoded_size(msg), wire::k_frame_overhead + 3);

    Bytes out;
    wire::encode_frame(msg, out);
    ASSERT_EQ(out.size(), wire::encoded_size(msg));
    EXPECT_TRUE(std::equal(wire::k_frame_magic.begin(), wire::k_frame_magic.end(),
                           out.begin()));
    EXPECT_EQ(out[4], 3);  // from, LE
    EXPECT_EQ(out[8], 7);  // to, LE
    EXPECT_EQ(out[12], 0x08); // sent_at low byte, LE
    EXPECT_EQ(out[19], 0x01); // sent_at high byte
    EXPECT_EQ(out[20], 3); // payload length, LE
    EXPECT_EQ(out[24], 0xAA);
    EXPECT_EQ(out[26], 0xCC);

    std::size_t offset = 0;
    const sim::Message back = wire::decode_frame(out, offset);
    EXPECT_EQ(offset, out.size());
    expect_same_message(back, msg);
}

TEST(Wire, BatchRoundTripPreservesOrderIncludingEmptyPayloads)
{
    std::vector<sim::Message> batch;
    batch.push_back(make_message(0, 1, Bytes{}, 5));
    batch.push_back(make_message(1, 0, Bytes{1, 2, 3, 4, 5, 6, 7}, 6));
    batch.push_back(make_message(-1, 2, Bytes{0xFF}, 0));

    Bytes buf;
    wire::encode_batch(batch, buf);
    const std::vector<sim::Message> back = wire::decode_batch(buf);
    ASSERT_EQ(back.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) expect_same_message(back[i], batch[i]);
}

TEST(Wire, DecodeNamesTheByteOffsetOfTheDamage)
{
    Bytes buf;
    wire::encode_frame(make_message(1, 2, Bytes{9, 8, 7}, 44), buf);
    const std::size_t frame = buf.size();
    wire::encode_frame(make_message(2, 1, Bytes{6}, 45), buf);

    // Truncation inside the second frame's header: the error names where the
    // second frame starts.
    Bytes short_header{buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(frame + 4)};
    std::string what = thrown_what([&] { (void)wire::decode_batch(short_header); });
    EXPECT_NE(what.find("truncated frame header"), std::string::npos) << what;
    EXPECT_NE(what.find("at byte " + std::to_string(frame)), std::string::npos) << what;

    // Truncated payload/checksum region.
    Bytes short_payload{buf.begin(), buf.end() - 3};
    what = thrown_what([&] { (void)wire::decode_batch(short_payload); });
    EXPECT_NE(what.find("truncated frame payload"), std::string::npos) << what;

    // Bad magic at the start of a frame.
    Bytes bad_magic = buf;
    bad_magic[frame] ^= 0x01;
    what = thrown_what([&] { (void)wire::decode_batch(bad_magic); });
    EXPECT_NE(what.find("bad frame magic"), std::string::npos) << what;
    EXPECT_NE(what.find("at byte " + std::to_string(frame)), std::string::npos) << what;

    // A payload bit flip trips the checksum, not the header parse.
    Bytes flipped = buf;
    flipped[frame + wire::k_frame_header_bytes] ^= 0x10;
    what = thrown_what([&] { (void)wire::decode_batch(flipped); });
    EXPECT_NE(what.find("frame checksum mismatch"), std::string::npos) << what;
}

// ---------------------------------------------------------------- Transport

TEST(Wire, ConfigValidatesRingCapacity)
{
    wire::Wire_config config;
    EXPECT_TRUE(thrown_what([&] { config.validate(); }).empty());
    config.kind = wire::Transport_kind::ring;
    config.ring_frames = 48; // not a power of two
    EXPECT_NE(thrown_what([&] { config.validate(); }).find("ring_frames"),
              std::string::npos);
    config.ring_frames = 0;
    EXPECT_NE(thrown_what([&] { config.validate(); }).find("ring_frames"),
              std::string::npos);
    config.ring_frames = 64;
    EXPECT_TRUE(thrown_what([&] { config.validate(); }).empty());
    EXPECT_STREQ(wire::transport_kind_name(wire::Transport_kind::loopback), "loopback");
    EXPECT_STREQ(wire::transport_kind_name(wire::Transport_kind::ring), "ring");
}

TEST(Wire, LoopbackMovesHandlesWithoutCopyingAndAccountsArithmetically)
{
    auto link = wire::make_transport({});
    ASSERT_EQ(link->kind(), wire::Transport_kind::loopback);

    std::vector<std::vector<sim::Message>> inboxes(2);
    inboxes[1].push_back(make_message(0, 1, Bytes{1, 2, 3, 4}, 9));
    const std::uint8_t* before = inboxes[1][0].payload.data();

    link->cross_pulse(inboxes, 9);
    ASSERT_EQ(inboxes[1].size(), 1u);
    EXPECT_EQ(inboxes[1][0].payload.data(), before)
        << "loopback must move the refcounted handle, not re-mint the buffer";
    EXPECT_EQ(link->stats().pulses, 1);
    EXPECT_EQ(link->stats().frames, 1);
    EXPECT_EQ(link->stats().bytes,
              static_cast<std::int64_t>(wire::k_frame_overhead) + 4);
    EXPECT_EQ(link->stats().high_water, 1);

    // Empty pulses cross nothing and are not accounted (histogram parity
    // between kinds depends on this).
    std::vector<std::vector<sim::Message>> empty(2);
    link->cross_pulse(empty, 10);
    EXPECT_EQ(link->stats().pulses, 1);
}

TEST(WireRing, EmptyFullAndWrapEdges)
{
    wire::Spsc_frame_ring ring{4};
    EXPECT_EQ(ring.capacity(), 4);
    sim::Message out;
    EXPECT_FALSE(ring.try_pop(out)) << "fresh ring must be empty";

    // Fill to capacity: the fifth stage must refuse.
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(ring.try_stage(make_message(i, 0, Bytes{static_cast<std::uint8_t>(i)}, i)));
    }
    EXPECT_FALSE(ring.try_stage(make_message(4, 0, Bytes{4}, 4)));
    EXPECT_EQ(ring.depth(), 0) << "staged frames are invisible until publish";
    ring.publish();
    EXPECT_EQ(ring.depth(), 4);
    EXPECT_EQ(ring.depth_high_water(), 4);

    // Drain in FIFO order, then wrap: push/pop past the capacity repeatedly
    // and the slots must hand back intact frames every time.
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(ring.try_pop(out));
        EXPECT_EQ(out.from, i);
        ASSERT_EQ(out.payload.size(), 1u);
        EXPECT_EQ(out.payload.data()[0], i);
    }
    EXPECT_FALSE(ring.try_pop(out));
    for (int round = 0; round < 9; ++round) {
        Bytes payload(static_cast<std::size_t>(round % 5), static_cast<std::uint8_t>(round));
        ASSERT_TRUE(ring.try_stage(make_message(round, 1, payload, 100 + round)));
        ring.publish();
        ASSERT_TRUE(ring.try_pop(out));
        expect_same_message(out, make_message(round, 1, payload, 100 + round));
    }
    EXPECT_EQ(ring.depth_high_water(), 4) << "singleton publishes never beat the full batch";
}

TEST(WireRing, CrossPulseDeliversLoopbackIdenticalMessagesAndStats)
{
    wire::Wire_config ring_config;
    ring_config.kind = wire::Transport_kind::ring;
    ring_config.ring_frames = 8; // smaller than the batch: forces mid-pulse drains
    auto ring = wire::make_transport(ring_config);
    auto loopback = wire::make_transport({});

    const auto build = [] {
        std::vector<std::vector<sim::Message>> inboxes(3);
        for (int m = 0; m < 20; ++m) {
            Bytes payload(static_cast<std::size_t>(m % 7), static_cast<std::uint8_t>(m));
            inboxes[static_cast<std::size_t>(m % 3)].push_back(
                make_message(m % 3 + 1, m % 3, payload, 50));
        }
        return inboxes;
    };
    auto via_ring = build();
    auto via_loopback = build();
    ring->cross_pulse(via_ring, 50);
    loopback->cross_pulse(via_loopback, 50);

    ASSERT_EQ(via_ring.size(), via_loopback.size());
    for (std::size_t row = 0; row < via_ring.size(); ++row) {
        ASSERT_EQ(via_ring[row].size(), via_loopback[row].size()) << "row " << row;
        for (std::size_t i = 0; i < via_ring[row].size(); ++i) {
            expect_same_message(via_ring[row][i], via_loopback[row][i]);
        }
    }
    EXPECT_EQ(ring->stats(), loopback->stats())
        << "wire accounting must be transport-invariant";
    EXPECT_EQ(ring->stats().frames, 20);
    EXPECT_EQ(ring->stats().high_water, 20);

    const auto* as_ring = dynamic_cast<const wire::Ring_transport*>(ring.get());
    ASSERT_NE(as_ring, nullptr);
    EXPECT_GT(as_ring->ring().depth_high_water(), 0);
    EXPECT_LE(as_ring->ring().depth_high_water(), 8)
        << "occupancy can never exceed the ring capacity";
    EXPECT_EQ(as_ring->ring().depth(), 0) << "every frame must be drained by pulse end";
}

// ------------------------------------------------------------ Fabric parity

/// Dominant-strategy game: honest agents play 1, deviants play 0.
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

shard::Shard_spec_factory dominant_specs()
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

struct Observed {
    metrics::Fabric_metrics report;
    std::vector<std::vector<shard::Agent_play>> histories;
    std::string telemetry_json;
};

Observed run_fabric(wire::Transport_kind kind, int threads, int ring_frames = 64)
{
    const int agents = 12;
    std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors;
    for (int i = 0; i < agents; ++i) {
        if (i == 2 || i == 9) {
            behaviors.push_back(std::make_unique<authority::Fixed_action_behavior>(0));
        } else {
            behaviors.push_back(std::make_unique<authority::Honest_behavior>());
        }
    }
    shard::Fabric_config config;
    config.f = 1;
    config.spec_factory = dominant_specs();
    config.punishment = [] { return std::make_unique<authority::Disconnect_scheme>(); };
    config.seed = 23;
    config.threads = threads;
    config.telemetry = true;
    config.transport.kind = kind;
    config.transport.ring_frames = ring_frames;
    shard::Fabric fabric{shard::Shard_map{agents, 3}, std::move(behaviors),
                         std::move(config)};
    fabric.run_pulses(2);
    fabric.run_plays(3);

    Observed observed{fabric.report(), {}, telemetry::to_json(fabric.telemetry_report())};
    for (Agent_id g = 0; g < agents; ++g) {
        observed.histories.push_back(fabric.agent_history(g));
    }
    return observed;
}

TEST(WireRing, FabricIsBitIdenticalAcrossTransportsAndThreads)
{
    const Observed reference = run_fabric(wire::Transport_kind::loopback, 1);
    EXPECT_NE(reference.telemetry_json.find("wire.frames"), std::string::npos)
        << "an attached link must surface wire.* counters";
    for (const int threads : {1, 2, 4}) {
        for (const auto kind :
             {wire::Transport_kind::loopback, wire::Transport_kind::ring}) {
            const Observed run = run_fabric(kind, threads);
            EXPECT_EQ(run.report, reference.report)
                << transport_kind_name(kind) << " x " << threads << " threads";
            EXPECT_EQ(run.histories, reference.histories)
                << transport_kind_name(kind) << " x " << threads << " threads";
            EXPECT_EQ(run.telemetry_json, reference.telemetry_json)
                << transport_kind_name(kind) << " x " << threads << " threads";
        }
    }
    // A cramped ring changes frame scheduling, never results.
    const Observed cramped = run_fabric(wire::Transport_kind::ring, 2, /*ring_frames=*/2);
    EXPECT_EQ(cramped.report, reference.report);
    EXPECT_EQ(cramped.telemetry_json, reference.telemetry_json);
}

} // namespace
