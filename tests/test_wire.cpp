// The wire layer: flat frame codec (layout, round-trips, damage detection
// with byte offsets), the zero-copy loopback link, the ring link's per-pulse
// frame buffer (frames byte-equal to encode_frame across pulses that grow and
// shrink, payloads identical to loopback), batched checksums (encode_batch
// byte-equal to encode_frame; the first damaged frame named, and only the
// frames before it delivered), and the fabric-level determinism contract —
// verdicts, stats, and telemetry JSON bit-identical between loopback and ring
// and across executor widths.
// bench_wire (E19) re-checks codec and transport throughput at scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>

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

TEST(Wire, LoopbackMovesHandlesWithoutCopyingAndAccountsArithmetically)
{
    EXPECT_STREQ(wire::transport_kind_name(wire::Transport_kind::loopback), "loopback");
    EXPECT_STREQ(wire::transport_kind_name(wire::Transport_kind::ring), "ring");
    auto link = wire::make_transport({});
    ASSERT_EQ(link->kind(), wire::Transport_kind::loopback);

    std::vector<std::vector<sim::Message>> inboxes(2);
    inboxes[1].push_back(make_message(0, 1, Bytes{1, 2, 3, 4}, 9));
    const std::uint8_t* before = inboxes[1][0].payload.data();

    sim::Pulse_batch batch{inboxes};
    link->cross_pulse(batch, 9);
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
    sim::Pulse_batch empty_batch{empty};
    link->cross_pulse(empty_batch, 10);
    EXPECT_EQ(link->stats().pulses, 1);
}

TEST(WireRing, CrossPulseDeliversLoopbackIdenticalMessagesAndStats)
{
    wire::Wire_config ring_config;
    ring_config.kind = wire::Transport_kind::ring;
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
    sim::Pulse_batch ring_batch{via_ring};
    sim::Pulse_batch loopback_batch{via_loopback};
    ring->cross_pulse(ring_batch, 50);
    loopback->cross_pulse(loopback_batch, 50);

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
}

// --------------------------------------------------------- Batched checksums

/// Frames of wildly unequal length, an empty payload among them.
std::vector<sim::Message> uneven_messages()
{
    std::vector<sim::Message> batch;
    for (const std::size_t length : {0, 700, 3, 64, 1500, 1, 129}) {
        Bytes payload(length);
        for (std::size_t i = 0; i < length; ++i) {
            payload[i] = static_cast<std::uint8_t>(i * 7 + length);
        }
        const auto id = static_cast<common::Processor_id>(batch.size());
        batch.push_back(make_message(id, id + 1, std::move(payload), 40 + id));
    }
    return batch;
}

/// Each message's frame, back to back, and where each frame starts.
Bytes concatenated_frames(const std::vector<sim::Message>& batch,
                          std::vector<std::size_t>* starts = nullptr)
{
    Bytes buf;
    for (const sim::Message& msg : batch) {
        if (starts != nullptr) starts->push_back(buf.size());
        wire::encode_frame(msg, buf);
    }
    return buf;
}

TEST(WireBatch, EncodeBatchEqualsConcatenatedFrames)
{
    const std::vector<sim::Message> batch = uneven_messages();
    const Bytes want = concatenated_frames(batch);
    Bytes got;
    wire::encode_batch(batch, got);
    EXPECT_EQ(got, want);

    // encode_batch appends: bytes already in the buffer stay put.
    Bytes appended{0xDE, 0xAD};
    wire::encode_batch(batch, appended);
    ASSERT_EQ(appended.size(), 2 + want.size());
    EXPECT_EQ(appended[0], 0xDE);
    EXPECT_TRUE(std::equal(want.begin(), want.end(), appended.begin() + 2));

    Bytes none;
    wire::encode_batch({}, none);
    EXPECT_TRUE(none.empty());

    // Long enough to be sealed in several rounds.
    std::vector<sim::Message> long_batch;
    for (int i = 0; i < 100; ++i) long_batch.insert(long_batch.end(), batch.begin(), batch.end());
    Bytes long_got;
    wire::encode_batch(long_batch, long_got);
    EXPECT_EQ(long_got, concatenated_frames(long_batch));
}

TEST(WireBatch, RingPublishesExactlyTheEncodedFrames)
{
    wire::Wire_config ring_config;
    ring_config.kind = wire::Transport_kind::ring;
    auto ring = wire::make_transport(ring_config);
    auto loopback = wire::make_transport({});
    const auto* as_ring = dynamic_cast<const wire::Ring_transport*>(ring.get());
    ASSERT_NE(as_ring, nullptr);

    // Pulses of growing, then shrinking byte counts: the buffer grows twice
    // mid-run, and every later pulse overwrites a longer one's bytes, which
    // must not leak into its frames.
    const std::vector<sim::Message> shapes = uneven_messages();
    constexpr int n = 3;
    const std::vector<std::size_t> frames_per_pulse = {1, 4, 9, 9, 5, 2, 0, 1};
    std::size_t next_shape = 0;
    std::size_t largest = 0;
    int grew = 0;
    int shrank = 0;
    for (std::size_t p = 0; p < frames_per_pulse.size(); ++p) {
        const auto at = static_cast<common::Pulse>(p);
        // Unicasts into rows, plus one broadcast from sender 1 on odd pulses.
        const auto build = [&, start = next_shape] {
            std::vector<std::vector<sim::Message>> rows(n);
            std::vector<sim::Outbox> entries(n);
            std::size_t shape = start;
            for (std::size_t i = 0; i < frames_per_pulse[p]; ++i, ++shape) {
                const auto to = static_cast<common::Processor_id>(i % n);
                const Bytes& payload = shapes[shape % shapes.size()].payload.bytes();
                rows[static_cast<std::size_t>(to)].push_back(
                    make_message((to + 1) % n, to, payload, at));
            }
            if (p % 2 == 1) {
                entries[1].broadcasts.push_back(
                    make_message(1, -1, shapes[shape % shapes.size()].payload.bytes(), at));
            }
            return std::pair{std::move(rows), std::move(entries)};
        };
        auto [ring_rows, ring_entries] = build();
        auto [loop_rows, loop_entries] = build();
        next_shape += frames_per_pulse[p] + 1;

        // What the ring must carry, in crossing order: the rows, then the
        // broadcast once per recipient.
        Bytes want;
        for (const auto& row : ring_rows) {
            for (const sim::Message& msg : row) wire::encode_frame(msg, want);
        }
        for (std::size_t from = 0; from < n; ++from) {
            for (const sim::Message& entry : ring_entries[from].broadcasts) {
                for (common::Processor_id to = 0; to < n; ++to) {
                    if (to != static_cast<common::Processor_id>(from)) {
                        wire::encode_frame(entry, to, want);
                    }
                }
            }
        }

        sim::Pulse_batch ring_batch{ring_rows, &ring_entries};
        sim::Pulse_batch loop_batch{loop_rows, &loop_entries};
        ring->cross_pulse(ring_batch, at);
        loopback->cross_pulse(loop_batch, at);
        const common::Byte_view got = as_ring->last_frames();
        EXPECT_EQ(Bytes(got.begin(), got.end()), want) << "pulse " << p;
        for (std::size_t row = 0; row < n; ++row) {
            ASSERT_EQ(ring_rows[row].size(), loop_rows[row].size());
            for (std::size_t i = 0; i < ring_rows[row].size(); ++i) {
                expect_same_message(ring_rows[row][i], loop_rows[row][i]);
            }
            ASSERT_EQ(ring_entries[row].broadcasts.size(), loop_entries[row].broadcasts.size());
            for (std::size_t i = 0; i < ring_entries[row].broadcasts.size(); ++i) {
                expect_same_message(ring_entries[row].broadcasts[i],
                                    loop_entries[row].broadcasts[i]);
            }
        }
        EXPECT_EQ(ring->stats(), loopback->stats()) << "pulse " << p;
        grew += p > 0 && got.size() > largest ? 1 : 0;
        shrank += got.size() < largest ? 1 : 0;
        largest = std::max(largest, got.size());
    }
    EXPECT_GE(grew, 2) << "the buffer must grow after the first pulse";
    EXPECT_GE(shrank, 3) << "shorter pulses must follow longer ones";
}

TEST(WireBatch, DecodeBatchThrowsAtTheFirstDamagedFrame)
{
    std::vector<std::size_t> starts;
    const Bytes buf = concatenated_frames(uneven_messages(), &starts);
    const std::size_t last = starts.size() - 1;
    const auto error = [](const Bytes& damaged) {
        return thrown_what([&] { (void)wire::decode_batch(damaged); });
    };
    const auto at = [](const char* what, std::size_t byte) {
        return std::string{"wire: "} + what + " at byte " + std::to_string(byte);
    };
    // Flip the sent_at byte: inside the checksummed header of every frame,
    // the empty-payload one included.
    const auto flip = [&](Bytes& damaged, std::size_t frame) {
        damaged[starts[frame] + 12] ^= 0x40;
    };

    for (const std::size_t victim : {std::size_t{0}, std::size_t{3}, last}) {
        Bytes damaged = buf;
        flip(damaged, victim);
        EXPECT_EQ(error(damaged), at("frame checksum mismatch", starts[victim]));
    }

    // Two damaged frames: the earlier one is named.
    Bytes twice = buf;
    flip(twice, 4);
    flip(twice, 1);
    EXPECT_EQ(error(twice), at("frame checksum mismatch", starts[1]));

    // Within a frame the header checks win over the checksum: a damaged
    // magic also breaks the checksum, and is what gets named.
    Bytes magic = buf;
    magic[starts[2]] ^= 0x01;
    EXPECT_EQ(error(magic), at("bad frame magic", starts[2]));

    // Across frames the earlier damage wins, whichever kind it is.
    Bytes magic_first = buf;
    magic_first[starts[2]] ^= 0x01;
    flip(magic_first, 5);
    EXPECT_EQ(error(magic_first), at("bad frame magic", starts[2]));
    Bytes checksum_first = buf;
    flip(checksum_first, 1);
    checksum_first[starts[5]] ^= 0x01;
    EXPECT_EQ(error(checksum_first), at("frame checksum mismatch", starts[1]));

    // A truncated last frame, alone and behind an earlier damaged frame.
    const Bytes cut{buf.begin(), buf.end() - 1};
    EXPECT_EQ(error(cut), at("truncated frame payload", starts[last] + wire::k_frame_header_bytes));
    Bytes cut_after = cut;
    flip(cut_after, 2);
    EXPECT_EQ(error(cut_after), at("frame checksum mismatch", starts[2]));
    const Bytes short_header{buf.begin(),
                             buf.begin() + static_cast<std::ptrdiff_t>(starts[last] + 5)};
    EXPECT_EQ(error(short_header), at("truncated frame header", starts[last]));
}

TEST(WireBatch, FramesBeforeTheDamageReachTheSinkAndLaterOnesDoNot)
{
    std::vector<std::size_t> starts;
    const Bytes buf = concatenated_frames(uneven_messages(), &starts);
    const auto deliver = [](wire::Frame_batch& frames, const Bytes& bytes,
                            std::vector<common::Processor_id>& seen) {
        std::size_t offset = 0;
        while (offset < bytes.size() && frames.add_received(bytes, offset)) {
        }
        return thrown_what([&] {
            frames.deliver([&](const wire::Frame_view& frame) { seen.push_back(frame.from); });
        });
    };
    wire::Frame_batch frames;

    Bytes damaged = buf;
    damaged[starts[3] + wire::k_frame_header_bytes] ^= 0x01; // frame 3's payload
    std::vector<common::Processor_id> seen;
    EXPECT_EQ(deliver(frames, damaged, seen),
              "wire: frame checksum mismatch at byte " + std::to_string(starts[3]));
    EXPECT_EQ(seen, (std::vector<common::Processor_id>{0, 1, 2}));

    // A header error stops the queue where it is found; the frames before
    // it are still verified and delivered first.
    Bytes bad_magic = buf;
    bad_magic[starts[5]] ^= 0x01;
    seen.clear();
    EXPECT_EQ(deliver(frames, bad_magic, seen),
              "wire: bad frame magic at byte " + std::to_string(starts[5]));
    EXPECT_EQ(seen, (std::vector<common::Processor_id>{0, 1, 2, 3, 4}));

    // A throw empties the batch: the next round starts clean.
    seen.clear();
    EXPECT_EQ(deliver(frames, buf, seen), "");
    EXPECT_EQ(seen.size(), starts.size());
}

TEST(WireBatch, RingPoolNeverRefillsAPayloadSomeoneStillHolds)
{
    wire::Wire_config config;
    config.kind = wire::Transport_kind::ring;
    auto link = wire::make_transport(config);
    // One sender, a new payload every pulse. Every third delivered payload
    // is kept past its pulse, more of them than the sender's pool has
    // buffers; the rest are dropped and may be recycled.
    std::vector<common::Shared_payload> held;
    std::vector<Bytes> held_bytes;
    for (int pulse = 0; pulse < 60; ++pulse) {
        std::vector<std::vector<sim::Message>> inboxes(2);
        const Bytes payload(static_cast<std::size_t>(8 + pulse % 5),
                            static_cast<std::uint8_t>(pulse));
        inboxes[1].push_back(make_message(0, 1, payload, pulse));
        sim::Pulse_batch batch{inboxes};
        link->cross_pulse(batch, pulse);
        ASSERT_EQ(inboxes[1][0].payload.bytes(), payload) << "pulse " << pulse;
        if (pulse % 3 == 0) {
            held.push_back(inboxes[1][0].payload);
            held_bytes.push_back(payload);
        }
    }
    for (std::size_t i = 0; i < held.size(); ++i) {
        EXPECT_EQ(held[i].bytes(), held_bytes[i]) << "held payload " << i << " was refilled";
    }
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

Observed run_fabric(wire::Transport_kind kind, int threads)
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
}

} // namespace
