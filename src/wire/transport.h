// Pluggable cross-boundary transports for one shard's pulse traffic.
//
// Every pulse, a shard's engine delivers its replica group's intra-group
// pulse traffic — the replicas' agreement rounds, commitments, reveals and
// clock beacons — as in-address-space Shared_payload handles: per-recipient
// rows plus one entry per broadcast. A Transport makes that boundary
// explicit: the engine hands it the whole pulse's deliveries
// (sim::Pulse_batch through sim::Pulse_link) and the transport moves them
// "across". A real boundary carries one frame per recipient copy, so both
// transports count a broadcast entry as rows.size() - 1 frames. Two
// implementations:
//
//   Loopback_transport  the historical behavior, now explicit: leaves the
//                       refcounted payload handles in place, encodes
//                       nothing. Wire accounting is computed arithmetically
//                       (codec.h encoded_size, times the recipient copies of
//                       an entry), so its telemetry matches the ring's bit
//                       for bit.
//
//   Ring_transport      a real boundary's cost model in-process: every
//                       recipient copy is encoded through the flat frame
//                       codec into a lock-free SPSC ring of frames (fixed
//                       power-of-two capacity, acquire/release atomics only,
//                       one batched publish per pulse), and every frame is
//                       decoded back out and checksum-verified. Checksums
//                       are computed many frames at a time (codec.h
//                       Frame_batch): publish() seals every staged frame
//                       together, and the consumer verifies everything
//                       published together before handing the frames on in
//                       order. The consumer mints one payload per
//                       broadcast, as a remote peer would: a frame whose
//                       sender and sent_at match that sender's previous
//                       frame and whose bytes compare equal reuses its
//                       payload. Payloads are minted into a small recycled
//                       pool per sender, so the steady state copies each
//                       broadcast off the wire once and allocates nothing
//                       for it. Swapping the ring's two ends into separate
//                       processes is the one remaining step to the
//                       distributed north star.
//
// Determinism contract (extends the fabric's): verdicts, stats, and
// telemetry are bit-identical between loopback and ring and across executor
// widths. Everything a transport observes into telemetry is therefore
// transport-invariant by construction: frames = recipient copies crossed,
// bytes = encoded frame size, high water = the largest one-pulse batch in
// flight.
// Wall-clock encode/decode cost is measured by bench_wire (E19), never by
// the deterministic sink.
#ifndef GA_WIRE_TRANSPORT_H
#define GA_WIRE_TRANSPORT_H

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/engine.h"
#include "telemetry/telemetry.h"
#include "wire/codec.h"

namespace ga::wire {

enum class Transport_kind : std::uint8_t {
    loopback, ///< zero-copy in-process handle move (default)
    ring,     ///< codec round-trip through the SPSC frame ring
};

/// Spelled-out kind (stable names for configs, benches, exporters).
[[nodiscard]] const char* transport_kind_name(Transport_kind kind);

/// Per-shard link selection (Fabric_config::transport). validate() throws
/// Contract_error naming the offending field.
struct Wire_config {
    Transport_kind kind = Transport_kind::loopback;
    /// Ring capacity in frames; must be a power of two. A pulse batch larger
    /// than the ring still crosses — the in-process consumer drains mid-batch
    /// exactly where a remote peer would apply backpressure.
    int ring_frames = 1024;

    void validate() const;

    friend bool operator==(const Wire_config&, const Wire_config&) = default;
};

/// Deterministic link accounting, identical for every transport kind.
struct Link_stats {
    std::int64_t pulses = 0;     ///< pulses that crossed >= 1 frame
    std::int64_t frames = 0;     ///< recipient copies crossed
    std::int64_t bytes = 0;      ///< encoded frame bytes (header + payload + checksum)
    std::int64_t high_water = 0; ///< largest one-pulse batch, in frames

    friend bool operator==(const Link_stats&, const Link_stats&) = default;
};

/// Base transport: implements the engine hook's accounting and telemetry;
/// subclasses implement the actual crossing.
class Transport : public sim::Pulse_link {
public:
    [[nodiscard]] virtual Transport_kind kind() const = 0;
    [[nodiscard]] const Link_stats& stats() const { return stats_; }

    /// Attach a sink (nullptr detaches); caches the wire.* counter/gauge/
    /// histogram references once so the per-pulse cost is a few adds.
    /// Observer-only, and transport-invariant: loopback and ring write the
    /// same values, so telemetry JSON stays byte-identical across kinds.
    void set_telemetry(telemetry::Telemetry_sink* sink);

protected:
    /// Fold one crossed pulse batch into the stats and the sink. No-op for
    /// an empty pulse (both kinds skip it, keeping histograms comparable).
    void account(std::int64_t frames, std::int64_t bytes);

private:
    Link_stats stats_;
    telemetry::Telemetry_sink* sink_ = nullptr;
    std::int64_t* tel_pulses_ = nullptr;
    std::int64_t* tel_frames_ = nullptr;
    std::int64_t* tel_bytes_ = nullptr;
    telemetry::Histogram* tel_pulse_frames_ = nullptr;
    telemetry::Histogram* tel_pulse_bytes_ = nullptr;
    double* tel_high_water_ = nullptr;
};

/// In-process zero-copy link: payload handles stay put, nothing is encoded.
class Loopback_transport final : public Transport {
public:
    [[nodiscard]] Transport_kind kind() const override { return Transport_kind::loopback; }
    void cross_pulse(sim::Pulse_batch& batch, common::Pulse at) override;
};

/// Lock-free single-producer/single-consumer ring of encoded frames. Fixed
/// power-of-two capacity; one byte buffer per slot, reused across frames so
/// the steady state allocates nothing. A frame is written into its slot
/// without zero-filling it first, and a slot grows to exactly the largest
/// frame it has carried, never geometrically. Producer stages frames into
/// free slots with their checksum unset and publishes them with one release
/// store per batch, sealing every staged frame's checksum together just
/// before it; the consumer takes everything published with one acquire load
/// and verifies it together (consume) or pops one frame (try_pop). Both
/// ends currently run on the shard's coordinating thread, but the
/// synchronization is complete — splitting the ends across threads (or, via
/// shared memory, processes) needs no change here.
class Spsc_frame_ring {
public:
    explicit Spsc_frame_ring(int capacity);

    [[nodiscard]] int capacity() const { return static_cast<int>(mask_ + 1); }

    // ---- Producer end.

    /// Encode `msg` into the next free slot (unpublished, checksum unset).
    /// False when the ring is full — publish() and let the consumer drain
    /// first.
    [[nodiscard]] bool try_stage(const sim::Message& msg) { return try_stage(msg, msg.to); }

    /// Encode `msg`'s copy to recipient `to` (see encode_frame).
    [[nodiscard]] bool try_stage(const sim::Message& msg, common::Processor_id to);

    /// Fill in every staged frame's checksum, together, then release them to
    /// the consumer in one atomic publish.
    void publish();

    // ---- Consumer end.

    /// Decode the oldest published frame into `out`. False when empty.
    [[nodiscard]] bool try_pop(sim::Message& out);

    /// Take every frame published so far: bounds-check each one's header and
    /// length, verify all their checksums together, then pass each frame's
    /// view to `sink` in order, releasing its slot once `sink` returns.
    /// Throws at the first damaged frame as decode_frame_view would, after
    /// `sink` has seen the frames before it; that frame and the ones after
    /// it stay unconsumed. Returns the frames consumed.
    template <typename Sink>
    std::size_t consume(Sink&& sink)
    {
        const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
        cached_head_ = head_.load(std::memory_order_acquire);
        for (std::uint64_t at = tail; at != cached_head_; ++at) {
            std::size_t offset = 0;
            if (!received_.add_received(slots_[at & mask_].frame(), offset)) break;
        }
        std::uint64_t next = tail;
        received_.deliver([&](const Frame_view& frame) {
            sink(frame);
            tail_.store(++next, std::memory_order_release);
        });
        return static_cast<std::size_t>(next - tail);
    }

    // ---- Gauges (read from the producer side).

    /// Published frames not yet consumed.
    [[nodiscard]] std::int64_t depth() const;

    /// Deepest the ring has ever been at a publish edge. Distinct from the
    /// link's batch high water: a batch larger than the ring drains mid-
    /// pulse, so this tops out at the capacity.
    [[nodiscard]] std::int64_t depth_high_water() const { return depth_high_water_; }

private:
    /// One frame's bytes, written in place without zero-fill. The buffer
    /// grows to exactly the largest frame the slot has carried.
    struct Slot {
        std::unique_ptr<std::uint8_t[]> bytes;
        std::size_t size = 0;
        std::size_t capacity = 0;

        [[nodiscard]] std::span<std::uint8_t> frame() const { return {bytes.get(), size}; }
    };

    std::vector<Slot> slots_;
    std::uint64_t mask_;
    alignas(64) std::atomic<std::uint64_t> head_{0}; ///< published count (producer writes)
    alignas(64) std::atomic<std::uint64_t> tail_{0}; ///< consumed count (consumer writes)
    // Producer-local state (no sharing): staging cursor + cached tail.
    std::uint64_t staged_ = 0;
    std::uint64_t cached_tail_ = 0;
    Frame_batch staged_frames_; ///< sealed at publish
    // Consumer-local cached head and verification batch.
    std::uint64_t cached_head_ = 0;
    Frame_batch received_;
    std::int64_t depth_high_water_ = 0;
};

/// Codec round-trip link: every recipient copy is framed, pushed through
/// the SPSC ring (batched publish per pulse), popped, verified and decoded
/// into a minted payload that replaces the handle it was framed from — the
/// full cost model of a process boundary, in-process. Minted payloads come
/// from a pool of k_pool_buffers recycled buffers per sender; a buffer is
/// refilled only once use_count() reads 1 (the pool is its sole holder),
/// and when every one is still held a slot gets a fresh buffer while the
/// old one lives on with its holders.
class Ring_transport final : public Transport {
public:
    explicit Ring_transport(int ring_frames);

    [[nodiscard]] Transport_kind kind() const override { return Transport_kind::ring; }
    void cross_pulse(sim::Pulse_batch& batch, common::Pulse at) override;

    [[nodiscard]] const Spsc_frame_ring& ring() const { return ring_; }

private:
    /// Frame `msg`'s copy to `to`, draining mid-batch when the ring is full.
    void stage(sim::Message& msg, common::Processor_id to, std::size_t n);
    /// Pop everything published so far into the handles it was framed from.
    void drain(std::size_t n);

    /// The payload for a decoded frame from in-range sender `frame.from`.
    const common::Shared_payload& mint(const Frame_view& frame);

    // A receiving replica's section buffer holds a sender's payloads for
    // several pulses. On the serve workload's shard shape (test_alloc_budget)
    // a play made 235 allocations with four buffers per sender and 191 with
    // eight, which almost never finds them all held.
    static constexpr std::size_t k_pool_buffers = 8;

    /// A sender's recycled payload buffers and its most recent mint.
    struct Sender_pool {
        std::array<common::Shared_payload, k_pool_buffers> buffers;
        std::size_t last = 0;       ///< slot of the most recent mint
        common::Pulse sent_at = -1; ///< its sent_at; -1 = none this pulse
    };

    Spsc_frame_ring ring_;
    std::vector<common::Shared_payload*> targets_; ///< staged frames' handles, FIFO
    std::size_t consumed_ = 0;                     ///< targets_ already decoded
    std::vector<Sender_pool> pools_;               ///< by sender
};

/// Mint the configured transport (validates `config`).
[[nodiscard]] std::unique_ptr<Transport> make_transport(const Wire_config& config);

} // namespace ga::wire

#endif // GA_WIRE_TRANSPORT_H
