// Pluggable cross-boundary transports for one shard's pulse traffic.
//
// Every pulse, a shard's engine delivers its replica group's intra-group
// pulse traffic — the replicas' agreement rounds, commitments, reveals and
// clock beacons — as in-address-space Shared_payload handles: per-recipient
// rows plus one entry per broadcast. A Transport makes that boundary
// explicit: the engine hands it the whole pulse's deliveries
// (sim::Pulse_batch through sim::Pulse_link) and the transport moves them
// "across". A real boundary carries one frame per recipient copy, so both
// transports size a pulse with one arithmetic walk: codec.h encoded_size of
// each row message, and of each broadcast entry times its rows.size() - 1
// recipient copies. Two implementations:
//
//   Loopback_transport  the historical behavior, now explicit: leaves the
//                       refcounted payload handles in place, encodes
//                       nothing, and accounts the pulse from that walk
//                       alone, so its telemetry matches the ring's bit for
//                       bit.
//
//   Ring_transport      a real boundary's cost model in-process: every
//                       recipient copy is encoded through the flat frame
//                       codec into one buffer the transport owns, the whole
//                       pulse is checksummed together (codec.h Frame_batch),
//                       and every frame is bounds-checked, verified and
//                       decoded back out in order. Both ends run on the
//                       engine's coordinating thread, so the pulse needs no
//                       queue: the buffer is sized to the pulse, written
//                       without zero-fill, and grows only to the largest
//                       pulse seen. The receiving end mints one payload per
//                       broadcast, as a remote peer would: a frame whose
//                       sender and sent_at match that sender's previous
//                       frame and whose bytes compare equal reuses its
//                       payload. Payloads are minted into a small recycled
//                       pool per sender, so the steady state copies each
//                       broadcast off the wire once and allocates nothing
//                       for it.
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
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine.h"
#include "telemetry/telemetry.h"
#include "wire/codec.h"

namespace ga::wire {

enum class Transport_kind : std::uint8_t {
    loopback, ///< zero-copy in-process handle move (default)
    ring,     ///< codec round-trip of every recipient copy
};

/// Spelled-out kind (stable names for configs, benches, exporters).
[[nodiscard]] const char* transport_kind_name(Transport_kind kind);

/// Per-shard link selection (Fabric_config::transport).
struct Wire_config {
    Transport_kind kind = Transport_kind::loopback;

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

/// Codec round-trip link: every recipient copy is framed into one buffer
/// the transport owns, the frames are sealed together, then bounds-checked,
/// verified and decoded into a minted payload that replaces the handle each
/// was framed from — the full cost model of a process boundary, in-process.
/// The buffer is written without zero-fill and grows to exactly the largest
/// pulse seen. Minted payloads come from a pool of k_pool_buffers recycled
/// buffers per sender; a buffer is refilled only once use_count() reads 1
/// (the pool is its sole holder), and when every one is still held a slot
/// gets a fresh buffer while the old one lives on with its holders.
class Ring_transport final : public Transport {
public:
    [[nodiscard]] Transport_kind kind() const override { return Transport_kind::ring; }
    void cross_pulse(sim::Pulse_batch& batch, common::Pulse at) override;

    /// The most recent pulse's frames, back to back in crossing order: the
    /// rows' messages, then each broadcast entry once per recipient.
    [[nodiscard]] common::Byte_view last_frames() const { return {buffer_.get(), size_}; }

private:
    /// The payload for a decoded frame from in-range sender `frame.from`.
    const common::Shared_payload& mint(const Frame_view& frame);

    // A receiving replica's section buffer holds a sender's payloads for
    // several pulses. On the serve workload's shard shape (test_alloc_budget),
    // measured while frames still crossed a slot ring, a play made 235
    // allocations with four buffers per sender and 191 with eight, which
    // almost never finds them all held.
    static constexpr std::size_t k_pool_buffers = 8;

    /// A sender's recycled payload buffers and its most recent mint.
    struct Sender_pool {
        std::array<common::Shared_payload, k_pool_buffers> buffers;
        std::size_t last = 0;       ///< slot of the most recent mint
        common::Pulse sent_at = -1; ///< its sent_at; -1 = none this pulse
    };

    std::unique_ptr<std::uint8_t[]> buffer_;       ///< one pulse's frames
    std::size_t size_ = 0;                         ///< bytes of the last pulse
    std::size_t capacity_ = 0;                     ///< bytes buffer_ holds
    Frame_batch frame_batch_;                      ///< sealed, then received
    std::vector<common::Shared_payload*> targets_; ///< each frame's handle
    std::vector<Sender_pool> pools_;               ///< by sender
};

/// Mint the configured transport.
[[nodiscard]] std::unique_ptr<Transport> make_transport(const Wire_config& config);

} // namespace ga::wire

#endif // GA_WIRE_TRANSPORT_H
