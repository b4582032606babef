// Flat deterministic codec for the pulse protocol.
//
// Prices what a replica group's pulse traffic would cost across a real
// process boundary. Every sim::Message already carries its payload as a flat
// common::Shared_payload byte buffer, so the wire format frames those bytes
// as-is instead of serializing C++ objects.
// One frame per message, fixed little-endian layout:
//
//   offset  size  field
//   ------  ----  --------------------------------------------------------
//        0     4  magic "GAW1" (frame sync / corruption tripwire)
//        4     4  from     (Processor_id, two's-complement LE)
//        8     4  to       (Processor_id, two's-complement LE)
//       12     8  sent_at  (Pulse, two's-complement LE)
//       20     4  payload length L (u32 LE)
//       24     L  payload bytes (the Shared_payload buffer, verbatim)
//     24+L     8  checksum (u64 LE, FNV-1a over bytes [0, 24+L))
//
// Encoding copies straight from the refcounted payload buffer — no
// intermediate serialization copy; encode_unsealed writes into bytes the
// caller owns, which need no zero-fill first — and decode_frame mints
// exactly one fresh Shared_payload per frame (the single unavoidable copy
// off the wire); decode_frame_view verifies a frame and leaves the minting
// to the caller, which lets a receiver mint one payload for all copies of a
// broadcast. Truncation and corruption throw common::Contract_error naming
// the byte offset where the damage was detected, so a fuzzer's replay seed
// pinpoints the bad frame.
//
// The checksum is the frame's dominant cost: FNV-1a is one serial
// multiply per byte. Many frames are therefore checksummed together
// (fnv1a_many keeps k_checksum_lanes independent hash chains in flight), a
// batch of frames at a time through Frame_batch: a producer encodes frames
// with their checksum field unset and seals them all at once; a consumer
// bounds-checks each frame's header and length as it queues it, verifies
// every checksum together, and delivers the frames in order up to the
// first damaged one, which throws exactly what decode_frame_view would.
// encode_batch, decode_batch and the ring transport (transport.h), which
// seals and receives one pulse's frames as one batch, use it.
//
// Determinism: encode is a pure function of the message, decode of the
// bytes; batch encode/decode preserve order. The transports (transport.h)
// rely on round-trips being byte-exact so loopback and ring runs produce
// bit-identical verdicts, stats, and telemetry.
#ifndef GA_WIRE_CODEC_H
#define GA_WIRE_CODEC_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "sim/processor.h"

namespace ga::wire {

/// Frame sync bytes ("GAW1": game-authority wire, layout v1).
inline constexpr std::array<std::uint8_t, 4> k_frame_magic = {'G', 'A', 'W', '1'};

/// Fixed header bytes before the payload (magic + from + to + sent_at + len).
inline constexpr std::size_t k_frame_header_bytes = 24;

/// Trailing checksum bytes.
inline constexpr std::size_t k_frame_checksum_bytes = 8;

/// Total framing overhead per message (header + checksum).
inline constexpr std::size_t k_frame_overhead = k_frame_header_bytes + k_frame_checksum_bytes;

/// Encoded size of one message's frame. Pure arithmetic — both transports
/// size a pulse with this (the loopback one instead of encoding), which is
/// how `wire.*` telemetry stays bit-identical between loopback and ring.
[[nodiscard]] inline std::size_t encoded_size(const sim::Message& msg)
{
    return k_frame_overhead + msg.payload.size();
}

/// Independent FNV-1a chains fnv1a_many keeps in flight. Each chain's
/// per-byte multiply waits on the one before, so one chain leaves the
/// multiplier mostly idle; four fill it on common cores.
inline constexpr std::size_t k_checksum_lanes = 4;

/// 64-bit FNV-1a of `bytes`: a frame's checksum over its header and payload.
[[nodiscard]] std::uint64_t fnv1a(common::Byte_view bytes);

/// out[i] = fnv1a(spans[i]) for every i, computed k_checksum_lanes spans at
/// a time: when a chain finishes its span it takes the next pending one, so
/// spans of unequal length keep every chain busy. `out` must be at least as
/// long as `spans`.
void fnv1a_many(std::span<const common::Byte_view> spans, std::span<std::uint64_t> out);

/// Append one frame to `out`. The payload bytes are copied once, directly
/// from the refcounted buffer into the frame.
void encode_frame(const sim::Message& msg, common::Bytes& out);

/// Append the frame of `msg`'s copy to recipient `to` (a broadcast entry's
/// copies differ from the entry only in `to`).
void encode_frame(const sim::Message& msg, common::Processor_id to, common::Bytes& out);

/// encode_frame without the checksum, written in place: `frame` must be
/// exactly encoded_size(msg) bytes, and every one of them is written once,
/// the checksum field as zero (Frame_batch::add_unsealed and seal() fill it
/// in). Nothing needs zero-filling first.
void encode_unsealed(const sim::Message& msg, common::Processor_id to,
                     std::span<std::uint8_t> frame);

/// One decoded frame whose payload still views the frame's bytes.
struct Frame_view {
    common::Processor_id from = -1;
    common::Processor_id to = -1;
    common::Pulse sent_at = 0;
    common::Byte_view payload;
};

/// Decode and verify the frame starting at `offset`, advancing `offset`
/// past it, without minting a payload: the caller copies or compares the
/// viewed bytes while `buf` is unchanged. Throws like decode_frame.
[[nodiscard]] Frame_view decode_frame_view(common::Byte_view buf, std::size_t& offset);

/// Decode the frame starting at `offset`, advancing `offset` past it. Mints
/// a fresh Shared_payload for the decoded message. Throws
/// common::Contract_error naming the byte offset on a short buffer, bad
/// magic, or checksum mismatch.
[[nodiscard]] sim::Message decode_frame(common::Byte_view buf, std::size_t& offset);

/// Frames checksummed together (fnv1a_many). The producer end queues
/// unsealed frames and seals them; the consumer end queues received frames
/// and delivers them. The queue keeps its capacity, so a caller that reuses
/// one batch allocates nothing in the steady state.
class Frame_batch {
public:
    /// Empty the queue.
    void clear();

    // ---- Producer end.

    /// Queue one whole unsealed frame (see encode_unsealed): the bytes must
    /// stay put until seal().
    void add_unsealed(std::span<std::uint8_t> frame);

    /// Fill in the checksum field of every queued frame, then empty the
    /// queue.
    void seal();

    // ---- Consumer end.

    /// Bounds-check the frame starting at `offset` of `buf` — whole header,
    /// magic, whole payload and checksum — and queue it, advancing `offset`
    /// past it. Its checksum is not looked at yet. False when the header or
    /// length is damaged: the error is held for deliver(), and nothing more
    /// may be queued.
    bool add_received(common::Byte_view buf, std::size_t& offset);

    /// Verify every queued frame's checksum together, pass each frame's
    /// view to `sink` in queue order up to the first damaged frame, then
    /// throw that frame's error: a checksum mismatch, or the header error
    /// add_received held. The message and byte offset are those
    /// decode_frame_view gives for that frame. Empties the queue, also when
    /// it or `sink` throws.
    template <typename Sink>
    void deliver(Sink&& sink)
    {
        const std::size_t good = verify();
        try {
            for (std::size_t i = 0; i < good; ++i) sink(std::as_const(views_[i]));
        } catch (...) {
            clear();
            throw;
        }
        finish(good);
    }

private:
    /// Checksum every queued frame; the count of leading frames that match.
    std::size_t verify();
    /// Empty the queue, then throw the damage after the first `good` frames
    /// (none when every queued frame matched and no header error is held).
    void finish(std::size_t good);

    std::vector<Frame_view> views_;        ///< received frames
    std::vector<std::size_t> starts_;      ///< their offsets, for errors
    std::vector<std::uint8_t*> unsealed_;  ///< producer frames' checksum fields
    std::vector<common::Byte_view> spans_; ///< the bytes each checksum covers
    std::vector<std::uint64_t> sums_;      ///< fnv1a_many's results
    const char* damage_ = nullptr;         ///< held header error, if any
    std::size_t damage_at_ = 0;            ///< the byte offset it names
};

/// Append every message's frame to `out`, in order: encoded unsealed, then
/// sealed together.
void encode_batch(const std::vector<sim::Message>& batch, common::Bytes& out);

/// Decode frames back-to-back until the buffer is exhausted, checksumming
/// them together. Throws common::Contract_error (with the byte offset) at
/// the first damaged frame, as decoding them one by one would.
[[nodiscard]] std::vector<sim::Message> decode_batch(const common::Bytes& buf);

} // namespace ga::wire

#endif // GA_WIRE_CODEC_H
