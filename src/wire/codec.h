// Flat deterministic codec for the pulse protocol.
//
// The ROADMAP's "shards as processes" item needs the fabric's cross-boundary
// traffic to survive a real process boundary, and every sim::Message already
// carries its payload as a flat common::Shared_payload byte buffer — so the
// wire format frames those bytes as-is instead of serializing C++ objects.
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
// Encoding appends straight from the refcounted payload buffer — no
// intermediate serialization copy — and decode_frame mints exactly one
// fresh Shared_payload per frame (the single unavoidable copy off the wire);
// decode_frame_view verifies a frame and leaves the minting to the caller,
// which lets a receiver mint one payload for all copies of a broadcast.
// Truncation and corruption throw common::Contract_error naming the byte
// offset where the damage was detected, so a fuzzer's replay seed pinpoints
// the bad frame.
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

/// Encoded size of one message's frame. Pure arithmetic — the loopback
/// transport accounts wire bytes with this instead of encoding, which is how
/// `wire.*` telemetry stays bit-identical between loopback and ring.
[[nodiscard]] inline std::size_t encoded_size(const sim::Message& msg)
{
    return k_frame_overhead + msg.payload.size();
}

/// Append one frame to `out`. The payload bytes are copied once, directly
/// from the refcounted buffer into the frame.
void encode_frame(const sim::Message& msg, common::Bytes& out);

/// Append the frame of `msg`'s copy to recipient `to` (a broadcast entry's
/// copies differ from the entry only in `to`).
void encode_frame(const sim::Message& msg, common::Processor_id to, common::Bytes& out);

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
[[nodiscard]] Frame_view decode_frame_view(const common::Bytes& buf, std::size_t& offset);

/// Decode the frame starting at `offset`, advancing `offset` past it. Mints
/// a fresh Shared_payload for the decoded message. Throws
/// common::Contract_error naming the byte offset on a short buffer, bad
/// magic, or checksum mismatch.
[[nodiscard]] sim::Message decode_frame(const common::Bytes& buf, std::size_t& offset);

/// Append every message's frame to `out`, in order.
void encode_batch(const std::vector<sim::Message>& batch, common::Bytes& out);

/// Decode frames back-to-back until the buffer is exhausted. Throws
/// common::Contract_error (with the byte offset) on any damaged frame.
[[nodiscard]] std::vector<sim::Message> decode_batch(const common::Bytes& buf);

} // namespace ga::wire

#endif // GA_WIRE_CODEC_H
