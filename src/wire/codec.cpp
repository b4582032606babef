#include "wire/codec.h"

#include <cstring>
#include <string>

#include "common/ensure.h"

namespace ga::wire {

namespace {

constexpr std::uint64_t k_fnv_offset = 14695981039346656037ULL;
constexpr std::uint64_t k_fnv_prime = 1099511628211ULL;

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size)
{
    std::uint64_t hash = k_fnv_offset;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= data[i];
        hash *= k_fnv_prime;
    }
    return hash;
}

void store_u32(std::uint8_t* p, std::uint32_t value)
{
    p[0] = static_cast<std::uint8_t>(value);
    p[1] = static_cast<std::uint8_t>(value >> 8);
    p[2] = static_cast<std::uint8_t>(value >> 16);
    p[3] = static_cast<std::uint8_t>(value >> 24);
}

void store_u64(std::uint8_t* p, std::uint64_t value)
{
    store_u32(p, static_cast<std::uint32_t>(value));
    store_u32(p + 4, static_cast<std::uint32_t>(value >> 32));
}

std::uint32_t read_u32(const std::uint8_t* p)
{
    return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t read_u64(const std::uint8_t* p)
{
    return static_cast<std::uint64_t>(read_u32(p)) |
           (static_cast<std::uint64_t>(read_u32(p + 4)) << 32);
}

[[noreturn]] void throw_at(const char* what, std::size_t offset)
{
    throw common::Contract_error{std::string{"wire: "} + what + " at byte " +
                                 std::to_string(offset)};
}

} // namespace

void encode_frame(const sim::Message& msg, common::Bytes& out)
{
    encode_frame(msg, msg.to, out);
}

void encode_frame(const sim::Message& msg, common::Processor_id to, common::Bytes& out)
{
    // One resize, then the fields stored in place at their fixed offsets.
    const std::size_t start = out.size();
    const std::size_t length = msg.payload.size();
    out.resize(start + k_frame_overhead + length);
    std::uint8_t* frame = out.data() + start;
    std::memcpy(frame, k_frame_magic.data(), k_frame_magic.size());
    store_u32(frame + 4, static_cast<std::uint32_t>(msg.from));
    store_u32(frame + 8, static_cast<std::uint32_t>(to));
    store_u64(frame + 12, static_cast<std::uint64_t>(msg.sent_at));
    store_u32(frame + 20, static_cast<std::uint32_t>(length));
    if (length != 0) std::memcpy(frame + k_frame_header_bytes, msg.payload.data(), length);
    store_u64(frame + k_frame_header_bytes + length,
              fnv1a(frame, k_frame_header_bytes + length));
}

Frame_view decode_frame_view(const common::Bytes& buf, std::size_t& offset)
{
    const std::size_t start = offset;
    if (start > buf.size() || buf.size() - start < k_frame_header_bytes) {
        throw_at("truncated frame header", start);
    }
    const std::uint8_t* frame = buf.data() + start;
    if (std::memcmp(frame, k_frame_magic.data(), k_frame_magic.size()) != 0) {
        throw_at("bad frame magic", start);
    }
    const std::size_t length = read_u32(frame + 20);
    if (buf.size() - start - k_frame_header_bytes < length + k_frame_checksum_bytes) {
        throw_at("truncated frame payload", start + k_frame_header_bytes);
    }
    const std::size_t body = k_frame_header_bytes + length;
    if (read_u64(frame + body) != fnv1a(frame, body)) throw_at("frame checksum mismatch", start);

    Frame_view view;
    view.from = static_cast<common::Processor_id>(read_u32(frame + 4));
    view.to = static_cast<common::Processor_id>(read_u32(frame + 8));
    view.sent_at = static_cast<common::Pulse>(read_u64(frame + 12));
    view.payload = common::Byte_view{frame + k_frame_header_bytes, length};
    offset = start + body + k_frame_checksum_bytes;
    return view;
}

sim::Message decode_frame(const common::Bytes& buf, std::size_t& offset)
{
    const Frame_view view = decode_frame_view(buf, offset);
    sim::Message msg;
    msg.from = view.from;
    msg.to = view.to;
    msg.sent_at = view.sent_at;
    // The one copy off the wire: mint the payload's refcounted buffer
    // directly from the frame's payload bytes.
    msg.payload = common::Shared_payload{common::Bytes{view.payload.begin(), view.payload.end()}};
    return msg;
}

void encode_batch(const std::vector<sim::Message>& batch, common::Bytes& out)
{
    std::size_t total = out.size();
    for (const sim::Message& msg : batch) total += encoded_size(msg);
    out.reserve(total);
    for (const sim::Message& msg : batch) encode_frame(msg, out);
}

std::vector<sim::Message> decode_batch(const common::Bytes& buf)
{
    std::vector<sim::Message> batch;
    std::size_t offset = 0;
    while (offset < buf.size()) batch.push_back(decode_frame(buf, offset));
    return batch;
}

} // namespace ga::wire
