#include "wire/codec.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <string>

#include "common/ensure.h"

namespace ga::wire {

namespace {

constexpr std::uint64_t k_fnv_offset = 14695981039346656037ULL;
constexpr std::uint64_t k_fnv_prime = 1099511628211ULL;

// encode_batch and decode_batch checksum this many frames at a time, so
// their scratch stays small and in cache however long the buffer is.
constexpr std::size_t k_batch_frames = 256;

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

/// Advance four chains by `step` bytes each, in lockstep: the four
/// multiplies of one byte position are independent, so they overlap. Kept
/// in named locals, so the hashes stay in registers.
void advance_lanes(std::array<const std::uint8_t*, k_checksum_lanes>& data,
                   std::array<std::uint64_t, k_checksum_lanes>& hash, std::size_t step)
{
    static_assert(k_checksum_lanes == 4, "advance_lanes runs four chains");
    const std::uint8_t* p0 = data[0];
    const std::uint8_t* p1 = data[1];
    const std::uint8_t* p2 = data[2];
    const std::uint8_t* p3 = data[3];
    std::uint64_t h0 = hash[0];
    std::uint64_t h1 = hash[1];
    std::uint64_t h2 = hash[2];
    std::uint64_t h3 = hash[3];
    for (std::size_t i = 0; i < step; ++i) {
        h0 = (h0 ^ p0[i]) * k_fnv_prime;
        h1 = (h1 ^ p1[i]) * k_fnv_prime;
        h2 = (h2 ^ p2[i]) * k_fnv_prime;
        h3 = (h3 ^ p3[i]) * k_fnv_prime;
    }
    data = {p0 + step, p1 + step, p2 + step, p3 + step};
    hash = {h0, h1, h2, h3};
}

/// The damage the frame starting at `start` shows before its checksum is
/// looked at (nullptr when none), with the byte offset it names in `at`.
const char* header_damage(common::Byte_view buf, std::size_t start, std::size_t& at)
{
    at = start;
    if (start > buf.size() || buf.size() - start < k_frame_header_bytes) {
        return "truncated frame header";
    }
    const std::uint8_t* frame = buf.data() + start;
    if (std::memcmp(frame, k_frame_magic.data(), k_frame_magic.size()) != 0) {
        return "bad frame magic";
    }
    const std::size_t length = read_u32(frame + 20);
    if (buf.size() - start - k_frame_header_bytes < length + k_frame_checksum_bytes) {
        at = start + k_frame_header_bytes;
        return "truncated frame payload";
    }
    return nullptr;
}

/// The fields of a frame header_damage passed; its payload views `frame`.
Frame_view view_of(const std::uint8_t* frame)
{
    Frame_view view;
    view.from = static_cast<common::Processor_id>(read_u32(frame + 4));
    view.to = static_cast<common::Processor_id>(read_u32(frame + 8));
    view.sent_at = static_cast<common::Pulse>(read_u64(frame + 12));
    view.payload = common::Byte_view{frame + k_frame_header_bytes, read_u32(frame + 20)};
    return view;
}

/// The bytes a viewed frame's checksum covers: header and payload.
common::Byte_view body_of(const Frame_view& view)
{
    return {view.payload.data() - k_frame_header_bytes,
            k_frame_header_bytes + view.payload.size()};
}

/// A verified frame as a message. The one copy off the wire: the payload's
/// refcounted buffer is minted directly from the frame's payload bytes.
sim::Message mint(const Frame_view& view)
{
    sim::Message msg;
    msg.from = view.from;
    msg.to = view.to;
    msg.sent_at = view.sent_at;
    msg.payload = common::Shared_payload{common::Bytes{view.payload.begin(), view.payload.end()}};
    return msg;
}

} // namespace

std::uint64_t fnv1a(common::Byte_view bytes)
{
    std::uint64_t hash = k_fnv_offset;
    for (const std::uint8_t byte : bytes) hash = (hash ^ byte) * k_fnv_prime;
    return hash;
}

void fnv1a_many(std::span<const common::Byte_view> spans, std::span<std::uint64_t> out)
{
    common::ensure(out.size() >= spans.size(), "fnv1a_many: output shorter than the spans");
    // Live chains are packed into lanes [0, live): the pointer into each
    // chain's span, the bytes it has left, its running hash and which span
    // it hashes.
    std::array<const std::uint8_t*, k_checksum_lanes> data{};
    std::array<std::size_t, k_checksum_lanes> left{};
    std::array<std::uint64_t, k_checksum_lanes> hash{};
    std::array<std::size_t, k_checksum_lanes> index{};
    std::size_t next = 0;
    // Start lane `l` on the next non-empty span; empty ones finish at once.
    const auto take = [&](std::size_t l) {
        for (; next < spans.size(); ++next) {
            if (spans[next].empty()) {
                out[next] = k_fnv_offset;
                continue;
            }
            data[l] = spans[next].data();
            left[l] = spans[next].size();
            hash[l] = k_fnv_offset;
            index[l] = next++;
            return true;
        }
        return false;
    };
    std::size_t live = 0;
    while (live < k_checksum_lanes && take(live)) ++live;
    while (live > 0) {
        // Run every live chain to the end of the shortest one (idle lanes
        // re-read lane 0's bytes and their hashes are never used)...
        std::size_t step = left[0];
        for (std::size_t l = 1; l < live; ++l) step = std::min(step, left[l]);
        for (std::size_t l = live; l < k_checksum_lanes; ++l) data[l] = data[0];
        advance_lanes(data, hash, step);
        // ...then retire the chains that finished, refilling each from the
        // pending spans or, when none is left, with the last live chain.
        for (std::size_t l = 0; l < live; ++l) left[l] -= step;
        for (std::size_t l = 0; l < live;) {
            if (left[l] != 0) {
                ++l;
                continue;
            }
            out[index[l]] = hash[l];
            if (take(l)) {
                ++l;
                continue;
            }
            --live;
            data[l] = data[live];
            left[l] = left[live];
            hash[l] = hash[live];
            index[l] = index[live];
        }
    }
}

void encode_frame(const sim::Message& msg, common::Bytes& out)
{
    encode_frame(msg, msg.to, out);
}

void encode_frame(const sim::Message& msg, common::Processor_id to, common::Bytes& out)
{
    const std::size_t start = out.size();
    out.resize(start + encoded_size(msg));
    const std::span<std::uint8_t> frame{out.data() + start, out.size() - start};
    encode_unsealed(msg, to, frame);
    const std::size_t body = frame.size() - k_frame_checksum_bytes;
    store_u64(frame.data() + body, fnv1a(frame.first(body)));
}

void encode_unsealed(const sim::Message& msg, common::Processor_id to,
                     std::span<std::uint8_t> frame)
{
    const std::size_t length = msg.payload.size();
    common::ensure(frame.size() == k_frame_overhead + length,
                   "encode_unsealed: the frame must be exactly encoded_size bytes");
    std::uint8_t* out = frame.data();
    std::memcpy(out, k_frame_magic.data(), k_frame_magic.size());
    store_u32(out + 4, static_cast<std::uint32_t>(msg.from));
    store_u32(out + 8, static_cast<std::uint32_t>(to));
    store_u64(out + 12, static_cast<std::uint64_t>(msg.sent_at));
    store_u32(out + 20, static_cast<std::uint32_t>(length));
    if (length != 0) std::memcpy(out + k_frame_header_bytes, msg.payload.data(), length);
    store_u64(out + k_frame_header_bytes + length, 0);
}

Frame_view decode_frame_view(common::Byte_view buf, std::size_t& offset)
{
    const std::size_t start = offset;
    std::size_t at = 0;
    if (const char* damage = header_damage(buf, start, at)) throw_at(damage, at);
    Frame_view view = view_of(buf.data() + start);
    const common::Byte_view body = body_of(view);
    if (read_u64(body.data() + body.size()) != fnv1a(body)) {
        throw_at("frame checksum mismatch", start);
    }
    offset = start + body.size() + k_frame_checksum_bytes;
    return view;
}

sim::Message decode_frame(common::Byte_view buf, std::size_t& offset)
{
    return mint(decode_frame_view(buf, offset));
}

void Frame_batch::clear()
{
    views_.clear();
    starts_.clear();
    unsealed_.clear();
    spans_.clear();
    damage_ = nullptr;
}

void Frame_batch::add_unsealed(std::span<std::uint8_t> frame)
{
    const std::size_t body = frame.size() - k_frame_checksum_bytes;
    spans_.emplace_back(frame.data(), body);
    unsealed_.push_back(frame.data() + body);
}

void Frame_batch::seal()
{
    sums_.resize(spans_.size());
    fnv1a_many(spans_, sums_);
    for (std::size_t i = 0; i < unsealed_.size(); ++i) store_u64(unsealed_[i], sums_[i]);
    clear();
}

bool Frame_batch::add_received(common::Byte_view buf, std::size_t& offset)
{
    common::ensure(damage_ == nullptr, "Frame_batch: frame queued after a damaged one");
    if ((damage_ = header_damage(buf, offset, damage_at_)) != nullptr) return false;
    starts_.push_back(offset);
    views_.push_back(view_of(buf.data() + offset));
    spans_.push_back(body_of(views_.back()));
    offset += spans_.back().size() + k_frame_checksum_bytes;
    return true;
}

std::size_t Frame_batch::verify()
{
    sums_.resize(spans_.size());
    fnv1a_many(spans_, sums_);
    std::size_t good = 0;
    while (good < spans_.size() &&
           read_u64(spans_[good].data() + spans_[good].size()) == sums_[good]) {
        ++good;
    }
    return good;
}

void Frame_batch::finish(std::size_t good)
{
    const char* damage = damage_;
    std::size_t at = damage_at_;
    if (good < spans_.size()) {
        damage = "frame checksum mismatch";
        at = starts_[good];
    }
    clear();
    if (damage != nullptr) throw_at(damage, at);
}

void encode_batch(const std::vector<sim::Message>& batch, common::Bytes& out)
{
    std::size_t start = out.size();
    std::size_t total = start;
    for (const sim::Message& msg : batch) total += encoded_size(msg);
    out.resize(total);
    Frame_batch frames;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::span<std::uint8_t> frame{out.data() + start, encoded_size(batch[i])};
        encode_unsealed(batch[i], batch[i].to, frame);
        frames.add_unsealed(frame);
        start += frame.size();
        if ((i + 1) % k_batch_frames == 0) frames.seal();
    }
    frames.seal();
}

std::vector<sim::Message> decode_batch(const common::Bytes& buf)
{
    Frame_batch frames;
    std::vector<sim::Message> batch;
    std::size_t offset = 0;
    while (offset < buf.size()) {
        for (std::size_t queued = 0; queued < k_batch_frames && offset < buf.size(); ++queued) {
            if (!frames.add_received(buf, offset)) break;
        }
        frames.deliver([&batch](const Frame_view& view) { batch.push_back(mint(view)); });
    }
    return batch;
}

} // namespace ga::wire
