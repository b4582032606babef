#include "wire/transport.h"

#include <algorithm>
#include <span>

#include "common/ensure.h"

namespace ga::wire {

const char* transport_kind_name(Transport_kind kind)
{
    switch (kind) {
    case Transport_kind::loopback: return "loopback";
    case Transport_kind::ring: return "ring";
    }
    return "unknown";
}

namespace {

/// Recipient copies in one pulse and their encoded frame bytes.
struct Pulse_size {
    std::int64_t frames = 0;
    std::int64_t bytes = 0;
};

/// Size `batch` as the wire carries it, arithmetically (encoded_size): one
/// frame per row message, batch.size() - 1 per broadcast entry.
Pulse_size pulse_size(const sim::Pulse_batch& batch)
{
    Pulse_size size;
    for (const std::vector<sim::Message>& row : batch.rows) {
        for (const sim::Message& msg : row) {
            size.frames += 1;
            size.bytes += static_cast<std::int64_t>(encoded_size(msg));
        }
    }
    if (batch.entries != nullptr) {
        const std::int64_t copies = batch.size() - 1;
        for (const sim::Outbox& outbox : *batch.entries) {
            for (const sim::Message& entry : outbox.broadcasts) {
                size.frames += copies;
                size.bytes += copies * static_cast<std::int64_t>(encoded_size(entry));
            }
        }
    }
    return size;
}

} // namespace

void Transport::set_telemetry(telemetry::Telemetry_sink* sink)
{
    sink_ = sink;
    tel_pulses_ = tel_frames_ = tel_bytes_ = nullptr;
    tel_pulse_frames_ = tel_pulse_bytes_ = nullptr;
    tel_high_water_ = nullptr;
    if (sink_ == nullptr) return;
    tel_pulses_ = &sink_->counter("wire.pulses");
    tel_frames_ = &sink_->counter("wire.frames");
    tel_bytes_ = &sink_->counter("wire.bytes");
    tel_pulse_frames_ = &sink_->histogram("wire.pulse_frames");
    tel_pulse_bytes_ = &sink_->histogram("wire.pulse_bytes");
    tel_high_water_ = &sink_->gauge("wire.high_water");
}

void Transport::account(std::int64_t frames, std::int64_t bytes)
{
    if (frames == 0) return;
    stats_.pulses += 1;
    stats_.frames += frames;
    stats_.bytes += bytes;
    stats_.high_water = std::max(stats_.high_water, frames);
    if (sink_ == nullptr) return;
    *tel_pulses_ += 1;
    *tel_frames_ += frames;
    *tel_bytes_ += bytes;
    tel_pulse_frames_->record(frames);
    tel_pulse_bytes_->record(bytes);
    *tel_high_water_ = static_cast<double>(stats_.high_water);
}

void Loopback_transport::cross_pulse(sim::Pulse_batch& batch, common::Pulse)
{
    // Zero-copy: the handles stay where they are. Accounting only.
    const Pulse_size size = pulse_size(batch);
    account(size.frames, size.bytes);
}

const common::Shared_payload& Ring_transport::mint(const Frame_view& frame)
{
    // One payload per broadcast: a copy from the same sender and pulse with
    // equal bytes aliases the payload that sender's previous frame minted;
    // anything else is the one copy off the wire.
    Sender_pool& pool = pools_[static_cast<std::size_t>(frame.from)];
    const common::Bytes& previous = pool.buffers[pool.last].bytes();
    if (pool.sent_at == frame.sent_at &&
        std::equal(previous.begin(), previous.end(), frame.payload.begin(), frame.payload.end())) {
        return pool.buffers[pool.last];
    }
    std::size_t pick = k_pool_buffers;
    for (std::size_t i = 1; i <= k_pool_buffers && pick == k_pool_buffers; ++i) {
        const std::size_t slot = (pool.last + i) % k_pool_buffers;
        if (pool.buffers[slot].use_count() <= 1) pick = slot;
    }
    if (pick == k_pool_buffers) {
        pick = (pool.last + 1) % k_pool_buffers;
        pool.buffers[pick] = {}; // holders keep the old buffer alive
    }
    pool.last = pick;
    pool.sent_at = frame.sent_at;
    common::Bytes& bytes = pool.buffers[pick].unique(); // sole holder: no clone
    bytes.assign(frame.payload.begin(), frame.payload.end());
    return pool.buffers[pick];
}

void Ring_transport::cross_pulse(sim::Pulse_batch& batch, common::Pulse)
{
    const auto n = static_cast<std::size_t>(batch.size());
    common::ensure(batch.entries == nullptr || batch.entries->size() == n,
                   "Ring_transport: one broadcast outbox per processor");
    if (pools_.size() < n) pools_.resize(n);
    const Pulse_size size = pulse_size(batch);
    size_ = static_cast<std::size_t>(size.bytes);
    if (capacity_ < size_) {
        buffer_ = std::make_unique_for_overwrite<std::uint8_t[]>(size_);
        capacity_ = size_;
    }

    // Sending end: frame every recipient copy back to back — the
    // per-recipient rows, then each broadcast entry once per recipient —
    // and seal them together.
    targets_.clear();
    std::size_t end = 0;
    const auto encode = [&](sim::Message& msg, common::Processor_id to) {
        const std::span<std::uint8_t> bytes{buffer_.get() + end, encoded_size(msg)};
        encode_unsealed(msg, to, bytes);
        frame_batch_.add_unsealed(bytes);
        targets_.push_back(&msg.payload);
        end += bytes.size();
    };
    for (std::vector<sim::Message>& row : batch.rows) {
        for (sim::Message& msg : row) encode(msg, msg.to);
    }
    if (batch.entries != nullptr) {
        for (std::size_t from = 0; from < n; ++from) {
            for (sim::Message& entry : (*batch.entries)[from].broadcasts) {
                for (std::size_t to = 0; to < n; ++to) {
                    if (to != from) encode(entry, static_cast<common::Processor_id>(to));
                }
            }
        }
    }
    frame_batch_.seal();

    // Receiving end: bounds-check every frame, verify them together, and
    // hand each decoded payload back to the handle it was framed from, so
    // the batch leaves with the shape and bytes loopback leaves in place.
    for (std::size_t offset = 0; offset < size_;) {
        if (!frame_batch_.add_received(last_frames(), offset)) break;
    }
    std::size_t next = 0;
    frame_batch_.deliver([&](const Frame_view& frame) {
        common::ensure(frame.to >= 0 && static_cast<std::size_t>(frame.to) < n,
                       "Ring_transport: decoded recipient out of range");
        common::Shared_payload& target = *targets_[next++];
        if (frame.from < 0 || static_cast<std::size_t>(frame.from) >= n) {
            target = common::Shared_payload{
                common::Bytes{frame.payload.begin(), frame.payload.end()}};
            return;
        }
        target = mint(frame);
    });
    for (Sender_pool& pool : pools_) pool.sent_at = -1;
    account(size.frames, size.bytes);
}

std::unique_ptr<Transport> make_transport(const Wire_config& config)
{
    switch (config.kind) {
    case Transport_kind::loopback: return std::make_unique<Loopback_transport>();
    case Transport_kind::ring: return std::make_unique<Ring_transport>();
    }
    throw common::Contract_error{"make_transport: unknown transport kind"};
}

} // namespace ga::wire
