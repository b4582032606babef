#include "wire/transport.h"

#include <algorithm>
#include <string>

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

void Wire_config::validate() const
{
    common::ensure(ring_frames > 0 && (static_cast<unsigned>(ring_frames) &
                                       (static_cast<unsigned>(ring_frames) - 1)) == 0,
                   "Wire_config::ring_frames must be a positive power of two");
}

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
    // Zero-copy: the handles stay where they are. Accounting only — with
    // encoded_size computed arithmetically so it matches the ring byte for
    // byte without touching the codec.
    std::int64_t frames = 0;
    std::int64_t bytes = 0;
    for (const std::vector<sim::Message>& row : batch.rows) {
        for (const sim::Message& msg : row) {
            frames += 1;
            bytes += static_cast<std::int64_t>(encoded_size(msg));
        }
    }
    if (batch.entries != nullptr) {
        const std::int64_t copies = batch.size() - 1;
        for (const sim::Outbox& outbox : *batch.entries) {
            for (const sim::Message& entry : outbox.broadcasts) {
                frames += copies;
                bytes += copies * static_cast<std::int64_t>(encoded_size(entry));
            }
        }
    }
    account(frames, bytes);
}

Spsc_frame_ring::Spsc_frame_ring(int capacity)
{
    common::ensure(capacity > 0 && (static_cast<unsigned>(capacity) &
                                    (static_cast<unsigned>(capacity) - 1)) == 0,
                   "Spsc_frame_ring: capacity must be a positive power of two");
    slots_.resize(static_cast<std::size_t>(capacity));
    mask_ = static_cast<std::uint64_t>(capacity) - 1;
}

bool Spsc_frame_ring::try_stage(const sim::Message& msg, common::Processor_id to)
{
    const std::uint64_t cursor = head_.load(std::memory_order_relaxed) + staged_;
    if (cursor - cached_tail_ > mask_) {
        cached_tail_ = tail_.load(std::memory_order_acquire);
        if (cursor - cached_tail_ > mask_) return false; // genuinely full
    }
    Slot& slot = slots_[cursor & mask_];
    slot.size = encoded_size(msg);
    if (slot.capacity < slot.size) {
        slot.bytes = std::make_unique_for_overwrite<std::uint8_t[]>(slot.size);
        slot.capacity = slot.size;
    }
    encode_unsealed(msg, to, slot.frame());
    staged_ += 1;
    return true;
}

void Spsc_frame_ring::publish()
{
    if (staged_ == 0) return;
    const std::uint64_t first = head_.load(std::memory_order_relaxed);
    for (std::uint64_t at = first; at != first + staged_; ++at) {
        staged_frames_.add_unsealed(slots_[at & mask_].frame());
    }
    staged_frames_.seal();
    const std::uint64_t head = first + staged_;
    staged_ = 0;
    head_.store(head, std::memory_order_release);
    cached_tail_ = tail_.load(std::memory_order_acquire);
    depth_high_water_ =
        std::max(depth_high_water_, static_cast<std::int64_t>(head - cached_tail_));
}

bool Spsc_frame_ring::try_pop(sim::Message& out)
{
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == cached_head_) {
        cached_head_ = head_.load(std::memory_order_acquire);
        if (tail == cached_head_) return false; // genuinely empty
    }
    std::size_t offset = 0;
    out = decode_frame(slots_[tail & mask_].frame(), offset);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
}

std::int64_t Spsc_frame_ring::depth() const
{
    return static_cast<std::int64_t>(head_.load(std::memory_order_acquire) -
                                     tail_.load(std::memory_order_acquire));
}

Ring_transport::Ring_transport(int ring_frames) : ring_{ring_frames} {}

void Ring_transport::stage(sim::Message& msg, common::Processor_id to, std::size_t n)
{
    targets_.push_back(&msg.payload);
    while (!ring_.try_stage(msg, to)) {
        ring_.publish();
        drain(n);
    }
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

void Ring_transport::drain(std::size_t n)
{
    ring_.consume([this, n](const Frame_view& frame) {
        common::ensure(frame.to >= 0 && static_cast<std::size_t>(frame.to) < n,
                       "Ring_transport: decoded recipient out of range");
        common::Shared_payload& target = *targets_[consumed_++];
        if (frame.from < 0 || static_cast<std::size_t>(frame.from) >= n) {
            target = common::Shared_payload{
                common::Bytes{frame.payload.begin(), frame.payload.end()}};
            return;
        }
        target = mint(frame);
    });
}

void Ring_transport::cross_pulse(sim::Pulse_batch& batch, common::Pulse)
{
    const auto n = static_cast<std::size_t>(batch.size());
    if (pools_.size() < n) pools_.resize(n);
    targets_.clear();
    consumed_ = 0;

    // Producer side: frame every recipient copy — the per-recipient rows,
    // then each broadcast entry once per recipient. A batch larger than the
    // ring publishes early and lets the consumer drain — in-process the two
    // ends interleave right here, exactly where a remote consumer would
    // relieve a full ring.
    std::int64_t frames = 0;
    std::int64_t bytes = 0;
    for (std::vector<sim::Message>& row : batch.rows) {
        for (sim::Message& msg : row) {
            frames += 1;
            bytes += static_cast<std::int64_t>(encoded_size(msg));
            stage(msg, msg.to, n);
        }
    }
    if (batch.entries != nullptr) {
        for (std::size_t from = 0; from < batch.entries->size(); ++from) {
            for (sim::Message& entry : (*batch.entries)[from].broadcasts) {
                for (std::size_t to = 0; to < n; ++to) {
                    if (to == from) continue;
                    frames += 1;
                    bytes += static_cast<std::int64_t>(encoded_size(entry));
                    stage(entry, static_cast<common::Processor_id>(to), n);
                }
            }
        }
    }

    // One batched publish per pulse, then the consumer side decodes every
    // frame and hands its payload back to the handle it was framed from, so
    // the batch leaves with the shape and bytes loopback leaves in place.
    ring_.publish();
    drain(n);
    for (Sender_pool& pool : pools_) pool.sent_at = -1;
    account(frames, bytes);
}

std::unique_ptr<Transport> make_transport(const Wire_config& config)
{
    config.validate();
    switch (config.kind) {
    case Transport_kind::loopback: return std::make_unique<Loopback_transport>();
    case Transport_kind::ring: return std::make_unique<Ring_transport>(config.ring_frames);
    }
    throw common::Contract_error{"make_transport: unknown transport kind"};
}

} // namespace ga::wire
