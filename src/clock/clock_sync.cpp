#include "clock/clock_sync.h"

#include <vector>

namespace ga::clock {

common::Bytes encode_clock(int value)
{
    common::Bytes payload;
    common::put_u32(payload, static_cast<std::uint32_t>(value));
    return payload;
}

std::optional<int> decode_clock(const common::Bytes& payload, int period)
{
    common::Byte_reader reader{payload};
    std::uint32_t raw = 0;
    if (!reader.try_get_u32(raw) || !reader.exhausted()) return std::nullopt;
    const auto value = static_cast<int>(raw);
    if (value < 0 || value >= period) return std::nullopt;
    return value;
}

Clock_sync_processor::Clock_sync_processor(common::Processor_id id, int n, int f, int period,
                                           common::Rng rng, int initial_value, int delta)
    : Processor{id}, core_{n, f, period, rng, initial_value}, cache_{id, n, period, delta}
{
}

void Clock_sync_processor::on_pulse(sim::Pulse_context& ctx)
{
    // The cache keeps the freshest beacon per sender (bridging losses for up
    // to delta frames, staleness-normalized); same-pulse Byzantine
    // duplicates lose to the first copy. The quorum rule steps only at frame
    // boundaries; the value is held — and rebroadcast — in between.
    for (const sim::Message& msg : ctx.inbox()) {
        const auto value = decode_clock(msg.payload, core_.period());
        if (!value.has_value()) continue;
        cache_.observe(msg.from, *value, msg.sent_at, ctx.pulse());
    }

    if (cache_.is_boundary(ctx.pulse())) core_.step(cache_.collect(ctx.pulse()));
    ctx.broadcast(encode_clock(core_.value()));
}

void Clock_sync_processor::corrupt(common::Rng& rng)
{
    core_.set_value(static_cast<int>(rng.below(static_cast<std::uint64_t>(core_.period()))));
    cache_.clear();
}

} // namespace ga::clock
