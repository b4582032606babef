#include "sim/two_faced.h"

#include "common/ensure.h"

namespace ga::sim {

Two_faced_processor::Two_faced_processor(std::unique_ptr<Processor> face_a,
                                         std::unique_ptr<Processor> face_b,
                                         common::Processor_id split_at)
    : Processor{face_a ? face_a->id() : -1},
      face_a_{std::move(face_a)},
      face_b_{std::move(face_b)},
      split_at_{split_at}
{
    common::ensure(face_a_ != nullptr && face_b_ != nullptr,
                   "Two_faced_processor: both faces required");
    common::ensure(face_a_->id() == face_b_->id(),
                   "Two_faced_processor: faces must share the wrapper's id");
}

void Two_faced_processor::on_pulse(Pulse_context& ctx)
{
    // Run both faces against the real inbox, capturing their outboxes, then
    // forward each face's recipient copies (broadcasts spelled out over the
    // neighbors, in send order) to its half as unicasts.
    Outbox outbox_a;
    Pulse_context ctx_a{ctx.pulse(), ctx.self(), ctx.system_size(), &ctx.neighbors(),
                        ctx.inbox(), &outbox_a};
    face_a_->on_pulse(ctx_a);

    Outbox outbox_b;
    Pulse_context ctx_b{ctx.pulse(), ctx.self(), ctx.system_size(), &ctx.neighbors(),
                        ctx.inbox(), &outbox_b};
    face_b_->on_pulse(ctx_b);

    outbox_a.for_each_copy(ctx.neighbors(), [&](Message& msg) {
        if (msg.to < split_at_) ctx.send(msg.to, std::move(msg.payload));
    });
    outbox_b.for_each_copy(ctx.neighbors(), [&](Message& msg) {
        if (msg.to >= split_at_) ctx.send(msg.to, std::move(msg.payload));
    });
}

void Two_faced_processor::corrupt(common::Rng& rng)
{
    face_a_->corrupt(rng);
    face_b_->corrupt(rng);
}

} // namespace ga::sim
