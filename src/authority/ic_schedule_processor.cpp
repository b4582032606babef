#include "authority/ic_schedule_processor.h"

#include "common/ensure.h"

namespace ga::authority {

int Ic_schedule_processor::ic_rounds_of(const bft::Ic_factory& factory, int n, int f)
{
    common::ensure(factory != nullptr, "ic_rounds_of: null factory");
    return factory(n, f, 0, {})->total_rounds();
}

Ic_schedule_processor::Ic_schedule_processor(common::Processor_id id, int n, int f, int n_phases,
                                             bft::Ic_factory ic_factory, common::Rng clock_rng,
                                             int delta)
    : Processor{id},
      n_{n},
      f_{f},
      n_phases_{n_phases},
      ic_factory_{std::move(ic_factory)},
      ic_rounds_{ic_rounds_of(ic_factory_, n, f)},
      clock_{n, f, period_for(n_phases, ic_rounds_), std::move(clock_rng)},
      cache_{id, n, period_for(n_phases, ic_rounds_), delta},
      buf_round_(static_cast<std::size_t>(n), -1),
      buf_owner_(static_cast<std::size_t>(n)),
      buf_section_(static_cast<std::size_t>(n)),
      delivery_(static_cast<std::size_t>(n))
{
    // The wire section carries the phase index in one byte.
    common::ensure(n_phases_ >= 1 && n_phases_ <= 255,
                   "Ic_schedule_processor: phase count must fit a wire byte");
}

void Ic_schedule_processor::reset_section_buffer(int phase)
{
    buf_phase_ = phase;
    for (common::Round& round : buf_round_) round = -1;
    for (common::Shared_payload& owner : buf_owner_) owner = {};
    for (common::Byte_view& section : buf_section_) section = {};
}

void Ic_schedule_processor::on_pulse(sim::Pulse_context& ctx)
{
    // ---- Parse inbox. Under delta > 1 a pulse legitimately carries several
    // copies per sender (retransmissions with different delays landing
    // together), so every copy is parsed: the cache keeps the freshest
    // beacon per sender, and every decodable section is parked — as a view
    // into the message, kept alive by its payload handle — for the
    // newest-round-per-sender buffer fold below.
    parked_.clear();
    for (const sim::Message& msg : ctx.inbox()) {
        if (msg.from < 0 || msg.from >= ctx.system_size()) continue;
        try {
            common::Byte_reader reader{msg.payload};
            const auto clock_value = static_cast<int>(reader.get_u32());
            cache_.observe(msg.from, clock_value, msg.sent_at, ctx.pulse());
            const std::uint8_t has_section = reader.get_u8();
            if (has_section == 1) {
                const auto phase = static_cast<int>(reader.get_u8());
                const auto round = static_cast<common::Round>(reader.get_u32());
                const common::Byte_view section = reader.get_view();
                if (reader.exhausted()) {
                    parked_.push_back({msg.from, phase, round, msg.payload, section});
                }
            }
        } catch (const common::Decode_error&) {
        }
    }

    // ---- Clock: quorum step at frame boundaries, held in between.
    const bool boundary = cache_.is_boundary(ctx.pulse());
    if (boundary) {
        const int before_step = clock_.value();
        clock_.step(cache_.collect(ctx.pulse()));
        if (telemetry_ != nullptr) {
            // An unchanged value at a boundary is a hold (insufficient beacon
            // evidence); journal streak edges, count every held boundary.
            const bool held = clock_.value() == before_step;
            if (held) telemetry_->counter("clock.held_boundaries") += 1;
            if (held != tel_holding_) {
                telemetry::Event e;
                e.kind = held ? telemetry::Event_kind::clock_hold
                              : telemetry::Event_kind::clock_resume;
                e.at = ctx.pulse();
                e.a = clock_.value();
                telemetry_->event(std::move(e));
                tel_holding_ = held;
            }
        }
    }
    const int c = clock_.value();
    const int len = phase_length_for(ic_rounds_);
    const int slot = c - 1;
    const bool in_schedule = slot >= 0 && slot < n_phases_ * len;
    const bool slot_entered = boundary && slot != last_slot_;
    last_slot_ = slot;

    common::Bytes out;
    if (in_schedule) {
        const int phase_index = slot / len;
        const common::Round r = slot % len;

        // ---- Fold this pulse's sections into the cross-pulse buffer:
        // current phase only, newest round per sender wins (this retires
        // retransmit copies of already delivered rounds; a held clock never
        // re-delivers stale data). Within one round the first copy wins, so
        // same-pulse Byzantine duplicates cannot flip an already parked
        // section.
        if (phase_index != buf_phase_ || (slot_entered && r == 0)) {
            reset_section_buffer(phase_index);
        }
        for (Parked& p : parked_) {
            const auto sender = static_cast<std::size_t>(p.from);
            if (p.phase != phase_index) continue;
            if (p.round < 0 || p.round >= ic_rounds_) continue;
            if (p.round <= buf_round_[sender]) continue;
            buf_round_[sender] = p.round;
            buf_owner_[sender] = std::move(p.owner);
            buf_section_[sender] = p.section;
        }

        if (slot_entered && r == 0) {
            session_ = ic_factory_(n_, f_, id(), phase_input(phase_index, ctx.pulse()));
            last_sent_phase_ = -1; // force a fresh round-0 mint below
            last_sent_round_ = -1;
            ic_activation_seq_ += 1;
            if (tracer_ != nullptr) {
                // Nested under the subclass's window span when one is open
                // (phase_input above may have just opened it); the outcome
                // phase of the next window runs before that window opens, so
                // its activation is a track-root span.
                ic_span_ = tracer_->begin_span("ic", ctx.pulse(), current_window_span_,
                                               phase_index, ic_activation_seq_);
            }
            if (telemetry_ != nullptr) {
                ic_started_at_ = ctx.pulse();
                telemetry_->counter("ic.activations") += 1;
                telemetry::Event e;
                e.kind = telemetry::Event_kind::ic_start;
                e.at = ctx.pulse();
                e.a = phase_index;
                telemetry_->event(std::move(e));
            }
        } else if (boundary && r >= 1 && session_ && !session_->done()) {
            // Deliver round r-1 from the buffer. A boundary repeated under a
            // held clock merges late arrivals into the same round — the
            // sessions' deliver_round is first-writer-wins and re-delivery
            // safe.
            // The views stay valid for the call: buf_owner_ holds each
            // section's message, and last_sent_payload_ is not re-minted
            // until after delivery.
            for (int j = 0; j < n_; ++j) {
                const auto sender = static_cast<std::size_t>(j);
                if (buf_round_[sender] == r - 1) {
                    delivery_[sender] = buf_section_[sender];
                } else {
                    delivery_[sender].reset();
                }
            }
            // Self-delivery: the engine does not echo broadcasts, but the
            // Session contract includes the sender's own payload.
            if (last_sent_phase_ == phase_index && last_sent_round_ == r - 1) {
                delivery_[static_cast<std::size_t>(id())] = last_sent_payload_;
            }
            session_->deliver_round(r - 1, delivery_);
            if (session_->done()) {
                if (tracer_ != nullptr) {
                    tracer_->end_span(ic_span_, ctx.pulse());
                    ic_span_ = 0;
                }
                if (telemetry_ != nullptr) {
                    if (ic_started_at_ >= 0) {
                        telemetry_->histogram("ic.activation_pulses")
                            .record(ctx.pulse() - ic_started_at_);
                    }
                    telemetry::Event e;
                    e.kind = telemetry::Event_kind::ic_finish;
                    e.at = ctx.pulse();
                    e.a = phase_index;
                    telemetry_->event(std::move(e));
                    ic_started_at_ = -1;
                }
                process_phase_result(phase_index, ctx.pulse());
            }
        }

        if (r < ic_rounds_ && session_ && !session_->done()) {
            if (last_sent_phase_ != phase_index || last_sent_round_ != r) {
                // Mint exactly once per (phase, round); the frame's remaining
                // pulses retransmit the cached section against loss.
                last_sent_payload_ = session_->message_for_round(r);
                last_sent_phase_ = phase_index;
                last_sent_round_ = r;
            }
            out.reserve(4 + 1 + 1 + 4 + 4 + last_sent_payload_.size());
            common::put_u32(out, static_cast<std::uint32_t>(c));
            out.push_back(1);
            out.push_back(static_cast<std::uint8_t>(phase_index));
            common::put_u32(out, static_cast<std::uint32_t>(r));
            common::put_bytes(out, last_sent_payload_);
            ctx.broadcast(std::move(out));
            return;
        }
    }

    out.reserve(4 + 1);
    common::put_u32(out, static_cast<std::uint32_t>(c));
    out.push_back(0);
    ctx.broadcast(std::move(out));
}

void Ic_schedule_processor::corrupt(common::Rng& rng)
{
    clock_.set_value(static_cast<int>(rng.below(static_cast<std::uint64_t>(clock_.period()))));
    cache_.clear();
    session_.reset();
    last_sent_phase_ = -1;
    last_sent_round_ = -1;
    last_sent_payload_.clear();
    last_slot_ = -1;
    parked_.clear();
    reset_section_buffer(-1);
    ic_started_at_ = -1; // the in-flight activation died with the fault
    ic_span_ = 0;        // its span stays open; the exporter clamps it
    current_window_span_ = 0;
    corrupt_state(rng);
}

} // namespace ga::authority
