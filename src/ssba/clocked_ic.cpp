#include "ssba/clocked_ic.h"

#include "common/ensure.h"

namespace ga::ssba {

bool parse_pulse_message(common::Byte_view payload, Pulse_message& out)
{
    common::Byte_reader reader{payload};
    std::uint32_t clock = 0;
    if (!reader.try_get_u32(clock)) return false;
    out.clock = static_cast<int>(clock);
    out.has_section = false;
    std::uint8_t has_section = 0;
    std::uint8_t phase = 0;
    std::uint32_t round = 0;
    if (!reader.try_get_u8(has_section) || has_section != 1) return true;
    if (!reader.try_get_u8(phase) || !reader.try_get_u32(round) ||
        !reader.try_get_view(out.section) || !reader.exhausted()) {
        return true;
    }
    out.has_section = true;
    out.phase = static_cast<int>(phase);
    out.round = static_cast<common::Round>(round);
    return true;
}

int Clocked_ic::rounds_of(const bft::Ic_factory& factory, int n, int f)
{
    common::ensure(factory != nullptr, "rounds_of: null factory");
    return factory(n, f, 0, {})->total_rounds();
}

Clocked_ic::Clocked_ic(common::Processor_id self, int n, int f, int phases, int period,
                       bft::Ic_factory factory, common::Rng clock_rng, int delta)
    : self_{self},
      n_{n},
      f_{f},
      phases_{phases},
      factory_{std::move(factory)},
      rounds_{rounds_of(factory_, n, f)},
      clock_{n, f, period, clock_rng},
      cache_{self, n, period, delta},
      buf_(static_cast<std::size_t>(n)),
      delivery_(static_cast<std::size_t>(n))
{
    common::ensure(phases_ >= 1, "Clocked_ic: at least one activation per period");
    common::ensure(period >= phases_ * (rounds_ + 1) + 1,
                   "Clocked_ic: period must fit phases * (rounds + 1) slots plus the wrap "
                   "slot (>= f+3 for one EIG agreement)");
}

void Clocked_ic::reset_section_buffer(int phase)
{
    buf_phase_ = phase;
    for (Buffered& slot : buf_) slot = Buffered{};
}

common::Bytes& Clocked_ic::mint_buffer()
{
    // The current section message is never refilled: its frame may re-send
    // it and self-delivery views it.
    const auto current = static_cast<std::size_t>(last_sent_buffer_);
    std::size_t pick = k_pulse_buffers;
    for (std::size_t i = 1; i <= k_pulse_buffers && pick == k_pulse_buffers; ++i) {
        const std::size_t slot = (minted_ + i) % k_pulse_buffers;
        if (slot != current && pulse_buffers_[slot].use_count() <= 1) pick = slot;
    }
    if (pick == k_pulse_buffers) {
        pick = (minted_ + 1) % k_pulse_buffers;
        if (pick == current) pick = (pick + 1) % k_pulse_buffers;
        pulse_buffers_[pick] = {}; // holders keep the old buffer alive
    }
    minted_ = pick;
    common::Bytes& out = pulse_buffers_[pick].unique(); // sole holder: no clone
    out.clear();
    return out;
}

void Clocked_ic::on_pulse(sim::Pulse_context& ctx, Clocked_ic_client& client)
{
    // ---- Parse inbox. Under delta > 1 a pulse legitimately carries several
    // copies per sender (retransmissions with different delays landing
    // together), so every copy is parsed: the cache keeps the freshest
    // beacon per sender, and every decodable section is parked — as a
    // pointer to its inbox message and a view into its bytes — for the
    // newest-round-per-sender buffer fold below.
    parked_.clear();
    Pulse_message message;
    for (const sim::Message& msg : ctx.inbox()) {
        if (msg.from < 0 || msg.from >= ctx.system_size()) continue;
        if (!parse_pulse_message(msg.payload, message)) continue;
        cache_.observe(msg.from, message.clock, msg.sent_at, ctx.pulse());
        if (message.has_section) {
            parked_.push_back({&msg, message.phase, message.round, message.section});
        }
    }

    // ---- Clock: quorum step at frame boundaries, held in between.
    const bool boundary = cache_.is_boundary(ctx.pulse());
    bool jumped = false;
    if (boundary) {
        const int before_step = clock_.value();
        clock_.step(cache_.collect(ctx.pulse()));
        // Steady state advances one slot per step and a held clock repeats
        // one; anything else is a jump, and the activation in flight is lost.
        jumped = clock_.value() != before_step &&
                 clock_.value() != (before_step + 1) % clock_.period();
        if (jumped) client.clock_jumped();
        if (telemetry_ != nullptr) {
            // An unchanged value at a boundary is a hold (insufficient beacon
            // evidence); journal streak edges, count every held boundary.
            const bool held = clock_.value() == before_step;
            if (held) telemetry_->counter("clock.held_boundaries") += 1;
            if (held != tel_holding_) {
                telemetry_->event(held ? telemetry::Event_kind::clock_hold
                                       : telemetry::Event_kind::clock_resume,
                                  ctx.pulse(), clock_.value());
                tel_holding_ = held;
            }
        }
    }
    const int c = clock_.value();
    const int len = rounds_ + 1; // slots per phase
    const int slot = c - 1;
    const bool in_schedule = slot >= 0 && slot < phases_ * len;
    const bool slot_entered = boundary && slot != last_slot_;
    last_slot_ = slot;

    if (in_schedule) {
        const int phase = slot / len;
        const common::Round r = slot % len;

        // ---- Fold this pulse's sections into the cross-pulse buffer:
        // current phase only, newest round per sender wins (this retires
        // retransmit copies of already delivered rounds; a held clock never
        // re-delivers stale data). Within one round the first copy wins, so
        // same-pulse Byzantine duplicates cannot flip an already parked
        // section. Only a winning section takes a handle on its message.
        if (phase != buf_phase_ || (slot_entered && r == 0)) reset_section_buffer(phase);
        for (const Parked& p : parked_) {
            if (p.phase != phase) continue;
            if (p.round < 0 || p.round >= rounds_) continue;
            Buffered& kept = buf_[static_cast<std::size_t>(p.message->from)];
            if (p.round <= kept.round) continue;
            kept.round = p.round;
            kept.owner = p.message->payload;
            kept.section = p.section;
        }

        if (slot_entered && r == 0) {
            // One session per replica, restarted in place at every
            // activation; the factory builds it at the first activation and
            // again after a transient fault.
            restart_session(client.activation_input(phase, ctx.pulse(), jumped));
            last_sent_phase_ = -1; // force a fresh round-0 mint below
            last_sent_round_ = -1;
            activation_seq_ += 1;
            if (tracer_ != nullptr) {
                // Nested under the client's span when it has one open
                // (activation_input above may have just opened it).
                ic_span_ = tracer_->begin_span("ic", ctx.pulse(), client.span_parent(), phase,
                                               activation_seq_);
            }
            if (telemetry_ != nullptr) {
                ic_started_at_ = ctx.pulse();
                telemetry_->counter("ic.activations") += 1;
                telemetry_->event(telemetry::Event_kind::ic_start, ctx.pulse(), phase);
            }
        } else if (boundary && r >= 1 && session_ && !session_->done()) {
            // Deliver round r-1 from the buffer. A boundary repeated under a
            // held clock merges late arrivals into the same round — the
            // sessions' deliver_round is first-writer-wins and re-delivery
            // safe.
            // The views stay valid for the call: each buffer slot holds its
            // section's message, and the pool never refills the current
            // section message.
            for (std::size_t sender = 0; sender < buf_.size(); ++sender) {
                if (buf_[sender].round == r - 1) {
                    delivery_[sender] = buf_[sender].section;
                } else {
                    delivery_[sender].reset();
                }
            }
            // Self-delivery: the engine does not echo broadcasts, but the
            // Session contract includes the sender's own payload.
            if (last_sent_phase_ == phase && last_sent_round_ == r - 1) {
                delivery_[static_cast<std::size_t>(self_)] = last_sent_section_;
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
                    telemetry_->event(telemetry::Event_kind::ic_finish, ctx.pulse(), phase);
                    ic_started_at_ = -1;
                }
                client.activation_done(phase, *session_, ctx.pulse());
            }
        }

        if (r < rounds_ && session_ && !session_->done()) {
            if (last_sent_phase_ != phase || last_sent_round_ != r) {
                // Mint exactly once per (phase, round): the header, then the
                // session's section appended in place behind its length
                // prefix. The frame's remaining pulses re-send the same
                // handle against loss (the clock, and so every byte, is
                // unchanged within a frame).
                common::Bytes& out = mint_buffer();
                common::put_u32(out, static_cast<std::uint32_t>(c));
                out.push_back(1);
                out.push_back(static_cast<std::uint8_t>(phase));
                common::put_u32(out, static_cast<std::uint32_t>(r));
                const std::size_t prefix = out.size();
                common::put_u32(out, 0);
                session_->append_message_for_round(r, out);
                const std::size_t length = out.size() - prefix - 4;
                for (std::size_t i = 0; i < 4; ++i)
                    out[prefix + i] = static_cast<std::uint8_t>(length >> (8 * i)); // as put_u32
                last_sent_section_ = common::Byte_view{out.data() + prefix + 4, length};
                last_sent_buffer_ = static_cast<int>(minted_);
                last_sent_phase_ = phase;
                last_sent_round_ = r;
            }
            ctx.broadcast(pulse_buffers_[static_cast<std::size_t>(last_sent_buffer_)]);
            return;
        }
    }

    common::Bytes& out = mint_buffer();
    common::put_u32(out, static_cast<std::uint32_t>(c));
    out.push_back(0);
    ctx.broadcast(pulse_buffers_[minted_]);
}

void Clocked_ic::corrupt(common::Rng& rng)
{
    clock_.set_value(static_cast<int>(rng.below(static_cast<std::uint64_t>(clock_.period()))));
    cache_.clear();
    session_.reset();
    last_sent_phase_ = -1;
    last_sent_round_ = -1;
    last_sent_buffer_ = -1;
    last_sent_section_ = {};
    last_slot_ = -1;
    parked_.clear();
    reset_section_buffer(-1);
    ic_started_at_ = -1; // the in-flight activation died with the fault
    ic_span_ = 0;        // its span stays open; the exporter clamps it
}

void Clocked_ic::restart_session(bft::Value input)
{
    if (session_) {
        session_->restart(std::move(input));
    } else {
        session_ = factory_(n_, f_, self_, std::move(input));
    }
}

} // namespace ga::ssba
