#include "ssba/ssba.h"

#include "common/ensure.h"

namespace ga::ssba {

Ssba_processor::Ssba_processor(common::Processor_id id, int n, int f, int period,
                               common::Rng rng, Input_provider input_provider)
    : Processor{id},
      n_{n},
      f_{f},
      clock_{n, f, period, rng.split(1)},
      corrupt_rng_{rng.split(2)},
      input_provider_{std::move(input_provider)}
{
    common::ensure(period >= f + 3,
                   "Ssba_processor: period must allow exactly one EIG agreement (>= f+3)");
    common::ensure(input_provider_ != nullptr, "Ssba_processor: null input provider");
}

common::Bytes Ssba_processor::bundle(int clock_value, std::optional<common::Round> ba_round,
                                     const common::Bytes& ba_payload)
{
    common::Bytes payload;
    common::put_u32(payload, static_cast<std::uint32_t>(clock_value));
    if (ba_round.has_value()) {
        payload.push_back(1);
        common::put_u32(payload, static_cast<std::uint32_t>(*ba_round));
        common::put_bytes(payload, ba_payload);
    } else {
        payload.push_back(0);
    }
    return payload;
}

Ssba_processor::Parsed_payload Ssba_processor::parse(const common::Bytes& payload) const
{
    Parsed_payload parsed;
    try {
        common::Byte_reader reader{payload};
        const auto clock_value = static_cast<int>(reader.get_u32());
        if (clock_value >= 0 && clock_value < clock_.period()) parsed.clock_value = clock_value;
        const std::uint8_t has_ba = reader.get_u8();
        if (has_ba == 1) {
            parsed.ba_round = static_cast<common::Round>(reader.get_u32());
            parsed.ba_payload = reader.get_bytes();
        }
        if (!reader.exhausted()) {
            // Trailing junk: distrust the whole message.
            return Parsed_payload{};
        }
    } catch (const common::Decode_error&) {
        return Parsed_payload{};
    }
    return parsed;
}

void Ssba_processor::on_pulse(sim::Pulse_context& ctx)
{
    // ---- Collect this pulse's deliveries (first message per sender wins).
    std::vector<bool> seen(static_cast<std::size_t>(ctx.system_size()), false);
    std::vector<int> clock_values;
    std::vector<common::Bytes> ba_payloads(static_cast<std::size_t>(n_));
    std::vector<common::Round> ba_rounds(static_cast<std::size_t>(n_), -1);
    for (const sim::Message& msg : ctx.inbox()) {
        if (msg.from < 0 || msg.from >= ctx.system_size()) continue;
        if (seen[static_cast<std::size_t>(msg.from)]) continue;
        seen[static_cast<std::size_t>(msg.from)] = true;
        Parsed_payload parsed = parse(msg.payload);
        if (parsed.clock_value.has_value()) clock_values.push_back(*parsed.clock_value);
        if (parsed.ba_round.has_value()) {
            ba_rounds[static_cast<std::size_t>(msg.from)] = *parsed.ba_round;
            ba_payloads[static_cast<std::size_t>(msg.from)] = std::move(parsed.ba_payload);
        }
    }

    // ---- Clock step (§4: the pulse synchronization substrate).
    const int c = clock_.step(clock_values);

    // ---- BA schedule derived from the clock value.
    const common::Round total = f_ + 1; // EIG send rounds
    // Deliver round c-2 (messages our peers sent when their clock was c-1).
    const common::Round deliver_round = c - 2;
    if (ba_ && !ba_->done() && deliver_round >= 0 && deliver_round < total) {
        // Views into this pulse's owned sections, valid through the call.
        bft::Round_payloads filtered(static_cast<std::size_t>(n_));
        for (int j = 0; j < n_; ++j) {
            if (ba_rounds[static_cast<std::size_t>(j)] == deliver_round)
                filtered[static_cast<std::size_t>(j)] = ba_payloads[static_cast<std::size_t>(j)];
        }
        // Self-delivery per the Session contract (the engine does not echo
        // broadcasts back to their sender).
        if (last_sent_round_ == deliver_round) {
            filtered[static_cast<std::size_t>(id())] = last_sent_payload_;
        }
        ba_->deliver_round(deliver_round, filtered);
        if (ba_->done()) {
            decisions_.push_back(Agreement_record{ctx.pulse(), ba_->decision()});
        }
    }

    // ---- (Re)start a fresh activation when the clock reaches 1 (§4).
    if (c == 1) {
        ba_ = std::make_unique<bft::Eig_session>(n_, f_, id(), input_provider_(ctx.pulse()));
    }

    // ---- Send: clock always; BA round c-1 when scheduled.
    const common::Round send_round = c - 1;
    if (ba_ && send_round >= 0 && send_round < total) {
        common::Bytes section = ba_->message_for_round(send_round);
        last_sent_round_ = send_round;
        last_sent_payload_ = section;
        ctx.broadcast(bundle(c, send_round, section));
    } else {
        ctx.broadcast(bundle(c, std::nullopt, {}));
    }
}

void Ssba_processor::corrupt(common::Rng& rng)
{
    clock_.set_value(static_cast<int>(rng.below(static_cast<std::uint64_t>(clock_.period()))));
    // Arbitrary BA progress: none, or a fresh session with an arbitrary input
    // (every reachable Eig_session state is some prefix of an activation).
    last_sent_round_ = -1;
    last_sent_payload_.clear();
    if (rng.chance(0.5)) {
        ba_.reset();
    } else {
        bft::Value junk;
        const int len = static_cast<int>(rng.below(9));
        for (int i = 0; i < len; ++i) junk.push_back(static_cast<std::uint8_t>(rng.below(256)));
        ba_ = std::make_unique<bft::Eig_session>(n_, f_, id(), junk);
    }
}

} // namespace ga::ssba
