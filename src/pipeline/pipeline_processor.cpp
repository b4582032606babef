#include "pipeline/pipeline_processor.h"

#include "game/analysis.h"

namespace ga::pipeline {

namespace {

/// Decodes into `profile` the previous-outcome profile proposed by a strict
/// majority of the agreed vector; false when no decodable value has one
/// (fresh boot or post-fault divergence — the caller falls back to
/// first_play_profile), leaving `profile` unspecified.
bool majority_profile(const std::vector<bft::Value>& values, const authority::Game_spec& spec,
                      game::Pure_profile& profile)
{
    // The quadratic scan is over the replica group (small by construction)
    // and only a strict majority — necessarily unique — is ever adopted.
    int best_index = -1;
    int best_count = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (!decode_profile(values[i], spec, profile)) continue;
        int count = 0;
        for (std::size_t j = 0; j < values.size(); ++j) {
            if (values[j] == values[i]) ++count;
        }
        if (count > best_count) {
            best_count = count;
            best_index = static_cast<int>(i);
        }
    }
    if (best_index < 0 || 2 * best_count <= static_cast<int>(values.size())) return false;
    return decode_profile(values[static_cast<std::size_t>(best_index)], spec, profile);
}

/// N' from the agreed foul bitmasks: flagged[j] iff a strict majority of the
/// n replicas (malformed masks count as abstentions) flag agent j.
std::vector<bool> strict_majority_flags(const std::vector<bft::Value>& masks, int n)
{
    std::vector<int> flags(static_cast<std::size_t>(n), 0);
    for (const bft::Value& mask : masks) {
        if (mask.size() != static_cast<std::size_t>(n)) continue;
        for (common::Agent_id j = 0; j < n; ++j) {
            if (mask[static_cast<std::size_t>(j)] == 1) ++flags[static_cast<std::size_t>(j)];
        }
    }
    std::vector<bool> flagged(static_cast<std::size_t>(n), false);
    for (common::Agent_id j = 0; j < n; ++j) {
        flagged[static_cast<std::size_t>(j)] = 2 * flags[static_cast<std::size_t>(j)] > n;
    }
    return flagged;
}

} // namespace

common::Bytes encode_profile(const game::Pure_profile& profile)
{
    common::Bytes bytes;
    bytes.reserve(4 + 4 * profile.size());
    common::put_u32(bytes, static_cast<std::uint32_t>(profile.size()));
    for (const int a : profile) common::put_u32(bytes, static_cast<std::uint32_t>(a));
    return bytes;
}

bool decode_profile(common::Byte_view bytes, const authority::Game_spec& spec,
                    game::Pure_profile& profile)
{
    const auto n = static_cast<std::size_t>(spec.game->n_agents());
    common::Byte_reader reader{bytes};
    std::uint32_t size = 0;
    if (!reader.try_get_u32(size) || size != n || reader.remaining() != 4 * n) return false;
    profile.resize(n);
    for (auto& a : profile) a = static_cast<int>(reader.get_u32()); // in bounds: sized above
    for (common::Agent_id i = 0; i < static_cast<common::Agent_id>(n); ++i) {
        if (!spec.game->is_legitimate_action(i, profile[static_cast<std::size_t>(i)])) return false;
    }
    return true;
}

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

int Pipeline_processor::ic_rounds_of(const bft::Ic_factory& factory, int n, int f)
{
    common::ensure(factory != nullptr, "ic_rounds_of: null factory");
    return factory(n, f, 0, {})->total_rounds();
}

Pipeline_processor::Pipeline_processor(common::Processor_id id, int n, int f,
                                       authority::Game_spec spec, int k,
                                       std::unique_ptr<authority::Agent_behavior> behavior,
                                       std::unique_ptr<authority::Punishment_scheme> punishment,
                                       common::Rng rng, bft::Ic_factory ic_factory,
                                       std::optional<Tamper> tamper, int delta)
    : Processor{id},
      n_{n},
      f_{f},
      ic_factory_{std::move(ic_factory)},
      ic_rounds_{ic_rounds_of(ic_factory_, n, f)},
      clock_{n, f, clock_period_for(ic_rounds_), rng.split(1)},
      cache_{id, n, clock_period_for(ic_rounds_), delta},
      buf_round_(static_cast<std::size_t>(n), -1),
      buf_owner_(static_cast<std::size_t>(n)),
      buf_section_(static_cast<std::size_t>(n)),
      delivery_(static_cast<std::size_t>(n)),
      spec_{spec},
      behavior_{std::move(behavior)},
      punishment_{std::move(punishment)},
      k_{k},
      tamper_{tamper},
      rng_{rng.split(2)},
      executive_{n},
      batcher_{std::move(spec), id, k}
{
    common::ensure(spec_.game != nullptr, "Pipeline_processor: null game");
    common::ensure(spec_.game->n_agents() == n_,
                   "Pipeline_processor: one agent per processor (§2)");
    common::ensure(spec_.audit_mode == authority::Audit_mode::pure_best_response,
                   "Pipeline_processor: the pipeline audits pure strategies (the batch "
                   "edge is the deferred-audit window)");
    common::ensure(behavior_ != nullptr, "Pipeline_processor: null behavior");
    common::ensure(punishment_ != nullptr, "Pipeline_processor: null punishment scheme");
    if (tamper_.has_value()) {
        common::ensure(tamper_->play >= 0 && tamper_->play < k_,
                       "Pipeline_processor: tamper targets a play outside the batch");
    }
    previous_ = first_play_profile(spec_);
    roots_.resize(static_cast<std::size_t>(n_));
}

void Pipeline_processor::reset_section_buffer(int phase)
{
    buf_phase_ = phase;
    for (common::Round& round : buf_round_) round = -1;
    for (common::Shared_payload& owner : buf_owner_) owner = {};
    for (common::Byte_view& section : buf_section_) section = {};
}

common::Bytes& Pipeline_processor::mint_buffer()
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

void Pipeline_processor::on_pulse(sim::Pulse_context& ctx)
{
    // ---- Parse inbox. Under delta > 1 a pulse legitimately carries several
    // copies per sender (retransmissions with different delays landing
    // together), so every copy is parsed: the cache keeps the freshest
    // beacon per sender, and every decodable section is parked — as a view
    // into the message, kept alive by its payload handle — for the
    // newest-round-per-sender buffer fold below.
    parked_.clear();
    Pulse_message message;
    for (const sim::Message& msg : ctx.inbox()) {
        if (msg.from < 0 || msg.from >= ctx.system_size()) continue;
        if (!parse_pulse_message(msg.payload, message)) continue;
        cache_.observe(msg.from, message.clock, msg.sent_at, ctx.pulse());
        if (message.has_section) {
            parked_.push_back(
                {msg.from, message.phase, message.round, msg.payload, message.section});
        }
    }

    // ---- Clock: quorum step at frame boundaries, held in between.
    const bool boundary = cache_.is_boundary(ctx.pulse());
    bool jumped = false;
    if (boundary) {
        const int before_step = clock_.value();
        clock_.step(cache_.collect(ctx.pulse()));
        // Steady state advances one slot per step and a held clock repeats
        // one; anything else is a jump, and the window in flight is lost.
        jumped = clock_.value() != before_step &&
                 clock_.value() != (before_step + 1) % clock_.period();
        if (jumped) window_ = Window_progress::none;
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
    const int len = ic_rounds_ + 1; // slots per phase
    const int slot = c - 1;
    const bool in_schedule = slot >= 0 && slot < 4 * len;
    const bool slot_entered = boundary && slot != last_slot_;
    last_slot_ = slot;

    if (in_schedule) {
        const int phase_index = slot / len;
        const auto phase = static_cast<Phase>(phase_index);
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
            // A window is followed only from a clock that stepped into its
            // commit activation: a replica whose clock jumped there cannot
            // tell whether the rest of the group arrived with it.
            if (phase == Phase::commit && !jumped) window_ = Window_progress::opened;
            // One session per replica, restarted in place at every
            // activation; the factory builds it at the first activation and
            // again after a transient fault.
            bft::Value input = phase_input(phase, ctx.pulse());
            if (session_) {
                session_->restart(std::move(input));
            } else {
                session_ = ic_factory_(n_, f_, id(), std::move(input));
            }
            last_sent_phase_ = -1; // force a fresh round-0 mint below
            last_sent_round_ = -1;
            ic_activation_seq_ += 1;
            if (tracer_ != nullptr) {
                // Nested under the batch-window span when one is open
                // (phase_input above may have just opened it); the outcome
                // phase of the next window runs before that window opens, so
                // its activation is a track-root span.
                ic_span_ = tracer_->begin_span("ic", ctx.pulse(), window_span_,
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
            // section's message, and the pool never refills the current
            // section message.
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
                delivery_[static_cast<std::size_t>(id())] = last_sent_section_;
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
                process_phase_result(phase, session_->agreed_vector(), ctx.pulse());
            }
        }

        if (r < ic_rounds_ && session_ && !session_->done()) {
            if (last_sent_phase_ != phase_index || last_sent_round_ != r) {
                // Mint exactly once per (phase, round): the header, then the
                // session's section appended in place behind its length
                // prefix. The frame's remaining pulses re-send the same
                // handle against loss (the clock, and so every byte, is
                // unchanged within a frame).
                common::Bytes& out = mint_buffer();
                common::put_u32(out, static_cast<std::uint32_t>(c));
                out.push_back(1);
                out.push_back(static_cast<std::uint8_t>(phase_index));
                common::put_u32(out, static_cast<std::uint32_t>(r));
                const std::size_t prefix = out.size();
                common::put_u32(out, 0);
                session_->append_message_for_round(r, out);
                const std::size_t length = out.size() - prefix - 4;
                for (std::size_t i = 0; i < 4; ++i)
                    out[prefix + i] = static_cast<std::uint8_t>(length >> (8 * i)); // as put_u32
                last_sent_section_ = common::Byte_view{out.data() + prefix + 4, length};
                last_sent_buffer_ = static_cast<int>(minted_);
                last_sent_phase_ = phase_index;
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

void Pipeline_processor::corrupt(common::Rng& rng)
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
    window_span_ = 0;
    // Arbitrary replicated state: scramble the previous-outcome replica and
    // drop the in-flight batch (the executive ledger is application state;
    // §4 leaves its stabilization case-by-case).
    for (common::Agent_id i = 0; i < n_; ++i) {
        previous_[static_cast<std::size_t>(i)] =
            static_cast<int>(rng.below(static_cast<std::uint64_t>(spec_.game->n_actions(i))));
    }
    clear_batch();
    batch_opened_at_ = -1;
    published_this_batch_ = false;
}

bft::Value Pipeline_processor::phase_input(Phase phase, common::Pulse now)
{
    switch (phase) {
    case Phase::outcome:
        return encode_profile(previous_);

    case Phase::commit: {
        if (telemetry_ != nullptr) {
            batch_opened_at_ = now;
            telemetry::Event e;
            e.kind = telemetry::Event_kind::play_open;
            e.window = batches_;
            e.at = now;
            e.a = k_; // k plays open per batch window
            telemetry_->event(std::move(e));
        }
        if (tracer_ != nullptr) {
            // The batch-window span opens before the commit activation's ic
            // span begins, so commit/reveal/foul all nest under it.
            window_span_ = tracer_->begin_span("batch_window", now, /*parent=*/0, batches_, k_);
        }
        const std::vector<bool> active = executive_.active_mask();
        if (!active[static_cast<std::size_t>(id())]) return {};
        batcher_.build(*behavior_, previous_, static_cast<int>(plays_.size()), rng_);
        return encode(batcher_.root());
    }

    case Phase::reveal:
        if (!batcher_.built()) return {};
        return batcher_.reveal_bytes(tamper_, rng_);

    case Phase::foul: {
        // A replica that did not follow this window (a transient fault or a
        // clock jump lost part of it) abstains with an empty mask, which
        // strict_majority_flags skips: a window it did not see convicts
        // nobody.
        if (window_ != Window_progress::revealed) return {};
        // Batch edge: deterministic audit of the whole agreed window.
        std::vector<bool> has_root(static_cast<std::size_t>(n_), false);
        for (common::Agent_id a = 0; a < n_; ++a) {
            has_root[static_cast<std::size_t>(a)] =
                roots_[static_cast<std::size_t>(a)].has_value();
        }
        my_verdicts_ =
            audit_batch(spec_, cascade_, reveals_, has_root, executive_.active_mask());
        if (tracer_ != nullptr) {
            // The audit is synchronous within the pulse: a zero-length marker
            // under the window span, before the foul activation's ic span.
            tracer_->add_span("batch_audit", now, now, window_span_, batches_, k_);
        }
        common::Bytes mask;
        for (const authority::Verdict& v : my_verdicts_)
            mask.push_back(v.offence != authority::Offence::none ? 1 : 0);
        return mask;
    }
    }
    return {};
}

void Pipeline_processor::process_phase_result(Phase phase, const std::vector<bft::Value>& agreed,
                                              common::Pulse now)
{
    switch (phase) {
    case Phase::outcome: process_outcome_result(agreed); break;
    case Phase::commit: process_commit_result(agreed, now); break;
    case Phase::reveal: process_reveal_result(agreed, now); break;
    case Phase::foul: process_foul_result(agreed, now); break;
    }
}

void Pipeline_processor::process_outcome_result(const std::vector<bft::Value>& agreed)
{
    // Majority view wins; with no majority (fresh boot or post-fault
    // divergence) fall back to the deterministic first-play profile.
    if (majority_profile(agreed, spec_, previous_)) return;
    if (telemetry_ != nullptr) telemetry_->counter("outcome.divergence") += 1;
    previous_ = first_play_profile(spec_);
}

void Pipeline_processor::process_commit_result(const std::vector<bft::Value>& agreed,
                                               common::Pulse now)
{
    for (common::Agent_id a = 0; a < n_; ++a) {
        roots_[static_cast<std::size_t>(a)] =
            decode_batch_root(agreed[static_cast<std::size_t>(a)], k_);
    }
    if (telemetry_ != nullptr) {
        std::int64_t sealed = 0;
        for (const auto& root : roots_) {
            if (root.has_value()) ++sealed;
        }
        telemetry::Event e;
        e.kind = telemetry::Event_kind::play_seal;
        e.window = batches_;
        e.at = now;
        e.a = sealed;
        telemetry_->event(std::move(e));
    }
    // Every honest replica derives the same reference trajectory from the
    // agreed previous outcome — the audit standard of this batch.
    cascade_ = reference_cascade(*spec_.game, previous_, k_);
    reveals_.assign(static_cast<std::size_t>(k_),
                    std::vector<Reveal_slot>(static_cast<std::size_t>(n_)));
    // IC validity puts this replica's own proposal in the agreed vector
    // whenever the activation ran with the group; without it the group's
    // clocks had not re-converged after a transient fault.
    const bool own_root = !batcher_.built() || roots_[static_cast<std::size_t>(id())].has_value();
    window_ = window_ == Window_progress::opened && own_root ? Window_progress::committed
                                                             : Window_progress::none;
}

void Pipeline_processor::process_reveal_result(const std::vector<bft::Value>& agreed,
                                               common::Pulse now)
{
    // The reveal path is followed the same way as the commit path: the
    // agreed vector must carry this replica's own reveal.
    const bool own_reveal = !batcher_.built() || !agreed[static_cast<std::size_t>(id())].empty();
    window_ = window_ == Window_progress::committed && own_reveal ? Window_progress::revealed
                                                                  : Window_progress::none;
    // Mid-batch transient faults leave no window to publish from; the next
    // clock wrap starts a clean batch (all honest replicas skip in lockstep).
    if (static_cast<int>(reveals_.size()) != k_ ||
        static_cast<int>(cascade_.size()) != k_ + 1) {
        return;
    }

    // Open every agent's agreed vector: one O(k) tree rebuild per agent
    // verifies all k positions at once (opens_vector); a vector that does
    // not open the agreed root is voided wholesale — without per-position
    // proofs no position of a broken vector is trustworthy.
    for (common::Agent_id a = 0; a < n_; ++a) {
        const bft::Value& value = agreed[static_cast<std::size_t>(a)];
        const auto& root = roots_[static_cast<std::size_t>(a)];
        Reveal_slot::Status status = Reveal_slot::Status::missing;
        if (root.has_value() && !value.empty()) {
            status = decode_batch_reveal(value, k_, reveal_) && opens_vector(*root, reveal_)
                         ? Reveal_slot::Status::verified
                         : Reveal_slot::Status::unverifiable;
        }
        for (int j = 0; j < k_; ++j) {
            Reveal_slot& slot = reveals_[static_cast<std::size_t>(j)][static_cast<std::size_t>(a)];
            slot.status = status;
            if (status == Reveal_slot::Status::verified) {
                const auto action = authority::Judicial_service::decode_action(
                    reveal_.openings[static_cast<std::size_t>(j)].payload);
                slot.action = action.value_or(-1);
            }
        }
    }

    // Open plays one-by-one from the agreed vectors: verified legitimate
    // actions verbatim (deviations included — their verdict lands at the
    // batch edge), the cascade prescription substituted where nothing
    // usable was opened.
    for (int j = 0; j < k_; ++j) {
        const game::Pure_profile& reference = cascade_[static_cast<std::size_t>(j)];
        game::Pure_profile outcome(static_cast<std::size_t>(n_));
        for (common::Agent_id a = 0; a < n_; ++a) {
            const Reveal_slot& slot =
                reveals_[static_cast<std::size_t>(j)][static_cast<std::size_t>(a)];
            if (slot.status == Reveal_slot::Status::verified &&
                spec_.game->is_legitimate_action(a, slot.action)) {
                outcome[static_cast<std::size_t>(a)] = slot.action;
            } else {
                outcome[static_cast<std::size_t>(a)] =
                    game::best_response(*spec_.game, a, reference);
            }
        }

        authority::Play_record record;
        record.completed_at = now;
        record.outcome = outcome;
        std::vector<double> costs(static_cast<std::size_t>(n_), 0.0);
        if (executive_.active_count() == n_) {
            for (common::Agent_id a = 0; a < n_; ++a)
                costs[static_cast<std::size_t>(a)] = spec_.game->cost(a, outcome);
        }
        executive_.publish_outcome(outcome, costs);
        previous_ = outcome;
        plays_.push_back(std::move(record));
    }
    published_this_batch_ = true;
}

void Pipeline_processor::process_foul_result(const std::vector<bft::Value>& agreed,
                                             common::Pulse now)
{
    // N' = agents flagged by a strict majority of the agreed bitmasks.
    const std::vector<bool> flagged = strict_majority_flags(agreed, n_);
    const std::vector<bool> active = executive_.active_mask();
    std::vector<common::Agent_id> punished;
    for (common::Agent_id a = 0; a < n_; ++a) {
        if (flagged[static_cast<std::size_t>(a)] && active[static_cast<std::size_t>(a)]) {
            punished.push_back(a);
            // Offence label from the local audit (scheme effects are
            // label-independent, so replicas agree).
            authority::Offence offence = authority::Offence::not_best_response;
            for (const authority::Verdict& v : my_verdicts_) {
                if (v.agent == a && v.offence != authority::Offence::none) offence = v.offence;
            }
            punishment_->punish(executive_, a, offence);
            if (telemetry_ != nullptr) {
                telemetry::Event e;
                e.kind = telemetry::Event_kind::foul;
                e.window = batches_;
                e.at = now;
                e.a = a;
                e.note = authority::offence_name(offence);
                telemetry_->event(std::move(e));
                telemetry_->counter("fouls.flagged") += 1;

                // Evidence chain: locate the first play of the window where
                // the agent's agreed reveal deviates from the cascade
                // standard (reveals_/cascade_ are still populated here — they
                // clear at the bottom of this function). A verified reveal's
                // action is Merkle-proven under the agreed root, so committed
                // == revealed for it; an unverifiable/missing vector proves
                // nothing and both stay -1.
                telemetry::Evidence ev;
                ev.window = batches_;
                ev.at = now;
                ev.agent = a;
                ev.offence = authority::offence_name(offence);
                if (window_ == Window_progress::revealed) {
                    for (int j = 0; j < k_; ++j) {
                        const Reveal_slot& slot =
                            reveals_[static_cast<std::size_t>(j)][static_cast<std::size_t>(a)];
                        const int expected = game::best_response(
                            *spec_.game, a, cascade_[static_cast<std::size_t>(j)]);
                        const bool verified = slot.status == Reveal_slot::Status::verified;
                        if (!verified || slot.action != expected) {
                            ev.expected = expected;
                            if (verified) {
                                ev.committed = slot.action;
                                ev.revealed = slot.action;
                            }
                            break;
                        }
                    }
                }
                for (std::size_t i = 0; i < agreed.size(); ++i) {
                    const bft::Value& mask = agreed[i];
                    if (mask.size() == static_cast<std::size_t>(n_) &&
                        mask[static_cast<std::size_t>(a)] == 1) {
                        ev.flagged_by.push_back(static_cast<int>(i));
                    }
                }
                ev.ic_activation = ic_activation_seq_;
                telemetry_->add_evidence(std::move(ev));
            }
        }
    }
    if (tracer_ != nullptr) {
        // k retroactive play spans (the batch edge attributes them all at
        // once), then the window closes.
        if (published_this_batch_ && batch_opened_at_ >= 0) {
            const auto first = static_cast<std::int64_t>(plays_.size()) - k_;
            for (int j = 0; j < k_; ++j) {
                tracer_->add_span("play", batch_opened_at_, now, window_span_, first + j, 0);
            }
        }
        tracer_->end_span(window_span_, now);
        window_span_ = 0;
    }
    if (telemetry_ != nullptr) {
        telemetry::Event e;
        e.kind = telemetry::Event_kind::play_verdict;
        e.window = batches_;
        e.at = now;
        e.a = static_cast<std::int64_t>(punished.size());
        telemetry_->event(std::move(e));
        telemetry_->counter("batches.completed") += 1;
        if (published_this_batch_ && batch_opened_at_ >= 0) {
            // Verdicts land at the batch edge, so every play of the window
            // shares the open-to-verdict latency — the §5.3 detection delay
            // made visible in the play-latency histogram.
            telemetry::Histogram& latency = telemetry_->histogram("play.latency_pulses");
            for (int j = 0; j < k_; ++j) latency.record(now - batch_opened_at_);
            telemetry_->counter("plays.completed") += k_;
            telemetry_->histogram("batch.window_pulses").record(now - batch_opened_at_);
        }
        batch_opened_at_ = -1;
        published_this_batch_ = false;
    }
    // The batch edge is where verdicts land: attribute the foul set to the
    // window's last published play (the §5.3 delayed-detection semantics).
    if (!punished.empty() && !plays_.empty()) {
        plays_.back().punished = std::move(punished);
    }

    ++batches_;
    clear_batch();
}

void Pipeline_processor::clear_batch()
{
    batcher_.reset();
    for (auto& root : roots_) root.reset();
    reveals_.clear();
    cascade_.clear();
    my_verdicts_.clear();
    window_ = Window_progress::none;
}

} // namespace ga::pipeline
