#include "pipeline/pipeline_processor.h"

#include "game/analysis.h"

namespace ga::pipeline {

namespace {

common::Bytes encode_profile(const game::Pure_profile& profile)
{
    common::Bytes bytes;
    common::put_u32(bytes, static_cast<std::uint32_t>(profile.size()));
    for (const int a : profile) common::put_u32(bytes, static_cast<std::uint32_t>(a));
    return bytes;
}

std::optional<game::Pure_profile> decode_profile(const common::Bytes& bytes,
                                                 const authority::Game_spec& spec)
{
    const int n = spec.game->n_agents();
    try {
        common::Byte_reader reader{bytes};
        const std::uint32_t size = reader.get_u32();
        if (size != static_cast<std::uint32_t>(n)) return std::nullopt;
        game::Pure_profile profile(static_cast<std::size_t>(n));
        for (auto& a : profile) a = static_cast<int>(reader.get_u32());
        if (!reader.exhausted()) return std::nullopt;
        for (common::Agent_id i = 0; i < n; ++i) {
            if (!spec.game->is_legitimate_action(i, profile[static_cast<std::size_t>(i)]))
                return std::nullopt;
        }
        return profile;
    } catch (const common::Decode_error&) {
        return std::nullopt;
    }
}

/// The previous-outcome profile proposed by a strict majority of the agreed
/// vector, nullopt when no decodable value has one (fresh boot or post-fault
/// divergence — the caller falls back to first_play_profile).
std::optional<game::Pure_profile> majority_profile(const std::vector<bft::Value>& values,
                                                   const authority::Game_spec& spec)
{
    // The quadratic scan is over the replica group (small by construction)
    // and only a strict majority — necessarily unique — is ever adopted.
    int best_index = -1;
    int best_count = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (!decode_profile(values[i], spec).has_value()) continue;
        int count = 0;
        for (std::size_t j = 0; j < values.size(); ++j) {
            if (values[j] == values[i]) ++count;
        }
        if (count > best_count) {
            best_count = count;
            best_index = static_cast<int>(i);
        }
    }
    if (best_index < 0 || 2 * best_count <= static_cast<int>(values.size())) return std::nullopt;
    return decode_profile(values[static_cast<std::size_t>(best_index)], spec);
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

Pipeline_processor::Pipeline_processor(common::Processor_id id, int n, int f,
                                       authority::Game_spec spec, int k,
                                       std::unique_ptr<authority::Agent_behavior> behavior,
                                       std::unique_ptr<authority::Punishment_scheme> punishment,
                                       common::Rng rng, bft::Ic_factory ic_factory,
                                       std::optional<Tamper> tamper, int delta)
    : Ic_schedule_processor{id, n, f, /*n_phases=*/4, std::move(ic_factory), rng.split(1), delta},
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
    common::ensure(spec_.game->n_agents() == this->n(),
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
    roots_.resize(static_cast<std::size_t>(this->n()));
}

bft::Value Pipeline_processor::phase_input(int phase, common::Pulse now)
{
    switch (static_cast<Phase>(phase)) {
    case Phase::outcome:
        return encode_profile(previous_);

    case Phase::commit: {
        if (auto* tel = telemetry()) {
            batch_opened_at_ = now;
            telemetry::Event e;
            e.kind = telemetry::Event_kind::play_open;
            e.window = batches_;
            e.at = now;
            e.a = k_; // k plays open per batch window
            tel->event(std::move(e));
        }
        if (auto* tr = tracer()) {
            // The batch-window span opens before the commit activation's ic
            // span begins, so commit/reveal/foul all nest under it.
            current_window_span_ =
                tr->begin_span("batch_window", now, /*parent=*/0, batches_, k_);
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
        // Batch edge: deterministic audit of the whole agreed window.
        std::vector<bool> has_root(static_cast<std::size_t>(n()), false);
        for (common::Agent_id a = 0; a < n(); ++a) {
            has_root[static_cast<std::size_t>(a)] =
                roots_[static_cast<std::size_t>(a)].has_value();
        }
        my_verdicts_ =
            audit_batch(spec_, cascade_, reveals_, has_root, executive_.active_mask());
        if (auto* tr = tracer()) {
            // The audit is synchronous within the pulse: a zero-length marker
            // under the window span, before the foul activation's ic span.
            tr->add_span("batch_audit", now, now, current_window_span_, batches_, k_);
        }
        common::Bytes mask;
        for (const authority::Verdict& v : my_verdicts_)
            mask.push_back(v.offence != authority::Offence::none ? 1 : 0);
        return mask;
    }
    }
    return {};
}

void Pipeline_processor::process_phase_result(int phase, common::Pulse now)
{
    switch (static_cast<Phase>(phase)) {
    case Phase::outcome: process_outcome_result(); break;
    case Phase::commit: process_commit_result(now); break;
    case Phase::reveal: process_reveal_result(now); break;
    case Phase::foul: process_foul_result(now); break;
    }
}

void Pipeline_processor::process_outcome_result()
{
    // Majority view wins; with no majority (fresh boot or post-fault
    // divergence) fall back to the deterministic first-play profile.
    const std::optional<game::Pure_profile> majority = majority_profile(agreed(), spec_);
    if (auto* tel = telemetry(); tel != nullptr && !majority.has_value()) {
        tel->counter("outcome.divergence") += 1;
    }
    previous_ = majority.value_or(first_play_profile(spec_));
}

void Pipeline_processor::process_commit_result(common::Pulse now)
{
    for (common::Agent_id a = 0; a < n(); ++a) {
        roots_[static_cast<std::size_t>(a)] =
            decode_batch_root(agreed()[static_cast<std::size_t>(a)], k_);
    }
    if (auto* tel = telemetry()) {
        std::int64_t sealed = 0;
        for (const auto& root : roots_) {
            if (root.has_value()) ++sealed;
        }
        telemetry::Event e;
        e.kind = telemetry::Event_kind::play_seal;
        e.window = batches_;
        e.at = now;
        e.a = sealed;
        tel->event(std::move(e));
    }
    // Every honest replica derives the same reference trajectory from the
    // agreed previous outcome — the audit standard of this batch.
    cascade_ = reference_cascade(*spec_.game, previous_, k_);
    reveals_.assign(static_cast<std::size_t>(k_),
                    std::vector<Reveal_slot>(static_cast<std::size_t>(n())));
}

void Pipeline_processor::process_reveal_result(common::Pulse now)
{
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
    for (common::Agent_id a = 0; a < n(); ++a) {
        const bft::Value& value = agreed()[static_cast<std::size_t>(a)];
        const auto& root = roots_[static_cast<std::size_t>(a)];
        Reveal_slot::Status status = Reveal_slot::Status::missing;
        std::optional<Batch_reveal> reveal;
        if (root.has_value() && !value.empty()) {
            reveal = decode_batch_reveal(value, k_);
            if (!reveal.has_value()) {
                status = Reveal_slot::Status::unverifiable;
            } else if (!opens_vector(*root, *reveal)) {
                status = Reveal_slot::Status::unverifiable;
                reveal.reset();
            } else {
                status = Reveal_slot::Status::verified;
            }
        }
        for (int j = 0; j < k_; ++j) {
            Reveal_slot& slot = reveals_[static_cast<std::size_t>(j)][static_cast<std::size_t>(a)];
            slot.status = status;
            if (status == Reveal_slot::Status::verified) {
                const auto action = authority::Judicial_service::decode_action(
                    reveal->openings[static_cast<std::size_t>(j)].payload);
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
        game::Pure_profile outcome(static_cast<std::size_t>(n()));
        for (common::Agent_id a = 0; a < n(); ++a) {
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
        std::vector<double> costs(static_cast<std::size_t>(n()), 0.0);
        if (executive_.active_count() == n()) {
            for (common::Agent_id a = 0; a < n(); ++a)
                costs[static_cast<std::size_t>(a)] = spec_.game->cost(a, outcome);
        }
        executive_.publish_outcome(outcome, costs);
        previous_ = outcome;
        plays_.push_back(std::move(record));
    }
    published_this_batch_ = true;
}

void Pipeline_processor::process_foul_result(common::Pulse now)
{
    // N' = agents flagged by a strict majority of the agreed bitmasks.
    const std::vector<bool> flagged = strict_majority_flags(agreed(), n());
    const std::vector<bool> active = executive_.active_mask();
    std::vector<common::Agent_id> punished;
    for (common::Agent_id a = 0; a < n(); ++a) {
        if (flagged[static_cast<std::size_t>(a)] && active[static_cast<std::size_t>(a)]) {
            punished.push_back(a);
            // Offence label from the local audit (scheme effects are
            // label-independent, so replicas agree).
            authority::Offence offence = authority::Offence::not_best_response;
            for (const authority::Verdict& v : my_verdicts_) {
                if (v.agent == a && v.offence != authority::Offence::none) offence = v.offence;
            }
            punishment_->punish(executive_, a, offence);
            if (auto* tel = telemetry()) {
                telemetry::Event e;
                e.kind = telemetry::Event_kind::foul;
                e.window = batches_;
                e.at = now;
                e.a = a;
                e.note = authority::offence_name(offence);
                tel->event(std::move(e));
                tel->counter("fouls.flagged") += 1;

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
                if (static_cast<int>(reveals_.size()) == k_ &&
                    static_cast<int>(cascade_.size()) == k_ + 1) {
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
                for (std::size_t i = 0; i < agreed().size(); ++i) {
                    const bft::Value& mask = agreed()[i];
                    if (mask.size() == static_cast<std::size_t>(n()) &&
                        mask[static_cast<std::size_t>(a)] == 1) {
                        ev.flagged_by.push_back(static_cast<int>(i));
                    }
                }
                ev.ic_activation = ic_activation_seq();
                tel->add_evidence(std::move(ev));
            }
        }
    }
    if (auto* tr = tracer()) {
        // k retroactive play spans (the batch edge attributes them all at
        // once), then the window closes.
        if (published_this_batch_ && batch_opened_at_ >= 0) {
            const auto first = static_cast<std::int64_t>(plays_.size()) - k_;
            for (int j = 0; j < k_; ++j) {
                tr->add_span("play", batch_opened_at_, now, current_window_span_, first + j,
                             0);
            }
        }
        tr->end_span(current_window_span_, now);
        current_window_span_ = 0;
    }
    if (auto* tel = telemetry()) {
        telemetry::Event e;
        e.kind = telemetry::Event_kind::play_verdict;
        e.window = batches_;
        e.at = now;
        e.a = static_cast<std::int64_t>(punished.size());
        tel->event(std::move(e));
        tel->counter("batches.completed") += 1;
        if (published_this_batch_ && batch_opened_at_ >= 0) {
            // Verdicts land at the batch edge, so every play of the window
            // shares the open-to-verdict latency — the §5.3 detection delay
            // made visible in the play-latency histogram.
            telemetry::Histogram& latency = tel->histogram("play.latency_pulses");
            for (int j = 0; j < k_; ++j) latency.record(now - batch_opened_at_);
            tel->counter("plays.completed") += k_;
            tel->histogram("batch.window_pulses").record(now - batch_opened_at_);
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
    batcher_.reset();
    for (auto& root : roots_) root.reset();
    reveals_.clear();
    cascade_.clear();
    my_verdicts_.clear();
}

void Pipeline_processor::corrupt_state(common::Rng& rng)
{
    // Arbitrary replicated state: scramble the previous-outcome replica and
    // drop the in-flight batch (the executive ledger is application state;
    // §4 leaves its stabilization case-by-case).
    for (common::Agent_id i = 0; i < n(); ++i) {
        previous_[static_cast<std::size_t>(i)] =
            static_cast<int>(rng.below(static_cast<std::uint64_t>(spec_.game->n_actions(i))));
    }
    batcher_.reset();
    for (auto& root : roots_) root.reset();
    reveals_.clear();
    cascade_.clear();
    my_verdicts_.clear();
    batch_opened_at_ = -1;
    published_this_batch_ = false;
}

} // namespace ga::pipeline
