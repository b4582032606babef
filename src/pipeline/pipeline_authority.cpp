#include "pipeline/pipeline_authority.h"

#include "sim/malicious.h"

namespace ga::pipeline {

Pipeline_authority::Pipeline_authority(
    authority::Game_spec spec, int f, int k,
    std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors,
    const std::set<common::Processor_id>& byzantine,
    authority::Punishment_factory make_punishment, common::Rng rng,
    authority::Byzantine_factory make_byzantine, bft::Ic_factory ic_factory,
    std::map<common::Processor_id, Tamper> tampers, sim::Net_model net)
    : n_{spec.game ? spec.game->n_agents() : 0},
      spec_{std::move(spec)},
      byzantine_{byzantine},
      engine_{sim::complete_graph(n_), rng.split(99), {}, std::move(net)},
      k_{k}
{
    common::ensure(spec_.game != nullptr, "Pipeline_authority: null game");
    common::ensure(static_cast<int>(byzantine_.size()) <= f,
                   "Pipeline_authority: more Byzantine slots than the declared f");
    common::ensure(n_ > 3 * f, "Pipeline_authority: requires n > 3f");
    common::ensure(static_cast<int>(behaviors.size()) == n_,
                   "Pipeline_authority: one behavior slot per agent");
    common::ensure(k_ >= 1 && k_ <= k_max_batch, "Pipeline_authority: batch arity out of range");
    common::ensure(make_punishment != nullptr, "Pipeline_authority: null punishment factory");
    for (const auto& [slot, tamper] : tampers) {
        common::ensure(slot >= 0 && slot < n_, "Pipeline_authority: tamper slot out of range");
        common::ensure(byzantine_.count(slot) == 0,
                       "Pipeline_authority: tampers instrument protocol-following slots");
        (void)tamper;
    }
    if (!ic_factory) ic_factory = bft::choose_ic(n_, f);
    ic_rounds_ = Pipeline_processor::ic_rounds_of(ic_factory, n_, f);

    for (common::Processor_id id = 0; id < n_; ++id) {
        if (byzantine_.count(id) != 0) {
            if (make_byzantine) {
                engine_.install(make_byzantine(id, rng.split(1000 + id)), /*byzantine=*/true);
            } else {
                engine_.install(std::make_unique<sim::Random_babbler>(id, rng.split(1000 + id)),
                                /*byzantine=*/true);
            }
        } else {
            common::ensure(behaviors[static_cast<std::size_t>(id)] != nullptr,
                           "Pipeline_authority: honest slot needs a behavior");
            std::optional<Tamper> tamper;
            if (const auto it = tampers.find(id); it != tampers.end()) tamper = it->second;
            engine_.install(
                std::make_unique<Pipeline_processor>(
                    id, n_, f, spec_, k_, std::move(behaviors[static_cast<std::size_t>(id)]),
                    make_punishment(), rng.split(2000 + id), ic_factory, tamper, delta()),
                /*byzantine=*/false);
        }
    }
}

void Pipeline_authority::run_pulses(common::Pulse count)
{
    for (common::Pulse i = 0; i < count; ++i) {
        const common::Pulse executed = engine_.now();
        engine_.run_pulse();
        enact_disconnections();
        if (telemetry_ != nullptr) sample_telemetry(executed);
    }
}

void Pipeline_authority::run_plays(int plays)
{
    run_pulses(pulses_for_plays(plays));
}

void Pipeline_authority::run_batches(int count)
{
    run_pulses(static_cast<common::Pulse>(count) * pulses_per_batch());
}

void Pipeline_authority::inject_transient_fault()
{
    engine_.inject_transient_fault();
}

int Pipeline_authority::pulses_per_batch() const
{
    // One batch spans one clock period in slot units; under an adversarial
    // net every slot stretches to a delta-pulse frame.
    return Pipeline_processor::clock_period_for(ic_rounds_) * delta();
}

common::Pulse Pipeline_authority::pulses_for_plays(int plays) const
{
    const int batches = (plays + k_ - 1) / k_;
    return static_cast<common::Pulse>(batches) * pulses_per_batch();
}

common::Pulse Pipeline_authority::pulses_to_window_edge() const
{
    // The reference replica's clock is the group's schedule position: a
    // batch occupies clock values 1..period-2 and the remaining slack
    // (period-1, then 0) is idle, so stepping until the clock wraps to 0
    // completes any in-flight batch. In steady state every honest clock
    // agrees; after a transient fault this is best-effort until the clocks
    // re-converge.
    const int period = Pipeline_processor::clock_period_for(ic_rounds_);
    const int value = processor(reference_slot()).clock();
    return pulses_for_slots((period - value) % period);
}

void Pipeline_authority::expel_agent(common::Agent_id id)
{
    common::ensure(id >= 0 && id < n_, "expel_agent: agent out of range");
    if (!engine_.is_disconnected(id)) engine_.disconnect(id);
}

bool Pipeline_authority::is_honest_slot(common::Processor_id id) const
{
    return byzantine_.count(id) == 0;
}

std::vector<common::Processor_id> Pipeline_authority::honest_slots() const
{
    std::vector<common::Processor_id> slots;
    for (common::Processor_id id = 0; id < n_; ++id) {
        if (is_honest_slot(id)) slots.push_back(id);
    }
    return slots;
}

const Pipeline_processor& Pipeline_authority::processor(common::Processor_id id) const
{
    common::ensure(is_honest_slot(id), "processor: Byzantine slot has no authority replica");
    return engine_.processor_as<Pipeline_processor>(id);
}

const std::vector<authority::Play_record>& Pipeline_authority::agreed_plays() const
{
    return processor(reference_slot()).plays();
}

const std::vector<authority::Standing>& Pipeline_authority::agreed_standings() const
{
    return processor(reference_slot()).executive().standings();
}

std::vector<common::Agent_id> Pipeline_authority::disconnected_agents() const
{
    std::vector<common::Agent_id> out;
    for (common::Agent_id id = 0; id < n_; ++id) {
        if (engine_.is_disconnected(id)) out.push_back(id);
    }
    return out;
}

bool Pipeline_authority::is_agent_disconnected(common::Agent_id id) const
{
    return engine_.is_disconnected(id);
}

void Pipeline_authority::set_telemetry(telemetry::Telemetry_sink* sink)
{
    telemetry_ = sink;
    if (wire_ != nullptr) wire_->set_telemetry(sink);
    tel_pulses_ = tel_messages_ = tel_bytes_ = tel_dropped_ = tel_delayed_ = nullptr;
    engine_.processor_as<Pipeline_processor>(reference_slot()).set_telemetry(sink);
    // The engine shares the sink's tracer (net-window spans, transient-fault
    // markers land on the same track as the schedule's spans). Both writers
    // run on the coordinating thread, ordered by the worker-pool barrier.
    engine_.set_tracer(sink != nullptr ? sink->tracer() : nullptr);
    if (sink == nullptr) return;
    // Deltas start from the attach point, so a sink attached mid-run never
    // re-counts traffic the previous sink (or nobody) already saw.
    tel_last_ = engine_.stats();
    tel_pulses_ = &sink->counter("net.pulses");
    tel_messages_ = &sink->counter("net.messages");
    tel_bytes_ = &sink->counter("net.payload_bytes");
    tel_dropped_ = &sink->counter("net.dropped");
    tel_delayed_ = &sink->counter("net.delayed");
}

void Pipeline_authority::set_wire(std::unique_ptr<wire::Transport> link)
{
    wire_ = std::move(link);
    engine_.set_link(wire_.get());
    if (wire_ != nullptr) wire_->set_telemetry(telemetry_);
}

common::Pulse Pipeline_authority::pulses_for_slots(int slots) const
{
    if (slots <= 0) return 0;
    const int d = engine_.net().delta;
    const common::Pulse now = engine_.now();
    // First boundary at or after `now` (boundaries are positive multiples of
    // delta); the run must include it and slots-1 further boundaries, each a
    // frame apart, and the last boundary pulse itself must be processed.
    common::Pulse next = ((now + d - 1) / d) * d;
    if (next == 0) next = d;
    return next - now + static_cast<common::Pulse>(slots - 1) * d + 1;
}

common::Processor_id Pipeline_authority::reference_slot() const
{
    for (common::Processor_id id = 0; id < n_; ++id) {
        if (is_honest_slot(id)) return id;
    }
    throw common::Contract_error{"Pipeline_authority: no honest replica to harvest"};
}

void Pipeline_authority::enact_disconnections()
{
    std::vector<int> votes(static_cast<std::size_t>(n_), 0);
    int honest = 0;
    for (common::Processor_id id = 0; id < n_; ++id) {
        if (!is_honest_slot(id)) continue;
        ++honest;
        const authority::Executive_service& replica =
            engine_.processor_as<Pipeline_processor>(id).executive();
        for (common::Agent_id j = 0; j < n_; ++j) {
            if (!replica.standing(j).active) ++votes[static_cast<std::size_t>(j)];
        }
    }
    for (common::Agent_id j = 0; j < n_; ++j) {
        if (2 * votes[static_cast<std::size_t>(j)] > honest && !engine_.is_disconnected(j)) {
            engine_.disconnect(j);
            if (telemetry_ != nullptr) {
                telemetry::Event e;
                e.kind = telemetry::Event_kind::expulsion;
                e.at = engine_.now() - 1; // the pulse whose vote expelled j
                e.a = j;
                e.note = "executive order";
                telemetry_->event(std::move(e));
                // Close the evidence chain: the newest verdict against j is
                // what this expulsion enacted.
                telemetry_->mark_expelled(j, engine_.now() - 1);
            }
        }
    }
}

void Pipeline_authority::sample_telemetry(common::Pulse executed)
{
    const sim::Traffic_stats& stats = engine_.stats();
    *tel_pulses_ += stats.pulses - tel_last_.pulses;
    *tel_messages_ += stats.messages - tel_last_.messages;
    *tel_bytes_ += stats.payload_bytes - tel_last_.payload_bytes;
    *tel_dropped_ += stats.dropped - tel_last_.dropped;
    *tel_delayed_ += stats.delayed - tel_last_.delayed;
    tel_last_ = stats;

    // Burst/partition window edges: active over [begin, end), so the window
    // opens with pulse `begin` and is last active at pulse `end - 1`.
    for (std::size_t w = 0; w < engine_.net().windows.size(); ++w) {
        const sim::Net_window& window = engine_.net().windows[w];
        if (executed == window.begin && window.end > window.begin) {
            telemetry::Event e;
            e.kind = telemetry::Event_kind::net_window_open;
            e.at = executed;
            e.a = static_cast<std::int64_t>(w);
            e.b = static_cast<std::int64_t>(window.isolated.size());
            telemetry_->event(std::move(e));
        }
        if (executed == window.end - 1 && window.end > window.begin) {
            telemetry::Event e;
            e.kind = telemetry::Event_kind::net_window_close;
            e.at = executed;
            e.a = static_cast<std::int64_t>(w);
            telemetry_->event(std::move(e));
        }
    }
}

} // namespace ga::pipeline
