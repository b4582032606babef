#include "authority/authority_group.h"

#include "authority/ic_schedule_processor.h"

namespace ga::authority {

Replica_group_harness::Replica_group_harness(Game_spec spec, int f,
                                             const std::set<common::Processor_id>& byzantine,
                                             common::Rng& rng, sim::Net_model net)
    : n_{spec.game ? spec.game->n_agents() : 0},
      f_{f},
      spec_{std::move(spec)},
      byzantine_{byzantine},
      engine_{sim::complete_graph(n_), rng.split(99), {}, std::move(net)}
{
    common::ensure(spec_.game != nullptr, "Replica_group_harness: null game");
    common::ensure(static_cast<int>(byzantine_.size()) <= f_,
                   "Replica_group_harness: more Byzantine slots than the declared f");
    common::ensure(n_ > 3 * f_, "Replica_group_harness: requires n > 3f");
}

bool Replica_group_harness::is_honest_slot(common::Processor_id id) const
{
    return byzantine_.count(id) == 0;
}

std::vector<common::Processor_id> Replica_group_harness::honest_slots() const
{
    std::vector<common::Processor_id> slots;
    for (common::Processor_id id = 0; id < n_; ++id) {
        if (is_honest_slot(id)) slots.push_back(id);
    }
    return slots;
}

common::Pulse Replica_group_harness::pulses_for_slots(int slots) const
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

common::Processor_id Replica_group_harness::reference_slot() const
{
    for (common::Processor_id id = 0; id < n_; ++id) {
        if (is_honest_slot(id)) return id;
    }
    throw common::Contract_error{"Replica_group_harness: no honest replica to harvest"};
}

std::vector<common::Agent_id> Replica_group_harness::disconnected_agents() const
{
    std::vector<common::Agent_id> out;
    for (common::Agent_id id = 0; id < n_; ++id) {
        if (engine_.is_disconnected(id)) out.push_back(id);
    }
    return out;
}

bool Replica_group_harness::is_agent_disconnected(common::Agent_id id) const
{
    return engine_.is_disconnected(id);
}

void Replica_group_harness::enact_disconnections()
{
    std::vector<int> votes(static_cast<std::size_t>(n_), 0);
    int honest = 0;
    for (common::Processor_id id = 0; id < n_; ++id) {
        if (!is_honest_slot(id)) continue;
        ++honest;
        const Executive_service& replica = replica_executive(id);
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

void Replica_group_harness::set_wire(std::unique_ptr<wire::Transport> link)
{
    wire_ = std::move(link);
    engine_.set_link(wire_.get());
    if (wire_ != nullptr) wire_->set_telemetry(telemetry_);
}

void Replica_group_harness::set_telemetry(telemetry::Telemetry_sink* sink)
{
    telemetry_ = sink;
    if (wire_ != nullptr) wire_->set_telemetry(sink);
    tel_pulses_ = tel_messages_ = tel_bytes_ = tel_dropped_ = tel_delayed_ = nullptr;
    Ic_schedule_processor* reference =
        dynamic_cast<Ic_schedule_processor*>(&engine_.processor(reference_slot()));
    if (reference != nullptr) reference->set_telemetry(sink);
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

void Replica_group_harness::sample_telemetry(common::Pulse executed)
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

void Replica_group_harness::run_pulses(common::Pulse count)
{
    for (common::Pulse i = 0; i < count; ++i) {
        const common::Pulse executed = engine_.now();
        engine_.run_pulse();
        enact_disconnections();
        if (telemetry_ != nullptr) sample_telemetry(executed);
    }
}

void Replica_group_harness::inject_transient_fault()
{
    engine_.inject_transient_fault();
}

void Replica_group_harness::expel_agent(common::Agent_id id)
{
    common::ensure(id >= 0 && id < n_, "expel_agent: agent out of range");
    if (!engine_.is_disconnected(id)) engine_.disconnect(id);
}

} // namespace ga::authority
