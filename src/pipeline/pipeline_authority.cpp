#include "pipeline/pipeline_authority.h"

#include <algorithm>

#include "sim/malicious.h"

namespace ga::pipeline {

Pipeline_authority::Pipeline_authority(
    authority::Game_spec spec, int f, int k,
    std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors,
    const std::set<common::Processor_id>& byzantine,
    authority::Punishment_factory make_punishment, common::Rng rng,
    authority::Byzantine_factory make_byzantine, authority::Ic_factory ic_factory,
    std::map<common::Processor_id, Tamper> tampers, sim::Net_model net)
    : Replica_group_harness{std::move(spec), f, byzantine, rng, std::move(net)},
      k_{k},
      ic_factory_{ic_factory ? std::move(ic_factory)
                             : bft::choose_ic(std::max(n_, 3 * f + 1), f)},
      ic_rounds_{Pipeline_processor::ic_rounds_of(ic_factory_, std::max(n_, 3 * f + 1), f)}
{
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
                    id, n_, f_, spec_, k_, std::move(behaviors[static_cast<std::size_t>(id)]),
                    make_punishment(), rng.split(2000 + id), ic_factory_, tamper, delta()),
                /*byzantine=*/false);
        }
    }
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

const Pipeline_processor& Pipeline_authority::processor(common::Processor_id id) const
{
    common::ensure(is_honest_slot(id), "processor: Byzantine slot has no authority replica");
    return engine_.processor_as<Pipeline_processor>(id);
}

const authority::Executive_service&
Pipeline_authority::replica_executive(common::Processor_id id) const
{
    return engine_.processor_as<Pipeline_processor>(id).executive();
}

const std::vector<authority::Play_record>& Pipeline_authority::agreed_plays() const
{
    return processor(reference_slot()).plays();
}

const std::vector<authority::Standing>& Pipeline_authority::agreed_standings() const
{
    return processor(reference_slot()).executive().standings();
}

void Pipeline_authority::run_plays(int plays)
{
    run_pulses(pulses_for_plays(plays));
}

void Pipeline_authority::run_batches(int count)
{
    run_pulses(static_cast<common::Pulse>(count) * pulses_per_batch());
}

} // namespace ga::pipeline
