#include "metrics/convergence.h"

#include "clock/clock_sync.h"
#include "sim/engine.h"
#include "sim/malicious.h"
#include "ssba/ssba.h"

namespace ga::metrics {

namespace {

/// True when the honest slots [0, n-f), each a `Clocked` processor, hold one
/// clock value.
template <class Clocked>
bool honest_clocks_agree(sim::Engine& engine, int n, int f)
{
    int value = -1;
    for (common::Processor_id id = 0; id < n - f; ++id) {
        const int clock = engine.processor_as<Clocked>(id).clock();
        if (value < 0) value = clock;
        if (clock != value) return false;
    }
    return true;
}

} // namespace

Convergence_result measure_clock_convergence(const Convergence_config& config, common::Rng& rng)
{
    Convergence_result result;
    result.total_trials = config.trials;

    for (int trial = 0; trial < config.trials; ++trial) {
        common::Rng trial_rng = rng.split(static_cast<std::uint64_t>(trial) + 1);
        sim::Engine engine{sim::complete_graph(config.n), trial_rng.split(0)};
        // Honest processors in slots [0, n-f), babblers in the rest.
        for (common::Processor_id id = 0; id < config.n - config.f; ++id) {
            const int initial =
                static_cast<int>(trial_rng.below(static_cast<std::uint64_t>(config.period)));
            engine.install(std::make_unique<ga::clock::Clock_sync_processor>(
                               id, config.n, config.f, config.period, trial_rng.split(10 + id),
                               initial),
                           /*byzantine=*/false);
        }
        for (common::Processor_id id = config.n - config.f; id < config.n; ++id) {
            engine.install(std::make_unique<sim::Random_babbler>(id, trial_rng.split(100 + id), 8),
                           /*byzantine=*/true);
        }

        int pulses = 0;
        bool converged = false;
        while (pulses < config.pulse_cap) {
            engine.run_pulse();
            ++pulses;
            if (honest_clocks_agree<ga::clock::Clock_sync_processor>(engine, config.n, config.f)) {
                converged = true;
                break;
            }
        }
        if (converged) {
            ++result.converged_trials;
            result.pulses.add(static_cast<double>(pulses));
        }
    }
    return result;
}

Closure_result audit_ssba_closure(const Closure_config& config, common::Rng& rng)
{
    const int period = config.f + 3; // exactly one EIG agreement per wrap
    Closure_result result;

    sim::Engine engine{sim::complete_graph(config.n), rng.split(0)};
    // Input provider: the honest input for the window starting at pulse p is
    // the window index encoded as bytes — every honest processor proposes the
    // same value, so validity forces the decision to equal it.
    const auto input_for_pulse = [period](common::Pulse pulse) {
        common::Bytes value;
        common::put_u64(value, static_cast<std::uint64_t>(pulse / period));
        return value;
    };

    for (common::Processor_id id = 0; id < config.n - config.f; ++id) {
        engine.install(std::make_unique<ga::ssba::Ssba_processor>(id, config.n, config.f, period,
                                                                  rng.split(10 + id),
                                                                  input_for_pulse),
                       /*byzantine=*/false);
    }
    for (common::Processor_id id = config.n - config.f; id < config.n; ++id) {
        engine.install(std::make_unique<sim::Random_babbler>(id, rng.split(100 + id), 32),
                       /*byzantine=*/true);
    }

    // Random initial configuration.
    engine.inject_transient_fault();

    // Phase 1: wait for honest clock agreement.
    int pulses = 0;
    while (!honest_clocks_agree<ga::ssba::Ssba_processor>(engine, config.n, config.f) &&
           pulses < 500000) {
        engine.run_pulse();
        ++pulses;
    }
    result.convergence_pulses = pulses;

    // Phase 2: run one full slack window, then audit decision windows.
    engine.run(period);
    std::vector<std::size_t> decision_floor(static_cast<std::size_t>(config.n - config.f));
    for (common::Processor_id id = 0; id < config.n - config.f; ++id) {
        decision_floor[static_cast<std::size_t>(id)] =
            engine.processor_as<ga::ssba::Ssba_processor>(id).decisions().size();
    }

    for (int w = 0; w < config.windows; ++w) {
        engine.run(period);
        ++result.windows_audited;

        bool window_ok = true;
        common::Bytes agreed;
        bool first = true;
        for (common::Processor_id id = 0; id < config.n - config.f; ++id) {
            const auto& decisions =
                engine.processor_as<ga::ssba::Ssba_processor>(id).decisions();
            const std::size_t floor = decision_floor[static_cast<std::size_t>(id)];
            // Termination: exactly one new decision this window.
            if (decisions.size() != floor + static_cast<std::size_t>(w) + 1) {
                window_ok = false;
                break;
            }
            const common::Bytes& value = decisions.back().value;
            if (first) {
                agreed = value;
                first = false;
            } else if (value != agreed) {
                window_ok = false; // agreement violated
                break;
            }
        }
        // Validity: all honest proposed the same window index; the decision
        // must be a non-empty value (their common input).
        if (window_ok && agreed.empty()) window_ok = false;
        if (window_ok) ++result.windows_correct;
    }
    return result;
}

} // namespace ga::metrics
