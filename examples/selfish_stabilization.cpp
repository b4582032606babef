// Self(ish)-stabilization demo (§4): the distributed game authority keeps
// working through a transient fault that scrambles every processor's state.
//
// Four processors run the full §3.3 play pipeline (clock-scheduled EIG
// activations, one play per period: a Pipeline_authority at k = 1) over the
// simulator. Mid-run, a transient fault randomizes
// clocks and replicated state; the self-stabilizing clock re-synchronizes,
// the next wrap starts a clean play, and the replicas agree again.
#include <iostream>

#include "pipeline/pipeline_authority.h"

using namespace ga;
using namespace ga::authority;
using ga::pipeline::Pipeline_authority;

namespace {

/// Minority game: your cost is the number of agents that chose your action —
/// best responses genuinely depend on the previous outcome.
class Minority_game final : public game::Strategic_game {
public:
    explicit Minority_game(int n) : n_{n} {}
    int n_agents() const override { return n_; }
    int n_actions(common::Agent_id) const override { return 2; }
    double cost(common::Agent_id i, const game::Pure_profile& profile) const override
    {
        int same = 0;
        for (const int a : profile)
            if (a == profile[static_cast<std::size_t>(i)]) ++same;
        return static_cast<double>(same);
    }

private:
    int n_;
};

} // namespace

int main()
{
    const int n = 4;
    const int f = 1;

    Game_spec spec;
    spec.name = "minority";
    spec.game = std::make_shared<Minority_game>(n);
    spec.equilibrium.assign(static_cast<std::size_t>(n), {1.0, 0.0});
    spec.audit_mode = Audit_mode::pure_best_response;

    std::vector<std::unique_ptr<Agent_behavior>> behaviors;
    for (int i = 0; i < n; ++i) behaviors.push_back(std::make_unique<Honest_behavior>());

    Pipeline_authority authority{
        spec, f, /*k=*/1, std::move(behaviors), {},
        [] { return std::make_unique<Fine_scheme>(1.0, 1e9); }, common::Rng{3}};

    std::cout << "Distributed game authority: n=" << n << ", f=" << f << ", "
              << authority.pulses_per_batch() << " pulses per play (4 EIG activations).\n\n";

    authority.run_pulses(1 + 3 * authority.pulses_per_batch());
    std::cout << "After 3 plays: processor 0 completed "
              << authority.processor(0).plays().size() << " plays.\n";

    std::cout << "\n>>> transient fault: all clocks and replicated state randomized <<<\n\n";
    authority.inject_transient_fault();

    // Watch the clocks re-synchronize.
    int pulses = 0;
    const auto clocks = [&] {
        std::string s;
        for (const auto id : authority.honest_slots()) {
            if (!s.empty()) s += ' ';
            s += std::to_string(authority.processor(id).clock());
        }
        return s;
    };
    const auto agree = [&] {
        int v = -1;
        for (const auto id : authority.honest_slots()) {
            const int c = authority.processor(id).clock();
            if (v < 0) v = c;
            if (c != v) return false;
        }
        return true;
    };
    std::cout << "clock values right after the fault: [" << clocks() << "]\n";
    while (!agree() && pulses < 300000) {
        authority.run_pulses(1);
        ++pulses;
        if (pulses <= 5 || pulses % 50 == 0)
            std::cout << "  pulse +" << pulses << ": [" << clocks() << "]\n";
    }
    std::cout << "clocks re-synchronized after " << pulses << " pulses: [" << clocks() << "]\n";

    // Run three more plays and confirm the replicas agree again. The play
    // *logs* may be offset by one garbled in-flight play from the fault, but
    // in steady state replicas complete plays at identical pulses — so the
    // tails of the logs must match exactly.
    const std::size_t before = authority.processor(0).plays().size();
    authority.run_pulses((3 + 1) * authority.pulses_per_batch());
    const auto& reference = authority.processor(0).plays();
    constexpr std::size_t tail = 3;
    bool replicas_agree = reference.size() >= tail;
    for (const auto id : authority.honest_slots()) {
        const auto& plays = authority.processor(id).plays();
        if (plays.size() < tail) {
            replicas_agree = false;
            break;
        }
        for (std::size_t t = 1; t <= tail && replicas_agree; ++t) {
            replicas_agree &= plays[plays.size() - t].outcome ==
                              reference[reference.size() - t].outcome;
            replicas_agree &= plays[plays.size() - t].completed_at ==
                              reference[reference.size() - t].completed_at;
        }
    }
    std::cout << "\nplays completed after recovery: " << reference.size() - before
              << "; replicas agree on the last " << tail
              << " plays (outcomes and completion pulses): "
              << (replicas_agree ? "yes" : "NO") << '\n';
    std::cout << "\nThis is Theorem 1 end-to-end: self-stabilizing clock sync + Byzantine\n"
                 "agreement = a game authority that survives arbitrary transient faults.\n";
    return 0;
}
