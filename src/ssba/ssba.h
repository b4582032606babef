// SSBA — self-stabilizing Byzantine agreement (§4, Theorem 1).
//
// Composition of two distributed algorithms, exactly as the paper prescribes:
// a self-stabilizing Byzantine clock-synchronization core (Dolev-Welch family)
// plus a non-stabilizing Byzantine agreement protocol (EIG). Whenever the
// clock value reaches 1 the processor restarts a fresh BA activation; the
// clock period M is large enough for exactly one agreement per wrap
// (M >= f+3 with EIG's f+1 rounds), so that
//   - convergence (Lemma 2): once the clocks synchronize — expected
//     O(n^(n-f))-family pulses from an arbitrary configuration — the very next
//     wrap to 1 starts a clean agreement, and
//   - closure (Lemma 3): every subsequent M-pulse window completes exactly one
//     BA satisfying termination, validity, and agreement.
//
// The composition is ssba::Clocked_ic (clocked_ic.h); this processor is its
// one-phase client over bft::ic_eig(), deciding each activation's consensus.
#ifndef GA_SSBA_SSBA_H
#define GA_SSBA_SSBA_H

#include <functional>
#include <vector>

#include "sim/processor.h"
#include "ssba/clocked_ic.h"

namespace ga::ssba {

/// Supplies the input value for the BA activation that starts at `pulse`.
/// Self-stabilization requires inputs to be (re)readable at any time, so the
/// provider is consulted afresh at every clock wrap.
using Input_provider = std::function<bft::Value(common::Pulse)>;

/// One completed agreement, as observed by one processor.
struct Agreement_record {
    common::Pulse decided_at = 0; ///< pulse at which the decision fired
    bft::Value value;             ///< the agreed value
};

class Ssba_processor final : public sim::Processor, private Clocked_ic_client {
public:
    /// `period` must be at least f+3 (f+1 EIG rounds + start/decide slack);
    /// the paper's "clock size log M large enough for exactly one agreement".
    Ssba_processor(common::Processor_id id, int n, int f, int period, common::Rng rng,
                   Input_provider input_provider);

    void on_pulse(sim::Pulse_context& ctx) override { schedule_.on_pulse(ctx, *this); }

    /// Transient fault: arbitrary clock value and arbitrary BA progress.
    void corrupt(common::Rng& rng) override;

    [[nodiscard]] int clock() const { return schedule_.clock(); }
    [[nodiscard]] int period() const { return schedule_.period(); }

    /// Every agreement this processor has decided, in pulse order.
    [[nodiscard]] const std::vector<Agreement_record>& decisions() const { return decisions_; }

private:
    bft::Value activation_input(int phase, common::Pulse now, bool after_jump) override;
    void activation_done(int phase, const bft::Ic_session& session, common::Pulse now) override;

    Clocked_ic schedule_;
    Input_provider input_provider_;
    std::vector<Agreement_record> decisions_;
};

} // namespace ga::ssba

#endif // GA_SSBA_SSBA_H
