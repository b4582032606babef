// Self-stabilizing Byzantine digital clock synchronization — update rule.
//
// The randomized quorum-adoption rule of the Dolev-Welch family ([11] in the
// paper): every pulse each processor broadcasts its clock value in [0, M);
// if n-f processors (counting itself) reported the same value v, it adopts
// (v+1) mod M, otherwise it re-draws its clock uniformly at random.
//
//   Closure:      once all honest processors agree, they stay in agreement and
//                 increment together — for n > 2f no Byzantine coalition can
//                 assemble a competing n-f quorum, and for n > 3f the quorum
//                 value is unique.
//   Convergence:  from arbitrary clocks, honest processors re-randomize until
//                 they coincide; the expected time grows exponentially in the
//                 number of honest processors, the O(n^(n-f))-family bound the
//                 paper quotes for [11] (measured empirically in bench E2).
//
// The rule is transport-free so the same core drives the standalone
// Clock_sync_processor and the SSBA composition of §4.
#ifndef GA_CLOCK_CLOCK_CORE_H
#define GA_CLOCK_CLOCK_CORE_H

#include <vector>

#include "common/rng.h"

namespace ga::clock {

class Clock_core {
public:
    /// Clock over [0, period); requires n > 3f and period >= 2.
    Clock_core(int n, int f, int period, common::Rng rng, int initial_value = 0);

    [[nodiscard]] int value() const { return value_; }
    [[nodiscard]] int period() const { return period_; }

    /// Transient fault: force an arbitrary clock value.
    void set_value(int value);

    /// Apply one pulse. `received` holds the clock values decoded from
    /// *distinct other* processors this pulse (invalid/missing ones omitted);
    /// the processor's own value is counted internally. Fewer than n-f-1
    /// values — under what a clean pulse guarantees from honest others — is
    /// insufficient evidence (boot pulse, blackout, heavy loss) and leaves
    /// the clock as is rather than randomizing. Returns the new value.
    int step(const std::vector<int>& received);

private:
    int n_;
    int f_;
    int period_;
    int value_;
    common::Rng rng_;
    std::vector<int> count_; ///< step()'s per-value tally, capacity reused
};

} // namespace ga::clock

#endif // GA_CLOCK_CLOCK_CORE_H
