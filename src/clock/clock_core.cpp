#include "clock/clock_core.h"

#include "common/ensure.h"

namespace ga::clock {

Clock_core::Clock_core(int n, int f, int period, common::Rng rng, int initial_value)
    : n_{n}, f_{f}, period_{period}, value_{initial_value}, rng_{rng}
{
    common::ensure(n_ > 3 * f_, "Clock_core requires n > 3f");
    common::ensure(period_ >= 2, "Clock_core requires period >= 2");
    common::ensure(initial_value >= 0 && initial_value < period_,
                   "Clock_core: initial value out of range");
}

void Clock_core::set_value(int value)
{
    value_ = ((value % period_) + period_) % period_;
}

int Clock_core::step(const std::vector<int>& received)
{
    // Insufficient evidence: fewer values than the n-f-1 honest others that a
    // clean pulse is guaranteed to deliver means the *network* is withholding
    // messages (boot pulse, blackout window, heavy loss) — hold the clock
    // rather than randomize, so symmetric outages freeze all honest clocks in
    // place and lockstep resumes the pulse delivery heals. Byzantine senders
    // can only add values, never push an honest receiver under the bound.
    if (static_cast<int>(received.size()) < n_ - f_ - 1) return value_;

    count_.assign(static_cast<std::size_t>(period_), 0);
    ++count_[static_cast<std::size_t>(value_)];
    for (const int v : received) {
        if (v >= 0 && v < period_) ++count_[static_cast<std::size_t>(v)];
    }

    for (int v = 0; v < period_; ++v) {
        if (count_[static_cast<std::size_t>(v)] >= n_ - f_) {
            value_ = (v + 1) % period_;
            return value_;
        }
    }
    value_ = static_cast<int>(rng_.below(static_cast<std::uint64_t>(period_)));
    return value_;
}

} // namespace ga::clock
