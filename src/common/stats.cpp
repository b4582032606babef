#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/ensure.h"

namespace ga::common {

void Running_stats::add(double x)
{
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

double Running_stats::mean() const
{
    ensure(count_ > 0, "Running_stats::mean on empty accumulator");
    return mean_;
}

double Running_stats::variance() const
{
    if (count_ < 2) return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double Running_stats::min() const
{
    ensure(count_ > 0, "Running_stats::min on empty accumulator");
    return min_;
}

double Running_stats::max() const
{
    ensure(count_ > 0, "Running_stats::max on empty accumulator");
    return max_;
}

double percentile(std::vector<double> data, double p)
{
    ensure(!data.empty(), "percentile of empty data");
    ensure(p >= 0.0 && p <= 1.0, "percentile requires p in [0,1]");
    std::sort(data.begin(), data.end());
    const double rank = p * static_cast<double>(data.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, data.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return data[lo] * (1.0 - frac) + data[hi] * frac;
}

double chi_square_statistic(const std::vector<std::size_t>& observed,
                            const std::vector<double>& expected_probabilities)
{
    ensure(observed.size() == expected_probabilities.size(),
           "chi_square_statistic: size mismatch");
    std::size_t total = 0;
    for (const std::size_t count : observed) total += count;
    ensure(total > 0, "chi_square_statistic: no observations");

    double statistic = 0.0;
    for (std::size_t i = 0; i < observed.size(); ++i) {
        const double expected = expected_probabilities[i] * static_cast<double>(total);
        if (expected <= 0.0) {
            ensure(observed[i] == 0,
                   "chi_square_statistic: observation in zero-probability category");
            continue;
        }
        const double diff = static_cast<double>(observed[i]) - expected;
        statistic += diff * diff / expected;
    }
    return statistic;
}

double chi_square_critical_999(std::size_t dof)
{
    ensure(dof >= 1, "chi_square_critical_999 requires dof >= 1");
    // Wilson-Hilferty: X ~ chi2(k)  =>  (X/k)^(1/3) approx N(1 - 2/(9k), 2/(9k)).
    constexpr double z_999 = 3.090232306167813; // Phi^{-1}(0.999)
    const double k = static_cast<double>(dof);
    const double term = 1.0 - 2.0 / (9.0 * k) + z_999 * std::sqrt(2.0 / (9.0 * k));
    return k * term * term * term;
}

} // namespace ga::common
