// Small statistics toolkit for the experiment harness: running moments,
// percentiles, and a chi-square goodness-of-fit test (used by the judicial
// service to audit the credibility of revealed mixed-strategy samples, §5.2).
#ifndef GA_COMMON_STATS_H
#define GA_COMMON_STATS_H

#include <cstddef>
#include <vector>

namespace ga::common {

/// Streaming mean/variance accumulator (Welford's algorithm).
class Running_stats {
public:
    void add(double x);

    [[nodiscard]] std::size_t count() const { return count_; }
    [[nodiscard]] double mean() const;
    /// Unbiased sample variance; 0 when fewer than two samples.
    [[nodiscard]] double variance() const;
    [[nodiscard]] double min() const;
    [[nodiscard]] double max() const;

private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// p-th percentile (p in [0,1]) by linear interpolation; data need not be sorted.
double percentile(std::vector<double> data, double p);

/// Pearson chi-square statistic of observed counts against expected
/// probabilities (must sum to ~1). Categories with zero expectation must have
/// zero observations.
double chi_square_statistic(const std::vector<std::size_t>& observed,
                            const std::vector<double>& expected_probabilities);

/// Upper-tail critical value of the chi-square distribution with `dof` degrees
/// of freedom at significance 0.001 (i.e. reject if statistic exceeds it).
/// Uses the Wilson-Hilferty approximation; accurate to ~1% for dof >= 1.
double chi_square_critical_999(std::size_t dof);

} // namespace ga::common

#endif // GA_COMMON_STATS_H
