// Shared --json plumbing for the bench mains: `bench_x --json out.json`
// writes the bench's config and headline numbers (plus, where the workload
// carries one, a telemetry snapshot) as a machine-readable artifact next to
// the human table, so CI can archive runs and diff them across commits.
//
// Header-only on purpose: the benches are single-file programs and the
// helper is a thin veneer over telemetry::Json_writer (which already
// guarantees byte-stable output).
//
// It also holds the timing harness for a floor that compares two variants'
// throughput (paired_trials). A ratio timed once over a few milliseconds
// swings across its floor between runs, so the harness warms both variants
// up, times alternating trials of at least a fixed wall time, and judges on
// the median of the per-trial ratios, with every trial and the spread
// written to the bench's --json record.
#ifndef GA_BENCH_BENCH_JSON_H
#define GA_BENCH_BENCH_JSON_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/json.h"

namespace ga::bench {

/// The path following a `--json` flag; empty when the flag is absent.
inline std::string json_path(int argc, char** argv)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) return argv[i + 1];
    }
    return {};
}

/// The path following a `--trace` flag; empty when the flag is absent.
/// Every bench main honors it by writing a Perfetto-loadable Chrome
/// trace-event JSON there — its own fabric's causal spans where the bench
/// runs a traced fabric, the canonical bench_trace.h workload otherwise.
inline std::string trace_path(int argc, char** argv)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--trace") == 0) return argv[i + 1];
    }
    return {};
}

/// Translates `--json <path>` into the Google-Benchmark output flags
/// (--benchmark_out / --benchmark_out_format=json) so the gbench binaries
/// accept the same artifact flag as the self-contained benches, and strips
/// `--trace <path>` (handled by the main itself via trace_path — the gbench
/// flag parser rejects flags it does not know). Returns the full replacement
/// argument vector (argv[0] included).
inline std::vector<std::string> gbench_args(int argc, char** argv)
{
    std::vector<std::string> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            args.emplace_back(std::string{"--benchmark_out="} + argv[i + 1]);
            args.emplace_back("--benchmark_out_format=json");
            ++i;
        } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            ++i;
        } else {
            args.emplace_back(argv[i]);
        }
    }
    return args;
}

/// Insertion-ordered key/value report rendered as one JSON object. Values
/// are rendered eagerly, so a field can also be a pre-rendered JSON
/// fragment (e.g. telemetry::to_json of a full Report).
class Json_report {
public:
    explicit Json_report(std::string bench) { field("bench", std::move(bench)); }

    void field(const std::string& key, const std::string& value)
    {
        telemetry::Json_writer w;
        w.value(value);
        entries_.emplace_back(key, w.take());
    }
    void field(const std::string& key, const char* value) { field(key, std::string{value}); }
    void field(const std::string& key, std::int64_t value)
    {
        entries_.emplace_back(key, std::to_string(value));
    }
    void field(const std::string& key, int value)
    {
        field(key, static_cast<std::int64_t>(value));
    }
    void field(const std::string& key, double value)
    {
        telemetry::Json_writer w;
        w.value(value);
        entries_.emplace_back(key, w.take());
    }
    void field(const std::string& key, bool value)
    {
        entries_.emplace_back(key, value ? "true" : "false");
    }

    /// Attach a pre-rendered JSON value verbatim (object, array, ...).
    void raw(const std::string& key, std::string json) { entries_.emplace_back(key, std::move(json)); }

    [[nodiscard]] std::string str() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (i > 0) out.push_back(',');
            out.push_back('"');
            out += telemetry::json_escape(entries_[i].first);
            out += "\":";
            out += entries_[i].second;
        }
        out.push_back('}');
        return out;
    }

    /// Write to `path` when non-empty; returns false (with a stderr note)
    /// when the file cannot be opened, so the bench can exit non-zero.
    bool write(const std::string& path) const
    {
        if (path.empty()) return true;
        std::ofstream out{path};
        if (!out) {
            std::cerr << "cannot open --json path: " << path << "\n";
            return false;
        }
        out << str() << "\n";
        return static_cast<bool>(out);
    }

private:
    std::vector<std::pair<std::string, std::string>> entries_;
};

/// Quartiles of a sample, interpolated linearly between order statistics.
struct Spread {
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;

    [[nodiscard]] double iqr() const { return q3 - q1; }
};

inline Spread spread(std::vector<double> sample)
{
    if (sample.empty()) return {};
    std::sort(sample.begin(), sample.end());
    const auto at = [&sample](double q) {
        const double pos = q * static_cast<double>(sample.size() - 1);
        const auto lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, sample.size() - 1);
        return sample[lo] + (pos - static_cast<double>(lo)) * (sample[hi] - sample[lo]);
    };
    return {at(0.25), at(0.5), at(0.75)};
}

/// Work per second of `step` (called until at least `min_seconds` of wall
/// time has passed; it returns the work units it did).
template <typename Step>
double timed_rate(Step&& step, double min_seconds)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    std::int64_t work = 0;
    double seconds = 0.0;
    do {
        work += step();
        seconds = std::chrono::duration<double>(Clock::now() - start).count();
    } while (seconds < min_seconds);
    return static_cast<double>(work) / seconds;
}

/// One timed pair: both variants' rates and candidate / baseline.
struct Trial {
    bool candidate_first = false;
    double baseline_rate = 0.0;
    double candidate_rate = 0.0;
    double ratio = 0.0;
};

struct Paired_trials {
    int warmup = 0;           ///< untimed pairs run first
    double min_seconds = 0.0; ///< shortest timed trial
    std::vector<Trial> trials;
    Spread ratio; ///< of the per-trial ratios
};

/// Compare a candidate's throughput against a baseline's: `warmup` untimed
/// pairs of trials, then `trials` timed pairs, each trial at least
/// `min_seconds` long (see timed_rate), alternating which variant runs
/// first so drift in the machine's speed falls on both alike.
template <typename Baseline, typename Candidate>
Paired_trials paired_trials(Baseline&& baseline, Candidate&& candidate, int warmup, int trials,
                            double min_seconds)
{
    for (int i = 0; i < warmup; ++i) {
        (void)timed_rate(baseline, min_seconds);
        (void)timed_rate(candidate, min_seconds);
    }
    Paired_trials out{warmup, min_seconds, {}, {}};
    std::vector<double> ratios;
    for (int i = 0; i < trials; ++i) {
        Trial trial;
        trial.candidate_first = i % 2 == 1;
        if (trial.candidate_first) trial.candidate_rate = timed_rate(candidate, min_seconds);
        trial.baseline_rate = timed_rate(baseline, min_seconds);
        if (!trial.candidate_first) trial.candidate_rate = timed_rate(candidate, min_seconds);
        trial.ratio = trial.candidate_rate / trial.baseline_rate;
        ratios.push_back(trial.ratio);
        out.trials.push_back(trial);
    }
    out.ratio = spread(std::move(ratios));
    return out;
}

/// `paired` as a JSON object: the settings, every trial (rates in `unit`,
/// keyed by the variants' names), and the ratios' median, quartiles and IQR.
inline std::string to_json(const Paired_trials& paired, const std::string& baseline,
                           const std::string& candidate, const std::string& unit)
{
    telemetry::Json_writer w;
    w.begin_object();
    w.field("warmup_pairs", static_cast<std::int64_t>(paired.warmup));
    w.field("min_trial_seconds", paired.min_seconds);
    w.field("rate_unit", unit);
    w.key("trials");
    w.begin_array();
    for (const Trial& trial : paired.trials) {
        w.begin_object();
        w.field("first", trial.candidate_first ? candidate : baseline);
        w.field(baseline + "_rate", trial.baseline_rate);
        w.field(candidate + "_rate", trial.candidate_rate);
        w.field("ratio", trial.ratio);
        w.end_object();
    }
    w.end_array();
    w.field("ratio_median", paired.ratio.median);
    w.field("ratio_q1", paired.ratio.q1);
    w.field("ratio_q3", paired.ratio.q3);
    w.field("ratio_iqr", paired.ratio.iqr());
    w.end_object();
    return w.take();
}

} // namespace ga::bench

#endif // GA_BENCH_BENCH_JSON_H
