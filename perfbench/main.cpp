// perfbench: the repository benchmark's binary (run it through
// perfbench/run.py, which builds it first).
//
//   perfbench --workload dense|serve|overload --seed N --seconds S --trace 0|1
//             [--scale full|toy] [--expect NAME=VALUE ...] [--spans-out PATH]
//
// A run repeats fixed-work rounds of one workload (workloads.h) until
// --seconds of wall time have passed, checks every round's outputs and that
// every round's exact counts are identical, and prints as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 rounds alternate
// untraced / traced and the metrics are the per-layer ones, read from the
// spans recorded around the fabric's public calls plus the fabric's own
// counters. Any failed check prints the failure to stderr and exits 1
// without a result line.
//
// --expect NAME=VALUE fails the run unless exact count NAME (as printed on
// the "counts:" line) equals VALUE; the self-test uses it to prove that a
// wrong expectation fails.
#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "workloads.h"

namespace {

using namespace perfbench;

/// Rounds keep running past --seconds (up to 3x) until a p99 has at least
/// ten samples beyond it.
constexpr std::size_t k_p99_samples = 1000;

/// Set-ups measured on their own before each round, on top of the round's.
constexpr int k_setups_per_round = 2;

struct Args {
    Kind kind = Kind::dense;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool toy = false;
    std::vector<std::pair<std::string, std::int64_t>> expect;
    std::string spans_out;
};

[[noreturn]] void usage(const std::string& why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload dense|serve|overload --seed N --seconds S "
                 "--trace 0|1 [--scale full|toy] [--expect NAME=VALUE] [--spans-out PATH]\n";
    std::exit(2);
}

Args parse(int argc, char** argv)
{
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            have_workload = true;
            args.workload = value;
            if (value == "dense") {
                args.kind = Kind::dense;
            } else if (value == "serve") {
                args.kind = Kind::serve;
            } else if (value == "overload") {
                args.kind = Kind::overload;
            } else {
                usage("unknown workload " + value);
            }
        } else if (flag == "--seed") {
            args.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            args.seconds = std::stod(value);
        } else if (flag == "--trace") {
            args.trace = value == "1";
        } else if (flag == "--scale") {
            if (value != "full" && value != "toy") usage("unknown scale " + value);
            args.toy = value == "toy";
        } else if (flag == "--expect") {
            const std::size_t eq = value.find('=');
            if (eq == std::string::npos) usage("--expect wants NAME=VALUE");
            args.expect.emplace_back(value.substr(0, eq), std::stoll(value.substr(eq + 1)));
        } else if (flag == "--spans-out") {
            args.spans_out = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_workload) usage("--workload is required");
    return args;
}

/// Work per round. Full rounds take roughly a second each on one core.
Size round_size(Kind kind, bool toy)
{
    switch (kind) {
    case Kind::dense: return {toy ? 3 : 60, 0};
    case Kind::serve: return {0, toy ? 6 : 100};
    case Kind::overload: return {0, toy ? 40 : 200};
    }
    return {};
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v)
{
    double sum = 0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

std::string digest(const Counts& counts)
{
    std::uint64_t h = 1469598103934665603ULL; // FNV-1a
    for (const auto& [name, value] : counts.fields()) {
        for (const char ch : name + "=" + std::to_string(value) + ";") {
            h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ULL;
        }
    }
    std::ostringstream out;
    out << std::hex << std::setw(16) << std::setfill('0') << h;
    return out.str();
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

} // namespace

int main(int argc, char** argv)
{
    const Args args = parse(argc, argv);
    const Inputs in = make_inputs(args.kind, args.seed, round_size(args.kind, args.toy));

    std::vector<std::string> failures;
    std::vector<double> setups;

    // ---- Rounds: untraced only, or alternating untraced / traced.
    Span_recorder recorder;
    std::vector<Round> plain;
    std::vector<Round> traced;
    std::optional<Counts> reference;
    std::vector<double> latency_ms;
    const std::int64_t start = now_ns();
    const auto elapsed = [&] { return static_cast<double>(now_ns() - start) / 1e9; };
    for (int r = 0;; ++r) {
        const bool with_spans = args.trace && r % 2 == 1;
        // Extra set-up samples, spread over the run like the rounds.
        for (int i = 0; i < k_setups_per_round; ++i) setups.push_back(setup_only(in));
        Round round = run_round(in, with_spans ? &recorder : nullptr,
                                /*force_telemetry=*/with_spans && args.kind == Kind::dense);
        for (const std::string& f : round.failures) failures.push_back("round " + std::to_string(r) + ": " + f);
        if (!reference.has_value()) {
            reference = round.counts;
        } else if (!(round.counts == *reference)) {
            failures.push_back("round " + std::to_string(r) + ": exact counts differ from round 0 (" +
                               digest(round.counts) + " vs " + digest(*reference) + ")");
        }
        if (!with_spans) latency_ms.insert(latency_ms.end(), round.latency_ms.begin(), round.latency_ms.end());
        setups.push_back(round.setup_s);
        (with_spans ? traced : plain).push_back(std::move(round));
        if (!failures.empty()) break;
        const bool enough_rounds = plain.size() + traced.size() >= 2;
        const bool enough_samples = args.toy || args.trace || latency_ms.size() >= k_p99_samples;
        if (enough_rounds && elapsed() >= args.seconds &&
            (enough_samples || elapsed() >= 3 * args.seconds)) {
            break;
        }
    }

    const Counts& counts = *reference;
    for (const auto& [name, want] : args.expect) {
        bool known = false;
        for (const auto& [field, value] : counts.fields()) {
            if (field != name) continue;
            known = true;
            if (value != want) {
                failures.push_back("expected " + name + "=" + std::to_string(want) + ", got " +
                                   std::to_string(value));
            }
        }
        if (!known) failures.push_back("--expect names no count: " + name);
    }
    if (!failures.empty()) {
        for (const std::string& f : failures) std::cerr << "FAIL " << f << "\n";
        return 1;
    }

    // ---- Human-readable summary.
    std::cout << "workload " << args.workload << ", seed " << args.seed << ", executor width 1, "
              << plain.size() << " untraced + " << traced.size() << " traced rounds of "
              << (args.kind == Kind::dense ? std::to_string(in.size.plays) + " plays"
                                            : std::to_string(in.size.windows) + " windows")
              << "\ncounts:";
    for (const auto& [name, value] : counts.fields()) std::cout << ' ' << name << '=' << value;
    std::cout << "\ncounts digest " << digest(counts) << " (identical on every round)\n";

    std::vector<Metric> metrics;
    std::int64_t attempted = 0;
    for (const Round& r : plain) attempted += r.counts.ops;
    for (const Round& r : traced) attempted += r.counts.ops;

    // Throughput is taken per round, then at the slow quartile over rounds,
    // and latency percentiles over the slow half of the rounds (by rate):
    // the host runs in a steady slow state broken by bursts up to 50% faster
    // that last a few seconds, and these track the steady state where a
    // median over all rounds follows the bursts.
    const auto round_rate = [](const Round& r) {
        return static_cast<double>(r.counts.goodput) / r.timed_s;
    };
    const auto rate = [&](const std::vector<Round>& rounds) {
        std::vector<double> rates;
        for (const Round& r : rounds) rates.push_back(round_rate(r));
        return quantile(rates, 0.25);
    };
    const auto round_p50 = [](const Round& r) { return quantile(r.latency_ms, 0.50); };
    // The slow half is widened to faster rounds until it holds
    // k_p99_samples samples.
    std::vector<double> slow_latency_ms;
    {
        std::vector<const Round*> by_rate;
        for (const Round& r : plain) by_rate.push_back(&r);
        std::sort(by_rate.begin(), by_rate.end(),
                  [&](const Round* a, const Round* b) { return round_rate(*a) < round_rate(*b); });
        for (const Round* r : by_rate) {
            if (slow_latency_ms.size() >= std::max(k_p99_samples, latency_ms.size() / 2)) break;
            slow_latency_ms.insert(slow_latency_ms.end(), r->latency_ms.begin(), r->latency_ms.end());
        }
    }

    std::cout << "round rates (1/s, in run order):";
    for (const Round& r : plain) std::cout << ' ' << round_rate(r);
    std::cout << "\nround latency p50s (ms, in run order):";
    for (const Round& r : plain) std::cout << ' ' << round_p50(r);
    std::cout << "\nlatency pulses p10/p25/p40/p50/p60/p75/p90/p99:";
    for (const double q : {0.10, 0.25, 0.40, 0.50, 0.60, 0.75, 0.90, 0.99}) {
        std::cout << ' ' << quantile(plain.front().latency_pulses, q);
    }
    std::cout << "\n";
    if (!args.trace) {
        std::cout << "latency samples " << latency_ms.size() << ", " << slow_latency_ms.size()
                  << " of them in the slow half of the rounds (p99 needs " << k_p99_samples << ")\n";
        const double ops = static_cast<double>(counts.ops);
        metrics = {
            {"setup_s", median(setups), "s"},
            {"plays_per_s", rate(plain), "1/s"},
            {"latency_ms_p50", quantile(slow_latency_ms, 0.50), "ms"},
            {"latency_ms_p99", quantile(slow_latency_ms, 0.99), "ms"},
            {"latency_pulses_p50", static_cast<double>(counts.latency_pulses_p50), "pulses"},
            {"latency_pulses_p99", static_cast<double>(counts.latency_pulses_p99), "pulses"},
            {"verdict_frac", 1.0 - static_cast<double>(counts.abandoned) / ops, "frac"},
            {"peak_rss_mb", peak_rss_mb(), "MB"},
        };
    } else {
        const Layer_counts& l = traced.front().layers;
        const Layer_counts& untraced = plain.front().layers;
        const char* serve_call = args.kind == Kind::dense ? "run_plays" : "pump_ingest";
        const std::vector<double> windows = recorder.durations_ms(serve_call);
        const std::vector<double> ticks = recorder.durations_ms("tick");
        const std::vector<double> submits = recorder.durations_ms("submit");
        const std::vector<double> rebalances = recorder.durations_ms("maybe_rebalance");
        double rebalance_ms = 0;
        for (const double d : rebalances) rebalance_ms += d;
        double timed_ns = 0;
        for (const Round& r : traced) timed_ns += r.timed_s * 1e9;
        const std::map<std::string, std::int64_t> self = recorder.self_ns();
        const auto self_frac = [&](const char* name) {
            const auto it = self.find(name);
            return it == self.end() ? 0.0 : static_cast<double>(it->second) / timed_ns;
        };
        std::cout << "traced spans " << recorder.spans().size() << ", window samples "
                  << windows.size() << "\n";
        metrics = {
            {"ingest.tick_us", mean(ticks) * 1e3, "us"},
            {"ingest.submit_us", mean(submits) * 1e3, "us"},
            {"ingest.admit_ratio", l.admit_ratio, "frac"},
            {"ingest.retries_per_fresh", l.retries_per_fresh, "count"},
            {"failed_frac", l.failed_frac, "frac"},
            {"shard.window_ms_p50", quantile(windows, 0.50), "ms"},
            {"shard.window_ms_p99", quantile(windows, 0.99), "ms"},
            {"shard.setup_ms", median(recorder.durations_ms("fabric_ctor")), "ms"},
            {"shard.warmup_ms", median(recorder.durations_ms("warmup")), "ms"},
            {"shard.rebalance_ms", rebalance_ms / static_cast<double>(traced.size()), "ms"},
            {"shard.epochs", static_cast<double>(counts.epochs), "count"},
            {"shard.quiesce_pulses_max", static_cast<double>(counts.quiesce_pulses_max), "pulses"},
            {"sim.msgs_per_play", l.msgs_per_play, "count"},
            {"sim.bytes_per_play", l.bytes_per_play, "bytes"},
            {"sim.pulses_per_play", l.pulses_per_play, "pulses"},
            {"bft.ic_activations_per_play", l.ic_activations_per_play, "count"},
            {"bft.ic_activation_pulses_p50", l.ic_activation_pulses_p50, "pulses"},
            {"pipeline.batch_window_pulses_p50", l.batch_window_pulses_p50, "pulses"},
            {"wire.frames_per_play", l.wire_frames_per_play, "count"},
            {"wire.bytes_per_play", l.wire_bytes_per_play, "bytes"},
            {"authority.fouls_per_play", l.fouls_per_play, "count"},
            // Journal appends of the untraced configuration (dense runs
            // without a sink there, so it reads 0).
            {"telemetry.events_per_play", untraced.events_per_play, "count"},
            {"trace.overhead_frac", 1.0 - rate(traced) / rate(plain), "frac"},
            {"span.window.self_frac", self_frac("window"), "frac"},
            {"span.tick.self_frac", self_frac("tick"), "frac"},
            {"span.submit.self_frac", self_frac("submit"), "frac"},
            {"span.pump_ingest.self_frac", self_frac("pump_ingest"), "frac"},
            {"span.run_plays.self_frac", self_frac("run_plays"), "frac"},
            {"span.maybe_rebalance.self_frac", self_frac("maybe_rebalance"), "frac"},
        };
        if (!args.spans_out.empty()) {
            std::ofstream out{args.spans_out};
            recorder.write_csv(out);
            if (!out) {
                std::cerr << "FAIL cannot write spans to " << args.spans_out << "\n";
                return 1;
            }
            std::cout << "spans written to " << args.spans_out << "\n";
        }
    }

    std::ostringstream json;
    json << std::setprecision(std::numeric_limits<double>::max_digits10);
    json << "{\"correct\": true, \"attempted\": " << attempted << ", \"failed\": 0, \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        std::cout << "  " << std::left << std::setw(34) << m.name << m.value << " " << m.unit << "\n";
        json << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": " << m.value
             << ", \"unit\": \"" << m.unit << "\"}";
    }
    json << "}}";
    std::cout << json.str() << std::endl;
    return 0;
}
