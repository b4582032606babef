#include "workloads.h"

#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <tuple>

#include "shard/fabric.h"

namespace perfbench {

namespace {

using namespace ga;

// ---- Sizes fixed by the workload definitions (README.md).
constexpr int k_dense_agents = 16;
constexpr int k_dense_f = 2;
constexpr int k_serve_agents = 64;
constexpr int k_serve_shards = 16;
constexpr int k_serve_batch_k = 4;
constexpr int k_overload_agents = 48;
constexpr int k_overload_shards = 4;

/// Two-action dominant-strategy game sized to its shard's population:
/// action 1 costs 1, action 0 costs 2, so action 0 is always a deviation.
class Dominant_game final : public game::Strategic_game {
public:
    explicit Dominant_game(int n) : n_{n} {}
    int n_agents() const override { return n_; }
    int n_actions(common::Agent_id) const override { return 2; }
    double cost(common::Agent_id i, const game::Pure_profile& p) const override
    {
        return p[static_cast<std::size_t>(i)] == 1 ? 1.0 : 2.0;
    }

private:
    int n_;
};

shard::Fabric_config fabric_config(const Inputs& in, bool telemetry)
{
    shard::Fabric_config config;
    config.spec_factory = [](int, const std::vector<common::Agent_id>& members) {
        authority::Game_spec spec;
        spec.name = "dominant";
        spec.game = std::make_shared<Dominant_game>(static_cast<int>(members.size()));
        spec.equilibrium.assign(members.size(), {0.0, 1.0});
        return spec;
    };
    // Fined every play, never expelled.
    config.punishment = [] { return std::make_unique<authority::Fine_scheme>(1.0, 1e9); };
    config.seed = in.fabric_seed;
    config.threads = 1;
    config.telemetry = telemetry;
    if (in.kind == Kind::dense) {
        config.f = k_dense_f;
        config.byzantine = {in.byzantine.begin(), in.byzantine.end()};
        return config;
    }
    config.f = 1;
    config.behavior_factory = [](common::Agent_id) {
        return std::make_unique<authority::Honest_behavior>();
    };
    config.watchdog = telemetry::Watchdog_config{};
    ingest::Ingest_config front;
    front.priorities = 2;
    if (in.kind == Kind::serve) {
        config.batch_k = k_serve_batch_k;
        config.net.delta = 2;
        config.net.jitter = 0.25;
                config.net.seed = in.net_seed;
        config.transport.kind = wire::Transport_kind::ring;
        front.capacity = 2 * k_serve_batch_k; // admission at twice the service rate
        front.queue_capacity = 8 * k_serve_batch_k;
    } else {
        config.rebalance = shard::rebalance_ingest_pressure(1.5, 4);
        front.capacity = 2;
        // Deep enough that the median request waits in the queue rather
        // than in a client's backoff: at 8 the median sat on the edge
        // between those two modes and jumped between seeds.
        front.queue_capacity = 16;
    }
    config.ingest = front;
    return config;
}

std::unique_ptr<shard::Fabric> build_fabric(const Inputs& in, bool telemetry)
{
    shard::Fabric_config config = fabric_config(in, telemetry);
    switch (in.kind) {
    case Kind::dense: {
        std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors;
        for (int g = 0; g < k_dense_agents; ++g) {
            if (in.byzantine.count(g) != 0) {
                behaviors.push_back(nullptr);
            } else if (in.cheaters.count(g) != 0) {
                behaviors.push_back(std::make_unique<authority::Fixed_action_behavior>(0));
            } else {
                behaviors.push_back(std::make_unique<authority::Honest_behavior>());
            }
        }
        return std::make_unique<shard::Fabric>(shard::Shard_map{k_dense_agents, 1},
                                               std::move(behaviors), std::move(config));
    }
    case Kind::serve:
        return std::make_unique<shard::Fabric>(shard::Shard_map{k_serve_agents, k_serve_shards},
                                               std::move(config));
    case Kind::overload:
        return std::make_unique<shard::Fabric>(
            shard::Shard_map{k_overload_agents, k_overload_shards}, std::move(config));
    }
    return nullptr;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::int64_t counter(const telemetry::Snapshot& snap, const char* name)
{
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

std::int64_t histogram_p50(const telemetry::Snapshot& snap, const char* name)
{
    const auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? 0 : it->second.p50();
}

/// One round: set-up, timed work, then counts and checks.
class Round_runner {
public:
    Round_runner(const Inputs& in, Span_recorder* spans, bool force_telemetry)
        : in_{in}, spans_{spans}, telemetry_{force_telemetry}
    {
    }

    void setup()
    {
        const std::int64_t start = now_ns();
        {
            Scoped_span root{spans_, "setup", -1};
            {
                Scoped_span ctor{spans_, "fabric_ctor", -1};
                fabric_ = build_fabric(in_, telemetry_);
            }
            Scoped_span warm{spans_, "warmup", -1};
            fabric_->run_pulses(1);
            if (in_.kind == Kind::dense) {
                fabric_->run_plays(1);
            } else {
                load_.emplace(in_.load);
                queued_.resize(static_cast<std::size_t>(fabric_->n_shards()));
                map_.emplace(fabric_->map());
                window(0, nullptr); // the warm-up window records no spans of its own
            }
        }
        round_.setup_s = static_cast<double>(now_ns() - start) / 1e9;
    }

    Round run()
    {
        setup();
        const std::int64_t start = now_ns();
        if (in_.kind == Kind::dense) {
            for (int i = 1; i <= in_.size.plays; ++i) play(i);
        } else {
            for (int t = 1; t <= in_.size.windows; ++t) window(t, spans_);
        }
        round_.timed_s = static_cast<double>(now_ns() - start) / 1e9;
        finish();
        return std::move(round_);
    }

    [[nodiscard]] double setup_seconds() const { return round_.setup_s; }

private:
    /// One admitted submission the fabric holds in an inlet queue.
    struct Queued {
        std::int64_t seq = 0;       ///< submission order (the fabric's FIFO order)
        std::int64_t first_due = 0; ///< window the request was first offered in
        common::Agent_id agent = -1;
    };
    using Retry_key = std::tuple<std::int64_t, common::Agent_id, int, int>;

    void fail(std::string what) { round_.failures.push_back(std::move(what)); }

    void play(int i)
    {
        Scoped_span w{spans_, "window", i};
        const common::Pulse pulse0 = fabric_->shard(0).now();
        const std::int64_t start = now_ns();
        {
            Scoped_span call{spans_, "run_plays", i};
            fabric_->run_plays(1);
        }
        round_.latency_ms.push_back(static_cast<double>(now_ns() - start) / 1e6);
        round_.latency_pulses.push_back(fabric_->shard(0).now() - pulse0);
        ++goodput_;
    }

    void window(std::int64_t t, Span_recorder* spans)
    {
        Scoped_span w{spans, "window", t};
        window_start_ns_.push_back(now_ns());
        window_start_pulse_.push_back(clock_);

        std::vector<ingest::Submission> subs;
        {
            Scoped_span tick{spans, "tick", t};
            subs = load_->tick(t);
        }
        for (const ingest::Submission& sub : subs) offer(sub, t, spans);

        const int n = fabric_->n_shards();
        std::vector<int> depth(static_cast<std::size_t>(n));
        std::vector<common::Pulse> pulse(static_cast<std::size_t>(n));
        for (int s = 0; s < n; ++s) {
            depth[static_cast<std::size_t>(s)] = fabric_->inlet(s).depth();
            pulse[static_cast<std::size_t>(s)] = fabric_->shard(s).now();
        }
        int served = 0;
        {
            Scoped_span pump{spans, "pump_ingest", t};
            served = fabric_->pump_ingest();
        }
        const std::int64_t end = now_ns();

        // The window lasts as long as its busiest shard: shards step
        // concurrently, so the fabric clock advances by the largest advance.
        common::Pulse advance = 0;
        for (int s = 0; s < n; ++s) {
            advance = std::max(advance, fabric_->shard(s).now() - pulse[static_cast<std::size_t>(s)]);
        }
        clock_ += advance;

        int popped = 0;
        for (int s = 0; s < n; ++s) {
            std::deque<Queued>& queue = queued_[static_cast<std::size_t>(s)];
            for (int k = depth[static_cast<std::size_t>(s)] - fabric_->inlet(s).depth(); k > 0; --k) {
                if (queue.empty()) {
                    fail("shard " + std::to_string(s) + " served a submission it never admitted");
                    break;
                }
                const std::int64_t due = queue.front().first_due;
                queue.pop_front();
                ++popped;
                if (due < 1) continue; // offered during warm-up
                round_.latency_ms.push_back(
                    static_cast<double>(end - window_start_ns_[static_cast<std::size_t>(due)]) / 1e6);
                round_.latency_pulses.push_back(clock_ -
                                                window_start_pulse_[static_cast<std::size_t>(due)]);
            }
        }
        if (popped != served) fail("pump_ingest served count disagrees with the inlet depths");
        if (t >= 1) goodput_ += served;

        // The policy is consulted after every timed window, so the epoch
        // transition lands in the timed phase.
        if (in_.kind == Kind::overload && t >= 1) rebalance(t, spans);
    }

    void offer(const ingest::Submission& sub, std::int64_t t, Span_recorder* spans)
    {
        std::int64_t first_due = t;
        if (sub.attempt > 0) {
            std::deque<std::int64_t>& pending =
                retries_[Retry_key{sub.client, sub.agent, sub.priority, sub.attempt}];
            if (pending.empty()) {
                fail("a retry was offered that no earlier answer asked for");
            } else {
                first_due = pending.front();
                pending.pop_front();
            }
        }
        const int s = fabric_->map().shard_of(sub.agent);
        ingest::Submit_result result;
        {
            Scoped_span call{spans, "submit", t};
            result = fabric_->submit(sub);
        }
        load_->on_result(sub, result, t);
        switch (result.status) {
        case ingest::Submit_status::accepted:
        case ingest::Submit_status::queued:
            queued_[static_cast<std::size_t>(s)].push_back(Queued{seq_, first_due, sub.agent});
            break;
        case ingest::Submit_status::retry_after:
        case ingest::Submit_status::shed:
            if (sub.attempt + 1 < in_.load.retry.max_attempts) {
                retries_[Retry_key{sub.client, sub.agent, sub.priority, sub.attempt + 1}]
                    .push_back(first_due);
            }
            break;
        }
        ++seq_;
    }

    /// Consult the elastic policy; on an epoch transition, follow the
    /// fabric's re-routing of queued submissions (carried shards keep their
    /// queue, retired shards' entries move to their agents' new shards in
    /// submission order) and check that every admitted submission is still
    /// queued somewhere.
    void rebalance(std::int64_t t, Span_recorder* spans)
    {
        bool changed = false;
        {
            Scoped_span call{spans, "maybe_rebalance", t};
            changed = fabric_->maybe_rebalance();
        }
        if (!changed) return;
        const shard::Rebalance_report& report = *fabric_->last_rebalance();
        clock_ += report.max_quiesce_pulses + 1; // quiesce, then the rebuilt groups' boot pulse
        quiesce_max_ = std::max<std::int64_t>(quiesce_max_, report.max_quiesce_pulses);

        const std::vector<int> carried = shard::carried_shards(*map_, fabric_->map());
        std::vector<bool> kept(queued_.size(), false);
        std::vector<std::deque<Queued>> next(static_cast<std::size_t>(fabric_->n_shards()));
        for (std::size_t s = 0; s < next.size(); ++s) {
            if (carried[s] < 0) continue;
            next[s] = std::move(queued_[static_cast<std::size_t>(carried[s])]);
            kept[static_cast<std::size_t>(carried[s])] = true;
        }
        std::vector<Queued> moved;
        for (std::size_t s = 0; s < queued_.size(); ++s) {
            if (!kept[s]) moved.insert(moved.end(), queued_[s].begin(), queued_[s].end());
        }
        std::sort(moved.begin(), moved.end(),
                  [](const Queued& a, const Queued& b) { return a.seq < b.seq; });
        for (const Queued& q : moved) {
            next[static_cast<std::size_t>(fabric_->map().shard_of(q.agent))].push_back(q);
        }
        queued_ = std::move(next);
        map_.emplace(fabric_->map());
        for (int s = 0; s < fabric_->n_shards(); ++s) {
            if (static_cast<int>(queued_[static_cast<std::size_t>(s)].size()) !=
                fabric_->inlet(s).depth()) {
                fail("admitted submissions lost across the epoch transition at window " +
                     std::to_string(t));
            }
        }
    }

    void finish()
    {
        const metrics::Fabric_metrics report = fabric_->report();
        Counts& c = round_.counts;
        c.goodput = goodput_;
        c.plays = report.total_plays;
        c.messages = report.total_traffic.messages;
        c.payload_bytes = report.total_traffic.payload_bytes;
        c.pulses = report.total_traffic.pulses;
        c.delayed = report.total_traffic.delayed;
        c.fouls = report.total_fouls;
        c.epochs = fabric_->epoch();
        c.quiesce_pulses_max = quiesce_max_;
        c.latency_samples = static_cast<std::int64_t>(round_.latency_pulses.size());
        if (!round_.latency_pulses.empty()) {
            c.latency_pulses_p50 = quantile(round_.latency_pulses, 0.50);
            c.latency_pulses_p99 = quantile(round_.latency_pulses, 0.99);
            c.latency_pulses_sum = std::accumulate(round_.latency_pulses.begin(),
                                                   round_.latency_pulses.end(), std::int64_t{0});
        }

        Layer_counts& l = round_.layers;
        const auto plays = static_cast<double>(c.plays);
        l.msgs_per_play = ratio(static_cast<double>(c.messages), plays);
        l.bytes_per_play = ratio(static_cast<double>(c.payload_bytes), plays);
        const int k = fabric_->batch_k();
        for (int s = 0; s < fabric_->n_shards(); ++s) {
            l.pulses_per_play += static_cast<double>(fabric_->shard(s).pulses_for_plays(k)) / k;
        }
        l.pulses_per_play /= fabric_->n_shards();
        const telemetry::Snapshot& tel = report.telemetry;
        l.ic_activations_per_play = ratio(static_cast<double>(counter(tel, "ic.activations")), plays);
        l.ic_activation_pulses_p50 = static_cast<double>(histogram_p50(tel, "ic.activation_pulses"));
        l.batch_window_pulses_p50 = static_cast<double>(histogram_p50(tel, "batch.window_pulses"));
        l.wire_frames_per_play = ratio(static_cast<double>(counter(tel, "wire.frames")), plays);
        l.wire_bytes_per_play = ratio(static_cast<double>(counter(tel, "wire.bytes")), plays);
        l.fouls_per_play = ratio(static_cast<double>(c.fouls), plays);
        l.events_per_play = ratio(
            static_cast<double>(static_cast<std::int64_t>(tel.journal.size()) +
                                tel.journal_dropped_oldest),
            plays);

        if (in_.kind == Kind::dense) {
            c.ops = in_.size.plays;
            check_dense();
        } else {
            finish_ingest();
        }
    }

    /// Honest agents are never flagged; each cheater is flagged in every
    /// play; nobody is expelled under the never-expelling fine.
    void check_dense()
    {
        const authority::Authority_group& group = fabric_->shard(0);
        for (const authority::Play_record& play : group.agreed_plays()) {
            const std::set<common::Agent_id> punished{play.punished.begin(), play.punished.end()};
            for (common::Agent_id g = 0; g < k_dense_agents; ++g) {
                if (in_.byzantine.count(g) != 0) continue;
                const bool cheater = in_.cheaters.count(g) != 0;
                if (cheater && punished.count(g) == 0) {
                    fail("cheater " + std::to_string(g) + " went unflagged in a play");
                } else if (!cheater && punished.count(g) != 0) {
                    fail("honest agent " + std::to_string(g) + " was flagged");
                }
            }
        }
        if (static_cast<std::int64_t>(group.agreed_plays().size()) != in_.size.plays + 1) {
            fail("dense agreed " + std::to_string(group.agreed_plays().size()) +
                 " plays, expected " + std::to_string(in_.size.plays + 1));
        }
        if (!group.disconnected_agents().empty()) fail("an agent was expelled");
    }

    void finish_ingest()
    {
        Counts& c = round_.counts;
        const ingest::Ingest_totals totals = fabric_->ingest_totals();
        const ingest::Load_stats& stats = load_->stats();
        c.ops = stats.fresh;
        c.offered = totals.offered;
        c.admitted = totals.accepted + totals.queued;
        c.retry_after = totals.retry_after;
        c.sheds = totals.shed;
        c.served = totals.served;
        c.completed = totals.completed;
        c.retried = stats.retried;
        c.abandoned = stats.abandoned;

        Layer_counts& l = round_.layers;
        l.admit_ratio = ratio(static_cast<double>(c.admitted), static_cast<double>(c.offered));
        l.retries_per_fresh = ratio(static_cast<double>(c.retried), static_cast<double>(stats.fresh));
        l.failed_frac = ratio(static_cast<double>(c.abandoned), static_cast<double>(stats.fresh));

        if (totals.completed != totals.served) fail("completed != served");
        if (totals.shed_deadline != 0) fail("a queued submission was shed at service time");
        if (stats.submitted != totals.offered) fail("client offers != fabric offers");
        if (stats.accepted != c.admitted) fail("client admissions != fabric admissions");
        std::int64_t still_queued = 0;
        for (int s = 0; s < fabric_->n_shards(); ++s) {
            still_queued += fabric_->inlet(s).depth();
            if (static_cast<int>(queued_[static_cast<std::size_t>(s)].size()) !=
                fabric_->inlet(s).depth()) {
                fail("shard " + std::to_string(s) + " queue depth drifted from its admissions");
            }
        }
        if (c.admitted != c.served + still_queued) fail("an admitted submission was lost");
        std::int64_t pending = 0;
        for (const auto& [key, due] : retries_) pending += static_cast<std::int64_t>(due.size());
        if (stats.fresh != c.admitted + c.abandoned + pending) {
            fail("fresh submissions are not conserved (admitted + abandoned + pending retries)");
        }
        // Every agent is honest here: nobody may be flagged or expelled.
        if (c.fouls != 0) fail("an honest agent was flagged");
        for (int g = 0; g < fabric_->n_agents(); ++g) {
            if (fabric_->agent_disconnected(g)) fail("agent " + std::to_string(g) + " was expelled");
        }
    }

    const Inputs& in_;
    Span_recorder* spans_;
    bool telemetry_;
    std::unique_ptr<shard::Fabric> fabric_;
    Round round_;
    std::int64_t goodput_ = 0;

    // Front-door bookkeeping (serve / overload).
    std::optional<ingest::Open_loop_load> load_;
    std::optional<shard::Shard_map> map_; ///< topology the queues below are keyed by
    std::vector<std::deque<Queued>> queued_; ///< per shard, in the inlet's FIFO order
    std::map<Retry_key, std::deque<std::int64_t>> retries_; ///< first-due window per re-armed retry
    std::vector<std::int64_t> window_start_ns_;
    std::vector<common::Pulse> window_start_pulse_;
    common::Pulse clock_ = 0; ///< fabric pulse clock: sum of per-window busiest-shard advances
    std::int64_t seq_ = 0;
    std::int64_t quiesce_max_ = 0;
};

/// The clients' target sequence: many independently shuffled copies of
/// `targets` back to back, so no single draw of the seed shapes the whole
/// run (the generator walks the sequence round-robin).
std::vector<common::Agent_id> shuffled_cycles(const std::vector<common::Agent_id>& targets,
                                              common::Rng& rng)
{
    constexpr int k_cycles = 32;
    std::vector<common::Agent_id> out;
    for (int c = 0; c < k_cycles; ++c) {
        std::vector<common::Agent_id> cycle = targets;
        rng.shuffle(cycle);
        out.insert(out.end(), cycle.begin(), cycle.end());
    }
    return out;
}

} // namespace

std::vector<std::pair<std::string, std::int64_t>> Counts::fields() const
{
    return {{"ops", ops},
            {"goodput", goodput},
            {"plays", plays},
            {"messages", messages},
            {"payload_bytes", payload_bytes},
            {"pulses", pulses},
            {"delayed", delayed},
            {"fouls", fouls},
            {"offered", offered},
            {"admitted", admitted},
            {"retry_after", retry_after},
            {"sheds", sheds},
            {"served", served},
            {"completed", completed},
            {"retried", retried},
            {"abandoned", abandoned},
            {"epochs", epochs},
            {"quiesce_pulses_max", quiesce_pulses_max},
            {"latency_samples", latency_samples},
            {"latency_pulses_p50", latency_pulses_p50},
            {"latency_pulses_p99", latency_pulses_p99},
            {"latency_pulses_sum", latency_pulses_sum}};
}

Inputs make_inputs(Kind kind, std::uint64_t seed, Size size)
{
    static const char* const k_tags[] = {"dense", "serve", "overload"};
    common::Rng rng{common::derive_seed(seed, k_tags[static_cast<int>(kind)])};
    Inputs in;
    in.kind = kind;
    in.size = size;
    in.fabric_seed = rng.next_u64();
    in.net_seed = rng.next_u64();
    in.load.priorities = 2;
    in.load.seed = rng.next_u64();
    switch (kind) {
    case Kind::dense: {
        std::vector<int> ids(k_dense_agents);
        std::iota(ids.begin(), ids.end(), 0);
        rng.shuffle(ids);
        in.byzantine = {ids[0]};
        in.cheaters = {ids[1], ids[2]};
        break;
    }
    case Kind::serve: {
        // 0.75x the service rate (16 shards x batch_k plays per window),
        // spread over every agent.
        std::vector<common::Agent_id> agents(k_serve_agents);
        std::iota(agents.begin(), agents.end(), 0);
        in.load.targets = shuffled_cycles(agents, rng);
        in.load.clients = k_serve_agents;
        in.load.rate_num = 3 * k_serve_shards * k_serve_batch_k / 4;
        break;
    }
    case Kind::overload: {
        // 2x the initial service rate (4 shards x 1 play per window), with
        // the hot shard's members listed 20 times over: 87% of the offers
        // go to the hot shard, so the other shards stay under their service
        // rate and their backlog near zero. The policy then splits the hot
        // shard once and never proposes again (its halves are too small to
        // split), on every seed. With the hot members listed 4 times over,
        // the cooler queues filled too, and at 2 of 10 seeds further splits
        // ran the round at twice the rate.
        const int per_shard = k_overload_agents / k_overload_shards;
        const auto hot_shard = static_cast<int>(rng.below(k_overload_shards));
        std::vector<common::Agent_id> skewed;
        for (int g = 0; g < k_overload_agents; ++g) {
            const int copies = g / per_shard == hot_shard ? 20 : 1;
            for (int i = 0; i < copies; ++i) skewed.push_back(g);
        }
        in.load.targets = shuffled_cycles(skewed, rng);
        in.load.clients = 256;
        in.load.rate_num = 2 * k_overload_shards;
        break;
    }
    }
    return in;
}

Round run_round(const Inputs& in, Span_recorder* spans, bool force_telemetry)
{
    return Round_runner{in, spans, force_telemetry}.run();
}

double setup_only(const Inputs& in)
{
    Round_runner runner{in, nullptr, false};
    runner.setup();
    return runner.setup_seconds();
}

} // namespace perfbench
