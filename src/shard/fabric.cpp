#include "shard/fabric.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>

#include "game/analysis.h"

namespace ga::shard {

namespace {

/// Social-optimum enumeration cutoff: beyond this many pure profiles the
/// optimum is not computed and the shard reports no price-of-anarchy term.
constexpr std::int64_t k_max_enumerable_profiles = std::int64_t{1} << 20;

/// The shard game's optimum social cost when its profile space is small
/// enough to enumerate, nullopt otherwise. Counts profiles with an early
/// exit rather than via Strategic_game::profile_count, which throws (instead
/// of saturating) once the space tops 2^40 — large shards must degrade to
/// "no price-of-anarchy term", not refuse to construct.
std::optional<double> enumerable_optimum_cost(const game::Strategic_game& game)
{
    std::int64_t count = 1;
    for (common::Agent_id i = 0; i < game.n_agents(); ++i) {
        count *= std::max(1, game.n_actions(i));
        if (count > k_max_enumerable_profiles) return std::nullopt;
    }
    return game::social_optimum(game).cost;
}

/// One play record reduced to the view of shard member `local`. Retiring
/// groups' histories fold through this same reduction as the live shard's,
/// so an agent's pre- and post-migration entries are directly comparable.
Agent_play play_view(const authority::Play_record& play, common::Agent_id local)
{
    Agent_play entry;
    entry.completed_at = play.completed_at;
    entry.action = local < static_cast<int>(play.outcome.size())
                       ? play.outcome[static_cast<std::size_t>(local)]
                       : -1;
    entry.punished =
        std::find(play.punished.begin(), play.punished.end(), local) != play.punished.end();
    return entry;
}

} // namespace

void Fabric::validate_config() const
{
    common::ensure(config_.spec_factory != nullptr, "Fabric: null shard spec factory");
    common::ensure(config_.punishment != nullptr, "Fabric: null punishment factory");
    for (const common::Agent_id g : config_.byzantine) {
        common::ensure(g >= 0 && g < plan_.map().n_agents(), "Fabric: Byzantine id out of range");
    }
    common::ensure(config_.batch_k >= 1 && config_.batch_k <= pipeline::k_max_batch,
                   "Fabric: batch_k out of range");
    for (const auto& [g, tamper] : config_.tampers) {
        common::ensure(g >= 0 && g < plan_.map().n_agents(), "Fabric: tamper id out of range");
        (void)tamper;
    }
    // The front door's own validation names the offending Ingest_config
    // field, so a bad Fabric_config::ingest can never construct a fabric.
    if (config_.ingest.has_value()) config_.ingest->validate();
    config_.transport.validate();
}

Fabric::Fabric(Shard_map map, std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors,
               Fabric_config config)
    : Fabric{map, static_config(map.n_agents(), std::move(behaviors), std::move(config))}
{
}

Fabric_config Fabric::static_config(
    int n_agents, std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors,
    Fabric_config config)
{
    const char* const no_rebuild = "Fabric: a static fabric cannot rebuild shards — use the "
                                   "elastic constructor (behavior factory) for rebalancing";
    common::ensure(config.behavior_factory == nullptr && config.rebalance == nullptr, no_rebuild);
    common::ensure(static_cast<int>(behaviors.size()) == n_agents,
                   "Fabric: one behavior slot per global agent");
    // One-shot factory: each global agent's behavior is handed out exactly
    // once, at construction. A rebuild would mint it again, which throws
    // before the epoch transition touches any fabric state.
    auto slots = std::make_shared<std::vector<std::unique_ptr<authority::Agent_behavior>>>(
        std::move(behaviors));
    auto minted = std::make_shared<std::vector<bool>>(slots->size(), false);
    config.behavior_factory = [slots, minted, no_rebuild](common::Agent_id global) {
        const auto g = static_cast<std::size_t>(global);
        common::ensure(!minted->at(g), no_rebuild);
        (*minted)[g] = true;
        return std::move((*slots)[g]);
    };
    return config;
}

Fabric::Fabric(Shard_map initial, Fabric_config config)
    : plan_{std::move(initial)}, config_{std::move(config)}, executor_{config_.threads}
{
    validate_config();
    common::ensure(config_.behavior_factory != nullptr,
                   "Fabric: elastic construction requires a behavior factory");
    if (config_.trace || config_.watchdog.has_value()) config_.telemetry = true;
    if (config_.watchdog.has_value()) watchdog_.emplace(*config_.watchdog);
    std::vector<std::vector<std::unique_ptr<authority::Agent_behavior>>> per_shard;
    per_shard.reserve(static_cast<std::size_t>(plan_.map().n_shards()));
    for (int s = 0; s < plan_.map().n_shards(); ++s) {
        per_shard.push_back(mint_behaviors(plan_.map(), s));
    }
    build_all(std::move(per_shard));
    if (config_.rebalance != nullptr) rebalancer_.emplace(config_.rebalance);
}

std::vector<std::unique_ptr<authority::Agent_behavior>>
Fabric::mint_behaviors(const Shard_map& map, int s) const
{
    const std::vector<common::Agent_id>& members = map.members(s);
    std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors;
    behaviors.reserve(members.size());
    for (const common::Agent_id g : members) {
        behaviors.push_back(config_.behavior_factory(g));
    }
    return behaviors;
}

Fabric::Built_group
Fabric::build_group(const Shard_plan& plan, int s,
                    std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors) const
{
    const Shard_map& map = plan.map();
    const std::vector<common::Agent_id>& members = map.members(s);
    authority::Game_spec spec = config_.spec_factory(s, members);
    common::ensure(spec.game != nullptr, "Fabric: shard spec factory returned a null game");
    common::ensure(spec.game->n_agents() == static_cast<int>(members.size()),
                   "Fabric: shard game size must match the shard population");

    std::set<common::Processor_id> local_byzantine;
    for (const common::Agent_id g : config_.byzantine) {
        if (map.shard_of(g) == s) local_byzantine.insert(map.local_of(g));
    }

    Built_group built;
    built.optimum = enumerable_optimum_cost(*spec.game);

    common::Rng shard_rng{common::derive_seed(config_.seed, static_cast<std::uint64_t>(s),
                                              static_cast<std::uint64_t>(plan.epoch()))};
    sim::Net_model net = config_.net;
    net.seed = common::derive_seed(net.seed, static_cast<std::uint64_t>(s),
                                   static_cast<std::uint64_t>(plan.epoch()));
    std::map<common::Processor_id, pipeline::Tamper> local_tampers;
    for (const auto& [g, tamper] : config_.tampers) {
        if (map.shard_of(g) == s) local_tampers.emplace(map.local_of(g), tamper);
    }
    built.group = std::make_unique<pipeline::Pipeline_authority>(
        std::move(spec), config_.f, config_.batch_k, std::move(behaviors), local_byzantine,
        config_.punishment, std::move(shard_rng), config_.byzantine_factory, config_.ic_factory,
        std::move(local_tampers), std::move(net));
    // Every group gets its own cross-boundary link, minted fresh like the
    // group itself — ring state never leaks across epochs.
    built.group->set_wire(wire::make_transport(config_.transport));
    return built;
}

void Fabric::build_all(
    std::vector<std::vector<std::unique_ptr<authority::Agent_behavior>>> per_shard)
{
    ledgers_.resize(static_cast<std::size_t>(plan_.map().n_agents()));
    shards_.clear();
    shards_.reserve(static_cast<std::size_t>(plan_.map().n_shards()));
    optimum_costs_.assign(static_cast<std::size_t>(plan_.map().n_shards()), std::nullopt);
    for (int s = 0; s < plan_.map().n_shards(); ++s) {
        Built_group built =
            build_group(plan_, s, std::move(per_shard[static_cast<std::size_t>(s)]));
        shards_.push_back(std::move(built.group));
        optimum_costs_[static_cast<std::size_t>(s)] = built.optimum;
    }
    if (config_.telemetry) {
        fabric_sink_ = std::make_unique<telemetry::Telemetry_sink>(
            telemetry::Telemetry_sink::Scope{-1, plan_.epoch()});
        if (config_.trace) {
            fabric_sink_->enable_tracer();
            fabric_run_span_ = fabric_sink_->tracer()->begin_span("fabric_run", 0);
        }
        shard_sinks_.clear();
        for (int s = 0; s < plan_.map().n_shards(); ++s) {
            shard_sinks_.push_back(std::make_unique<telemetry::Telemetry_sink>(
                telemetry::Telemetry_sink::Scope{s, plan_.epoch()}));
            // The tracer must exist before set_telemetry: groups cache the
            // sink's tracer pointer at attach time.
            if (config_.trace) shard_sinks_.back()->enable_tracer();
            shards_[static_cast<std::size_t>(s)]->set_telemetry(
                shard_sinks_.back().get());
        }
    }
    if (config_.ingest.has_value()) {
        inlets_.clear();
        for (int s = 0; s < plan_.map().n_shards(); ++s) {
            telemetry::Telemetry_sink* sink =
                config_.telemetry ? shard_sinks_[static_cast<std::size_t>(s)].get() : nullptr;
            inlets_.push_back(std::make_unique<ingest::Shard_inlet>(*config_.ingest, sink));
        }
    }
}

ingest::Submit_result Fabric::submit(const ingest::Submission& sub)
{
    common::ensure(ingest_enabled(), "Fabric::submit: config.ingest not set");
    common::ensure(sub.agent >= 0 && sub.agent < n_agents(),
                   "Fabric::submit: agent out of range");
    const int s = plan_.map().shard_of(sub.agent);
    ingest::Shard_inlet& inlet = *inlets_[static_cast<std::size_t>(s)];
    if (agent_disconnected(sub.agent)) {
        if (static_cast<std::size_t>(s) < shard_sinks_.size() &&
            shard_sinks_[static_cast<std::size_t>(s)] != nullptr) {
            shard_sinks_[static_cast<std::size_t>(s)]->counter("ingest.shed_expelled") += 1;
        }
        return {ingest::Submit_status::shed, 0, inlet.health(), inlet.depth()};
    }
    return inlet.offer(sub, ingest_seq_++, shards_[static_cast<std::size_t>(s)]->now());
}

int Fabric::pump_ingest()
{
    common::ensure(ingest_enabled(), "Fabric::pump_ingest: config.ingest not set");
    const int service = config_.ingest->window_batches * config_.batch_k;
    std::vector<std::vector<ingest::Shard_inlet::Pending>> taken(
        static_cast<std::size_t>(n_shards()));
    std::vector<common::Pulse> from(static_cast<std::size_t>(n_shards()), 0);
    std::vector<std::function<void()>> jobs;
    int total = 0;
    for (int s = 0; s < n_shards(); ++s) {
        from[static_cast<std::size_t>(s)] = shards_[static_cast<std::size_t>(s)]->now();
        taken[static_cast<std::size_t>(s)] = inlets_[static_cast<std::size_t>(s)]->take(
            service, from[static_cast<std::size_t>(s)]);
        const int m = static_cast<int>(taken[static_cast<std::size_t>(s)].size());
        total += m;
        if (m == 0) continue;
        pipeline::Pipeline_authority* group = shards_[static_cast<std::size_t>(s)].get();
        jobs.push_back([group, m] { group->run_plays(m); });
    }
    executor_.run_all(jobs);
    for (int s = 0; s < n_shards(); ++s) {
        ingest::Shard_inlet& inlet = *inlets_[static_cast<std::size_t>(s)];
        const common::Pulse landed = shards_[static_cast<std::size_t>(s)]->now();
        for (const ingest::Shard_inlet::Pending& p : taken[static_cast<std::size_t>(s)]) {
            inlet.complete(p, landed);
        }
        inlet.end_window(landed);
        const int m = static_cast<int>(taken[static_cast<std::size_t>(s)].size());
        if (m > 0 && fabric_sink_ != nullptr && fabric_sink_->tracer() != nullptr) {
            // Fabric-track ticks are the served shard's engine pulses, same
            // convention as the quiesce spans.
            fabric_sink_->tracer()->add_span("ingest_window",
                                             from[static_cast<std::size_t>(s)], landed,
                                             fabric_run_span_, s, m);
        }
    }
    if (fabric_sink_ != nullptr) fabric_sink_->counter("ingest.windows") += 1;
    poll_watchdog();
    return total;
}

const ingest::Shard_inlet& Fabric::inlet(int s) const
{
    common::ensure(ingest_enabled(), "Fabric::inlet: config.ingest not set");
    if (s < 0 || s >= n_shards()) {
        throw common::Contract_error{"Fabric::inlet: shard " + std::to_string(s) +
                                     " out of range [0, " + std::to_string(n_shards()) + ")"};
    }
    return *inlets_[static_cast<std::size_t>(s)];
}

ingest::Ingest_totals Fabric::ingest_totals() const
{
    ingest::Ingest_totals out = retired_ingest_;
    for (const auto& inlet : inlets_) out.fold(inlet->totals());
    return out;
}

const pipeline::Pipeline_authority& Fabric::shard(int s) const
{
    if (s < 0 || s >= n_shards()) {
        throw common::Contract_error{"Fabric::shard: shard " + std::to_string(s) +
                                     " out of range [0, " + std::to_string(n_shards()) + ")"};
    }
    return *shards_[static_cast<std::size_t>(s)];
}

void Fabric::run_pulses(common::Pulse count)
{
    std::vector<std::function<void()>> jobs;
    jobs.reserve(shards_.size());
    for (auto& shard : shards_) {
        jobs.push_back([&shard, count] { shard->run_pulses(count); });
    }
    executor_.run_all(jobs);
    poll_watchdog();
}

void Fabric::run_plays(int plays)
{
    std::vector<std::function<void()>> jobs;
    jobs.reserve(shards_.size());
    for (auto& shard : shards_) {
        jobs.push_back([&shard, plays] { shard->run_plays(plays); });
    }
    executor_.run_all(jobs);
    poll_watchdog();
}

void Fabric::inject_transient_fault()
{
    for (auto& shard : shards_) shard->inject_transient_fault();
}

bool Fabric::maybe_rebalance()
{
    if (!rebalancer_.has_value()) return false;
    // The policy's load view is O(shards) to assemble — counts only, not the
    // O(total plays) cost/standings fold a full harvest() performs.
    std::vector<Shard_load> loads;
    loads.reserve(static_cast<std::size_t>(n_shards()));
    for (int s = 0; s < n_shards(); ++s) {
        const pipeline::Pipeline_authority& group = *shards_[static_cast<std::size_t>(s)];
        Shard_load load;
        load.shard = s;
        load.agents = group.n_agents();
        load.plays = static_cast<std::int64_t>(group.agreed_plays().size());
        load.messages = group.traffic().messages;
        if (!inlets_.empty()) load.backlog = inlets_[static_cast<std::size_t>(s)]->depth();
        loads.push_back(load);
    }
    const Rebalance_plan proposal = rebalancer_->propose(plan_, std::move(loads));
    if (proposal.empty()) return false;
    if (fabric_sink_ != nullptr) {
        // Journaled before the floor check, so proposals the 3f+1 floor
        // rejects below remain visible as proposed-but-not-applied.
        telemetry::Event e;
        e.kind = telemetry::Event_kind::rebalance_proposed;
        e.a = static_cast<std::int64_t>(proposal.migrations.size());
        e.b = static_cast<std::int64_t>(proposal.splits.size() + proposal.merges.size());
        fabric_sink_->event(std::move(e));
    }
    // Transform with the structural floor only: a *malformed* plan (stale
    // shard ids, duplicate movers, ...) is a policy bug and propagates. A
    // well-formed plan whose resulting groups would dip under this fabric's
    // 3f+1 replica floor — which the policy cannot know — is skipped
    // (deterministically, every window it recurs); explicit apply_rebalance
    // stays strict about the floor too.
    Shard_plan next = plan_.apply(proposal, /*min_members=*/1);
    const int floor = 3 * config_.f + 1;
    for (const int size : next.map().shard_sizes()) {
        if (size < floor) return false;
    }
    apply_next_plan(std::move(next));
    return true;
}

Rebalance_report Fabric::apply_rebalance(const Rebalance_plan& plan)
{
    return apply_next_plan(plan_.apply(plan, 3 * config_.f + 1));
}

Rebalance_report Fabric::apply_next_plan(Shard_plan next)
{
    const std::vector<int> carried = carried_shards(plan_.map(), next.map());

    const int old_count = plan_.map().n_shards();
    std::vector<bool> keep(static_cast<std::size_t>(old_count), false);
    for (const int old_shard : carried) {
        if (old_shard >= 0) keep[static_cast<std::size_t>(old_shard)] = true;
    }

    // ---- Build every replacement group first (the only step that runs
    // user-supplied factories): a throw here leaves the fabric untouched.
    std::vector<std::unique_ptr<pipeline::Pipeline_authority>> next_groups(
        static_cast<std::size_t>(next.map().n_shards()));
    std::vector<std::optional<double>> next_optima(
        static_cast<std::size_t>(next.map().n_shards()), std::nullopt);
    Rebalance_report report;
    report.epoch = next.epoch();
    report.moves = next.pending();
    for (std::size_t s = 0; s < next_groups.size(); ++s) {
        if (carried[s] >= 0) continue;
        Built_group built = build_group(next, static_cast<int>(s),
                                        mint_behaviors(next.map(), static_cast<int>(s)));
        next_groups[s] = std::move(built.group);
        next_optima[s] = built.optimum;
        ++report.rebuilt;
    }

    // ---- Quiesce every retiring group to its play-window edge (concurrent
    // across the pool; each group's pulse count is its own, so the schedule
    // is result-invariant).
    std::vector<common::Pulse> quiesce(static_cast<std::size_t>(old_count), 0);
    std::vector<common::Pulse> quiesce_from(static_cast<std::size_t>(old_count), 0);
    std::vector<std::function<void()>> jobs;
    for (int s = 0; s < old_count; ++s) {
        if (keep[static_cast<std::size_t>(s)]) continue;
        const common::Pulse pulses = shards_[static_cast<std::size_t>(s)]->pulses_to_window_edge();
        quiesce[static_cast<std::size_t>(s)] = pulses;
        quiesce_from[static_cast<std::size_t>(s)] = shards_[static_cast<std::size_t>(s)]->now();
        pipeline::Pipeline_authority* group = shards_[static_cast<std::size_t>(s)].get();
        jobs.push_back([group, pulses] { group->run_pulses(pulses); });
    }
    executor_.run_all(jobs);

    // ---- Retire: fold each quiesced group into the carried ledger. A
    // retiring shard's queued submissions are never shed — they drain here
    // and are re-adopted (in global seq order) by the successor shards that
    // own their agents after the swap below.
    std::vector<ingest::Shard_inlet::Pending> rerouted;
    for (int s = 0; s < old_count; ++s) {
        if (keep[static_cast<std::size_t>(s)]) continue;
        if (!inlets_.empty()) {
            ingest::Shard_inlet& inlet = *inlets_[static_cast<std::size_t>(s)];
            std::vector<ingest::Shard_inlet::Pending> drained = inlet.drain();
            rerouted.insert(rerouted.end(), std::make_move_iterator(drained.begin()),
                            std::make_move_iterator(drained.end()));
            retired_ingest_.fold(inlet.totals());
        }
        const common::Pulse pulses = quiesce[static_cast<std::size_t>(s)];
        report.max_quiesce_pulses = std::max(report.max_quiesce_pulses, pulses);
        if (fabric_sink_ != nullptr) {
            fabric_sink_->histogram("rebalance.quiesce_pulses").record(pulses);
            if (auto* tr = fabric_sink_->tracer()) {
                // Fabric-track ticks are the paused group's engine pulses —
                // each quiesce span lives on the clock of the shard it paused.
                tr->add_span("rebalance_quiesce", quiesce_from[static_cast<std::size_t>(s)],
                             quiesce_from[static_cast<std::size_t>(s)] + pulses,
                             fabric_run_span_, s, pulses);
            }
        }
        if (watchdog_.has_value()) {
            // Last look at the retiring sink (its final interval would
            // otherwise go unobserved), then the elastic contract itself:
            // a quiesce must fit one play window.
            if (static_cast<std::size_t>(s) < shard_sinks_.size() &&
                shard_sinks_[static_cast<std::size_t>(s)] != nullptr) {
                watchdog_->observe(*shard_sinks_[static_cast<std::size_t>(s)]);
            }
            watchdog_->observe_quiesce(
                s, plan_.epoch(), pulses,
                shards_[static_cast<std::size_t>(s)]->pulses_for_plays(1));
        }
        retire_group(s);
        ++report.retired;
    }

    // ---- Swap the topology: adopt carried groups under their new ids. A
    // carried group keeps its sink — relabeled to its new (shard, epoch)
    // scope — so its registries stay continuous across the transition while
    // events before and after the edge carry the tags they happened under.
    std::vector<std::unique_ptr<telemetry::Telemetry_sink>> next_sinks(
        config_.telemetry ? next_groups.size() : 0);
    std::vector<std::unique_ptr<ingest::Shard_inlet>> next_inlets(
        config_.ingest.has_value() ? next_groups.size() : 0);
    for (std::size_t s = 0; s < next_groups.size(); ++s) {
        if (carried[s] >= 0) {
            next_groups[s] = std::move(shards_[static_cast<std::size_t>(carried[s])]);
            next_optima[s] = optimum_costs_[static_cast<std::size_t>(carried[s])];
            if (config_.ingest.has_value()) {
                // A carried shard keeps its inlet: queue, bucket, health, and
                // totals stay continuous across the relabel.
                next_inlets[s] = std::move(inlets_[static_cast<std::size_t>(carried[s])]);
            }
            if (config_.telemetry) {
                next_sinks[s] = std::move(shard_sinks_[static_cast<std::size_t>(carried[s])]);
                const telemetry::Telemetry_sink::Scope old = next_sinks[s]->scope();
                next_sinks[s]->set_scope({static_cast<int>(s), next.epoch()});
                if (watchdog_.has_value()) {
                    watchdog_->adopt_scope(old.shard, old.epoch, static_cast<int>(s),
                                           next.epoch());
                }
            }
            ++report.carried;
        } else if (config_.telemetry) {
            next_sinks[s] = std::make_unique<telemetry::Telemetry_sink>(
                telemetry::Telemetry_sink::Scope{static_cast<int>(s), next.epoch()});
            // Tracer before attach: the group caches the pointer then.
            if (config_.trace) next_sinks[s]->enable_tracer();
            next_groups[s]->set_telemetry(next_sinks[s].get());
        }
        if (carried[s] < 0 && config_.ingest.has_value()) {
            // A rebuilt shard's inlet starts fresh but quiesce-degraded: the
            // transition cost service time its (empty) queue cannot show, so
            // admission opens conservatively for one window.
            next_inlets[s] = std::make_unique<ingest::Shard_inlet>(
                *config_.ingest, config_.telemetry ? next_sinks[s].get() : nullptr);
            next_inlets[s]->note_quiesce();
        }
    }
    plan_ = std::move(next);
    shards_ = std::move(next_groups);
    optimum_costs_ = std::move(next_optima);
    shard_sinks_ = std::move(next_sinks);
    inlets_ = std::move(next_inlets);

    // ---- Finish the rebuilt shards against the now-folded ledger:
    // expulsion is permanent, so re-expel members disconnected in any
    // earlier epoch, then boot each fresh group's clock so it joins the
    // fabric's play cadence on the next fabric step.
    for (int s = 0; s < plan_.map().n_shards(); ++s) {
        if (carried[static_cast<std::size_t>(s)] >= 0) continue;
        const std::vector<common::Agent_id>& members = plan_.map().members(s);
        for (common::Agent_id local = 0; local < static_cast<int>(members.size()); ++local) {
            if (ledgers_[static_cast<std::size_t>(members[static_cast<std::size_t>(local)])]
                    .expelled) {
                shards_[static_cast<std::size_t>(s)]->expel_agent(local);
            }
        }
        shards_[static_cast<std::size_t>(s)]->run_pulses(1);
    }

    // ---- Re-admit the retired shards' in-flight submissions into their
    // agents' new owners, in fabric-global seq order (FIFO survives the
    // transition). adopt() bypasses admission — queued work is never shed by
    // a rebalance, even if a merge transiently overfills the target queue.
    if (!rerouted.empty()) {
        std::sort(rerouted.begin(), rerouted.end(),
                  [](const ingest::Shard_inlet::Pending& a,
                     const ingest::Shard_inlet::Pending& b) { return a.seq < b.seq; });
        for (ingest::Shard_inlet::Pending& p : rerouted) {
            const int t = plan_.map().shard_of(p.sub.agent);
            inlets_[static_cast<std::size_t>(t)]->adopt(
                std::move(p), shards_[static_cast<std::size_t>(t)]->now());
        }
    }

    if (fabric_sink_ != nullptr) {
        fabric_sink_->set_scope({-1, plan_.epoch()});
        telemetry::Event e;
        e.kind = telemetry::Event_kind::rebalance_applied;
        e.a = static_cast<std::int64_t>(report.moves.size());
        e.b = report.rebuilt;
        fabric_sink_->event(std::move(e));
        fabric_sink_->counter("rebalance.applied") += 1;
    }
    poll_watchdog();

    last_rebalance_ = report;
    return report;
}

void Fabric::retire_group(int s)
{
    retired_samples_.push_back(harvest(s));
    const pipeline::Pipeline_authority& group = *shards_[static_cast<std::size_t>(s)];
    const std::vector<common::Agent_id>& members = plan_.map().members(s);
    const std::vector<authority::Play_record>& plays = group.agreed_plays();
    const std::vector<authority::Standing>& standings = group.agreed_standings();
    for (common::Agent_id local = 0; local < static_cast<int>(members.size()); ++local) {
        Agent_ledger& ledger =
            ledgers_[static_cast<std::size_t>(members[static_cast<std::size_t>(local)])];
        for (const authority::Play_record& play : plays) {
            ledger.history.push_back(play_view(play, local));
        }
        ledger.carried = authority::merge_standings(
            ledger.carried, standings[static_cast<std::size_t>(local)]);
        if (group.is_agent_disconnected(local)) ledger.expelled = true;
    }
    if (static_cast<std::size_t>(s) < shard_sinks_.size() &&
        shard_sinks_[static_cast<std::size_t>(s)] != nullptr) {
        const telemetry::Telemetry_sink& sink = *shard_sinks_[static_cast<std::size_t>(s)];
        if (sink.tracer() != nullptr && !sink.tracer()->empty()) {
            retired_spans_.push_back(
                {sink.scope().shard, sink.scope().epoch, sink.tracer()->spans()});
        }
        for (telemetry::Evidence ev : sink.evidence()) {
            // Local slot ids are stable across carries and merge relabels, so
            // the retiring membership list maps each slot to its global id.
            const common::Agent_id global = members[static_cast<std::size_t>(ev.agent)];
            ev.agent = global;
            ledgers_[static_cast<std::size_t>(global)].evidence.push_back(std::move(ev));
        }
    }
    shards_[static_cast<std::size_t>(s)].reset();
}

std::vector<Agent_play> Fabric::agent_history(common::Agent_id global) const
{
    common::ensure(global >= 0 && global < n_agents(), "Fabric::agent_history: id out of range");
    std::vector<Agent_play> history = ledgers_[static_cast<std::size_t>(global)].history;
    const common::Agent_id local = map().local_of(global);
    for (const authority::Play_record& play : shard(map().shard_of(global)).agreed_plays()) {
        history.push_back(play_view(play, local));
    }
    return history;
}

authority::Standing Fabric::agent_standing(common::Agent_id global) const
{
    common::ensure(global >= 0 && global < n_agents(), "Fabric::agent_standing: id out of range");
    const std::vector<authority::Standing>& current =
        shard(map().shard_of(global)).agreed_standings();
    return authority::merge_standings(ledgers_[static_cast<std::size_t>(global)].carried,
                                      current[static_cast<std::size_t>(map().local_of(global))]);
}

bool Fabric::agent_disconnected(common::Agent_id global) const
{
    common::ensure(global >= 0 && global < n_agents(),
                   "Fabric::agent_disconnected: id out of range");
    return ledgers_[static_cast<std::size_t>(global)].expelled ||
           shard(map().shard_of(global)).is_agent_disconnected(map().local_of(global));
}

std::vector<common::Agent_id> Fabric::punished_agents() const
{
    std::vector<common::Agent_id> punished;
    for (common::Agent_id g = 0; g < n_agents(); ++g) {
        if (agent_standing(g).fouls > 0) punished.push_back(g);
    }
    return punished;
}

metrics::Shard_sample Fabric::harvest(int s) const
{
    const pipeline::Pipeline_authority& group = shard(s);
    metrics::Shard_sample sample;
    sample.shard = s;
    sample.epoch = plan_.epoch();
    sample.agents = group.n_agents();
    sample.traffic = group.traffic();

    const auto& plays = group.agreed_plays();
    sample.plays = static_cast<std::int64_t>(plays.size());
    for (const authority::Play_record& play : plays) {
        sample.social_cost += game::social_cost(*group.spec().game, play.outcome);
    }
    if (optimum_costs_[static_cast<std::size_t>(s)].has_value()) {
        sample.optimal_cost =
            static_cast<double>(sample.plays) * *optimum_costs_[static_cast<std::size_t>(s)];
    }
    for (const authority::Standing& standing : group.agreed_standings()) {
        sample.fouls += standing.fouls;
    }
    // Count only expulsions this group performed: an expulsion carried into
    // a rebuilt group (re-enacted at build time) was already counted by the
    // retiring group that ordered it — the carried ledger flag marks those,
    // since retire_group folds it only after harvesting.
    const std::vector<common::Agent_id>& members = plan_.map().members(s);
    for (common::Agent_id local = 0; local < static_cast<int>(members.size()); ++local) {
        const bool carried_expulsion =
            ledgers_[static_cast<std::size_t>(members[static_cast<std::size_t>(local)])].expelled;
        if (group.is_agent_disconnected(local) && !carried_expulsion) ++sample.disconnected;
    }
    if (static_cast<std::size_t>(s) < shard_sinks_.size() &&
        shard_sinks_[static_cast<std::size_t>(s)] != nullptr) {
        sample.telemetry = shard_sinks_[static_cast<std::size_t>(s)]->snapshot();
    }
    return sample;
}

metrics::Fabric_metrics Fabric::report() const
{
    std::vector<metrics::Shard_sample> samples = retired_samples_;
    samples.reserve(samples.size() + static_cast<std::size_t>(n_shards()));
    for (int s = 0; s < n_shards(); ++s) samples.push_back(harvest(s));
    metrics::Fabric_metrics out = metrics::aggregate_shards(std::move(samples));
    if (fabric_sink_ != nullptr) {
        telemetry::merge_into(out.telemetry, fabric_sink_->snapshot());
    }
    return out;
}

telemetry::Report Fabric::telemetry_report() const
{
    telemetry::Report report;
    if (fabric_sink_ != nullptr) report.fabric = fabric_sink_->snapshot();
    for (const metrics::Shard_sample& sample : retired_samples_) {
        if (!sample.telemetry.empty()) {
            report.shards.push_back({sample.shard, sample.epoch, sample.telemetry});
        }
    }
    for (int s = 0; s < n_shards(); ++s) {
        if (static_cast<std::size_t>(s) < shard_sinks_.size() &&
            shard_sinks_[static_cast<std::size_t>(s)] != nullptr) {
            report.shards.push_back(
                {s, plan_.epoch(), shard_sinks_[static_cast<std::size_t>(s)]->snapshot()});
        }
    }
    std::stable_sort(report.shards.begin(), report.shards.end(),
                     [](const telemetry::Scoped_snapshot& a, const telemetry::Scoped_snapshot& b) {
                         return std::pair{a.epoch, a.shard} < std::pair{b.epoch, b.shard};
                     });
    for (common::Agent_id g = 0; g < n_agents(); ++g) {
        std::vector<telemetry::Evidence> chains = provenance(g);
        report.provenance.insert(report.provenance.end(),
                                 std::make_move_iterator(chains.begin()),
                                 std::make_move_iterator(chains.end()));
    }
    if (watchdog_.has_value()) report.alerts = watchdog_->alerts();
    return report;
}

std::vector<telemetry::Evidence> Fabric::provenance(common::Agent_id global) const
{
    common::ensure(global >= 0 && global < n_agents(), "Fabric::provenance: id out of range");
    std::vector<telemetry::Evidence> chains = ledgers_[static_cast<std::size_t>(global)].evidence;
    const int s = plan_.map().shard_of(global);
    if (static_cast<std::size_t>(s) < shard_sinks_.size() &&
        shard_sinks_[static_cast<std::size_t>(s)] != nullptr) {
        const common::Agent_id local = plan_.map().local_of(global);
        for (telemetry::Evidence ev : shard_sinks_[static_cast<std::size_t>(s)]->evidence()) {
            if (ev.agent != local) continue;
            ev.agent = global;
            chains.push_back(std::move(ev));
        }
    }
    return chains;
}

telemetry::Trace_report Fabric::trace_report() const
{
    telemetry::Trace_report report;
    if (fabric_sink_ != nullptr && fabric_sink_->tracer() != nullptr) {
        report.fabric = fabric_sink_->tracer()->spans();
    }
    report.shards = retired_spans_;
    for (int s = 0; s < n_shards(); ++s) {
        if (static_cast<std::size_t>(s) >= shard_sinks_.size() ||
            shard_sinks_[static_cast<std::size_t>(s)] == nullptr) {
            continue;
        }
        const telemetry::Tracer* tracer = shard_sinks_[static_cast<std::size_t>(s)]->tracer();
        if (tracer == nullptr || tracer->empty()) continue;
        report.shards.push_back({s, plan_.epoch(), tracer->spans()});
    }
    std::stable_sort(report.shards.begin(), report.shards.end(),
                     [](const telemetry::Scoped_spans& a, const telemetry::Scoped_spans& b) {
                         return std::pair{a.epoch, a.shard} < std::pair{b.epoch, b.shard};
                     });
    return report;
}

const std::vector<telemetry::Alert>& Fabric::watchdog_alerts() const
{
    static const std::vector<telemetry::Alert> k_no_alerts;
    return watchdog_.has_value() ? watchdog_->alerts() : k_no_alerts;
}

void Fabric::poll_watchdog()
{
    if (!watchdog_.has_value()) return;
    if (fabric_sink_ != nullptr) watchdog_->observe(*fabric_sink_);
    for (const auto& sink : shard_sinks_) {
        if (sink != nullptr) watchdog_->observe(*sink);
    }
}

} // namespace ga::shard
