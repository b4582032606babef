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
/// "no price-of-anarchy term", not refuse to construct. Every agent has at
/// least one action: build_shard refuses any other game.
std::optional<double> enumerable_optimum_cost(const game::Strategic_game& game)
{
    std::int64_t count = 1;
    for (common::Agent_id i = 0; i < game.n_agents(); ++i) {
        count *= game.n_actions(i);
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

/// True when no group of `map` holds more than f of the `byzantine` ids —
/// the most Byzantine slots a Pipeline_authority accepts.
bool byzantine_fit(const Shard_map& map, const std::set<common::Agent_id>& byzantine, int f)
{
    std::vector<int> count(static_cast<std::size_t>(map.n_shards()), 0);
    for (const common::Agent_id g : byzantine) {
        if (++count[static_cast<std::size_t>(map.shard_of(g))] > f) return false;
    }
    return true;
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
    ledgers_.resize(static_cast<std::size_t>(n_agents()));
    for (int s = 0; s < n_shards(); ++s) shards_.push_back(build_shard(plan_, s));
    if (config_.telemetry) {
        fabric_sink_ = std::make_unique<telemetry::Telemetry_sink>(
            telemetry::Telemetry_sink::Scope{-1, plan_.epoch()},
            telemetry::Telemetry_sink::k_default_journal_capacity, config_.trace);
        if (config_.trace) fabric_run_span_ = fabric_sink_->tracer()->begin_span("fabric_run", 0);
    }
    if (config_.rebalance != nullptr) rebalancer_.emplace(config_.rebalance);
}

Fabric::Shard Fabric::build_shard(const Shard_plan& plan, int s) const
{
    const Shard_map& map = plan.map();
    const std::vector<common::Agent_id>& members = map.members(s);
    std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors;
    behaviors.reserve(members.size());
    for (const common::Agent_id g : members) behaviors.push_back(config_.behavior_factory(g));
    authority::Game_spec spec = config_.spec_factory(s, members);
    common::ensure(spec.game != nullptr, "Fabric: shard spec factory returned a null game");
    common::ensure(spec.game->n_agents() == static_cast<int>(members.size()),
                   "Fabric: shard game size must match the shard population");
    for (common::Agent_id i = 0; i < spec.game->n_agents(); ++i) {
        common::ensure(spec.game->n_actions(i) >= 1,
                       "Fabric: every shard game agent needs at least one action");
    }

    std::set<common::Processor_id> local_byzantine;
    for (const common::Agent_id g : config_.byzantine) {
        if (map.shard_of(g) == s) local_byzantine.insert(map.local_of(g));
    }

    Shard shard;
    common::Rng shard_rng{common::derive_seed(config_.seed, static_cast<std::uint64_t>(s),
                                              static_cast<std::uint64_t>(plan.epoch()))};
    sim::Net_model net = config_.net;
    net.seed = common::derive_seed(net.seed, static_cast<std::uint64_t>(s),
                                   static_cast<std::uint64_t>(plan.epoch()));
    std::map<common::Processor_id, pipeline::Tamper> local_tampers;
    for (const auto& [g, tamper] : config_.tampers) {
        if (map.shard_of(g) == s) local_tampers.emplace(map.local_of(g), tamper);
    }
    shard.group = std::make_unique<pipeline::Pipeline_authority>(
        std::move(spec), config_.f, config_.batch_k, std::move(behaviors), local_byzantine,
        config_.punishment, std::move(shard_rng), authority::Byzantine_factory{}, config_.ic_factory,
        std::move(local_tampers), std::move(net));
    // Every group gets its own cross-boundary link, minted fresh like the
    // group itself — ring state never leaks across epochs.
    shard.group->set_wire(wire::make_transport(config_.transport));
    if (config_.telemetry) {
        shard.sink = std::make_unique<telemetry::Telemetry_sink>(
            telemetry::Telemetry_sink::Scope{s, plan.epoch()},
            telemetry::Telemetry_sink::k_default_journal_capacity, config_.trace);
        shard.group->set_telemetry(shard.sink.get());
    }
    if (config_.ingest.has_value()) {
        shard.inlet = std::make_unique<ingest::Shard_inlet>(*config_.ingest, shard.sink.get());
    }
    return shard;
}

ingest::Submit_result Fabric::submit(const ingest::Submission& sub)
{
    common::ensure(ingest_enabled(), "Fabric::submit: config.ingest not set");
    common::ensure(sub.agent >= 0 && sub.agent < n_agents(),
                   "Fabric::submit: agent out of range");
    Shard& shard = shards_[static_cast<std::size_t>(plan_.map().shard_of(sub.agent))];
    if (agent_disconnected(sub.agent)) {
        if (shard.sink != nullptr) shard.sink->counter("ingest.shed_expelled") += 1;
        return {ingest::Submit_status::shed, 0, shard.inlet->health(), shard.inlet->depth()};
    }
    return shard.inlet->offer(sub, ingest_seq_++, shard.group->now());
}

int Fabric::pump_ingest()
{
    common::ensure(ingest_enabled(), "Fabric::pump_ingest: config.ingest not set");
    const int service = config_.ingest->window_batches * config_.batch_k;
    std::vector<std::vector<ingest::Shard_inlet::Pending>> taken(shards_.size());
    std::vector<common::Pulse> from(shards_.size(), 0);
    std::vector<std::function<void()>> jobs;
    int total = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        pipeline::Pipeline_authority* group = shards_[s].group.get();
        from[s] = group->now();
        taken[s] = shards_[s].inlet->take(service, from[s]);
        const int m = static_cast<int>(taken[s].size());
        total += m;
        if (m > 0) jobs.push_back([group, m] { group->run_plays(m); });
    }
    executor_.run_all(jobs);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        ingest::Shard_inlet& inlet = *shards_[s].inlet;
        const common::Pulse landed = shards_[s].group->now();
        for (const ingest::Shard_inlet::Pending& p : taken[s]) inlet.complete(p, landed);
        inlet.end_window(landed);
        if (!taken[s].empty() && fabric_sink_ != nullptr && fabric_sink_->tracer() != nullptr) {
            // Fabric-track ticks are the served shard's engine pulses, same
            // convention as the quiesce spans.
            fabric_sink_->tracer()->add_span("ingest_window", from[s], landed, fabric_run_span_,
                                             static_cast<int>(s),
                                             static_cast<std::int64_t>(taken[s].size()));
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
    return *shards_[static_cast<std::size_t>(s)].inlet;
}

ingest::Ingest_totals Fabric::ingest_totals() const
{
    ingest::Ingest_totals out = retired_ingest_;
    for (const Shard& shard : shards_) {
        if (shard.inlet != nullptr) out.fold(shard.inlet->totals());
    }
    return out;
}

const pipeline::Pipeline_authority& Fabric::shard(int s) const
{
    if (s < 0 || s >= n_shards()) {
        throw common::Contract_error{"Fabric::shard: shard " + std::to_string(s) +
                                     " out of range [0, " + std::to_string(n_shards()) + ")"};
    }
    return *shards_[static_cast<std::size_t>(s)].group;
}

void Fabric::run_pulses(common::Pulse count)
{
    std::vector<std::function<void()>> jobs;
    jobs.reserve(shards_.size());
    for (Shard& shard : shards_) {
        jobs.push_back([group = shard.group.get(), count] { group->run_pulses(count); });
    }
    executor_.run_all(jobs);
    poll_watchdog();
}

void Fabric::run_plays(int plays)
{
    std::vector<std::function<void()>> jobs;
    jobs.reserve(shards_.size());
    for (Shard& shard : shards_) {
        jobs.push_back([group = shard.group.get(), plays] { group->run_plays(plays); });
    }
    executor_.run_all(jobs);
    poll_watchdog();
}

void Fabric::inject_transient_fault()
{
    for (Shard& shard : shards_) shard.group->inject_transient_fault();
}

bool Fabric::maybe_rebalance()
{
    if (!rebalancer_.has_value()) return false;
    // The policy's load view is O(shards) to assemble — counts only, not the
    // O(total plays) cost/standings fold a full harvest() performs.
    std::vector<Shard_load> loads;
    loads.reserve(shards_.size());
    for (int s = 0; s < n_shards(); ++s) {
        const Shard& shard = shards_[static_cast<std::size_t>(s)];
        Shard_load load;
        load.shard = s;
        load.agents = shard.group->n_agents();
        load.plays = static_cast<std::int64_t>(shard.group->agreed_plays().size());
        load.messages = shard.group->traffic().messages;
        if (shard.inlet != nullptr) load.backlog = shard.inlet->depth();
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
    // 3f+1 replica floor, or hold more than f of its Byzantine agents —
    // neither of which the policy can know — is skipped (deterministically,
    // every window it recurs); explicit apply_rebalance stays strict.
    Shard_plan next = plan_.apply(proposal, /*min_members=*/1);
    const int floor = 3 * config_.f + 1;
    for (const int size : next.map().shard_sizes()) {
        if (size < floor) return false;
    }
    if (!byzantine_fit(next.map(), config_.byzantine, config_.f)) return false;
    apply_next_plan(std::move(next));
    return true;
}

Rebalance_report Fabric::apply_rebalance(const Rebalance_plan& plan)
{
    Shard_plan next = plan_.apply(plan, 3 * config_.f + 1);
    common::ensure(byzantine_fit(next.map(), config_.byzantine, config_.f),
                   "Fabric: rebalance puts more than f Byzantine agents in one group");
    return apply_next_plan(std::move(next));
}

Rebalance_report Fabric::apply_next_plan(Shard_plan next)
{
    const std::vector<int> carried = carried_shards(plan_.map(), next.map());
    std::vector<bool> keep(shards_.size(), false);
    for (const int old_shard : carried) {
        if (old_shard >= 0) keep[static_cast<std::size_t>(old_shard)] = true;
    }

    // ---- Build every replacement shard first (the only step that runs
    // user-supplied factories): a throw here leaves the fabric untouched. A
    // rebuilt inlet starts fresh but quiesce-degraded: the transition cost
    // service time its (empty) queue cannot show, so admission opens
    // conservatively for one window.
    std::vector<Shard> next_shards(carried.size());
    Rebalance_report report;
    report.epoch = next.epoch();
    report.moves = next.pending();
    for (std::size_t s = 0; s < next_shards.size(); ++s) {
        if (carried[s] >= 0) continue;
        next_shards[s] = build_shard(next, static_cast<int>(s));
        if (next_shards[s].inlet != nullptr) next_shards[s].inlet->note_quiesce();
        ++report.rebuilt;
    }

    // ---- Quiesce every retiring group to its play-window edge (concurrent
    // across the pool; each group's pulse count is its own, so the schedule
    // is result-invariant).
    std::vector<common::Pulse> quiesce(shards_.size(), 0);
    std::vector<common::Pulse> quiesce_from(shards_.size(), 0);
    std::vector<std::function<void()>> jobs;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        if (keep[s]) continue;
        pipeline::Pipeline_authority* group = shards_[s].group.get();
        const common::Pulse pulses = group->pulses_to_window_edge();
        quiesce[s] = pulses;
        quiesce_from[s] = group->now();
        jobs.push_back([group, pulses] { group->run_pulses(pulses); });
    }
    executor_.run_all(jobs);

    // ---- Retire: fold each quiesced group into the carried ledger. A
    // retiring shard's queued submissions are never shed — they drain here
    // and are re-adopted (in global seq order) by the successor shards that
    // own their agents after the swap below.
    std::vector<ingest::Shard_inlet::Pending> rerouted;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        if (keep[s]) continue;
        const Shard& shard = shards_[s];
        if (shard.inlet != nullptr) {
            std::vector<ingest::Shard_inlet::Pending> drained = shard.inlet->drain();
            rerouted.insert(rerouted.end(), std::make_move_iterator(drained.begin()),
                            std::make_move_iterator(drained.end()));
            retired_ingest_.fold(shard.inlet->totals());
        }
        const common::Pulse pulses = quiesce[s];
        report.max_quiesce_pulses = std::max(report.max_quiesce_pulses, pulses);
        if (fabric_sink_ != nullptr) {
            fabric_sink_->histogram("rebalance.quiesce_pulses").record(pulses);
            if (auto* tr = fabric_sink_->tracer()) {
                // Fabric-track ticks are the paused group's engine pulses —
                // each quiesce span lives on the clock of the shard it paused.
                tr->add_span("rebalance_quiesce", quiesce_from[s], quiesce_from[s] + pulses,
                             fabric_run_span_, static_cast<int>(s), pulses);
            }
        }
        if (watchdog_.has_value()) {
            // Last look at the retiring sink (its final interval would
            // otherwise go unobserved), then the elastic contract itself:
            // a quiesce must fit one play window.
            watchdog_->observe(*shard.sink);
            watchdog_->observe_quiesce(static_cast<int>(s), plan_.epoch(), pulses,
                                       shard.group->pulses_for_plays(1));
        }
        retire_group(static_cast<int>(s));
        ++report.retired;
    }

    // ---- Swap the topology: adopt carried shards whole under their new ids.
    // A carried shard keeps its group, inlet (queue, bucket, health and
    // totals stay continuous) and sink — relabeled to its new (shard, epoch)
    // scope, so its registries stay continuous across the transition while
    // events before and after the edge carry the tags they happened under.
    for (std::size_t s = 0; s < next_shards.size(); ++s) {
        if (carried[s] < 0) continue;
        Shard& kept = next_shards[s] = std::move(shards_[static_cast<std::size_t>(carried[s])]);
        if (kept.sink != nullptr) {
            const telemetry::Telemetry_sink::Scope old = kept.sink->scope();
            kept.sink->set_scope({static_cast<int>(s), next.epoch()});
            if (watchdog_.has_value()) {
                watchdog_->adopt_scope(old.shard, old.epoch, static_cast<int>(s), next.epoch());
            }
        }
        ++report.carried;
    }
    plan_ = std::move(next);
    shards_ = std::move(next_shards);

    // ---- Finish the rebuilt shards against the now-folded ledger:
    // expulsion is permanent, so re-expel members disconnected in any
    // earlier epoch, then boot each fresh group's clock so it joins the
    // fabric's play cadence on the next fabric step.
    for (int s = 0; s < n_shards(); ++s) {
        if (carried[static_cast<std::size_t>(s)] >= 0) continue;
        pipeline::Pipeline_authority& group = *shards_[static_cast<std::size_t>(s)].group;
        const std::vector<common::Agent_id>& members = plan_.map().members(s);
        for (common::Agent_id local = 0; local < static_cast<int>(members.size()); ++local) {
            if (ledgers_[static_cast<std::size_t>(members[static_cast<std::size_t>(local)])]
                    .expelled) {
                group.expel_agent(local);
            }
        }
        group.run_pulses(1);
    }

    // ---- Re-admit the retired shards' in-flight submissions into their
    // agents' new owners, in fabric-global seq order (FIFO survives the
    // transition). adopt() bypasses admission — queued work is never shed by
    // a rebalance, even if a merge transiently overfills the target queue.
    std::sort(rerouted.begin(), rerouted.end(),
              [](const ingest::Shard_inlet::Pending& a, const ingest::Shard_inlet::Pending& b) {
                  return a.seq < b.seq;
              });
    for (ingest::Shard_inlet::Pending& p : rerouted) {
        Shard& owner = shards_[static_cast<std::size_t>(plan_.map().shard_of(p.sub.agent))];
        owner.inlet->adopt(std::move(p), owner.group->now());
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
    Shard& shard = shards_[static_cast<std::size_t>(s)];
    const std::vector<common::Agent_id>& members = plan_.map().members(s);
    // The sink leaves the shard before the harvest, so the stored sample
    // holds no copy of its snapshot: report() reads the retained sink.
    Retired_group retired{{}, std::move(shard.sink), members};
    retired.sample = harvest(s);
    retired_.push_back(std::move(retired));
    const pipeline::Pipeline_authority& group = *shard.group;
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
    const Shard& shard = shards_[static_cast<std::size_t>(s)];
    const pipeline::Pipeline_authority& group = *shard.group;
    metrics::Shard_sample sample;
    sample.shard = s;
    sample.epoch = plan_.epoch();
    sample.agents = group.n_agents();
    sample.traffic = group.traffic();

    const game::Strategic_game& shard_game = *group.spec().game;
    const auto& plays = group.agreed_plays();
    sample.plays = static_cast<std::int64_t>(plays.size());
    for (const authority::Play_record& play : plays) {
        sample.social_cost += game::social_cost(shard_game, play.outcome);
    }
    if (const std::optional<double> optimum = enumerable_optimum_cost(shard_game)) {
        sample.optimal_cost = static_cast<double>(sample.plays) * *optimum;
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
    if (shard.sink != nullptr) sample.telemetry = shard.sink->snapshot();
    return sample;
}

metrics::Fabric_metrics Fabric::report() const
{
    std::vector<metrics::Shard_sample> samples;
    samples.reserve(retired_.size() + static_cast<std::size_t>(n_shards()));
    for (const Retired_group& retired : retired_) {
        samples.push_back(retired.sample);
        if (retired.sink != nullptr) samples.back().telemetry = retired.sink->snapshot();
    }
    for (int s = 0; s < n_shards(); ++s) samples.push_back(harvest(s));
    metrics::Fabric_metrics out = metrics::aggregate_shards(std::move(samples));
    if (fabric_sink_ != nullptr) {
        telemetry::merge_into(out.telemetry, fabric_sink_->snapshot());
    }
    return out;
}

void Fabric::for_each_sink(const std::function<void(const telemetry::Telemetry_sink&,
                                                    const std::vector<common::Agent_id>&)>& visit)
    const
{
    for (const Retired_group& retired : retired_) {
        if (retired.sink != nullptr) visit(*retired.sink, retired.members);
    }
    for (int s = 0; s < n_shards(); ++s) {
        const auto& sink = shards_[static_cast<std::size_t>(s)].sink;
        if (sink != nullptr) visit(*sink, plan_.map().members(s));
    }
}

telemetry::Report Fabric::telemetry_report() const
{
    telemetry::Report report;
    if (fabric_sink_ != nullptr) report.fabric = fabric_sink_->snapshot();
    for_each_sink([&report](const telemetry::Telemetry_sink& sink, const auto&) {
        report.shards.push_back({sink.scope().shard, sink.scope().epoch, sink.snapshot()});
    });
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
    std::vector<telemetry::Evidence> chains;
    for_each_sink([&chains, global](const telemetry::Telemetry_sink& sink,
                                    const std::vector<common::Agent_id>& members) {
        for (const telemetry::Evidence& ev : sink.evidence()) {
            // Local slot ids are stable across carries and merge relabels, so
            // the group's member list maps each slot to its global id.
            if (members[static_cast<std::size_t>(ev.agent)] != global) continue;
            chains.push_back(ev);
            chains.back().agent = global;
        }
    });
    return chains;
}

telemetry::Trace_report Fabric::trace_report() const
{
    telemetry::Trace_report report;
    if (fabric_sink_ != nullptr && fabric_sink_->tracer() != nullptr) {
        report.fabric = fabric_sink_->tracer()->spans();
    }
    for_each_sink([&report](const telemetry::Telemetry_sink& sink, const auto&) {
        if (sink.tracer() == nullptr || sink.tracer()->empty()) return;
        report.shards.push_back({sink.scope().shard, sink.scope().epoch, sink.tracer()->spans()});
    });
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
    for (const Shard& shard : shards_) {
        if (shard.sink != nullptr) watchdog_->observe(*shard.sink);
    }
}

} // namespace ga::shard
