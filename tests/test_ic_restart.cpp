// Ic_session::restart: a restarted session is indistinguishable from a fresh
// one on the same (n, f, self, input), for both substrates, whatever state
// the previous activation left behind (finished, cut short, or driven
// through an arbitrary call pattern) — checked message by message against a
// fresh twin over consecutive activations. At group level, a replica group
// that restarts its sessions matches one that builds a fresh session per
// activation, and stays bit-identical across executor widths now that
// sessions keep their buffers from one pulse to the next.
#include <gtest/gtest.h>

#include <string>

#include "authority/agent.h"
#include "authority/punishment.h"
#include "bft/attackers.h"
#include "bft/driver.h"
#include "bft/eig.h"
#include "bft/ic_select.h"
#include "bft/parallel_ic.h"
#include "pipeline/pipeline_authority.h"

namespace {

using namespace ga;
using namespace ga::bft;
using common::Bytes;
using common::Processor_id;
using common::Rng;
using common::Round;

enum class Substrate { eig, parallel };

std::unique_ptr<Ic_session> make_session(Substrate substrate, int n, int f, Processor_id self,
                                         Value input)
{
    if (substrate == Substrate::eig)
        return std::make_unique<Eig_session>(n, f, self, std::move(input));
    return std::make_unique<Parallel_ic_session>(n, f, self, std::move(input));
}

Value tagged(const char* prefix, std::uint64_t i)
{
    std::string text = prefix;
    text += std::to_string(i);
    return common::bytes_of(text);
}

/// A restarted session and a fresh twin on the same calls: identical
/// payloads, completion and outputs at every step.
class Restart_lockstep final : public Ic_session {
public:
    Restart_lockstep(std::unique_ptr<Ic_session> restarted, std::unique_ptr<Ic_session> fresh)
        : restarted_{std::move(restarted)}, fresh_{std::move(fresh)}
    {
        EXPECT_EQ(restarted_->total_rounds(), fresh_->total_rounds());
        EXPECT_EQ(restarted_->done(), fresh_->done());
    }

    Round total_rounds() const override { return fresh_->total_rounds(); }
    bool done() const override { return restarted_->done(); }

    void append_message_for_round(Round r, Bytes& out) override
    {
        const std::size_t start = out.size();
        restarted_->append_message_for_round(r, out);
        const Bytes payload(out.begin() + static_cast<std::ptrdiff_t>(start), out.end());
        const Bytes expected = fresh_->message_for_round(r);
        EXPECT_TRUE(payload == expected)
            << "round " << r << ": " << payload.size() << " vs " << expected.size() << " bytes";
    }

    void deliver_round(Round r, const Round_payloads& payloads) override
    {
        restarted_->deliver_round(r, payloads);
        fresh_->deliver_round(r, payloads);
        EXPECT_EQ(restarted_->done(), fresh_->done()) << "round " << r;
    }

    Value decision() const override
    {
        Value decided = restarted_->decision();
        EXPECT_EQ(decided, fresh_->decision());
        return decided;
    }

    const std::vector<Value>& agreed_vector() const override
    {
        EXPECT_EQ(restarted_->agreed_vector(), fresh_->agreed_vector());
        return restarted_->agreed_vector();
    }

    void restart(Value input) override
    {
        restarted_->restart(input);
        fresh_->restart(std::move(input));
    }

    std::unique_ptr<Ic_session> release() { return std::move(restarted_); }

private:
    std::unique_ptr<Ic_session> restarted_;
    std::unique_ptr<Ic_session> fresh_;
};

enum class History { finished, unfinished, chaotic };

/// Leaves `session` in the state a previous activation of kind `history`
/// would: every round run on a mix of echoed, garbage and missing payloads,
/// the rounds cut short, or an arbitrary call pattern including
/// out-of-schedule rounds.
void run_history(Ic_session& session, int n, History history, Rng& rng)
{
    const Round rounds = session.total_rounds();
    std::vector<std::optional<Bytes>> owned(static_cast<std::size_t>(n));
    Round_payloads views(static_cast<std::size_t>(n));
    const auto deliver = [&](Round r, const Bytes& own) {
        for (std::size_t j = 0; j < owned.size(); ++j) {
            const auto pick = rng.below(4);
            owned[j].reset();
            if (pick <= 1) owned[j] = own;
            if (pick == 2) {
                Bytes garbage(static_cast<std::size_t>(rng.below(40)));
                for (auto& byte : garbage) byte = static_cast<std::uint8_t>(rng.below(256));
                owned[j] = std::move(garbage);
            }
            views[j].reset();
            if (owned[j].has_value()) views[j] = *owned[j];
        }
        session.deliver_round(r, views);
    };
    if (history == History::chaotic) {
        for (int call = 0; call < 12; ++call) {
            const auto r =
                static_cast<Round>(rng.below(static_cast<std::uint64_t>(rounds + 2))) - 1;
            const Bytes own = session.message_for_round(r);
            if (rng.chance(0.7)) deliver(r, own);
        }
        return;
    }
    const Round stop =
        history == History::finished
            ? rounds
            : 1 + static_cast<Round>(rng.below(static_cast<std::uint64_t>(rounds - 1)));
    for (Round r = 0; r < stop; ++r) deliver(r, session.message_for_round(r));
    if (history == History::finished) {
        EXPECT_TRUE(session.done());
    }
}

struct Restart_param {
    Substrate substrate;
    int n;
    int f;
    History history;
};

std::string restart_param_name(const ::testing::TestParamInfo<Restart_param>& info)
{
    static constexpr const char* histories[] = {"finished", "unfinished", "chaotic"};
    std::string name = info.param.substrate == Substrate::eig ? "eig" : "parallel";
    name += "_n" + std::to_string(info.param.n) + "_f" + std::to_string(info.param.f) + "_";
    name += histories[static_cast<int>(info.param.history)];
    return name;
}

class Ic_restart : public ::testing::TestWithParam<Restart_param> {};

TEST_P(Ic_restart, RestartedMatchesFreshEveryRound)
{
    const auto [substrate, n, f, history] = GetParam();
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Rng rng{seed * 977 + static_cast<std::uint64_t>(n)};
        const auto honest = static_cast<std::size_t>(n - f);
        // The honest slots' sessions, carried from activation to activation.
        std::vector<std::unique_ptr<Ic_session>> reused(honest);
        for (std::size_t i = 0; i < honest; ++i) {
            reused[i] = make_session(substrate, n, f, static_cast<Processor_id>(i),
                                     tagged("old-", i));
            run_history(*reused[i], n, history, rng);
        }
        for (int activation = 0; activation < 3; ++activation) {
            std::vector<Participant> ps(static_cast<std::size_t>(n));
            for (int i = 0; i < n; ++i) {
                const auto slot = static_cast<std::size_t>(i);
                if (slot >= honest) {
                    const Session_factory shadow = [substrate, n, f, i](Value input) {
                        return make_session(substrate, n, f, i, std::move(input));
                    };
                    if ((seed + static_cast<std::uint64_t>(activation)) % 2 == 0) {
                        ps[slot].attacker = std::make_unique<Garbage_attacker>(Rng{seed + slot});
                    } else {
                        ps[slot].attacker = std::make_unique<Split_brain_attacker>(
                            shadow, tagged("evil-a", slot), tagged("evil-b", slot),
                            static_cast<Processor_id>(n / 2));
                    }
                    continue;
                }
                // Two inputs, so some slots decide by majority and the
                // reduction sees competing values.
                const Value input =
                    tagged("in-", (slot + seed + static_cast<std::uint64_t>(activation)) % 2);
                reused[slot]->restart(input);
                ps[slot].session = std::make_unique<Restart_lockstep>(
                    std::move(reused[slot]), make_session(substrate, n, f, i, input));
            }
            const Drive_result result = drive(ps);
            for (std::size_t i = 0; i < honest; ++i) {
                ASSERT_TRUE(result.decisions[i].has_value()); // decision() compared both
                auto& lockstep = dynamic_cast<Restart_lockstep&>(*ps[i].session);
                static_cast<void>(lockstep.agreed_vector());
                reused[i] = lockstep.release();
            }
            if (HasFailure()) {
                ADD_FAILURE() << "seed " << seed << " activation " << activation;
                return;
            }
        }
    }
}

TEST_P(Ic_restart, RestartedMatchesFreshUnderArbitraryCalls)
{
    // Out-of-schedule calls after a restart (a transient fault can leave
    // any call pattern behind) must meet the restarted session in exactly
    // the state a fresh one would be in.
    const auto [substrate, n, f, history] = GetParam();
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Rng rng{seed * 131 + static_cast<std::uint64_t>(n)};
        auto restarted = make_session(substrate, n, f, 0, tagged("old-", seed));
        run_history(*restarted, n, history, rng);
        restarted->restart(tagged("new-", seed));
        Restart_lockstep lockstep{std::move(restarted),
                                  make_session(substrate, n, f, 0, tagged("new-", seed))};
        run_history(lockstep, n, History::chaotic, rng);
        if (lockstep.done()) static_cast<void>(lockstep.agreed_vector());
        if (HasFailure()) {
            ADD_FAILURE() << "seed " << seed;
            return;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Ic_restart,
    ::testing::ValuesIn([] {
        std::vector<Restart_param> grid;
        for (const History history : {History::finished, History::unfinished, History::chaotic}) {
            for (const auto& [n, f] : std::vector<std::pair<int, int>>{{4, 1}, {7, 2}, {12, 1}})
                grid.push_back({Substrate::eig, n, f, history});
            for (const auto& [n, f] : std::vector<std::pair<int, int>>{{5, 1}, {9, 2}, {16, 2}})
                grid.push_back({Substrate::parallel, n, f, history});
        }
        return grid;
    }()),
    restart_param_name);

TEST(IcRestart, RestartOfAnUnfinishedSessionForgetsItsTable)
{
    // Cut an activation short right after its first deliveries, restart
    // with another input and run the rest alone: the outputs carry only
    // the new activation's values.
    for (const Substrate substrate : {Substrate::eig, Substrate::parallel}) {
        const int n = 5;
        const int f = 1;
        std::vector<Participant> ps(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            auto session =
                make_session(substrate, n, f, i, tagged("stale-", static_cast<std::uint64_t>(i)));
            Round_payloads none(static_cast<std::size_t>(n));
            const Bytes own = session->message_for_round(0);
            none[static_cast<std::size_t>(i)] = own;
            session->deliver_round(0, none);
            session->restart(tagged("new-", static_cast<std::uint64_t>(i)));
            EXPECT_FALSE(session->done());
            ps[static_cast<std::size_t>(i)].session = std::move(session);
        }
        drive(ps);
        for (int i = 0; i < n; ++i) {
            const auto& vec = dynamic_cast<Ic_session&>(*ps[static_cast<std::size_t>(i)].session)
                                  .agreed_vector();
            for (int j = 0; j < n; ++j)
                EXPECT_EQ(vec[static_cast<std::size_t>(j)],
                          tagged("new-", static_cast<std::uint64_t>(j)));
        }
    }
}

// ------------------------------------------------------------ group level

/// Wraps a factory's sessions so that restart() builds a fresh session: the
/// per-activation construction the pipeline used before sessions restarted
/// in place.
class Fresh_on_restart final : public Ic_session {
public:
    Fresh_on_restart(Ic_factory make, int n, int f, Processor_id self, Value input)
        : make_{std::move(make)},
          n_{n},
          f_{f},
          self_{self},
          inner_{make_(n, f, self, std::move(input))}
    {
    }

    Round total_rounds() const override { return inner_->total_rounds(); }
    void append_message_for_round(Round r, Bytes& out) override
    {
        inner_->append_message_for_round(r, out);
    }
    void deliver_round(Round r, const Round_payloads& payloads) override
    {
        inner_->deliver_round(r, payloads);
    }
    bool done() const override { return inner_->done(); }
    Value decision() const override { return inner_->decision(); }
    const std::vector<Value>& agreed_vector() const override { return inner_->agreed_vector(); }
    void restart(Value input) override { inner_ = make_(n_, f_, self_, std::move(input)); }

private:
    Ic_factory make_;
    int n_;
    int f_;
    Processor_id self_;
    std::unique_ptr<Ic_session> inner_;
};

Ic_factory fresh_per_activation(Ic_factory make)
{
    return [make](int n, int f, Processor_id self, Value input) -> std::unique_ptr<Ic_session> {
        return std::make_unique<Fresh_on_restart>(make, n, f, self, std::move(input));
    };
}

/// Two-action game where action 1 strictly dominates (cost 1 vs 2).
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

/// A group with a babbler in slot 1 and a cheater in slot 3, fined and
/// never expelled.
pipeline::Pipeline_authority make_group(int n, int f, int k, Ic_factory ic)
{
    authority::Game_spec spec;
    spec.name = "dominant";
    spec.game = std::make_shared<Dominant_game>(n);
    spec.equilibrium.assign(static_cast<std::size_t>(n), {0.0, 1.0});
    std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors;
    for (int i = 0; i < n; ++i) {
        if (i == 1) {
            behaviors.push_back(nullptr);
        } else if (i == 3) {
            behaviors.push_back(std::make_unique<authority::Fixed_action_behavior>(0));
        } else {
            behaviors.push_back(std::make_unique<authority::Honest_behavior>());
        }
    }
    return pipeline::Pipeline_authority{
        spec, f, k, std::move(behaviors), {1},
        [] { return std::make_unique<authority::Fine_scheme>(1.0, 1e9); }, Rng{11}, {},
        std::move(ic)};
}

struct Group_run {
    std::vector<authority::Play_record> plays;
    std::vector<authority::Standing> standings;
    sim::Traffic_stats traffic;
};

Group_run harvest(const pipeline::Pipeline_authority& group)
{
    return {group.agreed_plays(), group.agreed_standings(), group.traffic()};
}

/// Six plays, a transient fault (sessions die and the factory rebuilds
/// them), then a fixed tail of pulses and four more plays.
Group_run run_group(int n, int f, int k, Ic_factory ic, int threads)
{
    pipeline::Pipeline_authority group = make_group(n, f, k, std::move(ic));
    group.engine().set_threads(threads);
    group.run_plays(6);
    group.inject_transient_fault();
    group.run_pulses(400);
    group.run_plays(4);
    return harvest(group);
}

/// Pulses after which a post-fault pair gives up waiting for plays to
/// resume; the randomized clock's re-convergence time is unbounded.
constexpr common::Pulse k_resume_cap = 20'000;

/// Two groups that differ only in their Ic_factory, run in lockstep: six
/// plays, a transient fault, then both step pulse by pulse until each has
/// agreed a play past the pre-fault count (at most k_resume_cap pulses),
/// then four more plays' worth of pulses. `resumed_after` is the pulses
/// stepped until the first post-fault play, or -1 when the cap was reached.
/// A first play is not a converged clock: the plays after it may stall.
std::pair<Group_run, Group_run> run_pair_through_fault(int n, int f, int k, Ic_factory a,
                                                       Ic_factory b,
                                                       common::Pulse& resumed_after)
{
    pipeline::Pipeline_authority first = make_group(n, f, k, std::move(a));
    pipeline::Pipeline_authority second = make_group(n, f, k, std::move(b));
    first.run_plays(6);
    second.run_plays(6);
    const std::size_t before = first.agreed_plays().size();
    first.inject_transient_fault();
    second.inject_transient_fault();
    resumed_after = -1;
    for (common::Pulse pulse = 1; pulse <= k_resume_cap; ++pulse) {
        first.run_pulses(1);
        second.run_pulses(1);
        if (first.agreed_plays().size() > before && second.agreed_plays().size() > before) {
            resumed_after = pulse;
            break;
        }
    }
    first.run_plays(4);
    second.run_plays(4);
    return {harvest(first), harvest(second)};
}

void expect_same_run(const Group_run& a, const Group_run& b)
{
    EXPECT_EQ(a.plays, b.plays);
    EXPECT_EQ(a.standings, b.standings);
    EXPECT_TRUE(a.traffic == b.traffic);
}

TEST(IcRestart, GroupMatchesAFreshSessionPerActivation)
{
    common::Pulse resumed_after = -1;
    const auto [eig, eig_fresh] =
        run_pair_through_fault(7, 2, 1, ic_eig(), fresh_per_activation(ic_eig()), resumed_after);
    ASSERT_GE(resumed_after, 0) << "EIG (7, 2): no play within " << k_resume_cap
                                << " pulses after the fault";
    RecordProperty("eig_resume_pulses", static_cast<int>(resumed_after));
    expect_same_run(eig, eig_fresh);

    const auto [parallel, parallel_fresh] =
        run_pair_through_fault(9, 2, 2, ic_parallel_phase_king(),
                               fresh_per_activation(ic_parallel_phase_king()), resumed_after);
    ASSERT_GE(resumed_after, 0) << "parallel IC (9, 2): no play within " << k_resume_cap
                                << " pulses after the fault";
    RecordProperty("parallel_resume_pulses", static_cast<int>(resumed_after));
    expect_same_run(parallel, parallel_fresh);
}

TEST(IcRestart, GroupIsIdenticalAtExecutorWidthFourAndOne)
{
    expect_same_run(run_group(16, 2, 1, ic_parallel_phase_king(), 4),
                    run_group(16, 2, 1, ic_parallel_phase_king(), 1));
    expect_same_run(run_group(12, 1, 1, ic_eig(), 4), run_group(12, 1, 1, ic_eig(), 1));
}

} // namespace
