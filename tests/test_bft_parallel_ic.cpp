// Parallel interactive consistency (polynomial IC over Turpin-Coan/phase-king):
// honest slots carry real inputs, full-vector agreement, attacker sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "bft/attackers.h"
#include "bft/driver.h"
#include "bft/parallel_ic.h"
#include "bft/phase_king.h"
#include "bft/turpin_coan.h"
#include "common/ensure.h"

namespace {

using namespace ga::bft;
using ga::common::bytes_of;
using ga::common::Processor_id;
using ga::common::Rng;

std::unique_ptr<Session> make_ic(int n, int f, Processor_id self, Value input)
{
    return std::make_unique<Parallel_ic_session>(n, f, self, std::move(input));
}

/// bytes_of(prefix followed by i), appended piecewise: GCC 12 flags
/// "lit" + std::to_string with a false -Wrestrict in optimized builds.
Value tagged(const char* prefix, int i)
{
    std::string text = prefix;
    text += std::to_string(i);
    return bytes_of(text);
}

const Parallel_ic_session& as_ic(const Participant& p)
{
    return dynamic_cast<const Parallel_ic_session&>(*p.session);
}

TEST(ParallelIc, RoundCountIsInnerPlusOne)
{
    Parallel_ic_session session{5, 1, 0, bytes_of("x")};
    EXPECT_EQ(session.total_rounds(), 1 + 1 + 2 * 2); // dissemination, echo, phase king
}

TEST(ParallelIc, RejectsNAtMostFourFAtConstruction)
{
    // Phase king's n > 4f is checked when the session is built, not first
    // when its round count is asked for.
    EXPECT_THROW((Parallel_ic_session{8, 2, 0, bytes_of("x")}), ga::common::Contract_error);
    EXPECT_NO_THROW((Parallel_ic_session{9, 2, 0, bytes_of("x")}));
}

TEST(ParallelIc, AllHonestVectorCarriesEveryInput)
{
    const int n = 5;
    const int f = 1;
    std::vector<Participant> ps(n);
    for (int i = 0; i < n; ++i)
        ps[static_cast<std::size_t>(i)].session = make_ic(n, f, i, tagged("v", i));
    drive(ps);
    for (int i = 0; i < n; ++i) {
        const auto& vec = as_ic(ps[static_cast<std::size_t>(i)]).agreed_vector();
        ASSERT_EQ(static_cast<int>(vec.size()), n);
        for (int j = 0; j < n; ++j)
            EXPECT_EQ(vec[static_cast<std::size_t>(j)], tagged("v", j));
    }
}

TEST(ParallelIc, HonestSlotsSurviveGarbageAttacker)
{
    const int n = 5;
    const int f = 1;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        std::vector<Participant> ps(n);
        for (int i = 0; i < n - 1; ++i)
            ps[static_cast<std::size_t>(i)].session =
                make_ic(n, f, i, tagged("in", i));
        ps[n - 1].attacker = std::make_unique<Garbage_attacker>(Rng{seed});
        drive(ps);
        const std::vector<Value>* reference = nullptr;
        for (int i = 0; i < n - 1; ++i) {
            const auto& vec = as_ic(ps[static_cast<std::size_t>(i)]).agreed_vector();
            for (int j = 0; j < n - 1; ++j)
                EXPECT_EQ(vec[static_cast<std::size_t>(j)], tagged("in", j));
            if (reference == nullptr) {
                reference = &vec;
            } else {
                EXPECT_EQ(vec, *reference); // byzantine slot also agreed
            }
        }
    }
}

TEST(ParallelIc, SplitBrainCannotBreakVectorAgreement)
{
    const int n = 5;
    const int f = 1;
    const Session_factory shadow = [&](Value input) { return make_ic(n, f, 4, std::move(input)); };
    for (int split = 1; split < n; ++split) {
        std::vector<Participant> ps(n);
        for (int i = 0; i < n - 1; ++i)
            ps[static_cast<std::size_t>(i)].session =
                make_ic(n, f, i, tagged("w", i));
        ps[n - 1].attacker = std::make_unique<Split_brain_attacker>(shadow, bytes_of("evil-a"),
                                                                    bytes_of("evil-b"),
                                                                    static_cast<Processor_id>(split));
        drive(ps);
        const std::vector<Value>* reference = nullptr;
        for (int i = 0; i < n - 1; ++i) {
            const auto& vec = as_ic(ps[static_cast<std::size_t>(i)]).agreed_vector();
            if (reference == nullptr) {
                reference = &vec;
            } else {
                EXPECT_EQ(vec, *reference) << "split=" << split;
            }
        }
    }
}

TEST(ParallelIc, ConsensusDecisionIsMajorityValue)
{
    const int n = 5;
    const int f = 1;
    std::vector<Participant> ps(n);
    for (int i = 0; i < n; ++i)
        ps[static_cast<std::size_t>(i)].session = make_ic(n, f, i, bytes_of(i < 3 ? "maj" : "min"));
    const Drive_result result = drive(ps);
    for (const auto& d : result.decisions) EXPECT_EQ(*d, bytes_of("maj"));
}

TEST(ParallelIc, LargerSystemWithTwoAttackers)
{
    const int n = 9;
    const int f = 2;
    std::vector<Participant> ps(n);
    for (int i = 0; i < n - 2; ++i)
        ps[static_cast<std::size_t>(i)].session = make_ic(n, f, i, tagged("x", i));
    ps[n - 2].attacker = std::make_unique<Garbage_attacker>(Rng{3});
    ps[n - 1].attacker = std::make_unique<Silent_attacker>();
    drive(ps);
    const std::vector<Value>* reference = nullptr;
    for (int i = 0; i < n - 2; ++i) {
        const auto& vec = as_ic(ps[static_cast<std::size_t>(i)]).agreed_vector();
        for (int j = 0; j < n - 2; ++j)
            EXPECT_EQ(vec[static_cast<std::size_t>(j)], tagged("x", j));
        if (reference == nullptr) {
            reference = &vec;
        } else {
            EXPECT_EQ(vec, *reference);
        }
    }
}


// ------------------------------- standalone-instance reference (differential)

namespace differential {

using ga::common::Byte_reader;
using ga::common::Byte_view;
using ga::common::Bytes;
using ga::common::Round;

std::unique_ptr<Session> make_phase_king(int n, int f, Processor_id self, int input)
{
    return std::make_unique<Phase_king_session>(n, f, self, input);
}

/// Parallel IC spelled out as the composition Parallel_ic_session fuses: a
/// dissemination round, then n standalone Turpin_coan_session-over-
/// Phase_king_session instances whose round messages travel as
/// length-prefixed sections of one payload.
class Standalone_ic {
public:
    Standalone_ic(int n, int f, Processor_id self, Value input)
        : n_{n}, f_{f}, self_{self}, input_{std::move(input)}
    {
    }

    Bytes message_for_round(Round r)
    {
        Bytes payload;
        if (r == 0) {
            ga::common::put_bytes(payload, input_);
            return payload;
        }
        if (instances_.empty()) return payload;
        for (auto& instance : instances_)
            ga::common::put_bytes(payload, instance->message_for_round(r - 1));
        return payload;
    }

    void deliver_round(Round r, const Round_payloads& payloads)
    {
        if (done_ || r < 0) return;
        const auto n = static_cast<std::size_t>(n_);
        if (r == 0) {
            instances_.clear();
            for (std::size_t j = 0; j < n; ++j) {
                Value seed;
                if (static_cast<int>(j) == self_) {
                    seed = input_;
                } else if (payloads[j].has_value()) {
                    Byte_reader reader{*payloads[j]};
                    Byte_view value;
                    if (reader.try_get_view(value) && reader.exhausted())
                        seed.assign(value.begin(), value.end());
                }
                instances_.push_back(std::make_unique<Turpin_coan_session>(
                    n_, f_, self_, std::move(seed), make_phase_king));
            }
            return;
        }
        if (instances_.empty()) return;
        // A sender whose payload does not split into exactly n sections is
        // missing for every instance.
        std::vector<Round_payloads> per_instance(n, Round_payloads(n));
        for (std::size_t sender = 0; sender < n; ++sender) {
            if (!payloads[sender].has_value()) continue;
            Byte_reader reader{*payloads[sender]};
            std::vector<Byte_view> sections(n);
            bool ok = true;
            for (std::size_t j = 0; ok && j < n; ++j) ok = reader.try_get_view(sections[j]);
            if (!ok || !reader.exhausted()) continue;
            for (std::size_t j = 0; j < n; ++j) per_instance[j][sender] = sections[j];
        }
        for (std::size_t j = 0; j < n; ++j) instances_[j]->deliver_round(r - 1, per_instance[j]);
        if (instances_.front()->done()) {
            done_ = true;
            agreed_.clear();
            for (const auto& instance : instances_) agreed_.push_back(instance->decision());
        }
    }

    [[nodiscard]] bool done() const { return done_; }
    [[nodiscard]] const std::vector<Value>& agreed_vector() const { return agreed_; }

    /// Most frequent non-bottom slot, ties to the lexicographically smallest.
    [[nodiscard]] Value decision() const
    {
        std::map<Value, int, Value_order> votes;
        for (const Value& value : agreed_)
            if (!value.empty()) ++votes[value];
        Value best;
        int best_count = 0;
        for (const auto& [value, count] : votes) {
            if (count > best_count) {
                best = value;
                best_count = count;
            }
        }
        return best;
    }

private:
    int n_;
    int f_;
    Processor_id self_;
    Value input_;
    std::vector<std::unique_ptr<Session>> instances_;
    std::vector<Value> agreed_;
    bool done_ = false;
};

/// Runs Parallel_ic_session and the standalone composition on the same
/// calls and expects identical payloads, completion and outputs.
class Lockstep_ic final : public Ic_session {
public:
    Lockstep_ic(int n, int f, Processor_id self, const Value& input)
        : n_{n}, f_{f}, self_{self}, fused_{n, f, self, input}, reference_{n, f, self, input}
    {
    }

    Round total_rounds() const override { return fused_.total_rounds(); }
    bool done() const override { return fused_.done(); }

    void restart(Value input) override
    {
        fused_.restart(input);
        reference_ = Standalone_ic{n_, f_, self_, std::move(input)};
    }

    void append_message_for_round(Round r, Bytes& out) override
    {
        const std::size_t start = out.size();
        fused_.append_message_for_round(r, out);
        const Bytes payload(out.begin() + static_cast<std::ptrdiff_t>(start), out.end());
        const Bytes expected = reference_.message_for_round(r);
        EXPECT_TRUE(payload == expected)
            << "round " << r << ": " << payload.size() << " vs " << expected.size() << " bytes";
    }

    void deliver_round(Round r, const Round_payloads& payloads) override
    {
        fused_.deliver_round(r, payloads);
        reference_.deliver_round(r, payloads);
        EXPECT_EQ(fused_.done(), reference_.done()) << "round " << r;
    }

    Value decision() const override
    {
        Value decided = fused_.decision();
        EXPECT_EQ(decided, reference_.decision());
        return decided;
    }

    const std::vector<Value>& agreed_vector() const override
    {
        EXPECT_EQ(fused_.agreed_vector(), reference_.agreed_vector());
        return fused_.agreed_vector();
    }

private:
    int n_;
    int f_;
    Processor_id self_;
    Parallel_ic_session fused_;
    Standalone_ic reference_;
};

/// Honest traffic cut short at a random length (including to nothing).
class Truncating_attacker final : public Attacker {
public:
    Truncating_attacker(const Session_factory& make_session, Value input, Rng rng)
        : inner_{make_session(std::move(input))}, rng_{rng}
    {
    }

    std::optional<Bytes> message_for(Round r, Processor_id) override
    {
        if (r != cached_round_) {
            cached_ = inner_->message_for_round(r);
            cached_round_ = r;
        }
        Bytes payload = cached_;
        if (!payload.empty()) payload.resize(static_cast<std::size_t>(rng_.below(payload.size())));
        return payload;
    }

    void deliver_round(Round r, const Round_payloads& payloads) override
    {
        inner_->deliver_round(r, payloads);
    }

private:
    std::unique_ptr<Session> inner_;
    Rng rng_;
    Round cached_round_ = -1;
    Bytes cached_;
};

/// Honest traffic with one to three random bytes appended.
class Trailing_attacker final : public Attacker {
public:
    Trailing_attacker(const Session_factory& make_session, Value input, Rng rng)
        : inner_{make_session(std::move(input))}, rng_{rng}
    {
    }

    std::optional<Bytes> message_for(Round r, Processor_id) override
    {
        if (r != cached_round_) {
            cached_ = inner_->message_for_round(r);
            cached_round_ = r;
        }
        Bytes payload = cached_;
        const auto extra = 1 + rng_.below(3);
        for (std::uint64_t i = 0; i < extra; ++i)
            payload.push_back(static_cast<std::uint8_t>(rng_.below(256)));
        return payload;
    }

    void deliver_round(Round r, const Round_payloads& payloads) override
    {
        inner_->deliver_round(r, payloads);
    }

private:
    std::unique_ptr<Session> inner_;
    Rng rng_;
    Round cached_round_ = -1;
    Bytes cached_;
};

std::unique_ptr<Attacker> make_attacker(const std::string& kind, int n, int f, int slot,
                                        std::uint64_t seed)
{
    const Session_factory factory = [n, f, slot](Value input) {
        return std::make_unique<Parallel_ic_session>(n, f, slot, std::move(input));
    };
    if (kind == "silent") return std::make_unique<Silent_attacker>();
    if (kind == "garbage") return std::make_unique<Garbage_attacker>(Rng{seed});
    if (kind == "split-brain")
        return std::make_unique<Split_brain_attacker>(factory, bytes_of("evil-a"),
                                                      bytes_of("evil-b"),
                                                      static_cast<Processor_id>(n / 2));
    if (kind == "mutating")
        return std::make_unique<Mutating_attacker>(factory, bytes_of("mut"), Rng{seed}, 0.05);
    if (kind == "truncated")
        return std::make_unique<Truncating_attacker>(factory, bytes_of("cut"), Rng{seed});
    if (kind == "trailing")
        return std::make_unique<Trailing_attacker>(factory, bytes_of("tail"), Rng{seed});
    throw std::runtime_error("unknown attacker kind");
}

struct Grid_param {
    int n;
    int f;
    const char* attacker;
};

class Parallel_ic_differential : public ::testing::TestWithParam<Grid_param> {};

TEST_P(Parallel_ic_differential, MatchesStandaloneInstancesEveryRound)
{
    const auto [n, f, attacker] = GetParam();
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        // Odd seeds put the attackers first, among the phase kings; even
        // seeds put them last.
        const auto is_attacker = [&](int i) { return seed % 2 == 1 ? i < f : i >= n - f; };
        std::vector<Participant> ps(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            const auto slot = static_cast<std::size_t>(i);
            if (is_attacker(i)) {
                ps[slot].attacker = make_attacker(attacker, n, f, i, seed * 31 + slot);
            } else {
                // Three distinct inputs, shuffled by the seed, so the
                // decision reduction sees ties and majorities.
                const char tag = "abc"[(static_cast<std::uint64_t>(i) * seed) % 3];
                ps[slot].session =
                    std::make_unique<Lockstep_ic>(n, f, i, bytes_of(std::string(1, tag)));
            }
        }
        const Drive_result result = drive(ps);
        for (int i = 0; i < n; ++i) {
            const auto slot = static_cast<std::size_t>(i);
            if (is_attacker(i)) continue;
            ASSERT_TRUE(result.decisions[slot].has_value()); // decision() compared both
            static_cast<void>(dynamic_cast<Ic_session&>(*ps[slot].session).agreed_vector());
        }
        if (HasFailure()) {
            ADD_FAILURE() << attacker << " seed " << seed;
            return;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Parallel_ic_differential,
    ::testing::ValuesIn([] {
        std::vector<Grid_param> grid;
        for (const auto& [n, f] :
             std::vector<std::pair<int, int>>{{5, 1}, {9, 2}, {16, 2}, {13, 3}})
            for (const char* attacker :
                 {"silent", "garbage", "split-brain", "mutating", "truncated", "trailing"})
                grid.push_back(Grid_param{n, f, attacker});
        return grid;
    }()),
    [](const ::testing::TestParamInfo<Grid_param>& info) {
        std::string name = "n" + std::to_string(info.param.n) + "_f" +
                           std::to_string(info.param.f) + "_" + info.param.attacker;
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

/// One sender's round-r payload drawn at random but well formed: a value
/// for round 0, then one length-prefixed section per instance — a tagged
/// value or bottom in the reduction rounds, a bit (or nothing, or two
/// bytes) in the phase-king rounds. Instance j's votes lean towards one
/// value with a per-instance bias, so quorums, pluralities, weak and
/// overwhelming majorities and decisive kings all occur.
Bytes random_traffic(Rng& rng, int n, Round r, const std::vector<double>& lean)
{
    static const char* values[] = {"p", "q", ""};
    Bytes payload;
    if (r == 0) {
        ga::common::put_bytes(payload, bytes_of(values[rng.below(3)]));
        return payload;
    }
    for (int j = 0; j < n; ++j) {
        const bool lean_j = rng.chance(lean[static_cast<std::size_t>(j)]);
        Bytes section;
        if (r <= 2) {
            if (!rng.chance(0.15))
                put_tagged(section, bytes_of(lean_j ? "p" : values[1 + rng.below(2)]));
            else
                put_tagged(section, std::nullopt);
            if (rng.chance(0.05)) section.push_back(7); // trailing byte: no vote
        } else {
            const auto shape = rng.below(10);
            if (shape < 8) put_bit(section, lean_j ? 1 : 0);
            if (shape == 9) section = {1, 0};
        }
        ga::common::put_bytes(payload, section);
    }
    return payload;
}

TEST(ParallelIcDifferential, RandomWellFormedTrafficMatchesStandaloneInstances)
{
    // No execution of honest processors produces this traffic; it drives
    // every per-instance rule, the king's adoption included, through
    // inputs where the instances disagree with each other. Each session is
    // restarted for three activations, so an instance that decides bottom
    // after deciding a value shows any value a restart failed to clear.
    for (const auto& [n, f] : std::vector<std::pair<int, int>>{{5, 1}, {9, 2}, {13, 3}}) {
        for (std::uint64_t seed = 1; seed <= 40; ++seed) {
            Rng rng{seed * 7919 + static_cast<std::uint64_t>(n)};
            const auto self = static_cast<Processor_id>(rng.below(static_cast<std::uint64_t>(n)));
            Lockstep_ic session{n, f, self, bytes_of("p")};
            std::vector<std::optional<Bytes>> owned(static_cast<std::size_t>(n));
            Round_payloads views(static_cast<std::size_t>(n));
            for (int activation = 0; activation < 3; ++activation) {
                if (activation > 0) session.restart(bytes_of(activation == 1 ? "q" : "p"));
                std::vector<double> lean;
                for (int j = 0; j < n; ++j)
                    lean.push_back(0.2 + 0.2 * static_cast<double>(rng.below(4)));
                for (Round r = 0; r < session.total_rounds(); ++r) {
                    const Bytes own = session.message_for_round(r);
                    for (int s = 0; s < n; ++s) {
                        const auto slot = static_cast<std::size_t>(s);
                        owned[slot].reset();
                        if (s == self) {
                            owned[slot] = own;
                        } else if (!rng.chance(0.1)) {
                            owned[slot] = random_traffic(rng, n, r, lean);
                        }
                        views[slot].reset();
                        if (owned[slot].has_value()) views[slot] = *owned[slot];
                    }
                    session.deliver_round(r, views);
                }
                ASSERT_TRUE(session.done());
                static_cast<void>(session.agreed_vector()); // compares both
                static_cast<void>(session.decision());
                if (HasFailure()) {
                    ADD_FAILURE() << "n " << n << " seed " << seed << " activation "
                                  << activation;
                    return;
                }
            }
        }
    }
}

TEST(ParallelIcDifferential, RandomCallSequencesMatchStandaloneInstances)
{
    // Out-of-schedule calls (repeated, skipped, early, late and
    // out-of-range rounds) after a transient fault: the fused session must
    // still behave as the standalone composition does.
    for (const auto& [n, f] : std::vector<std::pair<int, int>>{{5, 1}, {9, 2}}) {
        for (std::uint64_t seed = 1; seed <= 50; ++seed) {
            Rng rng{seed * 104729 + static_cast<std::uint64_t>(n)};
            const auto self = static_cast<Processor_id>(rng.below(static_cast<std::uint64_t>(n)));
            Lockstep_ic session{n, f, self, bytes_of("p")};
            std::vector<double> lean(static_cast<std::size_t>(n), 0.8);
            std::vector<std::optional<Bytes>> owned(static_cast<std::size_t>(n));
            Round_payloads views(static_cast<std::size_t>(n));
            const Round rounds = session.total_rounds();
            for (int call = 0; call < 40; ++call) {
                const auto r =
                    static_cast<Round>(rng.below(static_cast<std::uint64_t>(rounds + 2))) - 1;
                const Bytes own = session.message_for_round(r);
                if (rng.chance(0.3)) continue;
                for (int s = 0; s < n; ++s) {
                    const auto slot = static_cast<std::size_t>(s);
                    owned[slot].reset();
                    if (s == self) {
                        owned[slot] = own;
                    } else if (!rng.chance(0.1)) {
                        owned[slot] = random_traffic(rng, n, std::max<Round>(r, 0), lean);
                    }
                    views[slot].reset();
                    if (owned[slot].has_value()) views[slot] = *owned[slot];
                }
                session.deliver_round(r, views);
                if (rng.chance(0.05)) session.restart(bytes_of(rng.chance(0.5) ? "p" : "q"));
            }
            if (session.done()) static_cast<void>(session.agreed_vector());
            if (HasFailure()) {
                ADD_FAILURE() << "n " << n << " seed " << seed;
                return;
            }
        }
    }
}

} // namespace differential

} // namespace
