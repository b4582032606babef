// EIG Byzantine agreement: termination, validity, agreement, and interactive
// consistency — under every generic attacker family, across (n, f) sweeps.
#include <gtest/gtest.h>

#include "bft/attackers.h"
#include "bft/driver.h"
#include "bft/eig.h"

namespace {

using namespace ga::bft;
using ga::common::Bytes;
using ga::common::bytes_of;
using ga::common::Processor_id;
using ga::common::Rng;

Value val(const std::string& s)
{
    return bytes_of(s);
}

std::unique_ptr<Session> make_eig(int n, int f, Processor_id self, Value input)
{
    return std::make_unique<Eig_session>(n, f, self, std::move(input));
}

/// Build a system with `byz` attacker slots at the end; honest slot i proposes
/// inputs[i].
std::vector<Participant> build(int n, int f, const std::vector<Value>& inputs,
                               const std::function<std::unique_ptr<Attacker>(int slot)>& attacker,
                               int byz)
{
    std::vector<Participant> participants(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        if (i >= n - byz) {
            participants[static_cast<std::size_t>(i)].attacker = attacker(i);
        } else {
            participants[static_cast<std::size_t>(i)].session =
                make_eig(n, f, i, inputs[static_cast<std::size_t>(i)]);
        }
    }
    return participants;
}

void expect_agreement(const Drive_result& result)
{
    const Value* first = nullptr;
    for (const auto& decision : result.decisions) {
        if (!decision.has_value()) continue;
        if (first == nullptr) {
            first = &*decision;
        } else {
            EXPECT_EQ(*decision, *first);
        }
    }
}

// ---------------------------------------------------------------- basics

TEST(Eig, RequiresNGreaterThan3F)
{
    EXPECT_THROW(Eig_session(3, 1, 0, val("x")), ga::common::Contract_error);
    EXPECT_NO_THROW(Eig_session(4, 1, 0, val("x")));
}

TEST(Eig, ValueOrderIsUnsignedLexicographicShorterFirst)
{
    // Listed in std::less<Value> order: bytes compare as unsigned, and a
    // prefix sorts before its extensions. EIG's tie-break depends on it.
    const std::vector<Value> sorted{{},           {0x00},       {0x01},       {0x01, 0x00},
                                    {0x01, 0x02}, {0x01, 0xff}, {0x7f},       {0x80},
                                    {0xff},       {0xff, 0x00}, {0xff, 0xff}};
    const Value_order before;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        for (std::size_t j = 0; j < sorted.size(); ++j) {
            EXPECT_EQ(before(sorted[i], sorted[j]), i < j) << i << " vs " << j;
        }
    }
}

TEST(Eig, AllHonestSameInputDecidesThatInput)
{
    const int n = 4;
    const int f = 1;
    std::vector<Participant> ps(n);
    for (int i = 0; i < n; ++i) ps[static_cast<std::size_t>(i)].session = make_eig(n, f, i, val("v"));
    const Drive_result result = drive(ps);
    EXPECT_EQ(result.rounds, f + 1);
    for (const auto& d : result.decisions) {
        ASSERT_TRUE(d.has_value());
        EXPECT_EQ(*d, val("v"));
    }
}

TEST(Eig, FZeroSingleRound)
{
    const int n = 3;
    std::vector<Participant> ps(n);
    for (int i = 0; i < n; ++i) ps[static_cast<std::size_t>(i)].session = make_eig(n, 0, i, val("z"));
    const Drive_result result = drive(ps);
    EXPECT_EQ(result.rounds, 1);
    for (const auto& d : result.decisions) EXPECT_EQ(*d, val("z"));
}

TEST(Eig, InteractiveConsistencyHonestSlotsCarryRealInputs)
{
    const int n = 7;
    const int f = 2;
    std::vector<Value> inputs;
    for (int i = 0; i < n; ++i) inputs.push_back(val("input-" + std::to_string(i)));
    std::vector<Participant> ps(n);
    for (int i = 0; i < n; ++i)
        ps[static_cast<std::size_t>(i)].session = make_eig(n, f, i, inputs[static_cast<std::size_t>(i)]);
    drive(ps);

    for (int i = 0; i < n; ++i) {
        const auto& vec =
            dynamic_cast<Eig_session&>(*ps[static_cast<std::size_t>(i)].session).agreed_vector();
        ASSERT_EQ(static_cast<int>(vec.size()), n);
        for (int j = 0; j < n; ++j)
            EXPECT_EQ(vec[static_cast<std::size_t>(j)], inputs[static_cast<std::size_t>(j)])
                << "processor " << i << " slot " << j;
    }
}

TEST(Eig, DecisionIsMajorityOfInputs)
{
    const int n = 4;
    const int f = 1;
    std::vector<Participant> ps(n);
    ps[0].session = make_eig(n, f, 0, val("a"));
    ps[1].session = make_eig(n, f, 1, val("a"));
    ps[2].session = make_eig(n, f, 2, val("a"));
    ps[3].session = make_eig(n, f, 3, val("b"));
    const Drive_result result = drive(ps);
    for (const auto& d : result.decisions) EXPECT_EQ(*d, val("a"));
}

TEST(Eig, DecisionBeforeCompletionThrows)
{
    Eig_session session{4, 1, 0, val("x")};
    EXPECT_THROW(session.decision(), ga::common::Contract_error);
    EXPECT_THROW(static_cast<void>(session.agreed_vector()), ga::common::Contract_error);
}

TEST(Eig, PairsInRoundGrowth)
{
    EXPECT_EQ(eig_pairs_in_round(5, 0), 1);
    EXPECT_EQ(eig_pairs_in_round(5, 1), 5);
    EXPECT_EQ(eig_pairs_in_round(5, 2), 20);
}

// ------------------------------------------------- attacker sweeps (TEST_P)

struct Sweep_param {
    int n;
    int f;
    const char* attacker;
};

class Eig_attack_sweep : public ::testing::TestWithParam<Sweep_param> {};

std::unique_ptr<Attacker> make_attacker(const std::string& kind, int n, int f, int slot,
                                        std::uint64_t seed)
{
    const Session_factory factory = [n, f, slot](Value input) {
        return std::make_unique<Eig_session>(n, f, slot, std::move(input));
    };
    if (kind == "silent") return std::make_unique<Silent_attacker>();
    if (kind == "garbage") return std::make_unique<Garbage_attacker>(Rng{seed});
    if (kind == "split-brain")
        return std::make_unique<Split_brain_attacker>(factory, val("evil-a"), val("evil-b"),
                                                      static_cast<Processor_id>(n / 2));
    if (kind == "mutating")
        return std::make_unique<Mutating_attacker>(factory, val("mut"), Rng{seed});
    throw std::runtime_error("unknown attacker kind");
}

TEST_P(Eig_attack_sweep, ValidityWithUnanimousHonestInputs)
{
    const auto [n, f, attacker] = GetParam();
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        std::vector<Value> inputs(static_cast<std::size_t>(n), val("good"));
        auto ps = build(n, f, inputs,
                        [&](int slot) { return make_attacker(attacker, n, f, slot, seed); }, f);
        const Drive_result result = drive(ps);
        for (int i = 0; i < n - f; ++i) {
            ASSERT_TRUE(result.decisions[static_cast<std::size_t>(i)].has_value());
            EXPECT_EQ(*result.decisions[static_cast<std::size_t>(i)], val("good"))
                << attacker << " seed " << seed;
        }
    }
}

TEST_P(Eig_attack_sweep, AgreementWithSplitHonestInputs)
{
    const auto [n, f, attacker] = GetParam();
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        std::vector<Value> inputs;
        for (int i = 0; i < n; ++i) inputs.push_back(i % 2 == 0 ? val("x") : val("y"));
        auto ps = build(n, f, inputs,
                        [&](int slot) { return make_attacker(attacker, n, f, slot, seed); }, f);
        const Drive_result result = drive(ps);
        expect_agreement(result);
    }
}

TEST_P(Eig_attack_sweep, HonestSlotsOfAgreedVectorSurviveAttack)
{
    const auto [n, f, attacker] = GetParam();
    std::vector<Value> inputs;
    for (int i = 0; i < n; ++i) inputs.push_back(val("in-" + std::to_string(i)));
    auto ps = build(n, f, inputs,
                    [&](int slot) { return make_attacker(attacker, n, f, slot, 7); }, f);
    drive(ps);
    // IC: all honest agree on the whole vector, and honest slots are exact.
    const std::vector<Value>* reference = nullptr;
    for (int i = 0; i < n - f; ++i) {
        const auto& vec =
            dynamic_cast<Eig_session&>(*ps[static_cast<std::size_t>(i)].session).agreed_vector();
        for (int j = 0; j < n - f; ++j)
            EXPECT_EQ(vec[static_cast<std::size_t>(j)], inputs[static_cast<std::size_t>(j)]);
        if (reference == nullptr) {
            reference = &vec;
        } else {
            EXPECT_EQ(vec, *reference);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, Eig_attack_sweep,
    ::testing::Values(Sweep_param{4, 1, "silent"}, Sweep_param{4, 1, "garbage"},
                      Sweep_param{4, 1, "split-brain"}, Sweep_param{4, 1, "mutating"},
                      Sweep_param{5, 1, "split-brain"}, Sweep_param{7, 2, "silent"},
                      Sweep_param{7, 2, "garbage"}, Sweep_param{7, 2, "split-brain"},
                      Sweep_param{7, 2, "mutating"}, Sweep_param{10, 3, "split-brain"}),
    [](const ::testing::TestParamInfo<Sweep_param>& info) {
        std::string name = "n" + std::to_string(info.param.n) + "_f" +
                           std::to_string(info.param.f) + "_" + info.param.attacker;
        for (auto& c : name)
            if (c == '-') c = '_';
        return name;
    });

} // namespace
