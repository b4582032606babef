// Phase-king binary consensus: termination, validity, agreement for n > 4f,
// including adversarial kings and split-brain equivocators.
#include <gtest/gtest.h>

#include "bft/attackers.h"
#include "bft/driver.h"
#include "bft/phase_king.h"

namespace {

using namespace ga::bft;
using ga::common::Processor_id;
using ga::common::Rng;

std::unique_ptr<Session> make_pk(int n, int f, Processor_id self, int input)
{
    return std::make_unique<Phase_king_session>(n, f, self, input);
}

Value bit(int b)
{
    return Value{static_cast<std::uint8_t>(b)};
}

TEST(PhaseKing, RequiresNGreaterThan4F)
{
    EXPECT_THROW(Phase_king_session(4, 1, 0, 0), ga::common::Contract_error);
    EXPECT_NO_THROW(Phase_king_session(5, 1, 0, 0));
}

TEST(PhaseKing, RejectsNonBinaryInput)
{
    EXPECT_THROW(Phase_king_session(5, 1, 0, 2), ga::common::Contract_error);
}

TEST(PhaseKing, RoundCountIsTwoPerPhase)
{
    Phase_king_session session{9, 2, 0, 1};
    EXPECT_EQ(session.total_rounds(), 6);
}

TEST(PhaseKing, AllHonestUnanimousStaysPut)
{
    for (const int v : {0, 1}) {
        const int n = 5;
        const int f = 1;
        std::vector<Participant> ps(n);
        for (int i = 0; i < n; ++i) ps[static_cast<std::size_t>(i)].session = make_pk(n, f, i, v);
        const Drive_result result = drive(ps);
        for (const auto& d : result.decisions) EXPECT_EQ(*d, bit(v));
    }
}

TEST(PhaseKing, MixedInputsReachAgreement)
{
    const int n = 5;
    const int f = 1;
    std::vector<Participant> ps(n);
    for (int i = 0; i < n; ++i) ps[static_cast<std::size_t>(i)].session = make_pk(n, f, i, i % 2);
    const Drive_result result = drive(ps);
    const Value first = *result.decisions[0];
    for (const auto& d : result.decisions) EXPECT_EQ(*d, first);
}

struct Pk_param {
    int n;
    int f;
    const char* attacker;
    int byz_slot; ///< where the attacker sits (king slots are the spicy ones)
};

class Pk_attack_sweep : public ::testing::TestWithParam<Pk_param> {};

std::unique_ptr<Attacker> make_pk_attacker(const std::string& kind, int n, int f, int slot,
                                           std::uint64_t seed)
{
    const Session_factory factory = [n, f, slot](Value input) {
        const int b = input.empty() ? 0 : input[0] & 1;
        return std::make_unique<Phase_king_session>(n, f, slot, b);
    };
    if (kind == "silent") return std::make_unique<Silent_attacker>();
    if (kind == "garbage") return std::make_unique<Garbage_attacker>(Rng{seed}, 4);
    if (kind == "split-brain")
        return std::make_unique<Split_brain_attacker>(factory, bit(0), bit(1),
                                                      static_cast<Processor_id>(n / 2));
    throw std::runtime_error("unknown attacker kind");
}

TEST_P(Pk_attack_sweep, ValidityUnderAttack)
{
    const auto param = GetParam();
    for (const int v : {0, 1}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            std::vector<Participant> ps(static_cast<std::size_t>(param.n));
            for (int i = 0; i < param.n; ++i) {
                if (i == param.byz_slot) {
                    ps[static_cast<std::size_t>(i)].attacker =
                        make_pk_attacker(param.attacker, param.n, param.f, i, seed);
                } else {
                    ps[static_cast<std::size_t>(i)].session = make_pk(param.n, param.f, i, v);
                }
            }
            const Drive_result result = drive(ps);
            for (int i = 0; i < param.n; ++i) {
                if (i == param.byz_slot) continue;
                EXPECT_EQ(*result.decisions[static_cast<std::size_t>(i)], bit(v))
                    << param.attacker << " v=" << v << " seed=" << seed;
            }
        }
    }
}

TEST_P(Pk_attack_sweep, AgreementUnderAttackWithSplitInputs)
{
    const auto param = GetParam();
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        std::vector<Participant> ps(static_cast<std::size_t>(param.n));
        for (int i = 0; i < param.n; ++i) {
            if (i == param.byz_slot) {
                ps[static_cast<std::size_t>(i)].attacker =
                    make_pk_attacker(param.attacker, param.n, param.f, i, seed);
            } else {
                ps[static_cast<std::size_t>(i)].session = make_pk(param.n, param.f, i, i % 2);
            }
        }
        const Drive_result result = drive(ps);
        const Value* first = nullptr;
        for (int i = 0; i < param.n; ++i) {
            if (i == param.byz_slot) continue;
            if (first == nullptr) {
                first = &*result.decisions[static_cast<std::size_t>(i)];
            } else {
                EXPECT_EQ(*result.decisions[static_cast<std::size_t>(i)], *first);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, Pk_attack_sweep,
    ::testing::Values(Pk_param{5, 1, "silent", 0},       // byzantine king of phase 0
                      Pk_param{5, 1, "garbage", 0},      //
                      Pk_param{5, 1, "split-brain", 0},  //
                      Pk_param{5, 1, "split-brain", 4},  // non-king byzantine
                      Pk_param{6, 1, "split-brain", 1},  // king of phase 1
                      Pk_param{9, 2, "garbage", 0},      //
                      Pk_param{9, 2, "split-brain", 2}), // king of last phase
    [](const ::testing::TestParamInfo<Pk_param>& info) {
        // Appended piecewise: GCC 12 flags "lit" + std::to_string with a
        // false -Wrestrict in optimized builds.
        std::string name = "n";
        name += std::to_string(info.param.n);
        name += "_f";
        name += std::to_string(info.param.f);
        name += "_";
        name += info.param.attacker;
        name += "_slot";
        name += std::to_string(info.param.byz_slot);
        for (auto& c : name)
            if (c == '-') c = '_';
        return name;
    });

// Two Byzantine slots for f = 2 must also be survivable.
TEST(PhaseKing, TwoByzantineKingsNineProcessors)
{
    const int n = 9;
    const int f = 2;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        std::vector<Participant> ps(n);
        for (int i = 0; i < n; ++i) {
            if (i < 2) { // both early kings byzantine
                ps[static_cast<std::size_t>(i)].attacker = make_pk_attacker("split-brain", n, f, i, seed);
            } else {
                ps[static_cast<std::size_t>(i)].session = make_pk(n, f, i, i % 2);
            }
        }
        const Drive_result result = drive(ps);
        const Value* first = nullptr;
        for (int i = 2; i < n; ++i) {
            if (first == nullptr) {
                first = &*result.decisions[static_cast<std::size_t>(i)];
            } else {
                EXPECT_EQ(*result.decisions[static_cast<std::size_t>(i)], *first) << "seed " << seed;
            }
        }
    }
}

} // namespace
