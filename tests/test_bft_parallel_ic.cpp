// Parallel interactive consistency (polynomial IC over Turpin-Coan/phase-king):
// honest slots carry real inputs, full-vector agreement, attacker sweeps.
#include <gtest/gtest.h>

#include <string>

#include "bft/attackers.h"
#include "bft/driver.h"
#include "bft/parallel_ic.h"
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
    EXPECT_EQ(session.total_rounds(), 1 + 2 + 2 * 2);
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

} // namespace
