// Turpin-Coan multivalued reduction over phase-king: validity, agreement, and
// the default-on-divergence behaviour, under attackers.
#include <gtest/gtest.h>

#include "bft/attackers.h"
#include "bft/driver.h"
#include "bft/phase_king.h"
#include "bft/turpin_coan.h"
#include "common/ensure.h"

namespace {

using namespace ga::bft;
using ga::common::bytes_of;
using ga::common::Processor_id;
using ga::common::Rng;

Binary_session_factory pk_factory()
{
    return [](int n, int f, Processor_id self, int input) -> std::unique_ptr<Session> {
        return std::make_unique<Phase_king_session>(n, f, self, input);
    };
}

std::unique_ptr<Session> make_tc(int n, int f, Processor_id self, Value input)
{
    return std::make_unique<Turpin_coan_session>(n, f, self, std::move(input), pk_factory());
}

/// Turpin-Coan's reduction-round wire format: tag 1 plus the length-prefixed
/// value, or the lone tag 0 for bottom.
ga::common::Bytes tagged(const std::optional<Value>& value)
{
    ga::common::Bytes payload{static_cast<std::uint8_t>(value.has_value() ? 1 : 0)};
    if (value.has_value()) ga::common::put_bytes(payload, *value);
    return payload;
}

/// Delivers round r with sender j's payload held in `storage[j]`.
void deliver(Session& session, ga::common::Round r,
             const std::vector<ga::common::Bytes>& storage)
{
    Round_payloads payloads(storage.size());
    for (std::size_t j = 0; j < storage.size(); ++j) payloads[j] = storage[j];
    session.deliver_round(r, payloads);
}

/// Runs one session through the echo round with the given tagged values,
/// then through phase-king with every processor voting 1, and returns the
/// decision: the echo round's plurality whenever the binary stage decides 1.
Value decide_with_echoes(int n, int f, const std::vector<std::optional<Value>>& echoes)
{
    Turpin_coan_session session{n, f, 0, bytes_of("own"), pk_factory()};
    std::vector<ga::common::Bytes> storage;
    for (const auto& echo : echoes) storage.push_back(tagged(echo));
    (void)session.message_for_round(0);
    deliver(session, 0, storage);
    const std::vector<ga::common::Bytes> ones(static_cast<std::size_t>(n), ga::common::Bytes{1});
    for (ga::common::Round r = 1; r < session.total_rounds(); ++r) {
        (void)session.message_for_round(r);
        deliver(session, r, ones);
    }
    EXPECT_TRUE(session.done());
    return session.decision();
}

/// The bit a session enters phase king with after the given echo round.
int binary_input_after(int n, int f, const std::vector<std::optional<Value>>& echoes)
{
    int entered = -1;
    Turpin_coan_session session{
        n, f, 0, bytes_of("own"),
        [&entered](int size, int faults, Processor_id self, int input) -> std::unique_ptr<Session> {
            entered = input;
            return std::make_unique<Phase_king_session>(size, faults, self, input);
        }};
    std::vector<ga::common::Bytes> storage;
    for (const auto& echo : echoes) storage.push_back(tagged(echo));
    deliver(session, 0, storage);
    return entered;
}

TEST(TurpinCoan, RoundCountIsBinaryPlusOne)
{
    Turpin_coan_session session{5, 1, 0, bytes_of("v"), pk_factory()};
    EXPECT_EQ(session.total_rounds(), 1 + 2 * 2); // the echo round, then phase king
}

TEST(TurpinCoan, RejectsNAtMostFourFAtConstruction)
{
    // The one-round echo rule needs n > 4f, as phase king does.
    EXPECT_THROW((Turpin_coan_session{4, 1, 0, bytes_of("v"), pk_factory()}),
                 ga::common::Contract_error);
    EXPECT_THROW((Turpin_coan_session{8, 2, 0, bytes_of("v"), pk_factory()}),
                 ga::common::Contract_error);
    EXPECT_NO_THROW((Turpin_coan_session{5, 1, 0, bytes_of("v"), pk_factory()}));
    EXPECT_NO_THROW((Turpin_coan_session{9, 2, 0, bytes_of("v"), pk_factory()}));
}

TEST(TurpinCoan, UnanimousHonestInputsDecideThatValue)
{
    const int n = 5;
    const int f = 1;
    std::vector<Participant> ps(n);
    for (int i = 0; i < n; ++i)
        ps[static_cast<std::size_t>(i)].session = make_tc(n, f, i, bytes_of("commitments-hash"));
    const Drive_result result = drive(ps);
    for (const auto& d : result.decisions) EXPECT_EQ(*d, bytes_of("commitments-hash"));
}

TEST(TurpinCoan, FullyDivergentInputsAgreeOnDefault)
{
    const int n = 5;
    const int f = 1;
    std::vector<Participant> ps(n);
    for (int i = 0; i < n; ++i)
        ps[static_cast<std::size_t>(i)].session = make_tc(n, f, i, bytes_of(std::to_string(i)));
    const Drive_result result = drive(ps);
    const Value first = *result.decisions[0];
    for (const auto& d : result.decisions) EXPECT_EQ(*d, first);
    // No value had an n-f quorum, so the decision must be the default.
    EXPECT_TRUE(first.empty());
}

TEST(TurpinCoan, ValidityUnderGarbageAttacker)
{
    const int n = 5;
    const int f = 1;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        std::vector<Participant> ps(n);
        for (int i = 0; i < n - 1; ++i)
            ps[static_cast<std::size_t>(i)].session = make_tc(n, f, i, bytes_of("agree-on-me"));
        ps[n - 1].attacker = std::make_unique<Garbage_attacker>(Rng{seed});
        const Drive_result result = drive(ps);
        for (int i = 0; i < n - 1; ++i)
            EXPECT_EQ(*result.decisions[static_cast<std::size_t>(i)], bytes_of("agree-on-me"));
    }
}

TEST(TurpinCoan, AgreementUnderSplitBrainWithMixedInputs)
{
    const int n = 5;
    const int f = 1;
    const Session_factory factory = [&](Value input) {
        return make_tc(n, f, 4, std::move(input));
    };
    for (int split = 1; split < n; ++split) {
        std::vector<Participant> ps(n);
        for (int i = 0; i < n - 1; ++i)
            ps[static_cast<std::size_t>(i)].session =
                make_tc(n, f, i, i < 2 ? bytes_of("x") : bytes_of("y"));
        ps[n - 1].attacker = std::make_unique<Split_brain_attacker>(
            factory, bytes_of("x"), bytes_of("y"), static_cast<Processor_id>(split));
        const Drive_result result = drive(ps);
        const Value* first = nullptr;
        for (int i = 0; i < n - 1; ++i) {
            if (first == nullptr) {
                first = &*result.decisions[static_cast<std::size_t>(i)];
            } else {
                EXPECT_EQ(*result.decisions[static_cast<std::size_t>(i)], *first)
                    << "split=" << split;
            }
        }
    }
}

TEST(TurpinCoan, NearUnanimousQuorumStillWins)
{
    // 4 of 5 honest processors propose the same value; the attacker is silent.
    // n-f = 4 quorum is met, so the common value must win.
    const int n = 5;
    const int f = 1;
    std::vector<Participant> ps(n);
    for (int i = 0; i < n - 1; ++i)
        ps[static_cast<std::size_t>(i)].session = make_tc(n, f, i, bytes_of("quorum"));
    ps[n - 1].attacker = std::make_unique<Silent_attacker>();
    const Drive_result result = drive(ps);
    for (int i = 0; i < n - 1; ++i)
        EXPECT_EQ(*result.decisions[static_cast<std::size_t>(i)], bytes_of("quorum"));
}

TEST(TurpinCoan, LargerSystemSweep)
{
    const int n = 9;
    const int f = 2;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        std::vector<Participant> ps(n);
        for (int i = 0; i < n - 2; ++i)
            ps[static_cast<std::size_t>(i)].session = make_tc(n, f, i, bytes_of("w"));
        ps[n - 2].attacker = std::make_unique<Garbage_attacker>(Rng{seed});
        ps[n - 1].attacker = std::make_unique<Silent_attacker>();
        const Drive_result result = drive(ps);
        for (int i = 0; i < n - 2; ++i)
            EXPECT_EQ(*result.decisions[static_cast<std::size_t>(i)], bytes_of("w"));
    }
}

TEST(TurpinCoan, EchoPluralityWithNMinusFVotesEntersPhaseKingWithOne)
{
    const std::optional<Value> bottom;
    EXPECT_EQ(binary_input_after(5, 1, {bytes_of("b"), bytes_of("a"), bytes_of("b"),
                                        bytes_of("b"), bytes_of("b")}),
              1);
    EXPECT_EQ(binary_input_after(9, 2,
                                 {Value{0xff}, Value{0x01}, Value{0xff}, Value{0xff},
                                  Value{0xff}, bottom, Value{0xff}, Value{0xff}, Value{0xff}}),
              1);
    // The empty string is a real value when tagged, and can hold n - f votes.
    EXPECT_EQ(binary_input_after(5, 1, {Value{}, Value{}, bytes_of("a"), Value{}, Value{}}), 1);
    // n - f votes decide the plurality once phase king decides 1.
    EXPECT_EQ(decide_with_echoes(5, 1, {bytes_of("b"), bytes_of("a"), bytes_of("b"),
                                        bytes_of("b"), bytes_of("b")}),
              bytes_of("b"));
}

TEST(TurpinCoan, EchoPluralityWithNMinusFMinusOneVotesEntersWithZero)
{
    const std::optional<Value> bottom;
    EXPECT_EQ(binary_input_after(5, 1, {bytes_of("b"), bytes_of("a"), bytes_of("b"),
                                        bytes_of("b"), bottom}),
              0);
    EXPECT_EQ(binary_input_after(9, 2,
                                 {Value{0xff}, Value{0x01}, Value{0xff}, Value{0xff},
                                  Value{0xff}, bottom, Value{0xff}, Value{0xff}, bottom}),
              0);
    // Echoes of other values do not count toward the plurality: four
    // non-bottom echoes split 3 / 1 leave it one vote short.
    EXPECT_EQ(binary_input_after(5, 1, {bytes_of("a"), bytes_of("a"), bytes_of("a"),
                                        bytes_of("b"), bottom}),
              0);
    // No vote at all enters with 0 too.
    EXPECT_EQ(binary_input_after(5, 1, {bottom, bottom, bottom, bottom, bottom}), 0);
}

TEST(TurpinCoan, EchoTieGoesToTheLexicographicallySmallestValue)
{
    const std::optional<Value> bottom;
    // Two-way tie: the smaller value wins, whatever order the senders use.
    EXPECT_EQ(decide_with_echoes(5, 1, {bytes_of("b"), bytes_of("a"), bytes_of("b"),
                                        bytes_of("a"), bottom}),
              bytes_of("a"));
    // A proper prefix orders first.
    EXPECT_EQ(decide_with_echoes(5, 1, {bytes_of("ab"), bytes_of("ab"), bytes_of("a"),
                                        bytes_of("a"), bottom}),
              bytes_of("a"));
    // Bytes compare unsigned: {0x01, 0x00} < {0xff}, despite being longer.
    EXPECT_EQ(decide_with_echoes(5, 1, {Value{0xff}, Value{0x01, 0x00}, Value{0xff},
                                        Value{0x01, 0x00}, bottom}),
              (Value{0x01, 0x00}));
    // Votes beat order: a strict plurality wins over a smaller value.
    EXPECT_EQ(decide_with_echoes(5, 1, {bytes_of("z"), bytes_of("a"), bytes_of("z"),
                                        bytes_of("z"), bottom}),
              bytes_of("z"));
    // Three-way tie at n = 9, f = 2.
    EXPECT_EQ(decide_with_echoes(9, 2, {bytes_of("q"), bytes_of("p"), bytes_of("r"),
                                        bytes_of("q"), bytes_of("r"), bytes_of("p"),
                                        bytes_of("s"), bottom, bottom}),
              bytes_of("p"));
}

TEST(TurpinCoan, TaggedVoteCountsOnlyWellFormedValues)
{
    using ga::common::Byte_view;
    using ga::common::Bytes;
    Byte_view value;
    Bytes section;
    put_tagged(section, bytes_of("v"));
    ASSERT_TRUE(tagged_vote(section, value));
    EXPECT_EQ(Bytes(value.begin(), value.end()), bytes_of("v"));
    Bytes empty_value;
    put_tagged(empty_value, Bytes{});
    EXPECT_TRUE(tagged_vote(empty_value, value)); // the empty value is a value
    EXPECT_TRUE(value.empty());

    Bytes bottom;
    put_tagged(bottom, std::nullopt);
    EXPECT_FALSE(tagged_vote(bottom, value)); // bottom casts no vote
    Bytes trailing = section;
    trailing.push_back(0);
    EXPECT_FALSE(tagged_vote(trailing, value));
    Bytes bottom_trailing = bottom;
    bottom_trailing.push_back(0);
    EXPECT_FALSE(tagged_vote(bottom_trailing, value));
    Bytes wrong_tag = section;
    wrong_tag[0] = 2;
    EXPECT_FALSE(tagged_vote(wrong_tag, value));
    EXPECT_FALSE(tagged_vote(Bytes{}, value));
    for (std::size_t cut = 0; cut < section.size(); ++cut)
        EXPECT_FALSE(tagged_vote(Byte_view{section}.first(cut), value)) << cut;
}

} // namespace
