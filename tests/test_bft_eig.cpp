// EIG Byzantine agreement: termination, validity, agreement, and interactive
// consistency — under every generic attacker family, across (n, f) sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "bft/attackers.h"
#include "bft/driver.h"
#include "bft/eig.h"

namespace {

using namespace ga::bft;
using ga::common::Byte_view;
using ga::common::Bytes;
using ga::common::bytes_of;
using ga::common::Processor_id;
using ga::common::Rng;
using ga::common::Round;

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

// ------------------------------------- map-based reference (differential)

/// The textbook EIG session with its tree in a path-keyed std::map: the
/// straightforward formulation Eig_session's flat rank-indexed table must
/// reproduce byte for byte (payloads) and value for value (outputs).
class Map_eig_session final : public Ic_session {
public:
    Map_eig_session(int n, int f, Processor_id self, Value input)
        : n_{n}, f_{f}, self_{self}, input_{std::move(input)}
    {
    }

    Round total_rounds() const override { return f_ + 1; }
    bool done() const override { return done_; }
    const std::vector<Value>& agreed_vector() const override { return agreed_vector_; }

    void restart(Value input) override { *this = Map_eig_session{n_, f_, self_, std::move(input)}; }

    void append_message_for_round(Round r, Bytes& out) override
    {
        if (r < 0 || r > f_) return;
        Bytes payload;
        std::vector<std::pair<Path, Value>> pairs;
        if (r == 0) {
            pairs.emplace_back(Path{}, input_);
        } else {
            for (const auto& [path, value] : tree_) {
                if (path.size() != static_cast<std::size_t>(r)) continue;
                if (std::find(path.begin(), path.end(), self_) != path.end()) continue;
                pairs.emplace_back(path, value);
            }
        }
        ga::common::put_u32(payload, static_cast<std::uint32_t>(pairs.size()));
        for (const auto& [path, value] : pairs) {
            ga::common::put_u32(payload, static_cast<std::uint32_t>(path.size()));
            for (const Processor_id id : path)
                ga::common::put_u32(payload, static_cast<std::uint32_t>(id));
            ga::common::put_bytes(payload, value);
        }
        for (auto& [path, value] : pairs) {
            path.push_back(self_);
            tree_.emplace(std::move(path), std::move(value));
        }
        out.insert(out.end(), payload.begin(), payload.end());
    }

    void deliver_round(Round r, const Round_payloads& payloads) override
    {
        if (r < 0 || r > f_ || done_) return;
        for (Processor_id sender = 0; sender < n_; ++sender) {
            const auto& payload = payloads[static_cast<std::size_t>(sender)];
            if (!payload.has_value()) continue;
            try {
                ga::common::Byte_reader reader{*payload};
                const std::uint32_t count = reader.get_u32();
                if (static_cast<std::int64_t>(count) > eig_pairs_in_round(n_, r)) continue;
                for (std::uint32_t p = 0; p < count; ++p) {
                    const std::uint32_t path_len = reader.get_u32();
                    if (path_len > static_cast<std::uint32_t>(f_ + 1))
                        throw ga::common::Decode_error{"path too long"};
                    Path path;
                    for (std::uint32_t i = 0; i < path_len; ++i)
                        path.push_back(static_cast<Processor_id>(reader.get_u32()));
                    Value value = reader.get_bytes();
                    if (!valid_path(path, static_cast<std::size_t>(r))) continue;
                    if (std::find(path.begin(), path.end(), sender) != path.end()) continue;
                    path.push_back(sender);
                    tree_.emplace(std::move(path), std::move(value));
                }
            } catch (const ga::common::Decode_error&) {
                // Pairs decoded before the malformed one stay in the tree.
            }
        }
        if (r == f_) {
            agreed_vector_.assign(static_cast<std::size_t>(n_), Value{});
            for (Processor_id source = 0; source < n_; ++source) {
                if (source == self_) tree_.emplace(Path{source}, input_);
                agreed_vector_[static_cast<std::size_t>(source)] = resolve(Path{source});
            }
            done_ = true;
        }
    }

    Value decision() const override
    {
        std::map<Value, int, Value_order> votes;
        for (const Value& value : agreed_vector_)
            if (!value.empty()) ++votes[value];
        Value best{};
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
    using Path = std::vector<Processor_id>;

    bool valid_path(const Path& path, std::size_t expected_len) const
    {
        if (path.size() != expected_len) return false;
        for (std::size_t i = 0; i < path.size(); ++i) {
            if (path[i] < 0 || path[i] >= n_) return false;
            for (std::size_t j = i + 1; j < path.size(); ++j)
                if (path[i] == path[j]) return false;
        }
        return true;
    }

    Value resolve(const Path& path) const
    {
        if (path.size() == static_cast<std::size_t>(f_) + 1) {
            const auto it = tree_.find(path);
            return it == tree_.end() ? Value{} : it->second;
        }
        std::map<Value, int, Value_order> votes;
        int children = 0;
        Path child = path;
        child.push_back(0);
        for (Processor_id j = 0; j < n_; ++j) {
            if (std::find(path.begin(), path.end(), j) != path.end()) continue;
            ++children;
            child.back() = j;
            ++votes[resolve(child)];
        }
        for (const auto& [value, count] : votes)
            if (2 * count > children) return value;
        return Value{};
    }

    int n_;
    int f_;
    Processor_id self_;
    Value input_;
    std::map<Path, Value> tree_;
    std::vector<Value> agreed_vector_;
    bool done_ = false;
};

/// Runs Eig_session and the map reference side by side on the same calls and
/// expects identical payloads, completion and outputs at every step.
class Lockstep_session final : public Ic_session {
public:
    Lockstep_session(int n, int f, Processor_id self, const Value& input)
        : flat_{n, f, self, input}, reference_{n, f, self, input}
    {
    }

    Round total_rounds() const override { return flat_.total_rounds(); }
    bool done() const override { return flat_.done(); }

    void restart(Value input) override
    {
        flat_.restart(input);
        reference_.restart(std::move(input));
    }

    void append_message_for_round(Round r, Bytes& out) override
    {
        const std::size_t start = out.size();
        flat_.append_message_for_round(r, out);
        const Bytes payload(out.begin() + static_cast<std::ptrdiff_t>(start), out.end());
        const Bytes expected = reference_.message_for_round(r);
        EXPECT_TRUE(payload == expected)
            << "round " << r << ": " << payload.size() << " vs " << expected.size() << " bytes";
    }

    void deliver_round(Round r, const Round_payloads& payloads) override
    {
        flat_.deliver_round(r, payloads);
        reference_.deliver_round(r, payloads);
        EXPECT_EQ(flat_.done(), reference_.done()) << "round " << r;
    }

    Value decision() const override
    {
        Value decided = flat_.decision();
        EXPECT_EQ(decided, reference_.decision());
        return decided;
    }

    const std::vector<Value>& agreed_vector() const override
    {
        EXPECT_EQ(flat_.agreed_vector(), reference_.agreed_vector());
        return flat_.agreed_vector();
    }

private:
    Eig_session flat_;
    Map_eig_session reference_;
};

struct Grid_param {
    int n;
    int f;
    const char* attacker;
};

class Eig_differential : public ::testing::TestWithParam<Grid_param> {};

TEST_P(Eig_differential, MatchesMapReferenceEveryRound)
{
    const auto [n, f, attacker] = GetParam();
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        std::vector<Participant> ps(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            const auto slot = static_cast<std::size_t>(i);
            if (i >= n - f) {
                // Attackers' shadow sessions are plain Eig_sessions: they only
                // forge traffic for the honest slots under comparison.
                ps[slot].attacker = make_attacker(attacker, n, f, i, seed * 31 + slot);
            } else {
                // Three distinct inputs, shuffled by the seed, so some slots
                // resolve to a majority and some to bottom.
                const char tag = "abc"[(static_cast<std::uint64_t>(i) * seed) % 3];
                ps[slot].session =
                    std::make_unique<Lockstep_session>(n, f, i, val(std::string(1, tag)));
            }
        }
        const Drive_result result = drive(ps);
        for (int i = 0; i < n - f; ++i) {
            const auto slot = static_cast<std::size_t>(i);
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
    Grid, Eig_differential,
    ::testing::ValuesIn([] {
        std::vector<Grid_param> grid;
        for (const auto& [n, f] :
             std::vector<std::pair<int, int>>{{1, 0}, {4, 1}, {6, 1}, {12, 1}, {7, 2}, {10, 3}})
            for (const char* attacker : {"silent", "garbage", "split-brain", "mutating"})
                grid.push_back(Grid_param{n, f, attacker});
        return grid;
    }()),
    [](const ::testing::TestParamInfo<Grid_param>& info) {
        std::string name = "n" + std::to_string(info.param.n) + "_f" +
                           std::to_string(info.param.f) + "_" + info.param.attacker;
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

// ------------------------------------------ handcrafted malformed payloads

using Relays = std::map<std::vector<Processor_id>, Value>;

void put_pair(Bytes& out, const std::vector<std::uint32_t>& path, const std::string& value)
{
    ga::common::put_u32(out, static_cast<std::uint32_t>(path.size()));
    for (const std::uint32_t id : path) ga::common::put_u32(out, id);
    ga::common::put_bytes(out, val(value));
}

/// n honest sessions with inputs "<tag><i>", driven through rounds [0, r);
/// `sent` holds the payloads each broadcasts in round r.
struct Honest_prefix {
    std::vector<std::unique_ptr<Eig_session>> sessions;
    std::vector<Bytes> sent;
};

Honest_prefix run_honest_until(int n, int f, Round r, const std::string& tag = "in-")
{
    Honest_prefix prefix;
    for (int i = 0; i < n; ++i)
        prefix.sessions.push_back(
            std::make_unique<Eig_session>(n, f, i, val(tag + std::to_string(i))));
    for (Round round = 0;; ++round) {
        prefix.sent.clear();
        for (auto& session : prefix.sessions)
            prefix.sent.push_back(session->message_for_round(round));
        if (round == r) return prefix;
        const Round_payloads views(prefix.sent.begin(), prefix.sent.end());
        for (auto& session : prefix.sessions) session->deliver_round(round, views);
    }
}

/// Delivers round r to processor 0 with sender 1's payload replaced by
/// `from_1` (nullopt: sender 1 silent), then returns the level-(r+1) nodes
/// processor 0 relays in round r+1 (every stored node whose path avoids
/// processor 0).
Relays relays_after(int n, int f, Round r, const std::optional<Bytes>& from_1)
{
    Honest_prefix prefix = run_honest_until(n, f, r);
    Round_payloads views(prefix.sent.begin(), prefix.sent.end());
    views[1].reset();
    if (from_1.has_value()) views[1] = *from_1;
    prefix.sessions[0]->deliver_round(r, views);

    const Bytes relay = prefix.sessions[0]->message_for_round(r + 1);
    ga::common::Byte_reader reader{relay};
    Relays relays;
    const std::uint32_t count = reader.get_u32();
    for (std::uint32_t p = 0; p < count; ++p) {
        std::vector<Processor_id> path(reader.get_u32());
        for (auto& id : path) id = static_cast<Processor_id>(reader.get_u32());
        relays.emplace(std::move(path), reader.get_bytes());
    }
    EXPECT_TRUE(reader.exhausted());
    return relays;
}

/// The nodes a forged sender-1 payload leaves in processor 0's tree. Every
/// other node must be exactly what it is when sender 1 stays silent.
Relays stored_from_sender_1(int n, int f, Round r, const Bytes& forged)
{
    Relays from_1 = relays_after(n, f, r, forged);
    Relays others;
    for (auto it = from_1.begin(); it != from_1.end();) {
        if (it->first.back() == 1) {
            ++it;
        } else {
            others.insert(from_1.extract(it++));
        }
    }
    EXPECT_EQ(others, relays_after(n, f, r, std::nullopt))
        << "a pair landed on another sender's node";
    return from_1;
}

TEST(EigMalformed, PairsBeforeATruncatedPairAreKept)
{
    Bytes forged;
    ga::common::put_u32(forged, 2);
    put_pair(forged, {2}, "x");
    ga::common::put_u32(forged, 1); // second pair: path [3], value cut short
    ga::common::put_u32(forged, 3);
    ga::common::put_u32(forged, 10);
    forged.push_back('a');
    EXPECT_EQ(stored_from_sender_1(7, 2, 1, forged), (Relays{{{2, 1}, val("x")}}));
}

TEST(EigMalformed, OverlongPathStopsTheMessageButKeepsEarlierPairs)
{
    Bytes forged;
    ga::common::put_u32(forged, 3);
    put_pair(forged, {2}, "x");
    put_pair(forged, {3, 4, 5, 6}, "long"); // f + 2 ids
    put_pair(forged, {4}, "never-read");
    EXPECT_EQ(stored_from_sender_1(7, 2, 1, forged), (Relays{{{2, 1}, val("x")}}));
}

TEST(EigMalformed, DuplicatePairFirstWriterWins)
{
    Bytes forged;
    ga::common::put_u32(forged, 3);
    put_pair(forged, {2}, "first");
    put_pair(forged, {2}, "second");
    put_pair(forged, {3}, "y");
    EXPECT_EQ(stored_from_sender_1(7, 2, 1, forged),
              (Relays{{{2, 1}, val("first")}, {{3, 1}, val("y")}}));
}

TEST(EigMalformed, InvalidPathsAreSkippedAndDecodingContinues)
{
    Bytes forged;
    ga::common::put_u32(forged, 6);
    put_pair(forged, {1}, "contains-sender");
    put_pair(forged, {7}, "id-out-of-range");
    put_pair(forged, {0xffffffffU}, "negative-id");
    put_pair(forged, {0x80000000U}, "id-wraps-negative");
    put_pair(forged, {2, 3}, "wrong-length");
    put_pair(forged, {4}, "ok");
    EXPECT_EQ(stored_from_sender_1(7, 2, 1, forged), (Relays{{{4, 1}, val("ok")}}));
}

TEST(EigMalformed, RepeatedIdIsSkipped)
{
    Bytes forged;
    ga::common::put_u32(forged, 4);
    put_pair(forged, {2, 2}, "repeated");
    put_pair(forged, {2, 1}, "contains-sender");
    put_pair(forged, {3, 10}, "id-out-of-range");
    put_pair(forged, {3, 2}, "ok");
    EXPECT_EQ(stored_from_sender_1(10, 3, 2, forged), (Relays{{{3, 2, 1}, val("ok")}}));
}

TEST(EigMalformed, CountAboveTheRoundLimitDropsTheWholeSender)
{
    // Round 1 carries at most n = 7 pairs; 8 drops sender 1 entirely, even
    // though every pair would decode.
    Bytes forged;
    ga::common::put_u32(forged, 8);
    for (int p = 0; p < 8; ++p) put_pair(forged, {2}, "x");
    EXPECT_TRUE(stored_from_sender_1(7, 2, 1, forged).empty());

    Bytes at_limit;
    ga::common::put_u32(at_limit, 7);
    for (int p = 0; p < 7; ++p) put_pair(at_limit, {2}, "x");
    EXPECT_EQ(stored_from_sender_1(7, 2, 1, at_limit), (Relays{{{2, 1}, val("x")}}));
}

// --------------------------------------------- out-of-schedule call patterns

/// Honest round-r payloads of an (n, f) system plus garbage in slot n-1,
/// owned here so the views stay valid.
struct Round_fixture {
    std::vector<Bytes> owned;
    Round_payloads views;
};

Round_fixture round_fixture(int n, int f, Round r, const std::string& tag = "in-")
{
    Honest_prefix prefix = run_honest_until(n, f, std::min<Round>(std::max<Round>(r, 0), f), tag);
    Round_fixture fixture{std::move(prefix.sent), {}};
    fixture.owned.back() = Bytes{0xde, 0xad, 0xbe};
    fixture.views.assign(fixture.owned.begin(), fixture.owned.end());
    return fixture;
}

TEST(EigSchedule, DeliverOutsideTheScheduleIsIgnored)
{
    const Round_fixture fixture = round_fixture(4, 1, 0);
    Lockstep_session session{4, 1, 0, val("x")};
    session.deliver_round(-1, fixture.views);
    session.deliver_round(2, fixture.views); // r > f
    session.deliver_round(1000, fixture.views);
    EXPECT_FALSE(session.done());
    EXPECT_EQ(session.message_for_round(0), Eig_session(4, 1, 0, val("x")).message_for_round(0));
}

TEST(EigSchedule, DeliverBeforeAnyMessageStillCompletes)
{
    for (const auto& [n, f] : std::vector<std::pair<int, int>>{{4, 1}, {7, 2}}) {
        const Round_fixture first = round_fixture(n, f, 0);
        Lockstep_session session{n, f, 0, val("in-0")};
        session.deliver_round(0, first.views);
        for (Round r = 1; r <= f; ++r) {
            static_cast<void>(session.message_for_round(r));
            session.deliver_round(r, round_fixture(n, f, r).views);
        }
        ASSERT_TRUE(session.done());
        static_cast<void>(session.agreed_vector());
        static_cast<void>(session.decision());
    }
}

TEST(EigSchedule, FinalRoundFirstResolvesWithoutCrashing)
{
    // A junk session that never saw earlier rounds resolves from the leaves
    // alone; every slot a majority of honest leaves backs is still filled.
    const Round_fixture last = round_fixture(7, 2, 2);
    Lockstep_session session{7, 2, 3, val("own")};
    session.deliver_round(2, last.views);
    ASSERT_TRUE(session.done());
    const std::vector<Value>& vec = session.agreed_vector();
    ASSERT_EQ(vec.size(), 7U);
    for (int j = 0; j < 6; ++j)
        EXPECT_EQ(vec[static_cast<std::size_t>(j)], val("in-" + std::to_string(j)));
    static_cast<void>(session.decision());
}

TEST(EigSchedule, DeliverAfterDoneIsIgnored)
{
    const int n = 4;
    const int f = 1;
    std::vector<Participant> ps(n);
    for (int i = 0; i < n; ++i)
        ps[static_cast<std::size_t>(i)].session =
            std::make_unique<Lockstep_session>(n, f, i, val("in-" + std::to_string(i)));
    drive(ps);
    auto& session = dynamic_cast<Ic_session&>(*ps[0].session);
    const std::vector<Value> before = session.agreed_vector();
    const Round_fixture junk = round_fixture(n, f, 1);
    session.deliver_round(0, junk.views);
    session.deliver_round(1, junk.views);
    EXPECT_EQ(session.agreed_vector(), before);
}

TEST(EigSchedule, RepeatedAndOutOfRangeMessagesAreStable)
{
    Lockstep_session session{7, 2, 2, val("in-2")};
    EXPECT_TRUE(session.message_for_round(3).empty()); // r > f
    EXPECT_TRUE(session.message_for_round(-1).empty());
    // A relay round before anything was stored: zero pairs.
    Bytes none;
    ga::common::put_u32(none, 0);
    EXPECT_EQ(session.message_for_round(2), none);

    const Bytes first = session.message_for_round(0);
    EXPECT_EQ(session.message_for_round(0), first);
    session.deliver_round(0, round_fixture(7, 2, 0).views);
    const Bytes relay = session.message_for_round(1);
    EXPECT_EQ(session.message_for_round(1), relay);
    EXPECT_TRUE(session.message_for_round(3).empty());
}

TEST(EigSchedule, RandomCallSequencesMatchTheReference)
{
    // Arbitrary interleavings of in- and out-of-schedule calls, as a
    // transient fault can leave them, over honest, garbage and missing
    // payloads from two systems with different inputs (so relays and
    // stored values can disagree) — the flat table must agree with the map
    // at every call.
    for (const auto& [n, f] : std::vector<std::pair<int, int>>{{4, 1}, {7, 2}}) {
        std::vector<Round_fixture> rounds;
        for (const char* tag : {"in-", "alt-"})
            for (Round r = 0; r <= f; ++r) rounds.push_back(round_fixture(n, f, r, tag));
        for (std::uint64_t seed = 1; seed <= 50; ++seed) {
            Rng rng{seed};
            const auto self = static_cast<Processor_id>(rng.below(static_cast<std::uint64_t>(n)));
            Lockstep_session session{n, f, self, val("in-" + std::to_string(self))};
            for (int call = 0; call < 12; ++call) {
                const auto r = static_cast<Round>(rng.below(static_cast<std::uint64_t>(f + 3))) - 1;
                if (rng.chance(0.5)) {
                    static_cast<void>(session.message_for_round(r));
                } else {
                    const auto source = rng.below(rounds.size());
                    Round_payloads views = rounds[static_cast<std::size_t>(source)].views;
                    for (auto& view : views)
                        if (rng.chance(0.2)) view.reset();
                    session.deliver_round(r, views);
                }
            }
            if (session.done()) {
                static_cast<void>(session.agreed_vector());
                static_cast<void>(session.decision());
            }
            ASSERT_FALSE(HasFailure()) << "n " << n << " seed " << seed;
        }
    }
}

} // namespace
