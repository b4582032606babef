// Robustness fuzzing: every decoder and every protocol session must survive
// arbitrary adversarial bytes — either parsing correctly, signalling
// Decode_error, or treating the input as missing. No crashes, no hangs, no
// out-of-range results.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <type_traits>

#include "bft/eig.h"
#include "bft/parallel_ic.h"
#include "bft/phase_king.h"
#include "bft/turpin_coan.h"
#include "clock/clock_sync.h"
#include "common/rng.h"
#include "crypto/commitment.h"
#include "crypto/merkle.h"
#include "sim/engine.h"
#include "sim/malicious.h"
#include "ssba/ssba.h"
#include "wire/codec.h"

namespace {

using namespace ga;
using common::Bytes;
using common::Rng;

Bytes random_bytes(Rng& rng, std::size_t max_len)
{
    Bytes data(static_cast<std::size_t>(rng.below(max_len + 1)));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
    return data;
}

TEST(Fuzz, ByteReaderNeverCrashesOnRandomBuffers)
{
    Rng rng{1};
    for (int trial = 0; trial < 2000; ++trial) {
        const Bytes data = random_bytes(rng, 64);
        common::Byte_reader reader{data};
        try {
            while (!reader.exhausted()) {
                switch (rng.below(4)) {
                case 0: (void)reader.get_u8(); break;
                case 1: (void)reader.get_u32(); break;
                case 2: (void)reader.get_u64(); break;
                default: (void)reader.get_bytes(); break;
                }
            }
        } catch (const common::Decode_error&) {
            // expected on underruns
        }
    }
}

TEST(Fuzz, ClockDecoderReturnsInRangeOrNothing)
{
    Rng rng{2};
    for (int trial = 0; trial < 2000; ++trial) {
        const Bytes payload = random_bytes(rng, 12);
        const auto value = clock::decode_clock(payload, 8);
        if (value.has_value()) {
            EXPECT_GE(*value, 0);
            EXPECT_LT(*value, 8);
        }
    }
}

TEST(Fuzz, OpeningDecoderRoundTripsOrThrows)
{
    Rng rng{3};
    for (int trial = 0; trial < 2000; ++trial) {
        const Bytes wire = random_bytes(rng, 96);
        common::Byte_reader reader{wire};
        try {
            const crypto::Opening opening = crypto::decode_opening(reader);
            // Whatever decoded must re-encode deterministically.
            (void)crypto::recommit(opening);
        } catch (const common::Decode_error&) {
        }
    }
}

TEST(Fuzz, MerkleVerifyRejectsRandomProofs)
{
    Rng rng{4};
    std::vector<Bytes> leaves{common::bytes_of("a"), common::bytes_of("b"),
                              common::bytes_of("c"), common::bytes_of("d")};
    const crypto::Merkle_tree tree{leaves};
    int accepted = 0;
    for (int trial = 0; trial < 500; ++trial) {
        crypto::Merkle_proof proof;
        const int depth = static_cast<int>(rng.below(4));
        for (int d = 0; d < depth; ++d) {
            crypto::Proof_node node;
            for (auto& byte : node.sibling) byte = static_cast<std::uint8_t>(rng.below(256));
            node.sibling_is_left = rng.chance(0.5);
            proof.push_back(node);
        }
        if (crypto::verify_inclusion(tree.root(), leaves[0], proof)) ++accepted;
    }
    // Only the genuine proof shape could verify; random digests never should
    // (collision probability ~2^-256).
    EXPECT_EQ(accepted, 0);
}

// ---- Protocol sessions under randomized payload storms: deliver garbage for
// every round; the session must terminate with *some* decision and identical
// schedule length, never crash. Sessions read borrowed views (the
// Round_payloads contract), so every round keeps its bytes in owned storage
// and hands the session views of it.

/// One round's payloads: owned storage plus the views a session reads.
struct Owned_round {
    std::vector<std::optional<Bytes>> storage;

    [[nodiscard]] bft::Round_payloads views() const
    {
        bft::Round_payloads payloads(storage.size());
        for (std::size_t j = 0; j < storage.size(); ++j)
            if (storage[j].has_value()) payloads[j] = *storage[j];
        return payloads;
    }
};

bft::Binary_session_factory phase_king_factory()
{
    return [](int n, int f, common::Processor_id self,
              int input) -> std::unique_ptr<bft::Session> {
        return std::make_unique<bft::Phase_king_session>(n, f, self, input);
    };
}

template <typename Make_session>
void storm_session(Make_session make, std::uint64_t seed)
{
    Rng rng{seed};
    auto session = make();
    const auto rounds = session->total_rounds();
    for (common::Round r = 0; r < rounds; ++r) {
        (void)session->message_for_round(r);
        Owned_round round{std::vector<std::optional<Bytes>>(4)};
        for (auto& payload : round.storage) {
            if (rng.chance(0.3)) continue; // missing
            payload = random_bytes(rng, 80);
        }
        session->deliver_round(r, round.views());
    }
    EXPECT_TRUE(session->done());
    (void)session->decision();
}

TEST(Fuzz, EigSurvivesPayloadStorm)
{
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        storm_session(
            [] { return std::make_unique<bft::Eig_session>(4, 1, 0, common::bytes_of("x")); },
            seed);
    }
}

TEST(Fuzz, PhaseKingSurvivesPayloadStorm)
{
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        storm_session([] { return std::make_unique<bft::Phase_king_session>(4, 0, 0, 1); }, seed);
    }
}

TEST(Fuzz, TurpinCoanSurvivesPayloadStorm)
{
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        storm_session(
            [] {
                return std::make_unique<bft::Turpin_coan_session>(
                    4, 0, 0, common::bytes_of("v"), phase_king_factory());
            },
            seed);
    }
}

TEST(Fuzz, ParallelIcSurvivesPayloadStorm)
{
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        storm_session(
            [] {
                return std::make_unique<bft::Parallel_ic_session>(4, 0, 0,
                                                                  common::bytes_of("v"));
            },
            seed);
    }
}

// ---- Views never read past their section. Twin sessions receive the same
// sections each round: one as exact-size heap buffers (AddressSanitizer flags
// any read past their end), the other as sub-spans of larger buffers padded
// with canary bytes — and, right after the section, the rest of the message
// it was truncated from, so a reader that ignored the view's end would find
// a well-formed continuation there and decode differently. Sections are
// mostly the session's own well-formed messages cut at random points, which
// truncates length prefixes and the blobs they announce. The twins must
// send, decide and agree identically.

template <typename Make_session>
void canary_storm(Make_session make, int n, std::uint64_t seed)
{
    static constexpr std::uint8_t k_canary = 0x01; // a valid tag, bit and small length byte
    Rng rng{seed};
    auto exact = make();
    auto embedded = make();
    const auto rounds = exact->total_rounds();
    for (common::Round r = 0; r < rounds; ++r) {
        const Bytes own = exact->message_for_round(r);
        ASSERT_EQ(embedded->message_for_round(r), own) << "round " << r;

        Owned_round exact_round{std::vector<std::optional<Bytes>>(static_cast<std::size_t>(n))};
        std::vector<Bytes> padded(static_cast<std::size_t>(n));
        bft::Round_payloads embedded_views(static_cast<std::size_t>(n));
        for (std::size_t j = 0; j < padded.size(); ++j) {
            if (rng.chance(0.15)) continue; // missing
            Bytes full = rng.chance(0.8) ? own : random_bytes(rng, 80);
            if (rng.chance(0.2) && !full.empty())
                full[rng.below(full.size())] = static_cast<std::uint8_t>(rng.below(256));
            const auto cut = static_cast<std::size_t>(
                rng.chance(0.4) ? full.size() : rng.below(full.size() + 1));
            exact_round.storage[j] =
                Bytes(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));

            const auto lead = static_cast<std::size_t>(1 + rng.below(8));
            Bytes& buffer = padded[j];
            buffer.assign(lead, k_canary);
            buffer.insert(buffer.end(), full.begin(), full.end());
            buffer.insert(buffer.end(), 16, k_canary);
            embedded_views[j] = common::Byte_view{buffer}.subspan(lead, cut);
        }
        exact->deliver_round(r, exact_round.views());
        embedded->deliver_round(r, embedded_views);
    }
    ASSERT_TRUE(exact->done());
    ASSERT_TRUE(embedded->done());
    EXPECT_EQ(embedded->decision(), exact->decision());
    if constexpr (std::is_base_of_v<bft::Ic_session, typename decltype(exact)::element_type>) {
        EXPECT_EQ(embedded->agreed_vector(), exact->agreed_vector());
    }
}

TEST(Fuzz, SessionViewsNeverReadPastTheirSection)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE(seed);
        canary_storm(
            [] { return std::make_unique<bft::Eig_session>(4, 1, 2, common::bytes_of("x")); }, 4,
            seed);
        canary_storm([] { return std::make_unique<bft::Phase_king_session>(5, 1, 1, 1); }, 5,
                     seed);
        canary_storm(
            [] {
                return std::make_unique<bft::Turpin_coan_session>(5, 1, 1, common::bytes_of("v"),
                                                                  phase_king_factory());
            },
            5, seed);
        canary_storm(
            [] {
                return std::make_unique<bft::Parallel_ic_session>(5, 1, 1,
                                                                  common::bytes_of("v"));
            },
            5, seed);
    }
}

// ---- The fused parallel-IC session against a reference composition of n
// standalone Turpin_coan_session + Phase_king_session instances, each
// sender's payload split into per-instance sections and dispatched. Both run
// side by side through seeded storms of honest, bit-flipped, truncated,
// random and missing sections, and through call patterns a transient fault
// can leave behind (repeated, skipped, negative and past-the-end rounds).
// Every minted message must match byte for byte, and so must done(), the
// agreed vector and the decision.

class Reference_parallel_ic {
public:
    Reference_parallel_ic(int n, int f, common::Processor_id self, bft::Value input)
        : n_{n}, f_{f}, self_{self}, input_{std::move(input)}
    {
    }

    [[nodiscard]] common::Round total_rounds() const
    {
        return 1 + make_instance(bft::Value{})->total_rounds();
    }

    Bytes message_for_round(common::Round r)
    {
        Bytes payload;
        if (r == 0) {
            common::put_bytes(payload, input_);
            return payload;
        }
        for (const auto& instance : instances_)
            common::put_bytes(payload, instance->message_for_round(r - 1));
        return payload;
    }

    void deliver_round(common::Round r, const bft::Round_payloads& payloads)
    {
        if (done_ || r < 0) return;
        const auto n = static_cast<std::size_t>(n_);
        if (r == 0) {
            instances_.clear();
            for (std::size_t j = 0; j < n; ++j) {
                bft::Value seed;
                if (payloads[j].has_value()) {
                    try {
                        common::Byte_reader reader{*payloads[j]};
                        const common::Byte_view value = reader.get_view();
                        if (reader.exhausted()) seed.assign(value.begin(), value.end());
                    } catch (const common::Decode_error&) {
                    }
                }
                if (static_cast<int>(j) == self_) seed = input_;
                instances_.push_back(make_instance(std::move(seed)));
            }
            return;
        }
        if (instances_.empty()) return;
        std::vector<bft::Round_payloads> per_instance(n, bft::Round_payloads(n));
        for (std::size_t sender = 0; sender < n; ++sender) {
            if (!payloads[sender].has_value()) continue;
            try {
                common::Byte_reader reader{*payloads[sender]};
                for (auto& instance : per_instance) instance[sender] = reader.get_view();
                if (reader.exhausted()) continue;
            } catch (const common::Decode_error&) {
            }
            for (auto& instance : per_instance) instance[sender].reset();
        }
        bool all_done = true;
        for (std::size_t j = 0; j < n; ++j) {
            instances_[j]->deliver_round(r - 1, per_instance[j]);
            all_done &= instances_[j]->done();
        }
        if (!all_done) return;
        for (const auto& instance : instances_) agreed_vector_.push_back(instance->decision());
        done_ = true;
    }

    [[nodiscard]] bool done() const { return done_; }
    [[nodiscard]] const std::vector<bft::Value>& agreed_vector() const { return agreed_vector_; }

    [[nodiscard]] bft::Value decision() const
    {
        std::map<bft::Value, int, bft::Value_order> votes;
        for (const bft::Value& value : agreed_vector_)
            if (!value.empty()) ++votes[value];
        bft::Value best;
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
    [[nodiscard]] std::unique_ptr<bft::Session> make_instance(bft::Value seed) const
    {
        return std::make_unique<bft::Turpin_coan_session>(n_, f_, self_, std::move(seed),
                                                          phase_king_factory());
    }

    int n_;
    int f_;
    common::Processor_id self_;
    bft::Value input_;
    std::vector<std::unique_ptr<bft::Session>> instances_;
    std::vector<bft::Value> agreed_vector_;
    bool done_ = false;
};

/// Splits a well-formed round-r >= 1 message into its n sections.
std::vector<Bytes> sections_of(const Bytes& message, int n)
{
    std::vector<Bytes> sections;
    common::Byte_reader reader{message};
    for (int j = 0; j < n; ++j) sections.push_back(reader.get_bytes());
    return sections;
}

/// One section from a faulty sender: often still the honest bytes, else a
/// plausible alternative (another tagged value, bottom, a bit), a bit flip, a
/// truncation or random bytes.
Bytes storm_section(Rng& rng, const Bytes& honest, const std::vector<Bytes>& palette)
{
    Bytes section = honest;
    switch (rng.weighted({6, 2, 1, 2, 1, 1, 1})) {
    case 0: break;
    case 1: {
        section = Bytes{1};
        common::put_bytes(section, palette[rng.below(palette.size())]);
        break;
    }
    case 2: section = Bytes{0}; break;
    case 3: section = Bytes{static_cast<std::uint8_t>(rng.below(2))}; break;
    case 4:
        if (!section.empty())
            section[rng.below(section.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        break;
    case 5: section.resize(rng.below(section.size() + 1)); break;
    default: section = random_bytes(rng, 12); break;
    }
    return section;
}

/// Call pattern: mostly the next round in order, sometimes a repeat, a skip,
/// a restart from round 0, a negative round or one past the end.
common::Round storm_round(Rng& rng, common::Round next, common::Round total)
{
    switch (rng.weighted({70, 5, 5, 8, 6, 2})) {
    case 0: return next;
    case 1: return -1 - static_cast<common::Round>(rng.below(3));
    case 2: return total + static_cast<common::Round>(rng.below(3));
    case 3: return std::max<common::Round>(0, next - 1);
    case 4: return next + 1;
    default: return 0;
    }
}

TEST(Fuzz, ParallelIcMatchesPerInstanceComposition)
{
    int runs_done = 0;
    int slots_decided = 0;
    for (std::uint64_t seed = 1; seed <= 600; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng{seed};
        const int f = static_cast<int>(seed % 3);
        const int n = 4 * f + 1 + static_cast<int>((seed / 3) % 4);
        const auto self = static_cast<common::Processor_id>(rng.below(static_cast<std::uint64_t>(n)));
        const std::vector<Bytes> palette{common::bytes_of("a"), common::bytes_of("bb"), Bytes{},
                                         common::bytes_of("outcome-" + std::to_string(seed))};
        const Bytes input = palette[rng.below(palette.size())];
        // Light storms let quorums form and slots decide real values; heavy
        // ones keep most instances at bottom.
        constexpr double k_fault_rates[] = {0.05, 0.15, 0.4};
        const double fault_rate = k_fault_rates[seed / 12 % 3];

        bft::Parallel_ic_session fused{n, f, self, input};
        Reference_parallel_ic reference{n, f, self, input};
        const common::Round total = reference.total_rounds();
        ASSERT_EQ(fused.total_rounds(), total);

        common::Round next = 0;
        for (int step = 0; step < total + 8; ++step) {
            const common::Round r = storm_round(rng, next, total);
            if (r >= 0 && r < total) next = r + 1;
            const Bytes own = fused.message_for_round(r);
            ASSERT_EQ(reference.message_for_round(r), own) << "round " << r;

            Owned_round round{std::vector<std::optional<Bytes>>(static_cast<std::size_t>(n))};
            for (int s = 0; s < n; ++s) {
                auto& payload = round.storage[static_cast<std::size_t>(s)];
                if (s == self && rng.chance(0.9)) {
                    payload = own;
                    continue;
                }
                if (rng.chance(fault_rate / 4)) continue; // missing sender
                if (!rng.chance(fault_rate)) {
                    payload = own; // an honest sender in lockstep with this one
                    continue;
                }
                Bytes message;
                if (r == 0 || own.empty()) {
                    common::put_bytes(message, palette[rng.below(palette.size())]);
                    if (rng.chance(0.15)) message = random_bytes(rng, 16);
                } else {
                    for (const Bytes& honest : sections_of(own, n)) {
                        if (rng.chance(0.02)) continue; // missing section
                        common::put_bytes(message, storm_section(rng, honest, palette));
                    }
                }
                if (rng.chance(0.04)) message.push_back(0); // trailing junk
                payload = std::move(message);
            }
            const bft::Round_payloads views = round.views();
            fused.deliver_round(r, views);
            reference.deliver_round(r, views);
            ASSERT_EQ(fused.done(), reference.done()) << "round " << r;
        }
        if (!fused.done()) continue;
        ++runs_done;
        ASSERT_EQ(fused.agreed_vector(), reference.agreed_vector());
        EXPECT_EQ(fused.decision(), reference.decision());
        for (const Bytes& slot : fused.agreed_vector()) slots_decided += slot.empty() ? 0 : 1;
    }
    // The storms must reach decisions, and real values, often enough to
    // compare more than defaults.
    EXPECT_GT(runs_done, 300);
    EXPECT_GT(slots_decided, 600);
}

// ---- Seeded Net_model schedules: random partial-synchrony configurations
// must never crash the engine, must keep every honest clock in range, and
// must stay bit-identical across thread counts. On failure the (seed,
// config) pair printed by SCOPED_TRACE replays the schedule exactly.

std::string describe_net(const sim::Net_model& net)
{
    std::ostringstream out;
    out << "Net_model{delta=" << net.delta << " jitter=" << net.jitter << " drop=" << net.drop
        << " shuffle=" << net.shuffle << " seed=" << net.seed << " windows=[";
    for (const sim::Net_window& w : net.windows) {
        out << "[" << w.begin << "," << w.end << "){";
        for (const auto id : w.isolated) out << id << " ";
        out << "} ";
    }
    out << "]}";
    return out.str();
}

sim::Net_model random_net(Rng& rng, int n, common::Pulse horizon)
{
    sim::Net_model net;
    net.delta = 1 + static_cast<int>(rng.below(6));
    net.jitter = net.delta > 1 ? 0.25 * static_cast<double>(rng.below(5)) : 1.0;
    net.drop = 0.1 * static_cast<double>(rng.below(4));
    net.shuffle = rng.chance(0.5);
    net.seed = rng.split(7).next_u64();
    const int n_windows = static_cast<int>(rng.below(3));
    for (int w = 0; w < n_windows; ++w) {
        sim::Net_window window;
        window.begin = static_cast<common::Pulse>(rng.below(static_cast<std::uint64_t>(horizon)));
        window.end = window.begin + 1 + static_cast<common::Pulse>(rng.below(6));
        if (rng.chance(0.5)) {
            window.isolated.push_back(
                static_cast<common::Processor_id>(rng.below(static_cast<std::uint64_t>(n))));
        }
        net.windows.push_back(std::move(window));
    }
    return net;
}

/// Steps a clock system under `net` and harvests every honest clock value
/// plus the engine's wire accounting — the full observable surface.
struct Chaos_result {
    std::vector<int> clocks;
    sim::Traffic_stats stats;

    friend bool operator==(const Chaos_result&, const Chaos_result&) = default;
};

Chaos_result clock_chaos_run(const sim::Net_model& net, int threads, std::uint64_t seed)
{
    const int n = 5;
    const int f = 1;
    const int period = 8;
    Rng rng{seed};
    sim::Engine engine{sim::complete_graph(n), rng.split(0), sim::Engine_config{threads}, net};
    for (common::Processor_id id = 0; id < n - f; ++id) {
        engine.install(std::make_unique<clock::Clock_sync_processor>(
            id, n, f, period, rng.split(id + 1), /*initial=*/0, net.delta));
    }
    engine.install(std::make_unique<sim::Random_babbler>(n - 1, rng.split(50), 12),
                   /*byzantine=*/true);
    engine.run(60);
    Chaos_result result;
    for (common::Processor_id id = 0; id < n - f; ++id) {
        result.clocks.push_back(engine.processor_as<clock::Clock_sync_processor>(id).clock());
    }
    result.stats = engine.stats();
    return result;
}

TEST(Fuzz, RandomNetSchedulesNeverCrashAndStayThreadInvariant)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        Rng rng{seed};
        const sim::Net_model net = random_net(rng, 5, 60);
        SCOPED_TRACE("replay: seed=" + std::to_string(seed) + " " + describe_net(net));
        ASSERT_NO_THROW(net.validate(5));

        const Chaos_result single = clock_chaos_run(net, 1, seed);
        for (const int value : single.clocks) {
            EXPECT_GE(value, 0);
            EXPECT_LT(value, 8);
        }
        for (const int threads : {2, 4}) {
            EXPECT_EQ(clock_chaos_run(net, threads, seed), single) << threads << " threads";
        }
        EXPECT_EQ(clock_chaos_run(net, 1, seed), single) << "repeated run";
    }
}

TEST(Fuzz, NetScheduleRegressionReplay)
{
    // A pinned (seed, config) pair from the fuzzer's space, kept as a
    // deterministic regression: the exact schedule a failure report names
    // can be re-run forever. The harvested values are self-consistent
    // across runs and threads; the clock range is the only semantic bound.
    sim::Net_model net;
    net.delta = 5;
    net.jitter = 0.75;
    net.drop = 0.2;
    net.shuffle = true;
    net.seed = 0xfeedface;
    net.windows.push_back({12, 17, {}});
    net.windows.push_back({30, 33, {2}});
    SCOPED_TRACE("replay: seed=9 " + describe_net(net));

    const Chaos_result first = clock_chaos_run(net, 1, 9);
    for (const int value : first.clocks) {
        EXPECT_GE(value, 0);
        EXPECT_LT(value, 8);
    }
    EXPECT_EQ(clock_chaos_run(net, 1, 9), first);
    EXPECT_EQ(clock_chaos_run(net, 4, 9), first);
    EXPECT_GT(first.stats.dropped, 0);
}

TEST(Fuzz, SessionsIgnoreOutOfScheduleCalls)
{
    // Transient-fault remnants: deliveries for rounds that never happen must
    // be ignored, not crash.
    const Owned_round junk{{Bytes{0x01}, std::nullopt, common::bytes_of("stale"), Bytes{},
                            Bytes{0x00, 0x01}}};
    const bft::Round_payloads five = junk.views();
    const bft::Round_payloads four(five.begin(), five.begin() + 4);

    bft::Eig_session eig{4, 1, 0, common::bytes_of("x")};
    eig.deliver_round(-3, four);
    eig.deliver_round(99, four);
    EXPECT_FALSE(eig.done());

    bft::Phase_king_session pk{5, 1, 0, 1};
    pk.deliver_round(-1, five);
    pk.deliver_round(1000, five);
    EXPECT_FALSE(pk.done());
    (void)pk.message_for_round(-5);
    (void)pk.message_for_round(500);
}

// --------------------------------------------------------------- Wire codec

/// A random message whose payload mimics one of the protocol's shapes:
/// empty heartbeats, tiny clock beacons, mid-size IC sections, commitment
/// digests, and occasionally a large blob.
sim::Message random_wire_message(Rng& rng)
{
    static constexpr std::size_t k_shapes[] = {0, 1, 8, 33, 64, 512};
    sim::Message msg;
    msg.from = static_cast<common::Processor_id>(rng.between(-1, 64));
    msg.to = static_cast<common::Processor_id>(rng.between(-1, 64));
    msg.sent_at = rng.between(0, 1'000'000);
    msg.payload = common::Shared_payload{
        random_bytes(rng, k_shapes[rng.below(std::size(k_shapes))])};
    return msg;
}

TEST(CodecFuzz, SeededMessagesRoundTripByteExact)
{
    for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng{seed};
        std::vector<sim::Message> batch;
        Bytes buf;
        for (int trial = 0; trial < 500; ++trial) {
            batch.push_back(random_wire_message(rng));
            wire::encode_frame(batch.back(), buf);
        }
        // Re-encoding the decoded batch must reproduce the exact bytes: the
        // transports' bit-identity contract rests on this.
        const std::vector<sim::Message> decoded = wire::decode_batch(buf);
        ASSERT_EQ(decoded.size(), batch.size());
        Bytes again;
        wire::encode_batch(decoded, again);
        EXPECT_EQ(again, buf);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            EXPECT_EQ(decoded[i].from, batch[i].from);
            EXPECT_EQ(decoded[i].to, batch[i].to);
            EXPECT_EQ(decoded[i].sent_at, batch[i].sent_at);
            EXPECT_EQ(decoded[i].payload.bytes(), batch[i].payload.bytes());
        }
    }
}

TEST(CodecFuzz, EveryTruncationLengthThrowsWithAByteOffset)
{
    Rng rng{21};
    Bytes buf;
    wire::encode_frame(random_wire_message(rng), buf);
    // cut = 0 (an empty buffer) is a legal zero-frame batch; every strictly
    // partial prefix must throw.
    for (std::size_t cut = 1; cut < buf.size(); ++cut) {
        SCOPED_TRACE("cut at " + std::to_string(cut));
        const Bytes head{buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(cut)};
        try {
            (void)wire::decode_batch(head);
            FAIL() << "a truncated frame must not decode";
        } catch (const common::Contract_error& e) {
            EXPECT_NE(std::string{e.what()}.find("at byte"), std::string::npos) << e.what();
        }
    }
}

TEST(CodecFuzz, SeededBitFlipsNeverDecodeSilently)
{
    Rng rng{22};
    for (int trial = 0; trial < 300; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        Bytes buf;
        const sim::Message original = random_wire_message(rng);
        wire::encode_frame(original, buf);
        const std::size_t victim = static_cast<std::size_t>(rng.below(buf.size()));
        buf[victim] ^= static_cast<std::uint8_t>(1U << rng.below(8));
        try {
            std::size_t offset = 0;
            const sim::Message decoded = wire::decode_frame(buf, offset);
            // A flip in the length field can only "succeed" by truncation or
            // checksum failure, both thrown above; reaching here with damaged
            // content means the checksum missed it — a codec bug.
            ADD_FAILURE() << "bit flip at byte " << victim << " decoded silently (from="
                          << decoded.from << ")";
        } catch (const common::Contract_error& e) {
            EXPECT_NE(std::string{e.what()}.find("at byte"), std::string::npos) << e.what();
        }
    }
}

TEST(CodecFuzz, RandomGarbageEitherThrowsOrRoundTrips)
{
    Rng rng{23};
    for (int trial = 0; trial < 2000; ++trial) {
        const Bytes garbage = random_bytes(rng, 128);
        try {
            const std::vector<sim::Message> decoded = wire::decode_batch(garbage);
            // Astronomically unlikely, but if garbage parses it must re-encode
            // to the same bytes (decode is a right inverse of encode).
            Bytes again;
            wire::encode_batch(decoded, again);
            EXPECT_EQ(again, garbage);
        } catch (const common::Contract_error&) {
            // expected: magic, truncation, or checksum tripwire
        }
    }
}

/// The reference checksum: 64-bit FNV-1a, one byte at a time.
std::uint64_t scalar_fnv1a(common::Byte_view bytes)
{
    std::uint64_t hash = 14695981039346656037ULL;
    for (const std::uint8_t byte : bytes) {
        hash ^= byte;
        hash *= 1099511628211ULL;
    }
    return hash;
}

TEST(CodecBatchFuzz, ManyChecksumsEqualScalarFnv1a)
{
    // Published FNV-1a 64 vectors pin the reference itself.
    const std::string a = "a";
    const std::string foobar = "foobar";
    EXPECT_EQ(scalar_fnv1a({}), 0xcbf29ce484222325ULL);
    EXPECT_EQ(scalar_fnv1a({reinterpret_cast<const std::uint8_t*>(a.data()), a.size()}),
              0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(scalar_fnv1a({reinterpret_cast<const std::uint8_t*>(foobar.data()), foobar.size()}),
              0x85944171f73967e8ULL);

    Rng rng{31};
    // Three length regimes: uniform up to 2 KiB, all spans one length, and
    // wildly unequal (empty, tiny and 2 KiB spans mixed).
    const auto length = [&rng](int regime, std::size_t shared) -> std::size_t {
        switch (regime) {
        case 0: return static_cast<std::size_t>(rng.below(2049));
        case 1: return shared;
        default: {
            static constexpr std::size_t k_lengths[] = {0, 0, 1, 2, 7, 2048, 2047};
            return k_lengths[rng.below(std::size(k_lengths))];
        }
        }
    };
    for (int regime = 0; regime < 3; ++regime) {
        for (std::size_t count = 0; count <= 70; ++count) {
            SCOPED_TRACE("regime " + std::to_string(regime) + ", " + std::to_string(count) +
                         " spans");
            const auto shared = static_cast<std::size_t>(rng.below(300));
            std::vector<Bytes> owned;
            for (std::size_t i = 0; i < count; ++i) {
                Bytes bytes(length(regime, shared));
                for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
                owned.push_back(std::move(bytes));
            }
            const std::vector<common::Byte_view> spans(owned.begin(), owned.end());
            // One extra output slot: fnv1a_many writes only the first count.
            std::vector<std::uint64_t> out(count + 1, 0x5A5A5A5A5A5A5A5AULL);
            wire::fnv1a_many(spans, out);
            for (std::size_t i = 0; i < count; ++i) {
                ASSERT_EQ(out[i], scalar_fnv1a(spans[i])) << "span " << i;
                ASSERT_EQ(wire::fnv1a(spans[i]), out[i]) << "span " << i;
            }
            EXPECT_EQ(out[count], 0x5A5A5A5A5A5A5A5AULL);
        }
    }
}

TEST(CodecBatchFuzz, BatchedDecodeFailsWhereOneByOneDecodeFails)
{
    // decode_batch checksums its frames together; decoding them one by one
    // with decode_frame is the reference. Both must agree on every damaged
    // batch — same message, same byte offset — and on every intact one.
    const auto one_by_one = [](const Bytes& buf, std::vector<sim::Message>& out) -> std::string {
        try {
            std::size_t offset = 0;
            while (offset < buf.size()) out.push_back(wire::decode_frame(buf, offset));
        } catch (const common::Contract_error& e) {
            return e.what();
        }
        return {};
    };
    Rng rng{32};
    for (int trial = 0; trial < 400; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        std::vector<sim::Message> batch;
        // Now and then a batch long enough that decode_batch checksums it
        // in several rounds.
        const auto frames =
            static_cast<int>(trial % 16 == 0 ? 300 + rng.below(500) : rng.below(40));
        for (int i = 0; i < frames; ++i) batch.push_back(random_wire_message(rng));
        Bytes buf;
        wire::encode_batch(batch, buf);
        // No damage, one to three flipped bits, or a cut, at random places.
        const auto kind = rng.below(4);
        if (kind == 3 && !buf.empty()) {
            buf.resize(static_cast<std::size_t>(rng.below(buf.size())));
        } else {
            for (std::uint64_t flip = 0; flip < kind && !buf.empty(); ++flip) {
                buf[static_cast<std::size_t>(rng.below(buf.size()))] ^=
                    static_cast<std::uint8_t>(1U << rng.below(8));
            }
        }
        std::vector<sim::Message> want;
        const std::string want_error = one_by_one(buf, want);
        std::string got_error;
        std::vector<sim::Message> got;
        try {
            got = wire::decode_batch(buf);
        } catch (const common::Contract_error& e) {
            got_error = e.what();
        }
        ASSERT_EQ(got_error, want_error);
        if (!want_error.empty()) continue;
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].from, want[i].from);
            EXPECT_EQ(got[i].to, want[i].to);
            EXPECT_EQ(got[i].sent_at, want[i].sent_at);
            EXPECT_EQ(got[i].payload.bytes(), want[i].payload.bytes());
        }
    }
}

} // namespace
