// Broadcast delivery equivalence.
//
// A broadcast must deliver exactly what the same payload sent as one unicast
// per neighbor, in neighbor order, delivers: the same inbox order, bytes and
// timestamps at every recipient, the same Traffic_stats and the same wire
// accounting — whatever else the sender sends in the same pulse, at any
// thread count, on any graph, and whatever the engine does to in-flight
// traffic (disconnection, transient faults, a wire link). Every case runs a
// scripted system twice, once broadcasting and once with each broadcast
// spelled out as unicasts, and compares the two runs.
//
// The last case checks the replica side of the same traffic: every pulse
// message a replica broadcasts must equal a fresh encode of its own fields,
// including retransmit pulses under delta = 2 and after a transient fault,
// and a buffer another holder still references must never change.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "authority/agent.h"
#include "authority/punishment.h"
#include "bft/ic_select.h"
#include "pipeline/pipeline_authority.h"
#include "sim/engine.h"
#include "sim/two_faced.h"
#include "ssba/clocked_ic.h"
#include "wire/transport.h"

namespace {

using namespace ga;
using common::Bytes;
using common::Processor_id;
using common::Pulse;
using common::Rng;
using common::Shared_payload;
using sim::Message;
using sim::Processor;
using sim::Pulse_context;

/// One send of a script: a broadcast, or a unicast to `to`.
struct Send {
    bool broadcast = true;
    Processor_id to = -1;
};

/// What processor `id` sends at pulse `pulse`.
using Script = std::function<std::vector<Send>(Processor_id id, Pulse pulse)>;

/// (pulse, from, sent_at, payload bytes) for every delivered message.
using Log = std::vector<std::tuple<Pulse, Processor_id, Pulse, Bytes>>;

Bytes payload_of(Processor_id id, Pulse pulse, std::size_t index)
{
    Bytes payload;
    common::put_u32(payload, static_cast<std::uint32_t>(id));
    common::put_u64(payload, static_cast<std::uint64_t>(pulse));
    payload.push_back(static_cast<std::uint8_t>(index));
    return payload;
}

/// Logs its inbox, then runs its script. With `expand` every broadcast is
/// sent as one unicast per neighbor, in neighbor order, aliasing one buffer.
class Scripted final : public Processor {
public:
    Scripted(Processor_id id, Script script, bool expand)
        : Processor{id}, script_{std::move(script)}, expand_{expand}
    {
    }

    void on_pulse(Pulse_context& ctx) override
    {
        for (const Message& m : ctx.inbox())
            log.emplace_back(ctx.pulse(), m.from, m.sent_at, m.payload.bytes());
        const std::vector<Send> sends = script_(id(), ctx.pulse());
        for (std::size_t i = 0; i < sends.size(); ++i) {
            Shared_payload payload{payload_of(id(), ctx.pulse(), i)};
            if (!sends[i].broadcast) {
                ctx.send(sends[i].to, payload);
            } else if (expand_) {
                for (const Processor_id to : ctx.neighbors()) ctx.send(to, payload);
            } else {
                ctx.broadcast(payload);
            }
            sent.push_back(payload);
        }
    }

    void corrupt(Rng&) override {}

    Log log;
    /// Every payload handle this processor sent: a transient fault's garble
    /// must never reach these buffers.
    std::vector<Shared_payload> sent;

private:
    Script script_;
    bool expand_;
};

struct Scenario {
    std::function<sim::Graph()> graph = [] { return sim::complete_graph(5); };
    sim::Net_model net;
    Script script;
    Pulse pulses = 8;
    /// Called after every pulse with the pulse count so far.
    std::function<void(sim::Engine&, Pulse)> after_pulse;
    /// Ids that run as a Two_faced_processor over two scripted faces (the
    /// second face's script sees pulse + 1000, so the faces differ).
    std::vector<Processor_id> two_faced;
    std::optional<wire::Transport_kind> link;
};

struct Outcome {
    std::vector<Log> logs;
    sim::Traffic_stats stats;
    wire::Link_stats link;
    /// Encoded bytes the link crossed in each pulse.
    std::vector<std::int64_t> pulse_bytes;
};

Outcome run(const Scenario& scenario, bool expand, int threads)
{
    sim::Engine engine{scenario.graph(), Rng{11}, sim::Engine_config{threads}, scenario.net};
    std::unique_ptr<wire::Transport> link;
    if (scenario.link.has_value()) {
        wire::Wire_config config;
        config.kind = *scenario.link;
        link = wire::make_transport(config);
        engine.set_link(link.get());
    }
    const int n = engine.size();
    for (Processor_id id = 0; id < n; ++id) {
        const bool two_faced =
            std::find(scenario.two_faced.begin(), scenario.two_faced.end(), id) !=
            scenario.two_faced.end();
        if (!two_faced) {
            engine.install(std::make_unique<Scripted>(id, scenario.script, expand));
            continue;
        }
        Script shifted = [script = scenario.script](Processor_id who, Pulse pulse) {
            return script(who, pulse + 1000);
        };
        engine.install(std::make_unique<sim::Two_faced_processor>(
                           std::make_unique<Scripted>(id, scenario.script, expand),
                           std::make_unique<Scripted>(id, std::move(shifted), expand),
                           /*split_at=*/n / 2),
                       /*byzantine=*/true);
    }
    Outcome outcome;
    for (Pulse p = 1; p <= scenario.pulses; ++p) {
        const std::int64_t crossed = link ? link->stats().bytes : 0;
        engine.run_pulse();
        if (link) outcome.pulse_bytes.push_back(link->stats().bytes - crossed);
        if (scenario.after_pulse) scenario.after_pulse(engine, p);
    }

    for (Processor_id id = 0; id < n; ++id) {
        if (engine.is_byzantine(id)) {
            outcome.logs.emplace_back();
            continue;
        }
        auto& scripted = engine.processor_as<Scripted>(id);
        outcome.logs.push_back(scripted.log);
        // Copy-on-write isolation: whatever the engine did to in-flight
        // copies, every buffer this sender minted still holds its bytes.
        for (std::size_t i = 0; i < scripted.sent.size(); ++i) {
            const Bytes& bytes = scripted.sent[i].bytes();
            EXPECT_EQ(bytes.size(), 13u) << "sender " << id;
            if (bytes.size() == 13) {
                EXPECT_EQ(common::Byte_reader{bytes}.get_u32(), static_cast<std::uint32_t>(id))
                    << "sender " << id << " buffer " << i << " was written through";
            }
        }
    }
    outcome.stats = engine.stats();
    if (link) outcome.link = link->stats();
    return outcome;
}

/// Runs `scenario` broadcasting and expanded, at 1 and 4 threads, and expects
/// one outcome from all four. Returns it for case-specific checks.
Outcome expect_broadcast_equals_unicasts(const Scenario& scenario)
{
    const Outcome reference = run(scenario, /*expand=*/true, /*threads=*/1);
    for (const int threads : {1, 4}) {
        for (const bool expand : {false, true}) {
            const Outcome got = run(scenario, expand, threads);
            EXPECT_EQ(got.logs.size(), reference.logs.size());
            for (std::size_t id = 0; id < got.logs.size() && id < reference.logs.size(); ++id) {
                EXPECT_EQ(got.logs[id], reference.logs[id])
                    << "recipient " << id << ", threads " << threads << ", expand " << expand;
            }
            EXPECT_EQ(got.stats, reference.stats) << "threads " << threads;
            EXPECT_EQ(got.link, reference.link) << "threads " << threads;
        }
    }
    return reference;
}

std::size_t deliveries(const Outcome& outcome)
{
    std::size_t total = 0;
    for (const Log& log : outcome.logs) total += log.size();
    return total;
}

TEST(Delivery, BroadcastAndUnicastFromOneSenderInBothOrders)
{
    Scenario scenario;
    scenario.script = [](Processor_id id, Pulse pulse) -> std::vector<Send> {
        const Processor_id next = (id + 1) % 5;
        if (id == 2) return {{false, 0}, {true, -1}, {false, 0}, {false, 4}};
        if (id == 3) return {{true, -1}, {false, 1}, {false, next}};
        if (pulse % 2 == 0) return {{false, next}, {true, -1}};
        return {{true, -1}, {false, next}};
    };
    const Outcome outcome = expect_broadcast_equals_unicasts(scenario);
    EXPECT_GT(deliveries(outcome), 0u);
}

TEST(Delivery, TwoBroadcastsFromOneSender)
{
    Scenario scenario;
    scenario.script = [](Processor_id id, Pulse) -> std::vector<Send> {
        if (id == 1) return {{true, -1}, {true, -1}};
        if (id == 4) return {{true, -1}, {false, 0}, {true, -1}};
        return {{true, -1}};
    };
    const Outcome outcome = expect_broadcast_equals_unicasts(scenario);
    // Every pulse offers 4 copies per broadcast plus sender 4's unicast.
    EXPECT_EQ(outcome.stats.messages, 8 * (4 + 8 + 4 + 4 + 9));
}

TEST(Delivery, TwoFacedFacesBroadcastThroughTheirCapturedOutbox)
{
    Scenario scenario;
    scenario.script = [](Processor_id id, Pulse pulse) -> std::vector<Send> {
        if (pulse % 3 == 0) return {{false, (id + 2) % 5}, {true, -1}};
        return {{true, -1}};
    };
    scenario.two_faced = {1, 3};
    const Outcome outcome = expect_broadcast_equals_unicasts(scenario);
    EXPECT_GT(deliveries(outcome), 0u);
}

TEST(Delivery, BroadcastOnANonCompleteGraphReachesNeighborsOnly)
{
    Scenario scenario;
    scenario.graph = [] {
        sim::Graph graph = sim::ring_graph(6);
        graph.add_edge(0, 3);
        return graph;
    };
    scenario.script = [](Processor_id id, Pulse) -> std::vector<Send> {
        return {{true, -1}, {false, (id + 1) % 6}};
    };
    const Outcome outcome = expect_broadcast_equals_unicasts(scenario);
    for (std::size_t id = 0; id < outcome.logs.size(); ++id) {
        const sim::Graph graph = scenario.graph();
        for (const auto& [pulse, from, sent_at, bytes] : outcome.logs[id]) {
            EXPECT_TRUE(graph.has_edge(from, static_cast<Processor_id>(id)))
                << from << " reached non-neighbor " << id;
        }
    }
    // Degrees 3, 2, 2, 3, 2, 2 plus one unicast per sender, over 8 pulses.
    EXPECT_EQ(outcome.stats.messages, 8 * (14 + 6));
}

TEST(Delivery, DisconnectWhileBroadcastsAreInFlight)
{
    Scenario scenario;
    scenario.script = [](Processor_id id, Pulse) -> std::vector<Send> {
        if (id == 0) return {{false, 2}, {true, -1}, {false, 3}};
        return {{true, -1}};
    };
    scenario.after_pulse = [](sim::Engine& engine, Pulse p) {
        if (p == 3) engine.disconnect(2);
        if (p == 5) engine.disconnect(4);
    };
    const Outcome outcome = expect_broadcast_equals_unicasts(scenario);
    for (const auto& [pulse, from, sent_at, bytes] : outcome.logs[1]) {
        if (pulse > 3) {
            EXPECT_NE(from, 2) << "a disconnected sender's traffic leaked";
        }
    }
    EXPECT_TRUE(outcome.logs[2].size() <= 3 * 6u) << "a disconnected recipient kept receiving";
}

TEST(Delivery, TransientFaultOverInFlightBroadcasts)
{
    // The fault garbles in-flight copies through copy-on-write clones and
    // draws the engine Rng per copy in delivery order: the garbled logs
    // match only if broadcast copies are garbled exactly like unicasts.
    Scenario scenario;
    scenario.script = [](Processor_id id, Pulse pulse) -> std::vector<Send> {
        if (id == 3 && pulse % 2 == 1) return {{true, -1}, {false, 1}};
        return {{true, -1}};
    };
    scenario.after_pulse = [](sim::Engine& engine, Pulse p) {
        if (p == 3 || p == 6) engine.inject_transient_fault();
    };
    const Outcome outcome = expect_broadcast_equals_unicasts(scenario);
    // Some copies were dropped and some garbled, and the garble stayed in
    // the copy it hit: every intact delivery still carries its sender's id.
    const std::int64_t offered = outcome.stats.messages;
    EXPECT_LT(static_cast<std::int64_t>(deliveries(outcome)), offered);
    bool garbled = false;
    for (const Log& log : outcome.logs) {
        for (const auto& [pulse, from, sent_at, bytes] : log) {
            if (bytes != payload_of(from, sent_at, bytes.size() == 13 ? bytes[12] : 0)) {
                garbled = true;
            }
        }
    }
    EXPECT_TRUE(garbled);
}

TEST(Delivery, AdversarialNetTreatsEveryCopyAlike)
{
    Scenario scenario;
    scenario.net.delta = 3;
    scenario.net.jitter = 0.5;
    scenario.net.drop = 0.1;
    scenario.net.shuffle = true;
    scenario.net.seed = 5;
    scenario.script = [](Processor_id id, Pulse pulse) -> std::vector<Send> {
        if (pulse % 2 == 0) return {{false, (id + 1) % 5}, {true, -1}};
        return {{true, -1}, {true, -1}};
    };
    scenario.pulses = 12;
    const Outcome outcome = expect_broadcast_equals_unicasts(scenario);
    EXPECT_GT(outcome.stats.dropped, 0);
    EXPECT_GT(outcome.stats.delayed, 0);
}

TEST(Delivery, RingAndLoopbackAgreeAtOneAndFourThreads)
{
    Scenario scenario;
    scenario.graph = [] { return sim::complete_graph(6); };
    // Every sender repeats its sends 1, 2, ..., 5, 4, ..., 1 times over nine
    // pulses, so pulses grow and then shrink: the ring's frame buffer grows
    // mid-run, and later pulses reuse it for fewer bytes. Only the repeat
    // count drops the second face's + 1000; the send pattern keeps the full
    // pulse, so processor 2's faces send differently.
    scenario.script = [](Processor_id id, Pulse pulse) -> std::vector<Send> {
        const Pulse step = pulse % 1000;
        const Pulse repeats = std::min(step + 1, 9 - step);
        std::vector<Send> sends;
        for (Pulse r = 0; r < repeats; ++r) {
            if (id == 5) {
                sends.push_back({false, 0});
            } else if ((id + pulse + r) % 3 == 0) {
                sends.push_back({false, (id + 1) % 6});
                sends.push_back({true, -1});
            } else {
                sends.push_back({true, -1});
            }
        }
        return sends;
    };
    scenario.pulses = 9;
    scenario.two_faced = {2};
    const auto sends_of = [&scenario](Pulse pulse) {
        std::vector<std::pair<bool, Processor_id>> sends;
        for (const Send& s : scenario.script(2, pulse)) sends.emplace_back(s.broadcast, s.to);
        return sends;
    };
    bool equivocates = false;
    for (Pulse p = 0; p < scenario.pulses; ++p)
        equivocates = equivocates || sends_of(p) != sends_of(p + 1000);
    EXPECT_TRUE(equivocates) << "processor 2's faces must send differently";
    scenario.link = wire::Transport_kind::loopback;
    const Outcome loopback = expect_broadcast_equals_unicasts(scenario);
    scenario.link = wire::Transport_kind::ring;
    const Outcome ring = expect_broadcast_equals_unicasts(scenario);
    EXPECT_EQ(ring.logs, loopback.logs);
    EXPECT_EQ(ring.stats, loopback.stats);
    EXPECT_EQ(ring.link, loopback.link);
    EXPECT_EQ(ring.pulse_bytes, loopback.pulse_bytes);

    // The largest pulse comes after a smaller non-empty one and before
    // smaller ones.
    const auto& bytes = ring.pulse_bytes;
    const auto peak = std::max_element(bytes.begin(), bytes.end());
    const auto first =
        std::find_if(bytes.begin(), bytes.end(), [](std::int64_t b) { return b > 0; });
    ASSERT_NE(first, bytes.end());
    EXPECT_LT(first, peak) << "the buffer must grow after its first pulse";
    EXPECT_TRUE(std::any_of(peak + 1, bytes.end(),
                            [&](std::int64_t b) { return b > 0 && b < *peak; }))
        << "smaller pulses must follow the largest";
}

TEST(Delivery, RandomScenariosMatchTheirSpelledOutUnicasts)
{
    // Seeded random mixes of everything above: graph shape, net model,
    // sends per pulse, a fault, a disconnection, a two-faced sender, a link.
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        Rng pick{seed};
        Scenario scenario;
        const int n = 2 + static_cast<int>(pick.below(7));
        const bool complete = n < 3 || pick.chance(0.7);
        sim::Graph graph = complete ? sim::complete_graph(n) : sim::ring_graph(n);
        for (int k = 0; !complete && k < n; ++k) {
            const auto a = static_cast<Processor_id>(pick.below(static_cast<std::uint64_t>(n)));
            const auto b = static_cast<Processor_id>(pick.below(static_cast<std::uint64_t>(n)));
            if (a != b && !graph.has_edge(a, b)) graph.add_edge(a, b);
        }
        scenario.graph = [graph] { return graph; };
        if (pick.chance(0.4)) {
            scenario.net.delta = 1 + static_cast<int>(pick.below(3));
            scenario.net.jitter = 0.5;
            scenario.net.drop = pick.chance(0.5) ? 0.1 : 0.0;
            scenario.net.shuffle = pick.chance(0.3);
            scenario.net.seed = seed;
        }
        scenario.script = [seed, graph](Processor_id id, Pulse pulse) {
            Rng draw{seed * 1'000'003 + static_cast<std::uint64_t>(id) * 101 +
                     static_cast<std::uint64_t>(pulse)};
            const std::vector<Processor_id>& neighbors = graph.neighbors(id);
            std::vector<Send> sends(draw.below(4));
            for (Send& send : sends) {
                if (!neighbors.empty() && draw.chance(0.5))
                    send = {false, neighbors[draw.below(neighbors.size())]};
            }
            return sends;
        };
        scenario.pulses = 6 + static_cast<Pulse>(pick.below(6));
        const Pulse fault_at = pick.chance(0.3) ? 1 + static_cast<Pulse>(pick.below(5)) : -1;
        const Processor_id cut =
            pick.chance(0.3) ? static_cast<Processor_id>(pick.below(static_cast<std::uint64_t>(n)))
                             : -1;
        const Pulse cut_at = 1 + static_cast<Pulse>(pick.below(5));
        scenario.after_pulse = [fault_at, cut, cut_at](sim::Engine& engine, Pulse p) {
            if (p == fault_at) engine.inject_transient_fault();
            if (p == cut_at && cut >= 0) engine.disconnect(cut);
        };
        if (complete && n >= 4 && pick.chance(0.3)) scenario.two_faced = {n - 1};
        const std::uint64_t link = pick.below(3);
        if (link == 1) scenario.link = wire::Transport_kind::loopback;
        if (link == 2) scenario.link = wire::Transport_kind::ring;
        SCOPED_TRACE("seed " + std::to_string(seed));
        expect_broadcast_equals_unicasts(scenario);
        if (HasFailure()) return;
    }
}

// ---- Replica side: minted pulse messages.

/// Two actions, action 1 strictly dominant: every honest play is the same.
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

/// Re-encodes a parsed pulse message from its fields alone.
Bytes fresh_encode(const ssba::Pulse_message& message)
{
    Bytes out;
    common::put_u32(out, static_cast<std::uint32_t>(message.clock));
    if (!message.has_section) {
        out.push_back(0);
        return out;
    }
    out.push_back(1);
    out.push_back(static_cast<std::uint8_t>(message.phase));
    common::put_u32(out, static_cast<std::uint32_t>(message.round));
    common::put_bytes(out, message.section);
    return out;
}

struct Observed {
    /// Messages sent before this pulse may have been garbled in flight by a
    /// transient fault, so only their handles are checked.
    Pulse garbled_before = 0;
    std::int64_t messages = 0;
    std::int64_t sections = 0;
    std::int64_t mismatches = 0;
    std::int64_t rewritten = 0;
    /// Section copies equal to the same sender's copy sent one pulse
    /// earlier or later (a retransmit within a delta = 2 frame), and how
    /// many of them alias that copy's buffer.
    std::int64_t retransmits = 0;
    std::int64_t retransmits_aliased = 0;
};

/// A silent group member that checks every pulse message it receives and
/// holds each handle for a few pulses, expecting its bytes never to change
/// while held.
class Pulse_observer final : public Processor {
public:
    Pulse_observer(Processor_id id, std::shared_ptr<Observed> observed)
        : Processor{id}, observed_{std::move(observed)}
    {
    }

    void on_pulse(Pulse_context& ctx) override
    {
        for (const auto& [handle, copy] : held_) {
            if (handle.bytes() != copy) ++observed_->rewritten;
        }
        while (held_.size() > 48) held_.pop_front();
        ssba::Pulse_message message;
        for (const Message& m : ctx.inbox()) {
            ++observed_->messages;
            if (m.sent_at < observed_->garbled_before) continue;
            if (!ssba::parse_pulse_message(m.payload, message) ||
                fresh_encode(message) != m.payload.bytes()) {
                ++observed_->mismatches;
                continue;
            }
            held_.emplace_back(m.payload, m.payload.bytes());
            if (!message.has_section) continue;
            ++observed_->sections;
            last_.resize(static_cast<std::size_t>(ctx.system_size()));
            auto& [previous, previous_at] = last_[static_cast<std::size_t>(m.from)];
            if ((m.sent_at == previous_at + 1 || m.sent_at + 1 == previous_at) &&
                previous.bytes() == m.payload.bytes()) {
                ++observed_->retransmits;
                if (previous.aliases(m.payload)) ++observed_->retransmits_aliased;
            }
            previous = m.payload;
            previous_at = m.sent_at;
        }
    }

    void corrupt(Rng&) override {}

private:
    std::shared_ptr<Observed> observed_;
    std::deque<std::pair<Shared_payload, Bytes>> held_;
    std::vector<std::pair<Shared_payload, Pulse>> last_; ///< by sender: last section copy
};

/// Runs an n = 6, f = 1 replica group on a delta = 2 net with a
/// Pulse_observer in its Byzantine slot: `plays` plays, then, when
/// `fault_then` is positive, a transient fault and that many more.
std::size_t run_observed_group(const bft::Ic_factory& ic, const std::shared_ptr<Observed>& observed,
                               int plays, int fault_then)
{
    const int n = 6;
    authority::Game_spec spec;
    spec.name = "dominant";
    spec.game = std::make_shared<Dominant_game>(n);
    spec.equilibrium.assign(static_cast<std::size_t>(n), {0.0, 1.0});
    std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors;
    for (int i = 0; i < n; ++i) {
        behaviors.push_back(i == n - 1 ? nullptr : std::make_unique<authority::Honest_behavior>());
    }
    sim::Net_model net;
    net.delta = 2;
    net.jitter = 0.5;
    net.seed = 9;
    pipeline::Pipeline_authority group{
        spec,
        /*f=*/1,
        /*k=*/1,
        std::move(behaviors),
        /*byzantine=*/{n - 1},
        [] { return std::make_unique<authority::Fine_scheme>(1.0, 1e9); },
        Rng{21},
        [observed](Processor_id id, Rng) { return std::make_unique<Pulse_observer>(id, observed); },
        ic,
        /*tampers=*/{},
        net};
    group.run_plays(plays);
    if (fault_then > 0) {
        observed->garbled_before = group.now();
        group.inject_transient_fault();
        group.run_plays(fault_then);
    }
    return group.agreed_plays().size();
}

TEST(Delivery, MintedPulseBytesEqualAFreshEncodeUnderRetransmitsAndFaults)
{
    for (const auto& [ic, name] :
         {std::pair{bft::ic_parallel_phase_king(), "parallel"}, std::pair{bft::ic_eig(), "eig"}}) {
        auto observed = std::make_shared<Observed>();
        EXPECT_GE(run_observed_group(ic, observed, 3, 6), 3u) << name;
        EXPECT_GT(observed->sections, 0) << name;
        EXPECT_EQ(observed->mismatches, 0) << name;
        EXPECT_EQ(observed->rewritten, 0) << name << ": a held buffer was reused";
    }
}

TEST(Delivery, RetransmitPulsesResendTheMintedHandle)
{
    // A frame's section is minted once: its retransmit copies alias the
    // buffer of the first copy instead of re-encoding the same bytes.
    auto observed = std::make_shared<Observed>();
    EXPECT_GE(run_observed_group(bft::ic_parallel_phase_king(), observed, 4, 0), 4u);
    EXPECT_GT(observed->retransmits, 0);
    EXPECT_EQ(observed->retransmits_aliased, observed->retransmits);
}

} // namespace
