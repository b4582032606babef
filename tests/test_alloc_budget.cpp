// Heap-allocation budget of a replica group's steady-state play.
//
// This binary replaces the global operator new with one that counts and
// forwards to malloc (so it runs under ASan too, which intercepts malloc),
// and pins how many allocations one steady-state play of a whole group
// makes: every replica's pulses, IC activations and judicial audit, the
// engine's message delivery, and the babbling Byzantine slot.
//
// The budgets are regression floors. The reference counts were measured
// with this file on the tree before IC sessions restarted in place and
// the pulse's parses stopped throwing; the tighter caps hold since each
// broadcast is delivered as one entry and each pulse message is minted
// once into a recycled buffer (4,335.5 and 1,468 allocations per play on
// the tree before that). The group shapes mirror the dense benchmark
// workload (parallel IC at n = 16, f = 2), an EIG group, and one shard of
// the serve workload, whose replica traffic crosses the wire ring.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <new>

#include "authority/agent.h"
#include "authority/punishment.h"
#include "bft/ic_select.h"
#include "pipeline/pipeline_authority.h"
#include "wire/transport.h"

namespace {

std::atomic<std::int64_t> g_allocations{0};

} // namespace

// Not inlined: GCC 12 flags a free() it sees inlined into a caller whose
// pointer came from operator new (-Wmismatched-new-delete), although the
// pair is matched here.

[[gnu::noinline]] void* operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc{};
}

[[gnu::noinline]] void* operator new[](std::size_t size)
{
    return ::operator new(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void operator delete[](void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace ga;

/// Two-action game where action 1 strictly dominates (cost 1 vs 2), as in
/// the dense workload: action 0 is always a foul.
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

struct Group_shape {
    int n;
    int f;
    bft::Ic_factory ic;
};

/// One group with a babbler in slot 1 and two cheaters (slots 4 and 9),
/// fined every play and never expelled, so every play runs the same path.
pipeline::Pipeline_authority make_group(const Group_shape& shape)
{
    authority::Game_spec spec;
    spec.name = "dominant";
    spec.game = std::make_shared<Dominant_game>(shape.n);
    spec.equilibrium.assign(static_cast<std::size_t>(shape.n), {0.0, 1.0});
    std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors;
    for (int i = 0; i < shape.n; ++i) {
        if (i == 1) {
            behaviors.push_back(nullptr);
        } else if (i == 4 || i == 9) {
            behaviors.push_back(std::make_unique<authority::Fixed_action_behavior>(0));
        } else {
            behaviors.push_back(std::make_unique<authority::Honest_behavior>());
        }
    }
    return pipeline::Pipeline_authority{
        spec,
        shape.f,
        /*k=*/1,
        std::move(behaviors),
        /*byzantine=*/{1},
        [] { return std::make_unique<authority::Fine_scheme>(1.0, 1e9); },
        common::Rng{7},
        /*make_byzantine=*/{},
        shape.ic};
}

/// Allocations per play over `plays` steady-state plays, after a warm-up
/// that lets every replica's clock converge and every reused buffer reach
/// its working size.
double allocations_per_play(pipeline::Pipeline_authority& group, int plays)
{
    group.run_plays(4);
    const std::size_t before_plays = group.agreed_plays().size();
    const std::int64_t before = g_allocations.load();
    group.run_plays(plays);
    const std::int64_t allocations = g_allocations.load() - before;
    // The window really was steady state: every play completed.
    EXPECT_EQ(group.agreed_plays().size(), before_plays + static_cast<std::size_t>(plays));
    return static_cast<double>(allocations) / plays;
}

double allocations_per_play(const Group_shape& shape, int plays)
{
    pipeline::Pipeline_authority group = make_group(shape);
    return allocations_per_play(group, plays);
}

/// One shard of the serve benchmark workload: four honest agents, f = 1,
/// k = 4 plays per batch and a delta-2 net with jitter 0.25.
pipeline::Pipeline_authority make_serve_group()
{
    constexpr int n = 4;
    authority::Game_spec spec;
    spec.name = "dominant";
    spec.game = std::make_shared<Dominant_game>(n);
    spec.equilibrium.assign(n, {0.0, 1.0});
    std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors;
    for (int i = 0; i < n; ++i) behaviors.push_back(std::make_unique<authority::Honest_behavior>());
    sim::Net_model net;
    net.delta = 2;
    net.jitter = 0.25;
    net.seed = 7;
    return pipeline::Pipeline_authority{
        spec,
        /*f=*/1,
        /*k=*/4,
        std::move(behaviors),
        /*byzantine=*/{},
        [] { return std::make_unique<authority::Fine_scheme>(1.0, 1e9); },
        common::Rng{7},
        /*make_byzantine=*/{},
        /*ic_factory=*/{},
        /*tampers=*/{},
        std::move(net)};
}

TEST(AllocBudget, CountingOperatorNewSeesVectorGrowth)
{
    const std::int64_t before = g_allocations.load();
    std::vector<int> grown;
    grown.reserve(64);
    EXPECT_GE(g_allocations.load() - before, 1);
}

TEST(AllocBudget, DenseParallelIcPlayStaysUnderHalfTheReference)
{
    // Reference: 15,713.8 allocations per play before sessions restarted in
    // place (n = 16, f = 2, parallel IC, k = 1).
    constexpr double reference = 15713.8;
    const double per_play =
        allocations_per_play({16, 2, bft::ic_parallel_phase_king()}, /*plays=*/6);
    std::cout << "dense-shape group: " << per_play << " allocations per play\n";
    RecordProperty("allocations_per_play", static_cast<int>(per_play));
    EXPECT_LE(per_play, reference / 2);
    EXPECT_LE(per_play, 2600);
}

TEST(AllocBudget, EigPlayStaysUnderTheReference)
{
    // Reference: 6,259 allocations per play before sessions restarted in
    // place (n = 12, f = 1, EIG, k = 1).
    constexpr double reference = 6259;
    const double per_play = allocations_per_play({12, 1, bft::ic_eig()}, /*plays=*/6);
    std::cout << "EIG group: " << per_play << " allocations per play\n";
    RecordProperty("allocations_per_play", static_cast<int>(per_play));
    EXPECT_LT(per_play, reference);
    EXPECT_LE(per_play, 1300);
}

TEST(AllocBudget, ServeShapedRingPlayStaysUnderTheReference)
{
    // Reference: 305.7 allocations per play before the ring minted its
    // payloads from a per-sender pool (n = 4, f = 1, k = 4, delta = 2, ring),
    // and 191.0 with the pool while frames crossed a ring of 1024 slots, each
    // allocated on its first frame. Framing each pulse into one buffer that
    // grows to the largest pulse reads 147.25, about one more than the 146.2
    // the same group makes on the loopback link.
    constexpr double reference = 305.7;
    pipeline::Pipeline_authority group = make_serve_group();
    wire::Wire_config ring;
    ring.kind = wire::Transport_kind::ring;
    group.set_wire(wire::make_transport(ring));
    const double per_play = allocations_per_play(group, /*plays=*/32);
    std::cout << "serve-shaped ring group: " << per_play << " allocations per play\n";
    RecordProperty("allocations_per_play", static_cast<int>(per_play));
    EXPECT_LT(per_play, reference);
    EXPECT_LE(per_play, 160);
}

} // namespace
