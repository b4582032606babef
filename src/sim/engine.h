// Deterministic synchronous execution engine.
//
// Executes the model of §4.1: at every pulse all processors step
// simultaneously; messages sent at pulse t are delivered at pulse t+1;
// delivery respects the communication graph. The engine also implements the
// fault model: a designated Byzantine set (whose Processor implementations
// may do anything) and transient faults (state corruption of every processor
// plus arbitrary in-flight messages).
//
// Delivery has one path, a delta-slot delivery wheel: every validated
// message is stamped with its send pulse and routed into the slot due
// `delay` pulses later, and the slot due at pulse p becomes the inboxes
// consumed at p. §4.1's next-pulse rule is the delta = 1 case of §2's
// partial-synchrony bound, so the default clean Net_model is the one-slot
// wheel with every delay 1 (no per-message verdict is computed); any other
// model gives each message a pure-function verdict (drop, or a delay d in
// [1, delta]). Because the transport stamps Message::sent_at, no sender —
// Byzantine included — can forge a timestamp, and receivers may trust that
// message age is always < delta.
//
// The pulse loop is allocation-free in steady state (wheel rows and
// persistent per-processor outboxes keep their high-water capacity), and a
// broadcast is delivered once: under the clean model a fully connected
// sender's broadcast stays in its outbox as one entry (payload handle,
// sent_at, seq), and every recipient's inbox view (Inbox) reads it there in
// sender order, next to the per-recipient row. The wheel carries only
// unicasts and per-recipient copies: every copy a non-clean Net_model gives
// its own verdict, every copy from a sender that is not fully connected,
// and every copy once a processor has been disconnected. Traffic_stats, the
// wire link and the verdict index still count recipient copies, so the
// delivered inboxes, counts and verdicts are those of one message per
// recipient. With Engine_config{threads} > 1 the pulse runs on a worker
// pool: each worker steps a contiguous slice of senders, writing their
// entries in place and staging their per-recipient copies in private
// (delay, recipient) rows; a gather per recipient in (delay, slice) order
// then rebuilds every wheel row exactly as the single-thread loop would
// have, so an N-thread run is bit-identical to the 1-thread run (same
// delivery order, same stats, same verdicts downstream) under loss, reorder
// and partitions alike.
//
// The engine observes nothing and links only common/: its observable
// surface is stats(), in_flight() and the installed processors. Per-pulse
// traffic is the delta of stats() between pulses; the replica group above
// (pipeline/) folds those deltas into its telemetry sink and traces the net
// model's windows and the faults it injects on the sink's tracer.
#ifndef GA_SIM_ENGINE_H
#define GA_SIM_ENGINE_H

#include <array>
#include <memory>
#include <string>
#include <typeinfo>
#include <vector>

#include "common/executor.h"
#include "sim/graph.h"
#include "sim/net_model.h"
#include "sim/processor.h"

namespace ga::sim {

/// Cumulative message/byte accounting (read a per-pulse delta by
/// differencing two reads). `messages` and
/// `payload_bytes` count offered traffic (validated sends) per recipient
/// copy, so a broadcast entry counts once per neighbor it reaches, exactly
/// as the spelled-out unicasts would; `dropped` counts the subset the
/// Net_model lost and `delayed` the subset it deferred past the one-pulse
/// rule (delay > 1) — both always 0 under the clean model.
struct Traffic_stats {
    std::int64_t pulses = 0;
    std::int64_t messages = 0;
    std::int64_t payload_bytes = 0;
    std::int64_t dropped = 0;
    std::int64_t delayed = 0;

    friend bool operator==(const Traffic_stats&, const Traffic_stats&) = default;
};

/// Execution knobs. Thread count is result-invariant: it partitions the pulse
/// across workers but never changes what the pulse computes.
struct Engine_config {
    int threads = 1;
};

/// One pulse's deliveries as the engine holds them. `rows[r]` carries
/// recipient r's unicasts and per-recipient copies; `entries`, when not
/// null, holds each sender's broadcast entries, each reaching every other
/// processor (rows.size() - 1 recipient copies).
struct Pulse_batch {
    std::vector<std::vector<Message>>& rows;
    std::vector<Outbox>* entries = nullptr;

    [[nodiscard]] int size() const { return static_cast<int>(rows.size()); }
};

/// Cross-boundary hook for the wire layer (src/wire/): when a link is
/// attached, every pulse's deliveries cross it right before the processors
/// consume them. The link must leave every recipient copy's identity (from,
/// to, sent_at, payload bytes) and the batch's shape intact; it may replace
/// a payload handle with one holding equal bytes. The call runs on the
/// coordinating thread after delivery is finalized, so a link is sequenced
/// against both the worker pool and the harness: result-invariant by
/// contract, observable only in wall clock and in the link's own accounting.
class Pulse_link {
public:
    virtual ~Pulse_link() = default;
    virtual void cross_pulse(Pulse_batch& batch, common::Pulse at) = 0;
};

class Engine {
public:
    /// The graph fixes both the system size and who can talk to whom; the net
    /// model fixes how (and whether) each validated message is delivered.
    explicit Engine(Graph graph, common::Rng rng = common::Rng{0}, Engine_config config = {},
                    Net_model net = {});

    /// Jobs capture `this`, so the engine must stay put once built.
    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;
    Engine(Engine&&) = delete;
    Engine& operator=(Engine&&) = delete;

    /// Install the processor with id = number of processors installed so far.
    /// All `graph.size()` slots must be filled before running.
    void install(std::unique_ptr<Processor> processor, bool byzantine = false);

    [[nodiscard]] int size() const { return graph_.size(); }
    [[nodiscard]] bool is_byzantine(common::Processor_id id) const;
    [[nodiscard]] int byzantine_count() const;
    [[nodiscard]] common::Pulse now() const { return pulse_; }
    [[nodiscard]] const Traffic_stats& stats() const { return stats_; }

    /// Messages in the delivery wheel due *after* the next pulse — the
    /// backlog the net deferred past the one-pulse rule. Always 0 under a
    /// delta = 1 model (clean or lossy), which delivers everything next pulse.
    [[nodiscard]] std::int64_t in_flight() const;

    /// Resize the worker pool (>= 1). Callable between pulses at any time;
    /// has no effect on results, only on wall-clock speed.
    void set_threads(int threads);

    [[nodiscard]] const Net_model& net() const { return net_; }

    /// Attach the wire link every delivered pulse batch crosses (nullptr
    /// detaches — messages then stay in place, the historical behavior).
    /// Only callable before the first pulse: the boundary is part of the
    /// run's shape even though a conforming link never changes results.
    void set_link(Pulse_link* link);

    /// Typed access to an installed processor (tests and result harvesting).
    [[nodiscard]] Processor& processor(common::Processor_id id);
    [[nodiscard]] const Processor& processor(common::Processor_id id) const;

    /// Throws Contract_error naming the offending slot when the processor at
    /// `id` is not a T (e.g. asking a Byzantine slot for its honest replica).
    template <typename T>
    [[nodiscard]] T& processor_as(common::Processor_id id)
    {
        T* typed = dynamic_cast<T*>(&processor(id));
        if (typed == nullptr) throw_processor_type_mismatch(id, typeid(T).name());
        return *typed;
    }
    template <typename T>
    [[nodiscard]] const T& processor_as(common::Processor_id id) const
    {
        const T* typed = dynamic_cast<const T*>(&processor(id));
        if (typed == nullptr) throw_processor_type_mismatch(id, typeid(T).name());
        return *typed;
    }

    /// Execute one common pulse for the whole system.
    void run_pulse();

    /// Execute `count` pulses.
    void run(common::Pulse count);

    /// Transient fault (§4): corrupt the state of every processor and replace
    /// the in-flight messages with arbitrary garbage. In-flight broadcast
    /// entries are first spelled out into per-recipient copies, and garbling
    /// is copy-on-write per copy, so corrupting one recipient's copy of a
    /// broadcast never touches the other recipients' copies.
    void inject_transient_fault();

    /// Corrupt a single processor's state.
    void inject_fault_at(common::Processor_id id);

    /// Permanently remove a processor from the network: all its future
    /// messages are dropped and it receives nothing (the executive service's
    /// strongest punishment, §3.4).
    void disconnect(common::Processor_id id);

    [[nodiscard]] bool is_disconnected(common::Processor_id id) const;

private:
    [[noreturn]] static void throw_processor_type_mismatch(common::Processor_id id,
                                                           const char* requested_type);

    /// Step `id` into its persistent outbox, then stamp sent_at on every send.
    /// A fully connected sender under the clean model keeps its broadcasts
    /// as entries; otherwise each broadcast is spelled out per neighbor. Each
    /// per-recipient message is validated, given a net verdict (skipped
    /// under the clean model, where every delay is 1) and handed to
    /// `route(delay, msg)`; everything is accounted into `stats` per
    /// recipient copy. Defined in the .cpp (all instantiations live there).
    template <typename Route>
    void step_processor(common::Processor_id id, Traffic_stats& stats, Route route);

    /// The broadcast entries the sends of `pulse` left (written at pulse,
    /// delivered at pulse + 1).
    [[nodiscard]] std::vector<Outbox>& entries_of(common::Pulse pulse)
    {
        return outboxes_[static_cast<std::size_t>(pulse & 1)];
    }
    /// The entries due at the current pulse, or null when none can exist.
    [[nodiscard]] std::vector<Outbox>* due_entries();
    /// Spell the in-flight entries out into the wheel row due next, in
    /// inbox order, and drop them (before disconnection and faults, which
    /// act per recipient copy).
    void expand_entries();

    /// Rotate the wheel: the slot due at the current pulse becomes the
    /// inboxes, freeing the slot for pulse_ + delta; applies the optional
    /// per-recipient shuffle and resolves due_after_ for this pulse.
    void rotate_wheel();
    /// The two executors of step_processor: one worker routing straight into
    /// the wheel, or the pool staging per (slice, delay, recipient).
    void step_all_single();
    void step_all_parallel();
    void ensure_pool();

    Graph graph_;
    common::Rng rng_;
    Engine_config config_;
    Net_model net_;
    bool clean_ = true; ///< net_.is_clean(), evaluated once: skip the verdicts
    std::vector<std::unique_ptr<Processor>> processors_;
    std::vector<bool> byzantine_;
    std::vector<bool> disconnected_;
    bool any_disconnected_ = false; ///< skips per-message disconnect checks while false
    std::vector<std::vector<Message>> inboxes_; ///< indexed by recipient
    /// Persistent outboxes by sender, one set per pulse parity: the sends of
    /// pulse p go to outboxes_[p & 1], whose broadcast entries the recipients
    /// read at p + 1 while the senders fill the other set.
    std::array<std::vector<Outbox>, 2> outboxes_;
    /// Delivery wheel: wheel_[p % delta][recipient] holds the messages due at
    /// pulse p (one slot under a delta = 1 model). Slot rotation happens in
    /// rotate_wheel.
    std::vector<std::vector<std::vector<Message>>> wheel_;
    /// due_after_[d - 1] is the wheel slot due d pulses after the current
    /// one, resolved once per pulse so routing does no modular arithmetic.
    std::vector<std::vector<std::vector<Message>>*> due_after_;
    common::Pulse pulse_ = 0;
    Traffic_stats stats_;
    Pulse_link* link_ = nullptr; ///< wire boundary (null = in-place delivery)

    // ---- Worker-pool state (built lazily on the first parallel pulse).
    std::unique_ptr<common::Executor> pool_;
    std::vector<std::pair<int, int>> slices_; ///< contiguous [begin, end) id ranges
    /// Staging rows: stage_[slice][delay - 1][recipient].
    std::vector<std::vector<std::vector<std::vector<Message>>>> stage_;
    std::vector<Traffic_stats> slice_stats_; ///< per-slice accumulators
};

} // namespace ga::sim

#endif // GA_SIM_ENGINE_H
