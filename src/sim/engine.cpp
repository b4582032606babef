#include "sim/engine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/ensure.h"

namespace ga::sim {

Engine::Engine(Graph graph, common::Rng rng, Engine_config config, Net_model net)
    : graph_{std::move(graph)},
      rng_{rng},
      config_{config},
      net_{std::move(net)},
      byzantine_(static_cast<std::size_t>(graph_.size()), false),
      disconnected_(static_cast<std::size_t>(graph_.size()), false),
      inboxes_(static_cast<std::size_t>(graph_.size()))
{
    common::ensure(config_.threads >= 1, "Engine: threads must be >= 1");
    net_.validate(graph_.size());
    clean_ = net_.is_clean();
    wheel_.assign(static_cast<std::size_t>(net_.delta),
                  std::vector<std::vector<Message>>(static_cast<std::size_t>(graph_.size())));
    due_after_.assign(wheel_.size(), nullptr);
    for (std::vector<Outbox>& set : outboxes_) set.resize(static_cast<std::size_t>(graph_.size()));
}

void Engine::install(std::unique_ptr<Processor> processor, bool byzantine)
{
    common::ensure(processor != nullptr, "Engine::install: null processor");
    common::ensure(static_cast<int>(processors_.size()) < graph_.size(),
                   "Engine::install: all slots filled");
    const auto slot = static_cast<common::Processor_id>(processors_.size());
    common::ensure(processor->id() == slot, "Engine::install: processor id must equal its slot");
    byzantine_[static_cast<std::size_t>(slot)] = byzantine;
    processors_.push_back(std::move(processor));
}

bool Engine::is_byzantine(common::Processor_id id) const
{
    common::ensure(id >= 0 && id < size(), "is_byzantine: id out of range");
    return byzantine_[static_cast<std::size_t>(id)];
}

int Engine::byzantine_count() const
{
    return static_cast<int>(std::count(byzantine_.begin(), byzantine_.end(), true));
}

void Engine::set_threads(int threads)
{
    common::ensure(threads >= 1, "Engine::set_threads: threads must be >= 1");
    config_.threads = threads;
}

Processor& Engine::processor(common::Processor_id id)
{
    common::ensure(id >= 0 && id < static_cast<int>(processors_.size()),
                   "processor: id out of range");
    return *processors_[static_cast<std::size_t>(id)];
}

const Processor& Engine::processor(common::Processor_id id) const
{
    common::ensure(id >= 0 && id < static_cast<int>(processors_.size()),
                   "processor: id out of range");
    return *processors_[static_cast<std::size_t>(id)];
}

void Engine::throw_processor_type_mismatch(common::Processor_id id, const char* requested_type)
{
    throw common::Contract_error{"Engine::processor_as: processor " + std::to_string(id) +
                                 " is not of the requested type " + requested_type};
}

template <typename Route>
void Engine::step_processor(common::Processor_id id, Traffic_stats& stats, Route route)
{
    const auto slot = static_cast<std::size_t>(id);
    const std::vector<common::Processor_id>& neighbors = graph_.neighbors(id);
    Outbox& outbox = entries_of(pulse_)[slot];
    outbox.clear(); // keeps its high-water capacity
    Pulse_context ctx{pulse_, id, size(), &neighbors,
                      Inbox{&inboxes_[slot], due_entries(), id}, &outbox};
    processors_[slot]->on_pulse(ctx);

    // Fast path: a fully connected sender on an undamaged network can only
    // produce deliverable or silently-droppable messages (an out-of-range or
    // self target is dropped for honest and Byzantine senders alike, exactly
    // as the general path does), so per-message validation reduces to three
    // integer compares, and under the clean model its broadcasts stay in
    // place as entries that reach all n - 1 other processors.
    const bool fully_connected =
        !any_disconnected_ && static_cast<int>(neighbors.size()) == size() - 1;
    const bool sender_byzantine = byzantine_[slot];
    const bool clean = clean_;
    if (fully_connected && clean) {
        const auto copies = static_cast<std::int64_t>(size() - 1);
        for (Message& entry : outbox.broadcasts) {
            entry.sent_at = pulse_; // transport-stamped: senders cannot forge it
            stats.messages += copies;
            stats.payload_bytes += copies * static_cast<std::int64_t>(entry.payload.size());
        }
        for (Message& msg : outbox.messages) {
            if (msg.to < 0 || msg.to >= size() || msg.to == id) continue;
            msg.sent_at = pulse_;
            stats.messages += 1;
            stats.payload_bytes += static_cast<std::int64_t>(msg.payload.size());
            route(1, msg);
        }
        return;
    }

    // General path: every recipient copy in send order. The verdict stream
    // is keyed by that position, which is identical across thread counts
    // (the outbox is the processor's own output).
    int index = 0;
    outbox.for_each_copy(neighbors, [&](Message& msg) {
        const int msg_index = index++;
        if (fully_connected) {
            if (msg.to < 0 || msg.to >= size() || msg.to == id) return;
        } else {
            const bool target_valid = msg.to >= 0 && msg.to < size() && msg.to != id;
            const bool edge_exists = target_valid && graph_.has_edge(id, msg.to);
            if (!edge_exists || disconnected_[static_cast<std::size_t>(msg.to)]) {
                // Honest protocol code must not address non-neighbors; a
                // Byzantine processor attempting it just loses the message.
                common::ensure(sender_byzantine || !target_valid ||
                                   disconnected_[static_cast<std::size_t>(msg.to)] || edge_exists,
                               "honest processor sent to a non-neighbor");
                return;
            }
        }
        msg.sent_at = pulse_; // transport-stamped: senders cannot forge it
        stats.messages += 1;
        stats.payload_bytes += static_cast<std::int64_t>(msg.payload.size());
        if (clean) {
            route(1, msg);
            return;
        }
        const Net_verdict verdict = net_.verdict(pulse_, id, msg.to, msg_index);
        if (verdict.dropped) {
            stats.dropped += 1;
            return;
        }
        if (verdict.delay > 1) stats.delayed += 1;
        route(verdict.delay, msg);
    });
    outbox.broadcasts.clear(); // spelled out: no entry is left to deliver
}

std::vector<Outbox>* Engine::due_entries()
{
    // Entries exist only under the clean model and before any disconnection
    // (disconnect spells the in-flight ones out), so otherwise the inbox
    // view skips the sender scan.
    if (!clean_ || any_disconnected_) return nullptr;
    return &entries_of(pulse_ - 1);
}

void Engine::expand_entries()
{
    std::vector<Outbox>* entries = due_entries();
    if (entries == nullptr) return;
    // Between pulses: the sends of pulse_ - 1 are due at pulse_, in the
    // wheel slot rotate_wheel swaps in next.
    std::vector<std::vector<Message>>& due =
        wheel_[static_cast<std::size_t>(pulse_) % wheel_.size()];
    std::vector<Message> row;
    for (common::Processor_id to = 0; to < size(); ++to) {
        row.clear();
        for (const Message& msg : Inbox{&due[static_cast<std::size_t>(to)], entries, to}) {
            row.push_back(msg);
            row.back().to = to;
        }
        due[static_cast<std::size_t>(to)].swap(row);
    }
    for (Outbox& outbox : *entries) outbox.broadcasts.clear();
}

void Engine::rotate_wheel()
{
    // The slot due now becomes the inboxes; its previous contents (the inbox
    // consumed delta pulses ago) are discarded and the slot starts
    // accumulating deliveries for pulse_ + delta. No slot conflict with this
    // pulse's sends: delay delta maps right back here, *after* the swap.
    const auto delta = static_cast<std::size_t>(net_.delta);
    const auto now = static_cast<std::size_t>(pulse_) % delta;
    inboxes_.swap(wheel_[now]);
    for (std::vector<Message>& row : wheel_[now]) row.clear();
    for (std::size_t d = 1; d <= delta; ++d) due_after_[d - 1] = &wheel_[(now + d) % delta];

    if (net_.shuffle) {
        for (common::Processor_id to = 0; to < size(); ++to) {
            std::vector<Message>& inbox = inboxes_[static_cast<std::size_t>(to)];
            if (inbox.size() < 2) continue;
            common::Rng stream = net_.shuffle_stream(pulse_, to);
            stream.shuffle(inbox);
        }
    }
}

void Engine::step_all_single()
{
    const auto route = [due = due_after_.data()](int delay, Message& msg) {
        const common::Processor_id to = msg.to;
        (*due[delay - 1])[static_cast<std::size_t>(to)].push_back(std::move(msg));
    };
    for (common::Processor_id id = 0; id < size(); ++id) {
        if (disconnected_[static_cast<std::size_t>(id)]) continue;
        step_processor(id, stats_, route);
    }
}

void Engine::step_all_parallel()
{
    ensure_pool();
    const std::size_t workers = slices_.size();

    // Phase 1: every worker steps its contiguous slice of senders, writing
    // their broadcast entries in place (each sender owns its outbox slot)
    // and their per-recipient copies into the worker's private (delay,
    // recipient) staging rows. Reads (inboxes, the previous pulse's entries,
    // graph, flags) are frozen for the whole phase.
    pool_->parallel_for(workers, [this](std::size_t s) {
        std::vector<std::vector<std::vector<Message>>>& rows = stage_[s];
        for (auto& delay_rows : rows)
            for (std::vector<Message>& row : delay_rows) row.clear();
        Traffic_stats local;
        const auto [begin, end] = slices_[s];
        const auto route = [&rows](int delay, Message& msg) {
            const common::Processor_id to = msg.to;
            rows[static_cast<std::size_t>(delay - 1)][static_cast<std::size_t>(to)].push_back(
                std::move(msg));
        };
        for (common::Processor_id id = begin; id < end; ++id) {
            if (disconnected_[static_cast<std::size_t>(id)]) continue;
            step_processor(id, local, route);
        }
        slice_stats_[s] = local;
    });

    // Phase 2: gather, partitioned by recipient. For each delay exactly one
    // wheel slot is due, and concatenating slices in ascending order per
    // (recipient, delay) appends exactly what the sequential loop would have:
    // senders ascending, outbox order within a sender.
    pool_->parallel_for(workers, [this](std::size_t s) {
        const auto [begin, end] = slices_[s];
        for (common::Processor_id to = begin; to < end; ++to) {
            for (std::size_t d = 0; d < due_after_.size(); ++d) {
                std::vector<Message>& dest = (*due_after_[d])[static_cast<std::size_t>(to)];
                for (auto& slice_rows : stage_) {
                    for (Message& msg : slice_rows[d][static_cast<std::size_t>(to)])
                        dest.push_back(std::move(msg));
                }
            }
        }
    });

    for (const Traffic_stats& local : slice_stats_) {
        stats_.messages += local.messages;
        stats_.payload_bytes += local.payload_bytes;
        stats_.dropped += local.dropped;
        stats_.delayed += local.delayed;
    }
}

void Engine::ensure_pool()
{
    if (pool_ && pool_->threads() == config_.threads) return;
    pool_ = std::make_unique<common::Executor>(config_.threads);
    const auto n = static_cast<std::size_t>(size());
    const auto workers = static_cast<std::size_t>(config_.threads);
    slices_.clear();
    for (std::size_t s = 0; s < workers; ++s) {
        slices_.emplace_back(static_cast<int>(s * n / workers),
                             static_cast<int>((s + 1) * n / workers));
    }
    stage_.assign(workers, std::vector<std::vector<std::vector<Message>>>(
                               wheel_.size(), std::vector<std::vector<Message>>(n)));
    slice_stats_.assign(workers, Traffic_stats{});
}

void Engine::set_link(Pulse_link* link)
{
    common::ensure(pulse_ == 0, "Engine::set_link: only callable before the first pulse");
    link_ = link;
}

void Engine::run_pulse()
{
    common::ensure(static_cast<int>(processors_.size()) == graph_.size(),
                   "Engine::run_pulse: not all processors installed");

    rotate_wheel();
    // The wire boundary sits at delivery time: the pulse's finalized inboxes
    // cross the link right before the processors consume them. Runs on the
    // coordinating thread, so it is sequenced against the worker pool.
    if (link_ != nullptr) {
        Pulse_batch batch{inboxes_, due_entries()};
        link_->cross_pulse(batch, pulse_);
    }
    if (config_.threads > 1 && size() > 1) {
        step_all_parallel();
    } else {
        step_all_single();
    }
    ++pulse_;
    ++stats_.pulses;
}

void Engine::run(common::Pulse count)
{
    for (common::Pulse i = 0; i < count; ++i) run_pulse();
}

void Engine::inject_transient_fault()
{
    for (auto& processor : processors_) processor->corrupt(rng_);
    // In-flight messages become arbitrary: some dropped, some garbled, per
    // recipient copy, so broadcast entries are spelled out first. The garble
    // writes through Shared_payload::unique(), which clones the buffer iff
    // other recipients still alias it (copy-on-write isolation). Delivery
    // *timing* is a network property, not processor state, so sent_at and the
    // wheel-slot placement stay intact — age invariants survive the fault.
    // The wheel holds all in-flight traffic (inboxes_ are the already
    // consumed rows awaiting recycling), garbled in slot-index order.
    const auto garble = [this](std::vector<std::vector<Message>>& boxes) {
        for (auto& box : boxes) {
            std::vector<Message> corrupted;
            for (Message& msg : box) {
                if (rng_.chance(0.5)) continue; // dropped
                for (auto& byte : msg.payload.unique())
                    if (rng_.chance(0.5)) byte = static_cast<std::uint8_t>(rng_.below(256));
                corrupted.push_back(std::move(msg));
            }
            box = std::move(corrupted);
        }
    };
    expand_entries();
    for (auto& slot : wheel_) garble(slot);
}

void Engine::inject_fault_at(common::Processor_id id)
{
    common::ensure(id >= 0 && id < static_cast<int>(processors_.size()),
                   "inject_fault_at: id out of range");
    processors_[static_cast<std::size_t>(id)]->corrupt(rng_);
}

void Engine::disconnect(common::Processor_id id)
{
    common::ensure(id >= 0 && id < size(), "disconnect: id out of range");
    expand_entries();
    disconnected_[static_cast<std::size_t>(id)] = true;
    any_disconnected_ = true;
    for (auto& slot : wheel_) slot[static_cast<std::size_t>(id)].clear();
}

bool Engine::is_disconnected(common::Processor_id id) const
{
    common::ensure(id >= 0 && id < size(), "is_disconnected: id out of range");
    return disconnected_[static_cast<std::size_t>(id)];
}

std::int64_t Engine::in_flight() const
{
    // Slot pulse_ % delta is due at the next pulse; every other slot is due
    // later. Under delta = 1 there is no other slot.
    const auto next = static_cast<std::size_t>(pulse_) % wheel_.size();
    std::int64_t total = 0;
    for (std::size_t s = 0; s < wheel_.size(); ++s) {
        if (s == next) continue;
        for (const std::vector<Message>& row : wheel_[s])
            total += static_cast<std::int64_t>(row.size());
    }
    return total;
}

} // namespace ga::sim
