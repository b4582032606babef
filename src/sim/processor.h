// The processor abstraction of the synchronous automaton model (§4.1).
//
// A common pulse triggers each step: the processor reads all messages its
// neighbors sent at the previous pulse, changes state, and sends messages for
// the next pulse. Byzantine processors are simply different Processor
// implementations that need not follow any protocol; transient faults are
// modeled by `corrupt`, which must drive the state to arbitrary values so that
// self-stabilization proofs can be exercised from any starting configuration.
#ifndef GA_SIM_PROCESSOR_H
#define GA_SIM_PROCESSOR_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/shared_payload.h"

namespace ga::sim {

/// A point-to-point message delivered one pulse after it is sent. The payload
/// is a refcounted immutable buffer, so forwarding or fanning a payload out
/// never copies its bytes, and fault injection garbles copy-on-write so no
/// recipient's corruption leaks into another's delivery.
struct Message {
    common::Processor_id from = -1;
    /// The recipient, or k_every_neighbor for a broadcast entry.
    common::Processor_id to = -1;
    common::Shared_payload payload;
    /// Pulse at which the sender queued this message. Under the classic
    /// transport delivery happens at sent_at + 1; under an adversarial
    /// Net_model at sent_at + d for some d in [1, delta], so a receiver's
    /// message age is ctx.pulse() - sent_at - 1 in [0, delta - 1].
    common::Pulse sent_at = 0;
    /// Position among the sender's sends of that pulse (a broadcast counts
    /// once). It orders a sender's unicasts against its broadcast entries.
    std::int32_t seq = 0;
};

/// `Message::to` of a broadcast entry: the message goes to every neighbor.
inline constexpr common::Processor_id k_every_neighbor = -1;

/// What one processor sent in one pulse: its unicasts, and one entry per
/// broadcast (to = k_every_neighbor) however many neighbors it reaches.
/// `seq` merges the two lists back into send order.
struct Outbox {
    std::vector<Message> messages;
    std::vector<Message> broadcasts;

    void clear()
    {
        messages.clear();
        broadcasts.clear();
    }

    [[nodiscard]] std::int32_t sends() const
    {
        return static_cast<std::int32_t>(messages.size() + broadcasts.size());
    }

    /// Visit every recipient copy in send order, each broadcast spelled out
    /// over `neighbors` in order. Unicasts are visited in place (the visitor
    /// may move them out); a broadcast copy is a temporary aliasing the
    /// entry's buffer.
    template <typename Visit>
    void for_each_copy(const std::vector<common::Processor_id>& neighbors, Visit&& visit)
    {
        std::size_t b = 0;
        for (std::size_t u = 0; u <= messages.size(); ++u) {
            const std::int32_t before =
                u < messages.size() ? messages[u].seq : std::numeric_limits<std::int32_t>::max();
            for (; b < broadcasts.size() && broadcasts[b].seq < before; ++b) {
                const Message& entry = broadcasts[b];
                for (const common::Processor_id to : neighbors) {
                    Message copy{entry.from, to, entry.payload, entry.sent_at, entry.seq};
                    visit(copy);
                }
            }
            if (u < messages.size()) visit(messages[u]);
        }
    }
};

/// A processor's inbox for one pulse, as a view: the engine's per-recipient
/// row (unicasts and per-recipient copies, sorted by sender then seq) merged
/// with every other sender's broadcast entries. It yields messages in
/// ascending sender id and, within a sender, in send order — exactly the
/// order in which the spelled-out copies would have been delivered. Only
/// `from`, `payload` and `sent_at` of a yielded message describe the
/// delivery; `to` is k_every_neighbor on a broadcast entry.
class Inbox {
public:
    class Iterator {
    public:
        Iterator() = default;

        const Message& operator*() const { return *current_; }
        Iterator& operator++()
        {
            if (from_row_) {
                ++row_pos_;
            } else {
                ++entry_pos_;
            }
            settle();
            return *this;
        }
        friend bool operator==(const Iterator& a, const Iterator& b)
        {
            return a.current_ == b.current_;
        }

    private:
        friend class Inbox;

        explicit Iterator(const Inbox& inbox)
            : row_{inbox.row_}, entries_{inbox.entries_}, self_{inbox.self_}
        {
            settle();
        }

        /// Point current_ at the smaller (sender, seq) of the next row
        /// message and the next entry; nullptr once both are exhausted.
        void settle()
        {
            const std::size_t senders = entries_ != nullptr ? entries_->size() : 0;
            while (sender_ < senders &&
                   (static_cast<common::Processor_id>(sender_) == self_ ||
                    entry_pos_ >= (*entries_)[sender_].broadcasts.size())) {
                ++sender_;
                entry_pos_ = 0;
            }
            const Message* unicast = row_pos_ < row_->size() ? &(*row_)[row_pos_] : nullptr;
            const Message* entry =
                sender_ < senders ? &(*entries_)[sender_].broadcasts[entry_pos_] : nullptr;
            from_row_ = entry == nullptr ||
                        (unicast != nullptr &&
                         (unicast->from < entry->from ||
                          (unicast->from == entry->from && unicast->seq < entry->seq)));
            current_ = from_row_ ? unicast : entry;
        }

        const std::vector<Message>* row_ = nullptr;
        const std::vector<Outbox>* entries_ = nullptr;
        common::Processor_id self_ = -1;
        const Message* current_ = nullptr;
        std::size_t row_pos_ = 0;
        std::size_t sender_ = 0;
        std::size_t entry_pos_ = 0;
        bool from_row_ = true;
    };

    /// `entries` is indexed by sender and may be null (no broadcast entries
    /// in flight); every entry in it reaches every processor but its sender.
    Inbox(const std::vector<Message>* row, const std::vector<Outbox>* entries,
          common::Processor_id self)
        : row_{row}, entries_{entries}, self_{self}
    {
    }

    [[nodiscard]] Iterator begin() const { return Iterator{*this}; }
    [[nodiscard]] Iterator end() const { return Iterator{}; }

private:
    const std::vector<Message>* row_;
    const std::vector<Outbox>* entries_;
    common::Processor_id self_;
};

/// Per-pulse interface handed to a processor: its inbox plus a send facility.
/// Sends are restricted to graph neighbors; violations throw Contract_error
/// for honest code (Byzantine implementations get their messages dropped by
/// the engine instead, mirroring a real network's topology constraints).
class Pulse_context {
public:
    Pulse_context(common::Pulse pulse, common::Processor_id self, int n,
                  const std::vector<common::Processor_id>* neighbors, Inbox inbox,
                  Outbox* outbox)
        : pulse_{pulse}, self_{self}, n_{n}, neighbors_{neighbors}, inbox_{inbox}, outbox_{outbox}
    {
    }

    [[nodiscard]] common::Pulse pulse() const { return pulse_; }
    [[nodiscard]] common::Processor_id self() const { return self_; }
    [[nodiscard]] int system_size() const { return n_; }

    /// This processor's neighbors in the communication graph.
    [[nodiscard]] const std::vector<common::Processor_id>& neighbors() const
    {
        return *neighbors_;
    }

    /// Messages sent to this processor at the previous pulse.
    [[nodiscard]] const Inbox& inbox() const { return inbox_; }

    /// Queue a message for delivery at the next pulse. The shared-handle
    /// overload aliases an existing buffer (relays and echo attackers forward
    /// without copying); the Bytes overload wraps fresh bytes once.
    void send(common::Processor_id to, common::Shared_payload payload)
    {
        outbox_->messages.push_back(
            Message{self_, to, std::move(payload), pulse_, outbox_->sends()});
    }
    void send(common::Processor_id to, common::Bytes payload)
    {
        send(to, common::Shared_payload{std::move(payload)});
    }

    /// Queue the same payload to every neighbor (the full-information
    /// protocols all run on complete graphs, where this is a true broadcast).
    /// One entry, however many neighbors: the engine delivers it to each as
    /// if sent by send(), in neighbor order, without a per-recipient copy.
    void broadcast(common::Shared_payload payload)
    {
        outbox_->broadcasts.push_back(
            Message{self_, k_every_neighbor, std::move(payload), pulse_, outbox_->sends()});
    }
    void broadcast(common::Bytes payload)
    {
        broadcast(common::Shared_payload{std::move(payload)});
    }

private:
    common::Pulse pulse_;
    common::Processor_id self_;
    int n_;
    const std::vector<common::Processor_id>* neighbors_;
    Inbox inbox_;
    Outbox* outbox_;
};

/// Base class for everything the engine schedules.
class Processor {
public:
    explicit Processor(common::Processor_id id) : id_{id} {}
    virtual ~Processor() = default;

    Processor(const Processor&) = delete;
    Processor& operator=(const Processor&) = delete;

    [[nodiscard]] common::Processor_id id() const { return id_; }

    /// One synchronous step (§4.1): consume the inbox, update state, send.
    virtual void on_pulse(Pulse_context& ctx) = 0;

    /// Transient fault: overwrite every state variable with arbitrary values.
    /// Implementations must leave the object in *some* well-typed state but
    /// with semantically arbitrary content (this is what "arbitrary starting
    /// configuration" means for the containing system).
    virtual void corrupt(common::Rng& rng) = 0;

private:
    common::Processor_id id_;
};

} // namespace ga::sim

#endif // GA_SIM_PROCESSOR_H
