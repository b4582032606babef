// Round-based protocol sessions.
//
// A Session is one activation of a synchronous full-information protocol,
// factored out of the transport so it can be embedded anywhere: in the light
// driver (unit tests, message-complexity benches), in a sim::Processor (the
// SSBA composition of §4), or in the game-authority play protocol (§3.3).
//
// Schedule contract, for r = 0 .. total_rounds()-1:
//   1. the owner obtains message_for_round(r) (or appends it to a buffer of
//      its own with append_message_for_round) and broadcasts it;
//   2. the owner collects the payloads all processors sent in round r
//      (including this session's own, at index self) and calls
//      deliver_round(r, payloads), with std::nullopt for missing senders.
// After deliver_round(total_rounds()-1) the session is done() and exposes its
// outputs. Sessions must tolerate arbitrary payload bytes from any sender
// (Byzantine garbage decodes to "missing"), and any call pattern reachable
// after a transient fault must not crash — out-of-schedule calls are ignored.
//
// Payload lifetime: deliver_round receives borrowed views, not copies. A
// view is valid only for the duration of that deliver_round call, and a
// session copies whatever it keeps past it (EIG tree values, Turpin-Coan's
// x and candidate, parallel IC's per-instance seeds, x values and
// candidates). Views a session parks in reused buffers (parallel IC's
// section row and vote table, the Turpin-Coan vote tally) are read only
// within the call that filled them. The caller keeps the viewed bytes alive and unmodified
// across the call: under the clocked schedule (ssba::Clocked_ic, which both
// SSBA and the authority tier run) the owner is the received message's
// Shared_payload handle, held by the schedule's cross-pulse section buffer
// (its own section is a view into the pulse message it minted, which its
// buffer pool keeps); in bft::drive it is the caller's own Bytes. Sessions never read outside a view, so a section may be a sub-span
// of a larger message.
#ifndef GA_BFT_SESSION_H
#define GA_BFT_SESSION_H

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"

namespace ga::bft {

/// Agreement values are opaque byte strings; the empty string is the default
/// ("bottom") value decided when the protocol cannot attribute a real value.
using Value = common::Bytes;

/// std::less<Value>'s order, spelled out for ordered vote tallies: bytes
/// compared as unsigned chars, then the shorter value first when one is a
/// prefix of the other. (GCC 12 flags the library's own comparison inside
/// std::map with a false -Wstringop-overread in optimized builds.)
struct Value_order {
    bool operator()(const Value& a, const Value& b) const
    {
        const std::size_t shared = std::min(a.size(), b.size());
        if (shared != 0) {
            const int order = std::memcmp(a.data(), b.data(), shared);
            if (order != 0) return order < 0;
        }
        return a.size() < b.size();
    }
};

/// Per-sender payloads for one round; index j views what processor j sent
/// (borrowed for the deliver_round call only, see the lifetime note above).
using Round_payloads = std::vector<std::optional<common::Byte_view>>;

class Session {
public:
    virtual ~Session() = default;

    /// Number of synchronous send rounds this activation uses.
    [[nodiscard]] virtual common::Round total_rounds() const = 0;

    /// Append the payload to broadcast in round r to `out`, after whatever
    /// `out` already holds (an owner mints it straight into its pulse
    /// message). Must be called exactly once per round in increasing order;
    /// defensive implementations append nothing for out-of-schedule rounds.
    virtual void append_message_for_round(common::Round r, common::Bytes& out) = 0;

    /// The same payload in a fresh buffer.
    [[nodiscard]] common::Bytes message_for_round(common::Round r)
    {
        common::Bytes payload;
        append_message_for_round(r, payload);
        return payload;
    }

    /// Deliver everything received in round r.
    virtual void deliver_round(common::Round r, const Round_payloads& payloads) = 0;

    /// True once the final round has been delivered.
    [[nodiscard]] virtual bool done() const = 0;

    /// The agreed value; valid only when done(). Consensus semantics:
    /// termination, agreement, and validity for at most f Byzantine senders.
    [[nodiscard]] virtual Value decision() const = 0;
};

/// A session that additionally provides interactive consistency: an agreed
/// vector with one slot per processor, where every honest processor's slot
/// carries that processor's real input. Both Eig_session (exponential,
/// optimal resilience) and Parallel_ic_session (polynomial, n > 4f with
/// phase-king) implement this — the game authority runs on either.
class Ic_session : public Session {
public:
    /// Valid only when done(); identical at every honest processor.
    [[nodiscard]] virtual const std::vector<Value>& agreed_vector() const = 0;

    /// Begin a new activation with `input`, in any state (done, unfinished,
    /// or never run). Afterwards the session is indistinguishable from a
    /// fresh one built on the same (n, f, self) with this input: the same
    /// messages, the same outputs, whatever call pattern follows. What a
    /// restart may keep is capacity — tables, arenas, scratch and value
    /// buffers — so an owner that restarts one session per activation
    /// stops paying for a session's allocations every activation. The
    /// constructors delegate to it, so there is one initialization path.
    virtual void restart(Value input) = 0;
};

} // namespace ga::bft

#endif // GA_BFT_SESSION_H
