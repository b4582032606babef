#include "bft/driver.h"

#include "common/ensure.h"

namespace ga::bft {

Drive_result drive(std::vector<Participant>& participants)
{
    const int n = static_cast<int>(participants.size());
    common::ensure(n > 0, "drive: no participants");

    common::Round rounds = -1;
    for (const auto& p : participants) {
        common::ensure((p.session != nullptr) != (p.attacker != nullptr),
                       "drive: each participant is exactly one of session/attacker");
        if (p.session) {
            if (rounds < 0) rounds = p.session->total_rounds();
            common::ensure(p.session->total_rounds() == rounds,
                           "drive: sessions disagree on round count");
        }
    }
    common::ensure(rounds >= 0, "drive: at least one honest session required");

    Drive_result result;
    result.rounds = rounds;

    // Staging reused across rounds and recipients: assign() recycles capacity.
    // The payloads are owned here (honest broadcasts, and each attacker's
    // payload for the current recipient); sessions receive views of them.
    std::vector<std::optional<common::Bytes>> broadcast;
    std::vector<std::optional<common::Bytes>> forged(static_cast<std::size_t>(n));
    Round_payloads view;
    for (common::Round r = 0; r < rounds; ++r) {
        // Honest broadcasts: one payload for everyone.
        broadcast.assign(static_cast<std::size_t>(n), std::nullopt);
        for (int i = 0; i < n; ++i) {
            if (participants[static_cast<std::size_t>(i)].session)
                broadcast[static_cast<std::size_t>(i)] =
                    participants[static_cast<std::size_t>(i)].session->message_for_round(r);
        }

        // Per-recipient views (attackers may equivocate).
        for (int to = 0; to < n; ++to) {
            view.assign(static_cast<std::size_t>(n), std::nullopt);
            for (int from = 0; from < n; ++from) {
                const auto slot = static_cast<std::size_t>(from);
                auto& p = participants[slot];
                if (!p.session) forged[slot] = p.attacker->message_for(r, to);
                const auto& sent = p.session ? broadcast[slot] : forged[slot];
                if (!sent.has_value()) continue;
                view[slot] = *sent;
                if (from != to) {
                    result.messages += 1;
                    result.payload_bytes += static_cast<std::int64_t>(sent->size());
                }
            }
            auto& p = participants[static_cast<std::size_t>(to)];
            if (p.session) {
                p.session->deliver_round(r, view);
            } else {
                p.attacker->deliver_round(r, view);
            }
        }
    }

    result.decisions.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        auto& p = participants[static_cast<std::size_t>(i)];
        if (p.session) {
            common::ensure(p.session->done(), "drive: session did not terminate on schedule");
            result.decisions[static_cast<std::size_t>(i)] = p.session->decision();
        }
    }
    return result;
}

} // namespace ga::bft
