// Interactive consistency from n parallel multivalued consensus instances.
//
// EIG gives IC "for free" but with exponential payloads; this session builds
// IC from any polynomial multivalued consensus (e.g. Turpin-Coan over
// phase-king) at one extra dissemination round:
//   round 0: every processor broadcasts its own value;
//   rounds 1..R: n parallel consensus instances run side by side, instance j
//   seeded with whatever arrived from j in round 0 (bottom if nothing usable).
// Validity of the inner protocol makes honest slot j decide j's real value at
// every honest processor; agreement makes the whole vector identical.
#ifndef GA_BFT_PARALLEL_IC_H
#define GA_BFT_PARALLEL_IC_H

#include <functional>
#include <memory>

#include "bft/session.h"

namespace ga::bft {

/// Factory for the inner multivalued consensus.
using Multivalued_session_factory = std::function<std::unique_ptr<Session>(
    int n, int f, common::Processor_id self, Value input)>;

class Parallel_ic_session final : public Ic_session {
public:
    Parallel_ic_session(int n, int f, common::Processor_id self, Value input,
                        Multivalued_session_factory make_inner);

    [[nodiscard]] common::Round total_rounds() const override;
    common::Bytes message_for_round(common::Round r) override;
    void deliver_round(common::Round r, const Round_payloads& payloads) override;
    [[nodiscard]] bool done() const override { return done_; }

    /// Consensus reduction: most frequent non-bottom slot (ties lexicographic).
    [[nodiscard]] Value decision() const override;

    /// The agreed vector (one slot per source); valid only when done().
    [[nodiscard]] const std::vector<Value>& agreed_vector() const override;

private:
    int n_;
    int f_;
    common::Processor_id self_;
    Value input_;
    Multivalued_session_factory make_inner_;
    std::vector<std::unique_ptr<Session>> instances_;
    // n x n split of one round: per_instance_[j][sender] views sender's
    // section for instance j. Sized once per activation (round 0) and
    // refilled each round; its views are valid only inside deliver_round.
    std::vector<Round_payloads> per_instance_;
    std::vector<Value> agreed_vector_;
    bool done_ = false;
};

} // namespace ga::bft

#endif // GA_BFT_PARALLEL_IC_H
