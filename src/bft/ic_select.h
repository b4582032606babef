// Interactive-consistency substrate selection.
//
// The game authority runs every play phase over one IC activation, and two
// substrates implement the Ic_session contract: EIG (optimal resilience
// n > 3f, f+1 rounds, exponential payloads) and parallel Turpin-Coan over
// phase-king (polynomial payloads, n > 4f, 2+2(f+1) rounds, its n instances
// fused in one Parallel_ic_session). Which one is cheaper end-to-end depends
// on (n, f): bench E7's BM_authority_play measures the crossover — at f = 1
// EIG's payload blow-up has not kicked in yet, so EIG costs less wall time
// per play than parallel-IC and also runs the shorter schedule (13 pulses
// per play against 29), while from f = 2 on parallel-IC moves ~4x fewer
// bytes and runs ~1.5-2x faster per play. choose_ic encodes that
// measurement so callers get the right substrate by default instead of
// hard-coding one.
#ifndef GA_BFT_IC_SELECT_H
#define GA_BFT_IC_SELECT_H

#include <functional>
#include <memory>

#include "bft/session.h"

namespace ga::bft {

/// Builds one interactive-consistency activation for an (n, f) system.
using Ic_factory = std::function<std::unique_ptr<Ic_session>(
    int n, int f, common::Processor_id self, Value input)>;

/// Exponential-information-gathering IC (n > 3f, f+1 send rounds).
Ic_factory ic_eig();

/// Parallel interactive consistency over Turpin-Coan/phase-king (n > 4f).
Ic_factory ic_parallel_phase_king();

/// The substrate the E7 crossover prescribes for an (n, f) system: EIG at
/// f <= 1 (and wherever parallel-IC's n > 4f precondition fails), parallel
/// phase-king from f >= 2 where its polynomial payloads win end-to-end.
Ic_factory choose_ic(int n, int f);

} // namespace ga::bft

#endif // GA_BFT_IC_SELECT_H
