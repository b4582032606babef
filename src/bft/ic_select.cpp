#include "bft/ic_select.h"

#include "bft/eig.h"
#include "bft/parallel_ic.h"

namespace ga::bft {

Ic_factory ic_eig()
{
    return [](int n, int f, common::Processor_id self,
              Value input) -> std::unique_ptr<Ic_session> {
        return std::make_unique<Eig_session>(n, f, self, std::move(input));
    };
}

Ic_factory ic_parallel_phase_king()
{
    return [](int n, int f, common::Processor_id self,
              Value input) -> std::unique_ptr<Ic_session> {
        return std::make_unique<Parallel_ic_session>(n, f, self, std::move(input));
    };
}

Ic_factory choose_ic(int n, int f)
{
    // E7 crossover (bench_bap_scaling, BM_authority_play): at f = 1 (n = 5)
    // EIG is cheaper in wall time per play (~0.09-0.12 vs ~0.15-0.22 ms) and
    // runs 2 send rounds to parallel-IC's 6, so a play takes 13 pulses
    // instead of 29. From f = 2 on EIG's exponential payloads dominate:
    // parallel-IC moves ~4x fewer bytes per play at n = 9 and is ~1.5-2x
    // faster — but it only exists for n > 4f.
    if (f >= 2 && n > 4 * f) return ic_parallel_phase_king();
    return ic_eig();
}

} // namespace ga::bft
