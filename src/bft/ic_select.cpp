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
    // parallel-IC is now slightly cheaper in wall time per play (~0.24 vs
    // ~0.29 ms), but it runs 7 send rounds to EIG's 2, so a play takes 34
    // pulses instead of 14 — EIG stays the f <= 1 substrate because switching
    // would stretch every play's latency in pulses. From f = 2 on EIG's
    // exponential payloads dominate and parallel-IC wins ~14x per play at
    // n = 9 — but it only exists for n > 4f.
    if (f >= 2 && n > 4 * f) return ic_parallel_phase_king();
    return ic_eig();
}

} // namespace ga::bft
