#include "bft/ic_select.h"

#include "bft/eig.h"
#include "bft/parallel_ic.h"
#include "bft/phase_king.h"
#include "bft/turpin_coan.h"

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
        return std::make_unique<Parallel_ic_session>(
            n, f, self, std::move(input),
            [](int nn, int ff, common::Processor_id s, Value v) -> std::unique_ptr<Session> {
                return std::make_unique<Turpin_coan_session>(
                    nn, ff, s, std::move(v),
                    [](int n3, int f3, common::Processor_id s3,
                       int b) -> std::unique_ptr<Session> {
                        return std::make_unique<Phase_king_session>(n3, f3, s3, b);
                    });
            });
    };
}

Ic_factory choose_ic(int n, int f)
{
    // E7 crossover (bench_bap_scaling, BM_authority_play): at f = 1 (n = 5)
    // the two cost about the same wall time per play (~0.18 vs ~0.20 ms), but
    // parallel-IC runs 7 send rounds to EIG's 2, so a play takes 34 pulses
    // instead of 14 — EIG stays the f <= 1 substrate because switching would
    // stretch every play's latency in pulses. From f = 2 on EIG's exponential
    // payloads dominate and parallel-IC wins ~8-10x per play at n = 9 — but
    // it only exists for n > 4f.
    if (f >= 2 && n > 4 * f) return ic_parallel_phase_king();
    return ic_eig();
}

} // namespace ga::bft
