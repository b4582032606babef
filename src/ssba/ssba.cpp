#include "ssba/ssba.h"

#include "common/ensure.h"

namespace ga::ssba {

Ssba_processor::Ssba_processor(common::Processor_id id, int n, int f, int period,
                               common::Rng rng, Input_provider input_provider)
    : Processor{id},
      schedule_{id, n, f, 1, period, bft::ic_eig(), rng.split(1)},
      input_provider_{std::move(input_provider)}
{
    common::ensure(input_provider_ != nullptr, "Ssba_processor: null input provider");
}

bft::Value Ssba_processor::activation_input(int /*phase*/, common::Pulse now,
                                            bool /*after_jump*/)
{
    return input_provider_(now);
}

void Ssba_processor::activation_done(int /*phase*/, const bft::Ic_session& session,
                                     common::Pulse now)
{
    decisions_.push_back(Agreement_record{now, session.decision()});
}

void Ssba_processor::corrupt(common::Rng& rng)
{
    schedule_.corrupt(rng);
    // Arbitrary BA progress: none, or a session restarted on an arbitrary
    // input (every reachable session state is some prefix of an activation).
    if (rng.chance(0.5)) return;
    bft::Value junk;
    const int len = static_cast<int>(rng.below(9));
    for (int i = 0; i < len; ++i) junk.push_back(static_cast<std::uint8_t>(rng.below(256)));
    schedule_.restart_session(std::move(junk));
}

} // namespace ga::ssba
