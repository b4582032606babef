#include "clock/beacon_cache.h"

#include <string>

#include "common/ensure.h"

namespace ga::clock {

Beacon_cache::Beacon_cache(common::Processor_id self, int n, int period, int delta)
    : self_{self}, period_{period}, delta_{delta}, entries_(static_cast<std::size_t>(n))
{
    common::ensure(n >= 1, "Beacon_cache: n must be >= 1");
    common::ensure(self >= 0 && self < n, "Beacon_cache: self outside [0, n)");
    common::ensure(period >= 2, "Beacon_cache: period must be >= 2");
    common::ensure(delta >= 1, "Beacon_cache: delta must be >= 1");
    collected_.reserve(entries_.size());
}

void Beacon_cache::observe(common::Processor_id from, int value, common::Pulse sent_at,
                           common::Pulse now)
{
    if (from < 0 || from >= static_cast<int>(entries_.size()) || from == self_) return;
    if (value < 0 || value >= period_) return;

    const common::Pulse age = now - sent_at - 1;
    if (age < 0 || age >= delta_) {
        throw common::Contract_error{
            "Beacon_cache: clock beacon on edge " + std::to_string(from) + "->" +
            std::to_string(self_) + " delivered beyond delta (age " + std::to_string(age) +
            ", delta " + std::to_string(delta_) + ")"};
    }

    Entry& entry = entries_[static_cast<std::size_t>(from)];
    if (entry.valid && entry.sent_at >= sent_at) return; // freshest wins, first on ties
    entry = Entry{true, value, sent_at};
}

const std::vector<int>& Beacon_cache::collect(common::Pulse now)
{
    // Entering frame C: a beacon from frame T carries the sender's value as
    // of frame T, which in steady state (one increment per frame) has grown
    // to value + (C-1-T) by the frame the step compares against. Entries
    // staler than delta frames have expired.
    const common::Pulse frame = now / delta_;
    collected_.clear();
    for (const Entry& entry : entries_) {
        if (!entry.valid) continue;
        const common::Pulse staleness = (frame - 1) - entry.sent_at / delta_;
        if (staleness < 0 || staleness >= delta_) continue;
        collected_.push_back((entry.value + static_cast<int>(staleness)) % period_);
    }
    return collected_;
}

void Beacon_cache::clear()
{
    for (Entry& entry : entries_) entry = Entry{};
}

} // namespace ga::clock
