// The benchmark's span recorder: wall-clock spans recorded around the
// fabric's public calls (constructor, Open_loop_load::tick, Fabric::submit,
// pump_ingest / run_plays, maybe_rebalance). Spans stay in memory and are
// written out once, when the run ends.
//
// Each span carries its name, start, end, parent span and the id of the
// window it belongs to (every span of one ingest window or one run_plays
// step shares that id; set-up spans use window -1). A span's self time is
// its duration minus the time its children cover.
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;          ///< index of the enclosing span, -1 for a root
    std::int64_t window = -1; ///< window id shared by every span of one window
};

class Span_recorder {
public:
    /// Open a span under the innermost open span; returns its index.
    int begin(const char* name, std::int64_t window)
    {
        const int parent = open_.empty() ? -1 : open_.back();
        spans_.push_back(Span{name, now_ns(), 0, parent, window});
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    void end()
    {
        spans_[static_cast<std::size_t>(open_.back())].end_ns = now_ns();
        open_.pop_back();
    }

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

    /// Self time per span name, in nanoseconds.
    [[nodiscard]] std::map<std::string, std::int64_t> self_ns() const
    {
        std::vector<std::int64_t> child(spans_.size(), 0);
        for (const Span& s : spans_) {
            if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
        }
        std::map<std::string, std::int64_t> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            out[spans_[i].name] += spans_[i].end_ns - spans_[i].start_ns - child[i];
        }
        return out;
    }

    /// Durations of every span called `name`, in milliseconds.
    [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const
    {
        std::vector<double> out;
        for (const Span& s : spans_) {
            if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
        }
        return out;
    }

    /// One line per span: index, name, parent, window, start and end (ns,
    /// relative to the first span).
    void write_csv(std::ostream& out) const
    {
        const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
        out << "id,name,parent,window,start_ns,end_ns\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out << i << ',' << s.name << ',' << s.parent << ',' << s.window << ','
                << s.start_ns - origin << ',' << s.end_ns - origin << '\n';
        }
    }

private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/// RAII span over one call; a null recorder records nothing (untraced runs).
class Scoped_span {
public:
    Scoped_span(Span_recorder* recorder, const char* name, std::int64_t window)
        : recorder_{recorder}
    {
        if (recorder_ != nullptr) recorder_->begin(name, window);
    }
    ~Scoped_span()
    {
        if (recorder_ != nullptr) recorder_->end();
    }
    Scoped_span(const Scoped_span&) = delete;
    Scoped_span& operator=(const Scoped_span&) = delete;

private:
    Span_recorder* recorder_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
