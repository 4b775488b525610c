// Spans the benchmark records around each call into a program layer.
//
// Off by default: a disabled Tracer makes Span construction a branch and
// nothing else, so metric runs measure the program, not the recorder. On,
// spans are kept in memory and written once, at the end, as a Chrome
// trace-event file (loads in chrome://tracing and Perfetto). Per-layer
// seconds are summed from the same spans, so the trace and the printed
// layer metrics cannot disagree.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace snabench {

class Tracer {
public:
    struct Event {
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t durNs = 0;
        int parent = -1;  ///< index of the enclosing span, -1 at the top
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}
    bool enabled() const { return enabled_; }
    /// Spans opened while disabled are not recorded.
    void setEnabled(bool on) { enabled_ = on; }

    /// Index of the opened span (-1 when disabled).
    int open(const std::string& name);
    void close(int id);

    /// Summed duration of every span named `name`, s.
    double seconds(const std::string& name) const;

    /// Writes {"traceEvents": [...]} with one complete ("X") event per
    /// span, its parent recorded in args. Returns false on I/O failure.
    bool writeChrome(const std::string& path) const;

    const std::vector<Event>& events() const { return events_; }

private:
    std::int64_t nowNs() const;

    bool enabled_;
    std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
    std::vector<Event> events_;
    std::vector<int> stack_;
};

/// RAII span; a no-op on a disabled tracer.
class Span {
public:
    Span(Tracer& t, const char* name) : t_(t), id_(t.enabled() ? t.open(name) : -1) {}
    ~Span() {
        if (id_ >= 0) t_.close(id_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    Tracer& t_;
    int id_;
};

}  // namespace snabench
