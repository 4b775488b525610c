#include "trace.hpp"

#include <fstream>

namespace snabench {

std::int64_t Tracer::nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

int Tracer::open(const std::string& name) {
    Event e;
    e.name = name;
    e.parent = stack_.empty() ? -1 : stack_.back();
    e.startNs = nowNs();
    events_.push_back(std::move(e));
    const int id = static_cast<int>(events_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void Tracer::close(int id) {
    Event& e = events_[static_cast<std::size_t>(id)];
    e.durNs = nowNs() - e.startNs;
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

double Tracer::seconds(const std::string& name) const {
    std::int64_t ns = 0;
    for (const auto& e : events_) {
        if (e.name == name) ns += e.durNs;
    }
    return static_cast<double>(ns) * 1e-9;
}

bool Tracer::writeChrome(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < events_.size(); ++i) {
        const Event& e = events_[i];
        const auto cat = e.name.substr(0, e.name.find('.'));
        os << (i ? ",\n" : "") << "{\"name\": \"" << e.name
           << "\", \"cat\": \"" << cat << "\", \"ph\": \"X\", \"ts\": "
           << static_cast<double>(e.startNs) / 1e3
           << ", \"dur\": " << static_cast<double>(e.durNs) / 1e3
           << ", \"pid\": 1, \"tid\": 1, \"args\": {\"id\": " << i
           << ", \"parent\": " << e.parent << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

}  // namespace snabench
