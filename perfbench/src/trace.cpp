#include "trace.h"

#include <fstream>
#include <stdexcept>
#include <string>

namespace perfbench {

int Tracer::open(const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  if (open_.empty()) {
    span.request = next_request_++;
  } else {
    span.parent = open_.back();
    span.request = spans_[static_cast<std::size_t>(span.parent)].request;
  }
  span.start = Clock::now();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

double Tracer::close(int index) {
  if (index < 0) return 0.0;
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error(std::string("perfbench: span '") +
                           spans_[static_cast<std::size_t>(index)].name + "' closed out of order");
  }
  open_.pop_back();
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end = Clock::now();
  return seconds_between(span.start, span.end);
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double duration = seconds_between(spans_[i].start, spans_[i].end);
    self[i] += duration;
    if (spans_[i].parent >= 0) self[static_cast<std::size_t>(spans_[i].parent)] -= duration;
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string name = spans_[i].name;
    by_layer[name.substr(0, name.find('.'))] += self[i];
  }
  return by_layer;
}

void Tracer::write_json(const std::string& path, Clock::time_point origin) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perfbench: cannot write trace file '" + path + "'");
  out.precision(9);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "  {\"name\": \"" << span.name << "\", \"parent\": " << span.parent
        << ", \"request\": " << span.request
        << ", \"start_s\": " << seconds_between(origin, span.start)
        << ", \"end_s\": " << seconds_between(origin, span.end) << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

}  // namespace perfbench
