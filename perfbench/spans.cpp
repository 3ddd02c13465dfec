#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::uint64_t SpanRecorder::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::size_t SpanRecorder::begin(std::string name, std::size_t parent,
                                std::size_t job) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.job = job;
  const std::lock_guard<std::mutex> lock(mutex_);
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

void SpanRecorder::end(std::size_t id) {
  const std::uint64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(id).end_ns = t;
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  const std::uint64_t origin = all.empty() ? 0 : all.front().start_ns;
  const auto signed_index = [](std::size_t i) {
    return i == kNoParent ? std::string("-1") : std::to_string(i);
  };
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns - origin
        << ",\"end_ns\":" << s.end_ns - origin
        << ",\"parent\":" << signed_index(s.parent)
        << ",\"job\":" << signed_index(s.job) << "}\n";
  }
  if (!out) throw std::runtime_error("short write to span file " + path);
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent != kNoParent) children.at(s.parent).emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& parent = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t cursor = parent.start_ns;  // end of the union so far
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, parent.end_ns);
      if (end <= start) continue;
      covered += end - start;
      cursor = end;
    }
    out[i] = static_cast<double>(parent.end_ns - parent.start_ns - covered) * 1e-9;
  }
  return out;
}

std::map<std::string, double> layer_self_seconds(const std::vector<Span>& spans) {
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].layer()] += self[i];
  return out;
}

}  // namespace perfbench
