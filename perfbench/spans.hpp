#pragma once
// In-memory span recorder for the traced benchmark run. A span marks one
// call into a simulator layer: its name ("<layer>.<what>"), start and end on
// the steady clock, the span that caused it, and the job it belongs to.
// Spans are kept in memory while the run executes and written out once at
// the end, so the recorder adds no I/O to the timed code.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
inline constexpr std::size_t kNoJob = static_cast<std::size_t>(-1);

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::size_t parent = kNoParent;  ///< index into the span list
  std::size_t job = kNoJob;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
  /// The layer a span belongs to: its name up to the first '.'.
  std::string layer() const { return name.substr(0, name.find('.')); }
};

/// Thread-safe span store. Span ids are indices into spans().
class SpanRecorder {
 public:
  std::size_t begin(std::string name, std::size_t parent, std::size_t job);
  void end(std::size_t id);
  std::vector<Span> spans() const;

  /// Writes one JSON object per line: id, name, start_ns, end_ns, parent
  /// (-1 for roots), job (-1 for none). Times are relative to the first span.
  void write_jsonl(const std::string& path) const;

  static std::uint64_t now_ns();

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name,
             std::size_t parent = kNoParent, std::size_t job = kNoJob)
      : recorder_(recorder), id_(recorder.begin(std::move(name), parent, job)) {}
  ~ScopedSpan() { recorder_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::size_t id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  std::size_t id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (clipped to the parent).
std::vector<double> self_seconds(const std::vector<Span>& spans);

/// Self time summed per layer.
std::map<std::string, double> layer_self_seconds(const std::vector<Span>& spans);

}  // namespace perfbench
