#pragma once
// The benchmark's probes into single simulator layers, all built on the
// layers' public interfaces:
//   - CaptureHierarchy records the exact access stream a core issues into a
//     cache::MemoryHierarchy (wrong-path probes included), without changing
//     what the wrapped hierarchy sees or returns;
//   - replay() drives a fresh hierarchy with a captured stream and no core,
//     which isolates the hierarchy's own host time;
//   - FlatHierarchy is a 1-cycle functional memory on mem::SparseMemory,
//     which isolates the OoO core's host time.

#include <cstdint>
#include <string>
#include <vector>

#include "cache/hierarchy.hpp"
#include "mem/sparse_memory.hpp"

namespace perfbench {

/// One word access as the core issued it. For reads, `value` is the word
/// the hierarchy returned.
struct Access {
  std::uint32_t addr = 0;
  std::uint32_t value = 0;
  bool is_write = false;
};

using AccessStream = std::vector<Access>;

/// Transparent recording decorator. Owns nothing: the wrapped hierarchy
/// must outlive it.
class CaptureHierarchy : public cpc::cache::MemoryHierarchy {
 public:
  explicit CaptureHierarchy(cpc::cache::MemoryHierarchy& inner) : inner_(inner) {}

  cpc::cache::AccessResult read(std::uint32_t addr, std::uint32_t& value) override;
  cpc::cache::AccessResult write(std::uint32_t addr, std::uint32_t value) override;
  std::string name() const override { return inner_.name(); }
  void validate() const override { inner_.validate(); }
  bool inject_fault(const cpc::verify::FaultCommand& command) override {
    return inner_.inject_fault(command);
  }
  const cpc::cache::HierarchyStats& stats() const override { return inner_.stats(); }

  const AccessStream& stream() const { return stream_; }
  AccessStream take_stream() { return std::move(stream_); }

 private:
  cpc::cache::MemoryHierarchy& inner_;
  AccessStream stream_;
};

/// Replays `stream` into `hierarchy`; returns how many reads returned a
/// different word than the captured run saw.
std::uint64_t replay(const AccessStream& stream, cpc::cache::MemoryHierarchy& hierarchy);

/// Every counter of two HierarchyStats, traffic half-units included, is equal.
bool same_stats(const cpc::cache::HierarchyStats& a, const cpc::cache::HierarchyStats& b);

/// 1-cycle functional hierarchy: every access hits, values live in a
/// SparseMemory with the process-wide CPC_MEM_FILL first-touch contents.
class FlatHierarchy : public cpc::cache::MemoryHierarchy {
 public:
  cpc::cache::AccessResult read(std::uint32_t addr, std::uint32_t& value) override {
    ++stats_.reads;
    value = memory_.read_word(addr);
    return {};
  }
  cpc::cache::AccessResult write(std::uint32_t addr, std::uint32_t value) override {
    ++stats_.writes;
    memory_.write_word(addr, value);
    return {};
  }
  std::string name() const override { return "FLAT"; }

  const cpc::mem::SparseMemory& memory() const { return memory_; }

 private:
  cpc::mem::SparseMemory memory_;
};

/// Words per L2 line, the granularity memory and the codecs see.
inline constexpr std::uint32_t kLineWords = 32;

/// Distinct L2-line base addresses a stream touches, in first-touch order.
std::vector<std::uint32_t> line_bases(const AccessStream& stream);

}  // namespace perfbench
