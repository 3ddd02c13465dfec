#include "layers.hpp"

#include <unordered_set>

namespace perfbench {

using cpc::cache::AccessResult;
using cpc::cache::HierarchyStats;

AccessResult CaptureHierarchy::read(std::uint32_t addr, std::uint32_t& value) {
  const AccessResult r = inner_.read(addr, value);
  stream_.push_back({addr, value, false});
  return r;
}

AccessResult CaptureHierarchy::write(std::uint32_t addr, std::uint32_t value) {
  const AccessResult r = inner_.write(addr, value);
  stream_.push_back({addr, value, true});
  return r;
}

std::uint64_t replay(const AccessStream& stream, cpc::cache::MemoryHierarchy& hierarchy) {
  std::uint64_t mismatches = 0;
  for (const Access& a : stream) {
    if (a.is_write) {
      hierarchy.write(a.addr, a.value);
    } else {
      std::uint32_t value = 0;
      hierarchy.read(a.addr, value);
      mismatches += value != a.value ? 1 : 0;
    }
  }
  return mismatches;
}

bool same_stats(const HierarchyStats& a, const HierarchyStats& b) {
  // The sweep-counter registry lists every exported scalar counter; the
  // hierarchy rows are the HierarchyStats fields.
#define CPC_SWEEP_COUNTER(group, field) PERFBENCH_COMPARE_##group(field)
#define PERFBENCH_COMPARE_core(field)
#define PERFBENCH_COMPARE_hier(field) \
  if (a.field != b.field) return false;
#include "sim/sweep_counters.def"
#undef PERFBENCH_COMPARE_hier
#undef PERFBENCH_COMPARE_core
#undef CPC_SWEEP_COUNTER
  return a.traffic.fetch_half_units() == b.traffic.fetch_half_units() &&
         a.traffic.writeback_half_units() == b.traffic.writeback_half_units();
}

std::vector<std::uint32_t> line_bases(const AccessStream& stream) {
  constexpr std::uint32_t kLineBytes = kLineWords * 4;
  std::vector<std::uint32_t> bases;
  std::unordered_set<std::uint32_t> seen;
  for (const Access& a : stream) {
    const std::uint32_t base = a.addr / kLineBytes * kLineBytes;
    if (seen.insert(base).second) bases.push_back(base);
  }
  return bases;
}

}  // namespace perfbench
