#pragma once
// The benchmark's workloads and the two kinds of run:
//   - end-to-end (untraced): the workload's job grid repeated through
//     sim::SweepRunner::run_contained for a fixed number of host seconds;
//   - traced: the same grid once more with spans and access capture, then
//     per-layer probes on the captured kernel streams.
// Every result goes into a Report, which prints the human-readable lines and
// the final one-line JSON object.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "compress/codec.hpp"
#include "sim/experiment.hpp"

namespace perfbench {

/// Default workload seed (the seed EXPERIMENTS.md records) and a held-out
/// seed that no tuning has looked at.
inline constexpr std::uint64_t kDefaultSeed = 0x5eed;
inline constexpr std::uint64_t kHeldOutSeed = 0x1d2c3;

/// One grid column: a paper configuration under one codec.
struct Cell {
  cpc::sim::ConfigKind kind = cpc::sim::ConfigKind::kBC;
  cpc::compress::Codec codec{};

  /// "BC", "CPP", "CPP-fpc": metric-name safe (no '@').
  std::string name() const;
  /// Layer whose protocol this cell exercises: "core" for CPP, else "cache".
  const char* layer() const;
};

struct WorkloadSpec {
  std::string name;
  std::uint64_t trace_ops = 0;
  unsigned threads = 1;
  std::vector<Cell> cells;
  std::vector<std::uint64_t> seeds;
  /// Cells of the CPP-vs-BC comparison when the grid itself has no such
  /// pair (baseline-seeds): run once on seeds.front() outside the timed grid.
  std::vector<Cell> reference_cells;
};

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
WorkloadSpec make_spec(const std::string& name, std::uint64_t seed);

/// Named metric with its unit, in emission order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_ok = true;  ///< benchmark-level checks beyond job failures

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail_check(const std::string& what);
  /// The last line of the run: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;
};

/// Build and environment facts printed with every result.
struct RunContext {
  std::string commit = "unknown";
  std::string out_dir = ".";
};

/// CPC_* variables set in the environment; the benchmark refuses to run
/// under any of them, so every knob has its documented default.
std::vector<std::string> cpc_knobs_set();

/// Prints the effective settings of a run.
void print_settings(const WorkloadSpec& spec, const RunContext& ctx, bool traced,
                    double seconds);

Report run_end_to_end(const WorkloadSpec& spec, double seconds);
Report run_traced(const WorkloadSpec& spec, const RunContext& ctx);

/// Runs `cells` (BC plus one or more CPP cells) on the 14 kernels at
/// `trace_ops` and `seed` once, and prints CPP traffic and cycles as a
/// percentage of BC's, averaged over every CPP job.
struct SimulatedPct {
  double traffic = 0.0;
  double cycles = 0.0;
  std::uint64_t failed = 0;
};
SimulatedPct simulated_pct(const std::vector<Cell>& cells, std::uint64_t trace_ops,
                           std::uint64_t seed);

}  // namespace perfbench
