#include "bench.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "cpu/ooo_core.hpp"
#include "layers.hpp"
#include "mem/sparse_memory.hpp"
#include "sim/bench_meter.hpp"
#include "sim/job.hpp"
#include "sim/sweep_runner.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "verify/metadata_auditor.hpp"
#include "workload/workloads.hpp"

extern char** environ;

namespace perfbench {

using cpc::compress::Codec;
using cpc::compress::CodecKind;
using cpc::sim::ConfigKind;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr unsigned kTracedSetupRepeats = 3;
constexpr unsigned kMinGridRepeats = 3;
constexpr unsigned kReferenceRepeats = 5;

// Paper reference values (abstract / Figs. 10-11) and the values
// EXPERIMENTS.md records at 250k ops and seed 0x5eed.
constexpr double kPaperTrafficPct = 90.0;
constexpr double kPaperCyclesPct = 93.0;
constexpr double kRecordedTrafficPct = 63.2;
constexpr double kRecordedCyclesPct = 85.2;

Cell paper_cell(ConfigKind kind) { return {kind, cpc::compress::kPaperCodec}; }

std::vector<Cell> cpp_codec_cells() {
  std::vector<Cell> cells;
  for (const CodecKind c : cpc::compress::kAllCodecs) {
    cells.push_back({ConfigKind::kCPP, Codec(c)});
  }
  return cells;
}

/// Every cell some workload times; the traced run probes all of them.
std::vector<Cell> all_probe_cells() {
  std::vector<Cell> cells = {paper_cell(ConfigKind::kBC), paper_cell(ConfigKind::kBCC),
                             paper_cell(ConfigKind::kHAC), paper_cell(ConfigKind::kBCP)};
  for (const Cell& c : cpp_codec_cells()) cells.push_back(c);
  return cells;
}

unsigned capped_threads(unsigned wanted) {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : std::min(wanted, hw);
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// --------------------------------------------------------------------------
// Job grids
// --------------------------------------------------------------------------

struct JobMeta {
  std::size_t kernel = 0;
  std::uint64_t seed = 0;
  std::size_t cell = 0;
};

struct Grid {
  std::vector<Cell> cells;
  std::uint64_t trace_ops = 0;
  std::vector<cpc::sim::Job> jobs;
  std::vector<JobMeta> meta;
};

using TraceKey = std::pair<std::size_t, std::uint64_t>;  // (kernel, seed)

Grid build_grid(const std::vector<Cell>& cells, std::uint64_t trace_ops,
                const std::vector<std::uint64_t>& seeds) {
  const auto& kernels = cpc::workload::all_workloads();
  Grid grid;
  grid.cells = cells;
  grid.trace_ops = trace_ops;
  for (const std::uint64_t seed : seeds) {
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      for (std::size_t c = 0; c < cells.size(); ++c) {
        grid.jobs.push_back(cpc::sim::make_config_codec_job(
            kernels[k], trace_ops, seed, cells[c].kind, cells[c].codec));
        grid.meta.push_back({k, seed, c});
      }
    }
  }
  return grid;
}

std::string job_label(const Grid& grid, std::size_t i) {
  const JobMeta& m = grid.meta[i];
  std::ostringstream s;
  s << cpc::workload::all_workloads()[m.kernel].name << " seed=" << m.seed << ' '
    << grid.cells[m.cell].name();
  return s.str();
}

// --------------------------------------------------------------------------
// Set-up: trace generation plus hierarchy construction for one grid
// --------------------------------------------------------------------------

struct Setup {
  std::vector<double> samples;      ///< seconds of each whole set-up
  std::vector<double> gen_samples;  ///< its trace-generation part
  std::uint64_t total_ops = 0;
  std::size_t traces = 0;
  std::map<TraceKey, std::uint64_t> ops;  ///< trace length per (kernel, seed)

  double seconds() const { return median(samples); }
  double gen_seconds() const { return median(gen_samples); }
};

/// Times one set-up of `grid` and appends it to `setup`; the first call
/// also records every trace's length.
void setup_once(const Grid& grid, Setup& setup) {
  const auto& kernels = cpc::workload::all_workloads();
  std::vector<TraceKey> keys;
  for (const JobMeta& m : grid.meta) {
    const TraceKey key{m.kernel, m.seed};
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) keys.push_back(key);
  }
  const bool first = setup.samples.empty();
  const double t0 = now_s();
  for (const TraceKey& key : keys) {
    const cpc::cpu::Trace trace =
        cpc::workload::generate(kernels[key.first], {grid.trace_ops, key.second});
    if (first) {
      setup.ops[key] = trace.size();
      setup.total_ops += trace.size();
    }
  }
  const double t1 = now_s();
  for (const cpc::sim::Job& job : grid.jobs) {
    const auto hierarchy = job.make_hierarchy();
    if (!hierarchy) throw std::runtime_error("hierarchy factory returned null");
  }
  const double t2 = now_s();
  setup.traces = keys.size();
  setup.gen_samples.push_back(t1 - t0);
  setup.samples.push_back(t2 - t0);
}

// --------------------------------------------------------------------------
// Untraced grid repeats through SweepRunner::run_contained
// --------------------------------------------------------------------------

/// Why a finished job's output is wrong, or empty when it is right.
std::string job_error(const cpc::sim::RunResult& run, std::uint64_t expected_ops) {
  if (run.core.value_mismatches != 0) {
    return "value_mismatches=" + std::to_string(run.core.value_mismatches);
  }
  if (run.core.committed != expected_ops) {
    return "committed " + std::to_string(run.core.committed) + " of " +
           std::to_string(expected_ops) + " trace ops";
  }
  return {};
}

struct GridRun {
  std::vector<double> walls;                   ///< per repeat
  std::vector<std::uint64_t> committed;        ///< per repeat, ok jobs
  std::vector<std::vector<double>> job_walls;  ///< [repeat][job]; <0 = failed
  std::vector<cpc::sim::RunResult> first;      ///< repeat 0 results
  std::vector<std::uint64_t> fingerprints;     ///< repeat 0
  std::vector<std::string> errors;             ///< first error per job
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  cpc::sim::TraceCache::Stats trace_cache;     ///< repeat 0
  /// Peak RSS through repeat 0. Later repeats only add allocator drift
  /// (freed traces and hierarchies leave fragmented arenas behind).
  std::uint64_t rss_bytes = 0;
};

/// Runs the grid at least `min_repeats` times and until `seconds` have
/// passed, at most `max_repeats` times. With `interleave`, one more set-up
/// is timed before every repeat, so set-up samples see the same host
/// conditions as the grid.
GridRun run_grid(const Grid& grid, unsigned threads, double seconds,
                 unsigned min_repeats, unsigned max_repeats, Setup& setup,
                 bool interleave = false) {
  const cpc::sim::SweepRunner runner(threads);
  cpc::sim::RunOptions options;
  options.quiet = true;
  const std::size_t n = grid.jobs.size();
  GridRun out;
  out.first.resize(n);
  out.fingerprints.assign(n, 0);
  out.errors.resize(n);
  const double start = now_s();
  for (unsigned r = 0; r < max_repeats; ++r) {
    if (r >= min_repeats && now_s() - start >= seconds) break;
    if (interleave) setup_once(grid, setup);
    const double t0 = now_s();
    cpc::sim::RunReport report = runner.run_contained(grid.jobs, options);
    const double wall = now_s() - t0;

    std::map<std::size_t, std::string> thrown;
    for (const cpc::sim::JobFailure& f : report.failures) thrown[f.index] = f.what;
    std::vector<double> walls(n, -1.0);
    std::uint64_t committed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const cpc::sim::JobResult& res = report.results[i];
      ++out.attempted;
      std::string error;
      if (!res.ok) {
        error = "threw: " + (thrown.count(i) ? thrown[i] : std::string("unknown"));
      } else {
        const JobMeta& m = grid.meta[i];
        error = job_error(res.run, setup.ops.at({m.kernel, m.seed}));
        const std::uint64_t fp = cpc::sim::stats_fingerprint(res.run);
        if (r == 0) {
          out.first[i] = res.run;
          out.fingerprints[i] = fp;
        } else if (error.empty() && fp != out.fingerprints[i]) {
          error = "stats fingerprint " + hex64(fp) + " differs from repeat 0's " +
                  hex64(out.fingerprints[i]);
        }
      }
      if (!error.empty()) {
        ++out.failed;
        if (out.errors[i].empty()) out.errors[i] = error;
        std::cout << "FAILED job " << i << " (" << job_label(grid, i) << ") repeat " << r
                  << ": " << error << "\n";
        continue;
      }
      walls[i] = res.wall_seconds;
      committed += res.run.core.committed;
    }
    if (r == 0) {
      out.trace_cache = report.trace_cache;
      out.rss_bytes = cpc::sim::peak_rss_bytes();
    }
    out.walls.push_back(wall);
    out.committed.push_back(committed);
    out.job_walls.push_back(std::move(walls));
  }
  return out;
}

void print_fingerprints(const Grid& grid, const GridRun& run, const char* what) {
  for (std::size_t i = 0; i < grid.jobs.size(); ++i) {
    const cpc::sim::RunResult& r = run.first[i];
    std::cout << "fingerprint " << what << ' ' << i << ' ' << job_label(grid, i)
              << " fp=" << hex64(run.fingerprints[i]) << " cycles=" << r.core.cycles
              << " traffic_half_units=" << r.hierarchy.traffic.half_units() << "\n";
  }
}

// --------------------------------------------------------------------------
// CPP against BC on the same traces
// --------------------------------------------------------------------------

struct CppVsBc {
  /// Geometric mean over CPP/BC trace pairs of CPP ops/s ÷ BC ops/s.
  double speed_ratio = 0.0;
  double traffic_pct = 0.0;  ///< mean over CPP jobs
  double cycles_pct = 0.0;
  std::size_t pairs = 0;
  struct Pct {
    double traffic = 0.0;
    double cycles = 0.0;
    std::size_t pairs = 0;
  };
  std::map<std::string, Pct> per_cell;  ///< means per CPP cell
};

CppVsBc cpp_vs_bc(const Grid& grid, const GridRun& run) {
  std::map<TraceKey, std::size_t> bc;
  for (std::size_t i = 0; i < grid.jobs.size(); ++i) {
    const JobMeta& m = grid.meta[i];
    if (grid.cells[m.cell].kind == ConfigKind::kBC) bc[{m.kernel, m.seed}] = i;
  }
  CppVsBc out;
  double log_ratio_sum = 0.0;
  std::size_t log_ratio_pairs = 0;
  for (std::size_t i = 0; i < grid.jobs.size(); ++i) {
    const JobMeta& m = grid.meta[i];
    const Cell& cell = grid.cells[m.cell];
    if (cell.kind != ConfigKind::kCPP || !run.errors[i].empty()) continue;
    const std::size_t b = bc.at({m.kernel, m.seed});
    if (!run.errors[b].empty()) continue;
    // Host speed on this trace, CPP against BC, median over repeats. The
    // two jobs run back to back, so slow spells of the host mostly cancel.
    std::vector<double> ratios;
    for (const auto& walls : run.job_walls) {
      if (walls[i] <= 0.0 || walls[b] <= 0.0) continue;
      ratios.push_back((static_cast<double>(run.first[i].core.committed) / walls[i]) /
                       (static_cast<double>(run.first[b].core.committed) / walls[b]));
    }
    if (!ratios.empty()) {
      log_ratio_sum += std::log(median(ratios));
      ++log_ratio_pairs;
    }
    const double t = run.first[i].traffic_words() / run.first[b].traffic_words() * 100.0;
    const double c = run.first[i].cycles() / run.first[b].cycles() * 100.0;
    out.traffic_pct += t;
    out.cycles_pct += c;
    ++out.pairs;
    CppVsBc::Pct& cell_pct = out.per_cell[cell.name()];
    cell_pct.traffic += t;
    cell_pct.cycles += c;
    ++cell_pct.pairs;
  }
  if (out.pairs > 0) {
    out.traffic_pct /= static_cast<double>(out.pairs);
    out.cycles_pct /= static_cast<double>(out.pairs);
  }
  for (auto& [name, cell_pct] : out.per_cell) {
    cell_pct.traffic /= static_cast<double>(cell_pct.pairs);
    cell_pct.cycles /= static_cast<double>(cell_pct.pairs);
  }
  if (log_ratio_pairs > 0) out.speed_ratio = std::exp(log_ratio_sum / log_ratio_pairs);
  return out;
}

void print_simulated(const CppVsBc& cmp, std::uint64_t trace_ops, std::uint64_t seed) {
  std::printf("  simulated at %" PRIu64 " ops, seed %" PRIu64 " (0x%" PRIx64
              "), mean of %zu CPP/BC pairs:\n",
              trace_ops, seed, seed, cmp.pairs);
  std::printf("    cpp_traffic_pct_bc %.4f %%  [paper ~%.0f, %+.1f points; EXPERIMENTS.md %.1f"
              " at 250000 ops seed 0x5eed, %+.1f points]\n",
              cmp.traffic_pct, kPaperTrafficPct, cmp.traffic_pct - kPaperTrafficPct,
              kRecordedTrafficPct, cmp.traffic_pct - kRecordedTrafficPct);
  std::printf("    cpp_cycles_pct_bc  %.4f %%  [paper ~%.0f, %+.1f points; EXPERIMENTS.md %.1f"
              " at 250000 ops seed 0x5eed, %+.1f points]\n",
              cmp.cycles_pct, kPaperCyclesPct, cmp.cycles_pct - kPaperCyclesPct,
              kRecordedCyclesPct, cmp.cycles_pct - kRecordedCyclesPct);
  if (cmp.per_cell.size() > 1) {
    for (const auto& [name, cell_pct] : cmp.per_cell) {
      std::printf("    %-9s traffic %.2f %%  cycles %.2f %% of BC\n", name.c_str(), cell_pct.traffic,
                  cell_pct.cycles);
    }
  }
}

void add_metric(Report& rep, const std::string& name, double value, const std::string& unit,
                const std::string& note = {}) {
  rep.add(name, value, unit);
  std::printf("metric %-22s %.6g %s%s%s\n", name.c_str(), value, unit.c_str(),
              note.empty() ? "" : "  ", note.c_str());
}

// --------------------------------------------------------------------------
// Traced run pieces
// --------------------------------------------------------------------------

struct TracedJob {
  std::string error;
  cpc::sim::RunResult run;
  double run_s = 0.0;
  std::uint64_t fingerprint = 0;
  AccessStream stream;  ///< kept jobs only
};

/// One job as the sweep runs it, with a span around each layer call and the
/// hierarchy wrapped in the capture decorator.
void traced_job(SpanRecorder& rec, cpc::sim::TraceCache& cache, const Grid& grid,
                std::size_t i, std::size_t span_job, bool keep, TracedJob& out) {
  const JobMeta& m = grid.meta[i];
  const Cell& cell = grid.cells[m.cell];
  try {
    const ScopedSpan job(rec, "sim.job", kNoParent, span_job);
    std::shared_ptr<const cpc::cpu::Trace> trace;
    {
      const ScopedSpan s(rec, "sim.trace_cache_get", job.id(), span_job);
      trace = cache.get(cpc::workload::all_workloads()[m.kernel], grid.trace_ops, m.seed);
    }
    std::unique_ptr<cpc::cache::MemoryHierarchy> hierarchy;
    {
      const ScopedSpan s(rec, std::string(cell.layer()) + ".make_hierarchy", job.id(),
                         span_job);
      hierarchy = cpc::sim::make_hierarchy(cell.kind, cell.codec);
    }
    CaptureHierarchy capture(*hierarchy);
    {
      const ScopedSpan s(rec, "sim.run_trace_on", job.id(), span_job);
      const double t0 = now_s();
      out.run = cpc::sim::run_trace_on(*trace, capture);
      out.run_s = now_s() - t0;
    }
    out.fingerprint = cpc::sim::stats_fingerprint(out.run);
    if (keep) out.stream = capture.take_stream();
  } catch (const std::exception& e) {
    out.error = std::string("threw: ") + e.what();
  }
}

struct TracedPass {
  double wall = 0.0;
  std::vector<TracedJob> jobs;
};

TracedPass traced_pass(SpanRecorder& rec, const Grid& grid, unsigned threads,
                       std::uint64_t keep_seed, bool keep) {
  TracedPass pass;
  pass.jobs.resize(grid.jobs.size());
  const cpc::sim::SweepRunner runner(threads);
  cpc::sim::TraceCache cache;
  const double t0 = now_s();
  runner.parallel_for(grid.jobs.size(), [&](std::size_t i) {
    traced_job(rec, cache, grid, i, i, keep && grid.meta[i].seed == keep_seed, pass.jobs[i]);
  });
  pass.wall = now_s() - t0;
  return pass;
}

struct CellAgg {
  std::uint64_t accesses = 0;
  double replay_s = 0.0;
  cpc::cache::HierarchyStats stats;  ///< summed counters (traffic merged)
};

void accumulate(cpc::cache::HierarchyStats& into, const cpc::cache::HierarchyStats& s) {
#define CPC_SWEEP_COUNTER(group, field) PERFBENCH_SUM_##group(field)
#define PERFBENCH_SUM_core(field)
#define PERFBENCH_SUM_hier(field) into.field += s.field;
#include "sim/sweep_counters.def"
#undef PERFBENCH_SUM_hier
#undef PERFBENCH_SUM_core
#undef CPC_SWEEP_COUNTER
  into.traffic.merge(s.traffic);
}

double per(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

// --------------------------------------------------------------------------
// Public surface
// --------------------------------------------------------------------------

std::string Cell::name() const {
  std::string n = cpc::sim::config_name(kind);
  if (codec.kind() != CodecKind::kPaper) n += std::string("-") + codec.name();
  return n;
}

const char* Cell::layer() const { return kind == ConfigKind::kCPP ? "core" : "cache"; }

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper-grid", "cpp-codecs",
                                                 "baseline-seeds"};
  return names;
}

WorkloadSpec make_spec(const std::string& name, std::uint64_t seed) {
  WorkloadSpec spec;
  spec.name = name;
  spec.seeds = {seed};
  if (name == "paper-grid") {
    spec.trace_ops = 250'000;
    for (const ConfigKind k : cpc::sim::kAllConfigs) spec.cells.push_back(paper_cell(k));
  } else if (name == "cpp-codecs") {
    spec.trace_ops = 300'000;
    // BC is the normaliser of the CPP-vs-BC metrics; it is codec-blind.
    spec.cells.push_back(paper_cell(ConfigKind::kBC));
    for (const Cell& c : cpp_codec_cells()) spec.cells.push_back(c);
  } else if (name == "baseline-seeds") {
    spec.trace_ops = 250'000;
    spec.threads = 2;
    spec.cells = {paper_cell(ConfigKind::kBC), paper_cell(ConfigKind::kBCC),
                  paper_cell(ConfigKind::kHAC), paper_cell(ConfigKind::kBCP)};
    spec.seeds = {seed, seed + 1, seed + 2};
    spec.reference_cells = {paper_cell(ConfigKind::kBC), paper_cell(ConfigKind::kCPP)};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  spec.threads = capped_threads(spec.threads);
  return spec;
}

void Report::fail_check(const std::string& what) {
  checks_ok = false;
  std::cout << "CHECK FAILED: " << what << "\n";
}

std::string Report::json() const {
  std::ostringstream s;
  s << "{\"correct\": " << (checks_ok && failed == 0 && attempted > 0 ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    s << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << value
      << ", \"unit\": \"" << m.unit << "\"}";
  }
  s << "}}";
  return s.str();
}

std::vector<std::string> cpc_knobs_set() {
  std::vector<std::string> set;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string entry(*e);
    if (entry.rfind("CPC_", 0) == 0) set.push_back(entry.substr(0, entry.find('=')));
  }
  return set;
}

void print_settings(const WorkloadSpec& spec, const RunContext& ctx, bool traced,
                    double seconds) {
  std::ostringstream cells, reference, seeds, codecs;
  for (const Cell& c : spec.cells) cells << (cells.tellp() ? "," : "") << c.name();
  for (const Cell& c : spec.reference_cells) {
    reference << (reference.tellp() ? "," : " reference_cells=") << c.name();
  }
  for (const std::uint64_t s : spec.seeds) seeds << (seeds.tellp() ? "," : "") << s;
  std::vector<std::string> seen;
  for (const Cell& c : spec.cells) {
    if (std::find(seen.begin(), seen.end(), c.codec.name()) == seen.end()) {
      seen.push_back(c.codec.name());
      codecs << (codecs.tellp() ? "," : "") << c.codec.name();
    }
  }
  std::cout << "settings workload=" << spec.name << " traced=" << (traced ? 1 : 0)
            << " seconds=" << seconds << "\n"
            << "settings trace_ops=" << spec.trace_ops << " seeds=" << seeds.str()
            << " kernels=" << cpc::workload::all_workloads().size()
            << " cells=" << cells.str() << reference.str() << " codecs=" << codecs.str()
            << "\n"
            << "settings threads=" << spec.threads
            << " nproc=" << std::thread::hardware_concurrency()
            << " executor=SweepRunner::run_contained (in-process, no shards)\n"
            << "settings audit_stride=" << cpc::verify::MetadataAuditor::stride_from_env()
            << " mem_fill=" << cpc::mem::fill_seed_from_env()
            << " trace_cache_mb=" << cpc::sim::TraceCache::capacity_from_env() / (1024 * 1024)
            << " trace_spill=off job_timeout_ms=0 procs=0 crash_job=none"
            << " (CPC_* environment refused)\n"
            << "settings build=" << PERFBENCH_BUILD_TYPE << " compiler=" << __VERSION__
            << " commit=" << ctx.commit << "\n"
            << "settings model: every job starts with empty caches and counts statistics"
               " from its first op; the model is checked only against the paper's reported"
               " numbers, never against real hardware (unvalidated)\n";
}

SimulatedPct simulated_pct(const std::vector<Cell>& cells, std::uint64_t trace_ops,
                           std::uint64_t seed) {
  const Grid grid = build_grid(cells, trace_ops, {seed});
  Setup setup;
  const auto& kernels = cpc::workload::all_workloads();
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    setup.ops[{k, seed}] = cpc::workload::generate(kernels[k], {trace_ops, seed}).size();
  }
  const GridRun run = run_grid(grid, capped_threads(4), 0.0, 1, 1, setup);
  const CppVsBc cmp = cpp_vs_bc(grid, run);
  print_simulated(cmp, trace_ops, seed);
  return {cmp.traffic_pct, cmp.cycles_pct, run.failed};
}

Report run_end_to_end(const WorkloadSpec& spec, double seconds) {
  Report rep;
  const Grid grid = build_grid(spec.cells, spec.trace_ops, spec.seeds);
  Setup setup;
  setup_once(grid, setup);
  const GridRun run =
      run_grid(grid, spec.threads, seconds, kMinGridRepeats, 100000, setup, true);
  std::printf("setup: %zu traces (%" PRIu64 " ops) + %zu hierarchies, median of %zu: %.4f s\n",
              setup.traces, setup.total_ops, grid.jobs.size(), setup.samples.size(),
              setup.seconds());
  rep.attempted += run.attempted;
  rep.failed += run.failed;
  print_fingerprints(grid, run, "grid");

  CppVsBc cmp;
  if (spec.reference_cells.empty()) {
    cmp = cpp_vs_bc(grid, run);
  } else {
    // No CPP in the timed grid: compare on the first seed, outside it.
    const Grid ref = build_grid(spec.reference_cells, spec.trace_ops, {spec.seeds.front()});
    const GridRun ref_run = run_grid(ref, 1, 0.0, kReferenceRepeats, kReferenceRepeats, setup);
    rep.attempted += ref_run.attempted;
    rep.failed += ref_run.failed;
    print_fingerprints(ref, ref_run, "reference");
    cmp = cpp_vs_bc(ref, ref_run);
    std::printf("reference pass: BC+CPP on seed %" PRIu64 ", 1 thread, %u repeats, untimed grid\n",
                spec.seeds.front(), kReferenceRepeats);
  }
  if (cmp.pairs == 0) rep.fail_check("no CPP/BC pair completed");

  std::vector<double> mops, all_jobs;
  for (std::size_t r = 0; r < run.walls.size(); ++r) {
    mops.push_back(static_cast<double>(run.committed[r]) / run.walls[r] / 1e6);
    for (const double w : run.job_walls[r]) {
      if (w >= 0.0) all_jobs.push_back(w);
    }
  }
  const Quartiles wall_q = quartiles(run.walls);
  const Tail tail = tail_percentile(all_jobs);
  std::printf("grid: %zu jobs x %zu repeats, %u thread(s); grid_wall_s q1 %.4f median %.4f"
              " q3 %.4f\n",
              grid.jobs.size(), run.walls.size(), spec.threads, wall_q.q1, median(run.walls),
              wall_q.q3);
  std::printf("grid walls per repeat (s):");
  for (const double w : run.walls) std::printf(" %.4f", w);
  std::printf("\nset-up samples (s):");
  for (const double w : setup.samples) std::printf(" %.4f", w);
  std::printf("\n");
  std::printf("job_fail_frac %.6f (failed %" PRIu64 " of %" PRIu64 " jobs attempted)\n",
              per(static_cast<double>(rep.failed), static_cast<double>(rep.attempted)),
              rep.failed, rep.attempted);
  print_simulated(cmp, spec.trace_ops, spec.seeds.front());

  add_metric(rep, "sim_mops_per_s", median(mops), "Mops/s", "median over repeats");
  add_metric(rep, "grid_wall_s", median(run.walls), "s", "median over repeats");
  add_metric(rep, "setup_s", setup.seconds(), "s",
             "median of " + std::to_string(setup.samples.size()) + " set-ups");
  add_metric(rep, "job_s_p50", median(all_jobs), "s",
             std::to_string(all_jobs.size()) + " job samples");
  add_metric(rep, "job_s_tail", tail.value, "s",
             "p" + std::to_string(tail.percentile) + " of " + std::to_string(tail.samples) +
                 " job samples, " + std::to_string(tail.beyond) + " beyond it");
  add_metric(rep, "cpp_bc_speed_ratio", cmp.speed_ratio, "x",
             "CPP ops/s over BC ops/s per trace, geometric mean");
  add_metric(rep, "peak_rss_mb", static_cast<double>(run.rss_bytes) / 1048576.0, "MiB",
             "through set-up and the first grid repeat");
  add_metric(rep, "jobs_ok_frac",
             1.0 - per(static_cast<double>(rep.failed), static_cast<double>(rep.attempted)),
             "frac", "1 - job_fail_frac");
  add_metric(rep, "cpp_traffic_pct_bc", cmp.traffic_pct, "%", "paper ~90");
  add_metric(rep, "cpp_cycles_pct_bc", cmp.cycles_pct, "%", "paper ~93");
  return rep;
}

Report run_traced(const WorkloadSpec& spec, const RunContext& ctx) {
  Report rep;
  SpanRecorder rec;
  const Grid grid = build_grid(spec.cells, spec.trace_ops, spec.seeds);
  const std::size_t n = grid.jobs.size();
  const std::uint64_t seed0 = spec.seeds.front();
  Setup setup;
  for (unsigned r = 0; r < kTracedSetupRepeats; ++r) setup_once(grid, setup);

  // Untraced and traced passes, interleaved (U T U T); medians of each.
  std::vector<double> untraced_walls, traced_walls;
  GridRun untraced;
  TracedPass traced;
  std::vector<double> busy, overhead;
  for (unsigned pass = 0; pass < 2; ++pass) {
    GridRun u = run_grid(grid, spec.threads, 0.0, 1, 1, setup);
    rep.attempted += u.attempted;
    rep.failed += u.failed;
    untraced_walls.push_back(u.walls.front());
    double job_sum = 0.0;
    for (const double w : u.job_walls.front()) job_sum += std::max(w, 0.0);
    busy.push_back(job_sum / (spec.threads * u.walls.front()));
    overhead.push_back(u.walls.front() - (job_sum + setup.gen_seconds()) / spec.threads);
    if (pass == 0) untraced = std::move(u);

    TracedPass t = traced_pass(rec, grid, spec.threads, seed0, pass == 0);
    traced_walls.push_back(t.wall);
    if (pass == 0) {
      traced = std::move(t);
      continue;  // checked with the probes below
    }
    for (std::size_t i = 0; i < n; ++i) {
      ++rep.attempted;
      if (t.jobs[i].error.empty() && t.jobs[i].fingerprint == untraced.fingerprints[i]) continue;
      ++rep.failed;
      std::cout << "FAILED traced job " << i << " (" << job_label(grid, i) << ") second pass: "
                << (t.jobs[i].error.empty() ? "stats fingerprint changed" : t.jobs[i].error)
                << "\n";
    }
  }
  print_fingerprints(grid, untraced, "grid");

  // Jobs whose captured stream the probes replay: the grid's first seed,
  // plus probe-only jobs for the cells this workload does not time.
  std::vector<Cell> missing;
  for (const Cell& c : all_probe_cells()) {
    const bool present = std::any_of(grid.cells.begin(), grid.cells.end(),
                                     [&](const Cell& g) { return g.name() == c.name(); });
    if (!present) missing.push_back(c);
  }
  const Grid probe = build_grid(missing, spec.trace_ops, {seed0});
  std::vector<TracedJob> probe_jobs(probe.jobs.size());
  {
    cpc::sim::TraceCache cache;
    for (std::size_t j = 0; j < probe.jobs.size(); ++j) {
      traced_job(rec, cache, probe, j, n + j, true, probe_jobs[j]);
    }
  }

  struct Kept {
    const Grid* grid;
    std::size_t index;
    std::size_t span_job;
    TracedJob* job;
    bool timed;  ///< part of the workload's own grid
  };
  std::vector<Kept> kept;
  std::vector<std::string> errors(n + probe.jobs.size());
  const auto check_run = [&](const Grid& g, std::size_t i, std::size_t id, TracedJob& t) {
    ++rep.attempted;
    std::string error = t.error;
    if (error.empty()) {
      const JobMeta& m = g.meta[i];
      const auto ops = setup.ops.find({m.kernel, m.seed});
      const std::uint64_t expected =
          ops != setup.ops.end() ? ops->second : t.run.core.committed;
      error = job_error(t.run, expected);
    }
    if (error.empty() && &g == &grid && t.fingerprint != untraced.fingerprints[i]) {
      error = "capture decorator changed the stats fingerprint";
    }
    errors[id] = error;
  };
  for (std::size_t i = 0; i < n; ++i) {
    check_run(grid, i, i, traced.jobs[i]);
    if (grid.meta[i].seed == seed0) kept.push_back({&grid, i, i, &traced.jobs[i], true});
  }
  for (std::size_t j = 0; j < probe.jobs.size(); ++j) {
    check_run(probe, j, n + j, probe_jobs[j]);
    kept.push_back({&probe, j, n + j, &probe_jobs[j], false});
  }

  // Replay every kept stream into a fresh hierarchy with no core.
  std::map<std::string, CellAgg> cells;
  double validate_s = 0.0, cpu_self_s = 0.0;
  std::map<std::size_t, const AccessStream*> stream_of_kernel;
  for (const Kept& k : kept) {
    if (!errors[k.span_job].empty()) continue;
    const Cell& cell = k.grid->cells[k.grid->meta[k.index].cell];
    auto fresh = cpc::sim::make_hierarchy(cell.kind, cell.codec);
    std::uint64_t mismatches = 0;
    double replay_s = 0.0;
    try {
      {
        const ScopedSpan s(rec, std::string(cell.layer()) + ".replay", kNoParent, k.span_job);
        const double t0 = now_s();
        mismatches = replay(k.job->stream, *fresh);
        replay_s = now_s() - t0;
      }
      const ScopedSpan s(rec, "verify.validate", kNoParent, k.span_job);
      const double t0 = now_s();
      fresh->validate();
      validate_s += now_s() - t0;
    } catch (const std::exception& e) {
      errors[k.span_job] = std::string("replay threw: ") + e.what();
      continue;
    }
    if (mismatches != 0 || !same_stats(fresh->stats(), k.job->run.hierarchy)) {
      errors[k.span_job] = "captured-stream replay did not reproduce the in-core stats (" +
                           std::to_string(mismatches) + " read mismatches)";
      continue;
    }
    CellAgg& agg = cells[cell.name()];
    agg.accesses += k.job->stream.size();
    agg.replay_s += replay_s;
    accumulate(agg.stats, fresh->stats());
    if (k.timed) cpu_self_s += k.job->run_s - replay_s;
    stream_of_kernel.emplace(k.grid->meta[k.index].kernel, &k.job->stream);
  }

  // Core over flat memory, line images for the memory and codec probes, and
  // the audit overhead per paper configuration.
  const auto& kernels = cpc::workload::all_workloads();
  double flat_s = 0.0, flat_ops = 0.0;
  // Line images per kernel; kernels reuse addresses, so each kernel's
  // lines form their own segment of `bases`.
  std::vector<std::uint32_t> bases, words;
  std::vector<std::size_t> segments = {0};
  std::map<std::string, std::pair<double, double>> audit;  // audited, bare seconds
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    cpc::cpu::Trace trace;
    {
      const ScopedSpan s(rec, "workload.generate", kNoParent, kNoJob);
      trace = cpc::workload::generate(kernels[k], {spec.trace_ops, seed0});
    }
    FlatHierarchy flat;
    cpc::cpu::OooCore core(cpc::cpu::CoreConfig{}, flat);
    cpc::cpu::CoreStats stats;
    {
      const ScopedSpan s(rec, "cpu.flat_run", kNoParent, kNoJob);
      const double t0 = now_s();
      stats = core.run(trace);
      flat_s += now_s() - t0;
    }
    ++rep.attempted;
    const std::string flat_error = job_error({"FLAT", stats, {}}, trace.size());
    if (!flat_error.empty()) {
      ++rep.failed;
      std::cout << "FAILED flat-memory run of " << kernels[k].name << ": " << flat_error << "\n";
    }
    flat_ops += static_cast<double>(stats.committed);
    const auto it = stream_of_kernel.find(k);
    if (it != stream_of_kernel.end()) {
      for (const std::uint32_t base : line_bases(*it->second)) {
        bases.push_back(base);
        words.resize(words.size() + kLineWords);
        flat.memory().read_words(base, kLineWords, &words[words.size() - kLineWords]);
      }
      segments.push_back(bases.size());
    }
    for (const ConfigKind kind : cpc::sim::kAllConfigs) {
      auto& [audited_s, bare_s] = audit[cpc::sim::config_name(kind)];
      for (unsigned order = 0; order < 2; ++order) {
        const bool audited = (order + k) % 2 == 0;
        auto hierarchy = cpc::sim::make_hierarchy(kind);
        const ScopedSpan s(rec, audited ? "verify.audited_run" : "cpu.bare_run", kNoParent,
                           kNoJob);
        const double t0 = now_s();
        ++rep.attempted;
        try {
          if (audited) {
            (void)cpc::sim::run_trace_on(trace, *hierarchy);
            audited_s += now_s() - t0;
          } else {
            cpc::cpu::OooCore bare(cpc::cpu::CoreConfig{}, *hierarchy);
            (void)bare.run(trace);
            bare_s += now_s() - t0;
          }
        } catch (const std::exception& e) {
          ++rep.failed;
          std::cout << "FAILED audit probe " << kernels[k].name << '/'
                    << cpc::sim::config_name(kind) << ": " << e.what() << "\n";
        }
      }
    }
  }

  // Sparse memory: bulk write then read of every captured line.
  constexpr unsigned kMemRounds = 4;
  double mem_s = 0.0;
  {
    const ScopedSpan s(rec, "mem.bulk_write_read", kNoParent, kNoJob);
    std::uint32_t line[kLineWords];
    std::uint64_t diff = 0;
    for (unsigned round = 0; round < kMemRounds; ++round) {
      for (std::size_t seg = 0; seg + 1 < segments.size(); ++seg) {
        cpc::mem::SparseMemory memory;
        const double t0 = now_s();
        for (std::size_t j = segments[seg]; j < segments[seg + 1]; ++j) {
          memory.write_words(bases[j], kLineWords, &words[j * kLineWords]);
        }
        for (std::size_t j = segments[seg]; j < segments[seg + 1]; ++j) {
          memory.read_words(bases[j], kLineWords, line);
          for (std::uint32_t w = 0; w < kLineWords; ++w) {
            diff += line[w] != words[j * kLineWords + w] ? 1 : 0;
          }
        }
        mem_s += now_s() - t0;
      }
    }
    if (diff != 0) {
      rep.fail_check("SparseMemory bulk read-back differs in " + std::to_string(diff) + " words");
    }
  }
  const double nwords = static_cast<double>(words.size());

  // Codecs on the same line images.
  constexpr unsigned kCodecRounds = 8;
  std::map<std::string, std::array<double, 3>> codec_metrics;
  for (const CodecKind kind : cpc::compress::kAllCodecs) {
    const Codec codec(kind);
    const std::string prefix = std::string("compress.") + codec.name();
    std::uint64_t compressible = 0;
    double classify_s = 0.0;
    {
      const ScopedSpan s(rec, prefix + ".classify_words", kNoParent, kNoJob);
      const double t0 = now_s();
      for (unsigned round = 0; round < kCodecRounds; ++round) {
        for (std::size_t j = 0; j < bases.size(); ++j) {
          compressible += static_cast<std::uint64_t>(std::popcount(
              codec.classify_words(&words[j * kLineWords], kLineWords, bases[j]).compressible()));
        }
      }
      classify_s = now_s() - t0;
    }
    std::uint64_t bad = 0;
    double roundtrip_s = 0.0;
    {
      const ScopedSpan s(rec, prefix + ".roundtrip", kNoParent, kNoJob);
      const double t0 = now_s();
      for (std::size_t j = 0; j < bases.size(); ++j) {
        for (std::uint32_t w = 0; w < kLineWords; ++w) {
          const std::uint32_t addr = bases[j] + 4 * w;
          const std::uint32_t value = words[j * kLineWords + w];
          if (const auto cw = codec.compress(value, addr)) {
            bad += codec.decompress(*cw, addr) != value ? 1 : 0;
          }
        }
      }
      roundtrip_s = now_s() - t0;
    }
    if (bad != 0) rep.fail_check(prefix + " round trip lost " + std::to_string(bad) + " words");
    codec_metrics[codec.name()] = {per(classify_s * 1e9, kCodecRounds * nwords),
                                   per(roundtrip_s * 1e9, nwords),
                                   per(static_cast<double>(compressible), kCodecRounds * nwords)};
  }

  // Failures of the traced and probe jobs.
  for (std::size_t id = 0; id < errors.size(); ++id) {
    if (errors[id].empty()) continue;
    ++rep.failed;
    const bool main = id < n;
    std::cout << "FAILED traced job " << id << " ("
              << (main ? job_label(grid, id) : job_label(probe, id - n)) << "): " << errors[id]
              << "\n";
  }

  const std::vector<Span> spans = rec.spans();
  const std::string span_path = ctx.out_dir + "/spans-" + spec.name + "-seed" +
                                std::to_string(seed0) + ".jsonl";
  rec.write_jsonl(span_path);
  std::printf("spans: %zu written to %s\n", spans.size(), span_path.c_str());
  for (const auto& [layer, self] : layer_self_seconds(spans)) {
    std::printf("  span self time %-9s %.4f s\n", layer.c_str(), self);
  }

  // ---- per-layer metrics, in BENCHMARK.json order ----
  add_metric(rep, "workload.gen_s", setup.gen_seconds(), "s",
             std::to_string(setup.traces) + " traces, median of " +
                 std::to_string(kTracedSetupRepeats));
  add_metric(rep, "workload.gen_mops_per_s",
             per(static_cast<double>(setup.total_ops), setup.gen_seconds()) / 1e6, "Mops/s");
  add_metric(rep, "workload.trace_mb",
             static_cast<double>(setup.total_ops * sizeof(cpc::cpu::MicroOp)) / 1e6, "MB");

  const auto& tc = untraced.trace_cache;
  add_metric(rep, "sim.trace_cache.hits", static_cast<double>(tc.hits), "count");
  add_metric(rep, "sim.trace_cache.misses", static_cast<double>(tc.misses), "count");
  add_metric(rep, "sim.trace_cache.compressed_hits", static_cast<double>(tc.compressed_hits),
             "count");
  add_metric(rep, "sim.trace_cache.decoded_mb", static_cast<double>(tc.decoded_bytes) / 1e6,
             "MB");
  add_metric(rep, "sim.thread_busy_frac", median(busy), "frac",
             "job seconds / (threads x grid wall)");
  add_metric(rep, "sim.executor_overhead_s", median(overhead), "s",
             "grid wall - (job + generation seconds) / threads");

  cpc::cpu::CoreStats core_sum;
  double run_sum_s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const TracedJob& t = traced.jobs[i];
    if (!errors[i].empty()) continue;
    core_sum.cycles += t.run.core.cycles;
    core_sum.mispredicts += t.run.core.mispredicts;
    core_sum.wrongpath_loads += t.run.core.wrongpath_loads;
    core_sum.miss_cycles += t.run.core.miss_cycles;
    run_sum_s += t.run_s;
  }
  add_metric(rep, "cpu.flat_mem_mops_per_s", per(flat_ops, flat_s) / 1e6, "Mops/s");
  add_metric(rep, "cpu.self_s", cpu_self_s, "s", "traced runs minus their replays");
  add_metric(rep, "cpu.sim_cycles_per_s", per(static_cast<double>(core_sum.cycles), run_sum_s),
             "1/s");
  add_metric(rep, "cpu.cycles", static_cast<double>(core_sum.cycles), "count");
  add_metric(rep, "cpu.mispredicts", static_cast<double>(core_sum.mispredicts), "count");
  add_metric(rep, "cpu.wrongpath_loads", static_cast<double>(core_sum.wrongpath_loads), "count");
  add_metric(rep, "cpu.miss_cycles", static_cast<double>(core_sum.miss_cycles), "count");

  for (const Cell& cell : all_probe_cells()) {
    const CellAgg& agg = cells[cell.name()];
    const auto& s = agg.stats;
    const std::string p = std::string(cell.layer()) + "." + cell.name() + ".";
    const auto count = [&](const std::string& what, std::uint64_t v) {
      add_metric(rep, p + what, static_cast<double>(v), "count");
    };
    add_metric(rep, p + "replay_ns_per_access",
               per(agg.replay_s * 1e9, static_cast<double>(agg.accesses)), "ns",
               std::to_string(agg.accesses) + " accesses");
    if (cell.kind != ConfigKind::kCPP) {
      count("l1_misses", s.l1_misses);
      count("l2_misses", s.l2_misses);
      count("mem_fetch_lines", s.mem_fetch_lines);
      count("traffic_half_units", s.traffic.half_units());
      if (cell.kind == ConfigKind::kBCP) {
        count("prefetch_lines", s.prefetch_lines);
        count("prefetch_inserts", s.l1_prefetch_inserts + s.l2_prefetch_inserts);
        add_metric(rep, p + "prefetch_accuracy", s.prefetch_accuracy(), "frac",
                   "buffer hits / " +
                       std::to_string(s.l1_prefetch_inserts + s.l2_prefetch_inserts) +
                       " inserts");
      }
    } else {
      count("l1_affiliated_hits", s.l1_affiliated_hits);
      count("l2_affiliated_hits", s.l2_affiliated_hits);
      count("partial_promotions", s.partial_promotions);
      count("traffic_half_units", s.traffic.half_units());
      count("l1_misses", s.l1_misses);
      count("l2_misses", s.l2_misses);
      add_metric(rep, p + "affiliated_hit_frac",
                 per(static_cast<double>(s.l1_affiliated_hits),
                     static_cast<double>(s.l1_affiliated_hits + s.l1_misses)),
                 "frac", "L1 affiliated hits / (those + L1 misses)");
    }
  }

  for (const CodecKind kind : cpc::compress::kAllCodecs) {
    const std::string name = cpc::compress::codec_name(kind);
    const auto& m = codec_metrics[name];
    add_metric(rep, "compress." + name + ".classify_ns_per_word", m[0], "ns");
    add_metric(rep, "compress." + name + ".roundtrip_ns_per_word", m[1], "ns");
    add_metric(rep, "compress." + name + ".compressible_frac", m[2], "frac",
               std::to_string(words.size()) + " words");
  }
  add_metric(rep, "mem.sparse_ns_per_word", per(mem_s * 1e9, 2.0 * kMemRounds * nwords), "ns",
             std::to_string(bases.size()) + " lines");
  for (const ConfigKind kind : cpc::sim::kAllConfigs) {
    const auto& [audited_s, bare_s] = audit[cpc::sim::config_name(kind)];
    add_metric(rep, "verify." + cpc::sim::config_name(kind) + ".audit_overhead_frac",
               per(audited_s, bare_s) - 1.0, "frac", "run_trace_on vs bare OooCore::run");
  }
  add_metric(rep, "verify.validate_s", validate_s, "s");

  const double traced_wall = median(traced_walls);
  const double untraced_wall = median(untraced_walls);
  add_metric(rep, "trace.overhead_s", traced_wall - untraced_wall, "s",
             "traced grid " + std::to_string(traced_wall) + " s - untraced " +
                 std::to_string(untraced_wall) + " s");
  add_metric(rep, "trace.overhead_frac", per(traced_wall - untraced_wall, untraced_wall),
             "frac");
  std::printf("job_fail_frac %.6f (failed %" PRIu64 " of %" PRIu64 " jobs attempted)\n",
              per(static_cast<double>(rep.failed), static_cast<double>(rep.attempted)),
              rep.failed, rep.attempted);
  return rep;
}

}  // namespace perfbench
