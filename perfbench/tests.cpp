// Tests of the benchmark's own parts: the flat-memory hierarchy, the capture
// decorator and replay, span self-time arithmetic and the order statistics.
// Run by `ctest` in the benchmark's build tree and by `run.py --selftest`.

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cpu/ooo_core.hpp"
#include "layers.hpp"
#include "sim/bench_meter.hpp"
#include "sim/experiment.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload/workloads.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("  FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

constexpr std::uint64_t kOps = 20'000;

void flat_memory_matches_every_kernel() {
  for (const auto& w : cpc::workload::all_workloads()) {
    const cpc::cpu::Trace trace = cpc::workload::generate(w, {kOps, perfbench::kDefaultSeed});
    perfbench::FlatHierarchy flat;
    cpc::cpu::OooCore core(cpc::cpu::CoreConfig{}, flat);
    const cpc::cpu::CoreStats stats = core.run(trace);
    expect(stats.value_mismatches == 0, w.name + ": flat memory value mismatches");
    expect(stats.committed == trace.size(), w.name + ": flat memory committed every op");
    expect(flat.stats().reads + flat.stats().writes > 0, w.name + ": flat memory saw accesses");
  }
}

std::vector<perfbench::Cell> every_cell() {
  std::vector<perfbench::Cell> cells;
  for (const auto kind : cpc::sim::kAllConfigs) cells.push_back({kind, {}});
  for (const auto codec : cpc::compress::kAllCodecs) {
    if (codec != cpc::compress::CodecKind::kPaper) {
      cells.push_back({cpc::sim::ConfigKind::kCPP, cpc::compress::Codec(codec)});
    }
  }
  return cells;
}

void capture_is_transparent_and_replay_exact() {
  const auto& kernels = cpc::workload::all_workloads();
  for (const std::size_t k : {std::size_t{0}, std::size_t{6}, kernels.size() - 1}) {
    const cpc::cpu::Trace trace =
        cpc::workload::generate(kernels[k], {kOps, perfbench::kDefaultSeed});
    for (const perfbench::Cell& cell : every_cell()) {
      const std::string what = kernels[k].name + "/" + cell.name();
      auto plain = cpc::sim::make_hierarchy(cell.kind, cell.codec);
      const cpc::sim::RunResult bare = cpc::sim::run_trace_on(trace, *plain);

      auto inner = cpc::sim::make_hierarchy(cell.kind, cell.codec);
      perfbench::CaptureHierarchy capture(*inner);
      const cpc::sim::RunResult captured = cpc::sim::run_trace_on(trace, capture);
      expect(cpc::sim::stats_fingerprint(bare) == cpc::sim::stats_fingerprint(captured),
             what + ": capture changed the stats fingerprint");
      expect(perfbench::same_stats(bare.hierarchy, captured.hierarchy),
             what + ": capture changed the hierarchy stats");
      expect(capture.stream().size() == captured.hierarchy.accesses(),
             what + ": stream holds every access");

      auto fresh = cpc::sim::make_hierarchy(cell.kind, cell.codec);
      expect(perfbench::replay(capture.stream(), *fresh) == 0, what + ": replay read mismatches");
      expect(perfbench::same_stats(fresh->stats(), captured.hierarchy),
             what + ": replay reproduces the in-core stats");
    }
  }
}

void same_stats_sees_every_counter() {
  cpc::cache::HierarchyStats a, b;
  expect(perfbench::same_stats(a, b), "equal default stats");
  b.partial_promotions = 1;
  expect(!perfbench::same_stats(a, b), "partial_promotions differs");
  b = a;
  b.traffic.add_writeback_compressed_words();
  expect(!perfbench::same_stats(a, b), "write-back traffic differs");
}

perfbench::Span span(std::uint64_t start, std::uint64_t end, std::size_t parent) {
  perfbench::Span s;
  s.name = parent == perfbench::kNoParent ? "sim.job" : "cache.child";
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void span_self_time_arithmetic() {
  // Root [0,100); children [10,30) and [20,50) overlap -> union 40;
  // child [90,120) is clipped to the root -> 10. Root self = 100 - 50.
  std::vector<perfbench::Span> spans = {span(0, 100, perfbench::kNoParent), span(10, 30, 0),
                                        span(20, 50, 0), span(90, 120, 0),
                                        span(12, 18, 1)};  // grandchild
  const std::vector<double> self = perfbench::self_seconds(spans);
  expect(near(self[0], 50e-9), "root self time excludes the union of its children");
  expect(near(self[1], 14e-9), "child self time excludes its own child");
  expect(near(self[2], 30e-9), "leaf self time is its duration");
  const auto layers = perfbench::layer_self_seconds(spans);
  expect(near(layers.at("sim"), 50e-9), "sim layer self time");
  expect(near(layers.at("cache"), 14e-9 + 30e-9 + 30e-9 + 6e-9), "cache layer self time");
  expect(spans[1].layer() == "cache", "layer is the name before the first dot");
}

void order_statistics() {
  expect(near(perfbench::median({3, 1, 2}), 2.0), "odd median");
  expect(near(perfbench::median({4, 1, 3, 2}), 2.5), "even median");
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const perfbench::Quartiles q = perfbench::quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  expect(near(q.q1, 2.75) && near(q.q3, 8.25), "quartiles match Python's exclusive method");
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const perfbench::Quartiles q2 = perfbench::quartiles({1, 2});
  expect(near(q2.q1, 0.75) && near(q2.q3, 2.25), "quartiles of two samples");

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const perfbench::Tail t = perfbench::tail_percentile(hundred);
  expect(t.percentile == 90 && near(t.value, 90.0) && t.beyond == 10, "p90 of 100 samples");
  std::vector<double> many(350, 1.0);
  many.back() = 2.0;
  const perfbench::Tail t2 = perfbench::tail_percentile(many);
  expect(t2.percentile == 97 && t2.beyond >= 10, "p97 of 350 samples");
  const perfbench::Tail t3 = perfbench::tail_percentile({1, 2, 3});
  expect(t3.percentile == 100 && near(t3.value, 3.0), "too few samples: the maximum");
}

void report_json_shape() {
  perfbench::Report rep;
  rep.attempted = 3;
  rep.add("grid_wall_s", 1.25, "s");
  expect(rep.json() ==
             "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
             "{\"grid_wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}",
         "report JSON line");
  rep.failed = 1;
  expect(rep.json().rfind("{\"correct\": false", 0) == 0, "a failed job makes correct false");
}

}  // namespace

int main() {
  const std::vector<std::pair<const char*, std::function<void()>>> tests = {
      {"flat_memory_matches_every_kernel", flat_memory_matches_every_kernel},
      {"capture_is_transparent_and_replay_exact", capture_is_transparent_and_replay_exact},
      {"same_stats_sees_every_counter", same_stats_sees_every_counter},
      {"span_self_time_arithmetic", span_self_time_arithmetic},
      {"order_statistics", order_statistics},
      {"report_json_shape", report_json_shape},
  };
  for (const auto& [name, fn] : tests) {
    const int before = g_failures;
    fn();
    std::printf("%s %s\n", g_failures == before ? "ok  " : "FAIL", name);
  }
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
