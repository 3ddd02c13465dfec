// cpc_perfbench — the repository benchmark's measuring program. perfbench/run.py
// builds it and is the documented entry point; see perfbench/README.md.
//
//   cpc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out-dir <dir>] [--commit <id>]
//   cpc_perfbench --reference    simulated CPP-vs-BC results at the default
//                                and the held-out seed
//   cpc_perfbench --selftest     paper-grid at 250k ops, seed 0x5eed must
//                                reproduce EXPERIMENTS.md's 63.2 / 85.2
//
// Exit codes: 0 a result line was printed (its "correct" field says whether
// every output checked out), 1 the run broke off without a result, 2 bad
// usage or a refused environment/build. --reference and --selftest exit 1
// when a job or the check fails.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

constexpr int kUsage = 2;

int usage(const std::string& why) {
  std::cerr << "cpc_perfbench: " << why << "\n"
            << "usage: cpc_perfbench --workload <paper-grid|cpp-codecs|baseline-seeds>"
               " --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] [--commit <id>]\n"
               "       cpc_perfbench --reference | --selftest\n";
  return kUsage;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 0);
  return end != nullptr && *end == '\0';
}

/// Optimized, uninstrumented builds only: a timing from a Debug or
/// sanitizer build says nothing about the simulator users run.
bool refuse_build() {
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  std::cerr << "cpc_perfbench: refusing to time a Debug (unoptimized or assert-enabled) build\n";
  return true;
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::cerr << "cpc_perfbench: refusing to time a sanitizer build\n";
  return true;
#else
  return false;
#endif
}

int run_reference() {
  int failed = 0;
  for (const std::uint64_t seed : {perfbench::kDefaultSeed, perfbench::kHeldOutSeed}) {
    for (const std::string& name : perfbench::workload_names()) {
      const perfbench::WorkloadSpec spec = perfbench::make_spec(name, seed);
      std::cout << (seed == perfbench::kDefaultSeed ? "default" : "held-out") << " seed, "
                << name << ":\n";
      const auto& cells = spec.reference_cells.empty() ? spec.cells : spec.reference_cells;
      failed += perfbench::simulated_pct(cells, spec.trace_ops, seed).failed != 0;
    }
  }
  return failed == 0 ? 0 : 1;
}

int run_selftest() {
  const perfbench::WorkloadSpec spec =
      perfbench::make_spec("paper-grid", perfbench::kDefaultSeed);
  const perfbench::SimulatedPct pct =
      perfbench::simulated_pct(spec.cells, 250'000, perfbench::kDefaultSeed);
  // EXPERIMENTS.md prints one decimal.
  const double traffic = std::round(pct.traffic * 10.0) / 10.0;
  const double cycles = std::round(pct.cycles * 10.0) / 10.0;
  const bool ok = pct.failed == 0 && traffic == 63.2 && cycles == 85.2;
  std::printf("selftest paper-grid 250000 ops seed 0x5eed: traffic %.1f (want 63.2), "
              "cycles %.1f (want 85.2): %s\n",
              traffic, cycles, ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0, seconds = 0, trace = 2;
  bool have_seed = false, have_seconds = false, reference = false, selftest = false;
  perfbench::RunContext ctx;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](std::string& out) {
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--reference") {
      reference = true;
    } else if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload") {
      if (!value(workload)) return usage("--workload needs a value");
    } else if (arg == "--seed") {
      if (!value(v) || !parse_u64(v, seed)) return usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!value(v) || !parse_u64(v, seconds) || seconds == 0 || seconds > 3600) {
        return usage("bad --seconds");
      }
      have_seconds = true;
    } else if (arg == "--trace") {
      if (!value(v) || !parse_u64(v, trace) || trace > 1) return usage("--trace takes 0 or 1");
    } else if (arg == "--out-dir") {
      if (!value(ctx.out_dir)) return usage("--out-dir needs a value");
    } else if (arg == "--commit") {
      if (!value(ctx.commit)) return usage("--commit needs a value");
    } else {
      return usage("unknown argument '" + arg + "'");
    }
  }

  if (refuse_build()) return kUsage;
  const auto knobs = perfbench::cpc_knobs_set();
  if (!knobs.empty()) {
    std::cerr << "cpc_perfbench: refusing to run with simulator knobs set in the environment:";
    for (const std::string& k : knobs) std::cerr << ' ' << k;
    std::cerr << "\n(unset them; the benchmark pins every knob to its default)\n";
    return kUsage;
  }

  try {
    if (reference) return run_reference();
    if (selftest) return run_selftest();
    if (workload.empty() || !have_seed || !have_seconds || trace > 1) {
      return usage("--workload, --seed, --seconds and --trace are required");
    }
    perfbench::WorkloadSpec spec;
    try {
      spec = perfbench::make_spec(workload, seed);
    } catch (const std::invalid_argument& e) {
      return usage(e.what());
    }
    perfbench::print_settings(spec, ctx, trace == 1, static_cast<double>(seconds));
    const perfbench::Report report =
        trace == 1 ? perfbench::run_traced(spec, ctx)
                   : perfbench::run_end_to_end(spec, static_cast<double>(seconds));
    // A printed result exits 0 even when a job failed: the JSON line's
    // "correct" and "failed" fields carry that verdict.
    std::cout << report.json() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "cpc_perfbench: " << e.what() << "\n";
    return 1;
  }
}
