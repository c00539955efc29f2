// perfbench: the repository benchmark.
//
//   perfbench --workload hot|cold|mixed --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--revision REV] [--src-digest HEX]
//   perfbench --self-test [--seed N] [--work-dir DIR]
//
// Prints a context line, a host-noise line and, last, one JSON result line:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. run.py builds this binary and forwards its arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload hot|cold|mixed --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--revision REV] "
               "[--src-digest HEX]\n"
               "       perfbench --self-test [--seed N] [--work-dir DIR]\n");
  return 2;
}

/// Runs every workload at reduced size twice with one seed and once with
/// another: the exact counts must repeat for the seed and the operation
/// sequence must change with it. Also proves that the checker rejects a
/// wrong answer.
int SelfTest(RunConfig config) {
  config.reduced = true;
  config.seconds = 1;
  bool ok = true;
  for (Workload w : {Workload::kHot, Workload::kCold, Workload::kMixed}) {
    config.workload = w;
    ExactCounts first, second, other;
    Outcome a = RunTraced(config, &first);
    Outcome b = RunTraced(config, &second);
    RunConfig reseeded = config;
    reseeded.seed = config.seed + 1;
    Outcome c = RunTraced(reseeded, &other);
    const bool clean = a.correct && b.correct && c.correct && a.failed == 0 &&
                       b.failed == 0 && c.failed == 0;
    const bool repeat = first == second;
    const bool differs = first.sequence_hash != other.sequence_hash;
    std::fprintf(stderr, "self-test %s: %s\n  run 1: %s\n  run 2: %s\n",
                 WorkloadName(w),
                 clean && repeat && differs ? "ok" : "FAILED",
                 first.ToString().c_str(), second.ToString().c_str());
    if (!clean) std::fprintf(stderr, "  failed operations or wrong answers\n");
    if (!repeat) std::fprintf(stderr, "  exact counts differ for one seed\n");
    if (!differs) {
      std::fprintf(stderr, "  a second seed left the sequence unchanged\n");
    }
    ok = ok && clean && repeat && differs;
  }

  // The checker must catch a wrong answer: a deferred hot read with one row
  // too many fails, the true answer passes.
  config.workload = Workload::kHot;
  const Shape shape = ShapeFor(config.workload, true);
  Checker checker(config, shape);
  Deferred right;
  right.query = checker.mix()[0].text;
  right.got = checker.Expected(0);
  right.full = true;
  Deferred wrong = right;
  wrong.got.rows += 1;
  Outcome passes, catches;
  checker.Verify({right}, &passes);
  checker.Verify({wrong}, &catches);
  const bool checker_ok = passes.correct && !catches.correct;
  std::fprintf(stderr, "self-test checker: %s\n",
               checker_ok ? "ok" : "FAILED");
  ok = ok && checker_ok;
  std::fprintf(stderr, "self-test: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  config.work_dir = ".bench_build/perfbench-run";
  config.revision = "unknown";
  config.src_digest = "unknown";
  std::string workload;
  int trace = -1;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--self-test") {
      self_test = true;
    } else if ((v = value()) == nullptr) {
      return Usage();
    } else if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atoi(v);
    } else if (arg == "--trace") {
      trace = std::atoi(v);
    } else if (arg == "--work-dir") {
      config.work_dir = v;
    } else if (arg == "--revision") {
      config.revision = v;
    } else if (arg == "--src-digest") {
      config.src_digest = v;
    } else {
      return Usage();
    }
  }
  // Timings from any other build are not comparable (the older BENCH_*.json
  // files mix build types), so refuse to measure them.
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to run a %s build; build "
                 "with CMAKE_BUILD_TYPE=Release\n", PERFBENCH_BUILD_TYPE);
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to run with assertions on\n");
  return 2;
#endif
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 config.work_dir.c_str());
    return 2;
  }
  if (self_test) return SelfTest(config);
  if (!ParseWorkload(workload, &config.workload) || config.seconds < 1 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }
  Outcome outcome = trace == 1 ? RunTraced(config) : RunTimed(config);
  PrintResult(outcome);
  return outcome.correct ? 0 : 1;
}
