// perfbench: the repository's benchmark binary. Runs one workload
// against the public cej API and prints one JSON result line on stdout
// (diagnostics go to stderr). Usually started through perfbench/run.py,
// which builds it first.
//
//   perfbench --workload <scan_topk|graph_3way|refresh_cold>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0.0) {
    std::fprintf(stderr, "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n");
    return 2;
  }

  std::unique_ptr<perfbench::ClosedLoop> workload;
  if (options.workload == "scan_topk") {
    workload = perfbench::MakeScanTopK();
  } else if (options.workload == "graph_3way") {
    workload = perfbench::MakeGraph3Way();
  } else if (options.workload == "refresh_cold") {
    workload = perfbench::MakeRefreshCold();
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  const perfbench::RunResult result =
      perfbench::RunClosedLoop(workload.get(), options);
  perfbench::PrintResult(result.correct, result.attempted, result.failed,
                         result.metrics);
  return 0;
}
