// perfbench: the repository benchmark. One process runs one workload
// for a fixed measuring time, checks every output it produced, and
// prints a human-readable report followed by one JSON result line
// (perfbench/run.py turns that line into the manifest's format).
//
//   perfbench --workload <pr-web|pr-stream|serve-mixed|dist-mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--tmp <dir>]
//   perfbench --self-test
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--tmp <dir>]\n"
               "       perfbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  bool self_test_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      self_test_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--tmp") {
      a.tmp_dir = v;
    } else {
      return usage();
    }
  }

  // The statistics and input generation every metric rests on are
  // checked on each run before anything is measured.
  const int broken = self_test();
  if (self_test_only || broken != 0) return broken == 0 ? 0 : 3;

  void (*run)(const Args&, Report&) = nullptr;
  if (a.workload == "pr-web") run = run_pr_web;
  if (a.workload == "pr-stream") run = run_pr_stream;
  if (a.workload == "serve-mixed") run = run_serve_mixed;
  if (a.workload == "dist-mixed") run = run_dist_mixed;
  if (run == nullptr || !(a.seconds > 0.0)) return usage();

  const HostFacts h = host_facts();
  a.llc_bytes = h.llc_bytes;
  std::printf(
      "host: {\"git_sha\": \"%s\", \"nproc\": %u, \"llc_bytes\": %llu, "
      "\"llc_instances\": %u, \"numa_nodes\": %u, \"perf_event\": %s, "
      "\"perf_event_errno\": %d}\n",
      h.git_sha.c_str(), h.nproc,
      static_cast<unsigned long long>(h.llc_bytes), h.llc_instances,
      h.numa_nodes, h.perf_event ? "true" : "false", h.perf_event_errno);
  std::printf("run: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d}\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  std::fflush(stdout);

  Report report(a.workload);
  try {
    run(a, report);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s: %s\n", a.workload.c_str(), e.what());
    return 1;
  }
  std::printf("failed_frac: %g (%llu of %llu outputs)\n",
              report.attempted() == 0
                  ? 1.0
                  : static_cast<double>(report.failed()) /
                        static_cast<double>(report.attempted()),
              static_cast<unsigned long long>(report.failed()),
              static_cast<unsigned long long>(report.attempted()));
  std::printf("%s\n", report.result_json().c_str());
  return 0;
}
