// Checks of the benchmark's own machinery, run before every workload:
// the reductions against hand-computed values, and input generation
// against determinism.
#include <cmath>
#include <cstdio>
#include <numeric>

#include "bench.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("self-test FAILED: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void check_statistics() {
  expect(near(median({3, 1, 2}), 2.0), "median of an odd count");
  expect(near(median({4, 1, 3, 2}), 2.5), "median of an even count");

  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const Quartiles q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  expect(near(q.q1, 2.75) && near(q.q2, 5.5) && near(q.q3, 8.25),
         "quartiles of 1..10");
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const Quartiles q2 = quartiles({2, 1});
  expect(near(q2.q1, 0.75) && near(q2.q2, 1.5) && near(q2.q3, 2.25),
         "quartiles of two samples");
  // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
  const Quartiles q5 = quartiles({5, 1, 4, 2, 3});
  expect(near(q5.q1, 1.5) && near(q5.q2, 3.0) && near(q5.q3, 4.5),
         "quartiles of five samples");

  std::vector<double> s1000(1000);
  std::iota(s1000.begin(), s1000.end(), 1.0);
  const auto p99 = percentile(s1000, 99.0);
  expect(p99.has_value() && near(*p99, 990.0),
         "p99 of 1..1000 is the 990th sample (10 beyond)");
  expect(!percentile(s1000, 99.9).has_value(),
         "p99.9 of 1000 samples is withheld (1 beyond)");
  const std::vector<double> s999(s1000.begin(), s1000.end() - 1);
  expect(!percentile(s999, 99.0).has_value(),
         "p99 of 999 samples is withheld (9 beyond)");
  const std::vector<double> s20(s1000.begin(), s1000.begin() + 20);
  const auto p50 = percentile(s20, 50.0);
  expect(p50.has_value() && near(*p50, 10.0), "p50 of 1..20 is 10");
  const std::vector<double> s19(s1000.begin(), s1000.begin() + 19);
  expect(!percentile(s19, 50.0).has_value(),
         "p50 of 19 samples is withheld (9 beyond)");
}

void check_inputs() {
  constexpr unsigned kScale = 1024;  // ~4.7 k vertices, ~67 k edges
  const GeneratedGraph a = generate(kJournal, kScale, 7, false);
  const GeneratedGraph b = generate(kJournal, kScale, 7, false);
  const GeneratedGraph c = generate(kJournal, kScale, 8, false);
  expect(a.graph.num_edges() == b.graph.num_edges() &&
             graph_checksum(a.graph) == graph_checksum(b.graph),
         "same seed regenerates the same input");
  expect(graph_checksum(a.graph) != graph_checksum(c.graph),
         "a different seed changes the input");
}

}  // namespace

int self_test() {
  failures = 0;
  check_statistics();
  check_inputs();
  std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures;
}

}  // namespace perfbench
