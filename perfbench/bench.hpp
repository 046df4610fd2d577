// Shared pieces of the repository benchmark: run arguments, the
// statistics every metric is reduced with, seeded input generation,
// host facts, and the report each workload fills.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "graph/csr.hpp"

namespace hipa::engine {
struct OocoreOptions;
struct PageRankOptions;
}  // namespace hipa::engine

namespace perfbench {

using hipa::eid_t;
using hipa::rank_t;
using hipa::vid_t;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp_dir = ".";  ///< scratch files (segmented graphs, traces)
  std::uint64_t llc_bytes = 0;  ///< host last-level cache, from sysfs
};

// ---------------------------------------------------------------------------
// Statistics (stats.cpp)
// ---------------------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);

/// Quartiles as Python's statistics.quantiles(v, n=4) gives them (the
/// default "exclusive" method), so spreads match what a reader computes
/// from the printed samples. Needs at least two samples.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> v);

/// Nearest-rank percentile p (0 < p < 100) of ascending `sorted`, or
/// nothing when fewer than ten samples lie beyond it: a tail estimate
/// resting on fewer samples is not printed.
[[nodiscard]] std::optional<double> percentile(std::span<const double> sorted,
                                               double p);

// ---------------------------------------------------------------------------
// Inputs (inputs.cpp)
// ---------------------------------------------------------------------------

/// A stand-in recipe of graph/datasets.cpp at full paper size; the
/// benchmark generates it with the workload seed instead of the
/// recipe's fixed one.
struct Recipe {
  const char* name;
  double vertices;
  double edges;
  double exponent;      ///< in-degree popularity skew
  double src_exponent;  ///< out-degree popularity skew
};
inline constexpr Recipe kPld{"pld", 42.9e6, 0.6e9, 0.92, 0.85};
inline constexpr Recipe kJournal{"journal", 4.8e6, 68.5e6, 0.88, 0.75};

struct GeneratedGraph {
  hipa::graph::Graph graph;
  std::vector<hipa::Edge> edges;  ///< kept only when asked for
  double seconds = 0.0;           ///< generation + CSR build wall time
};

/// Zipf-distributed edges over `recipe` scaled down by `scale`, then the
/// out + in CSR bundle graph::build_graph makes of them.
[[nodiscard]] GeneratedGraph generate(const Recipe& recipe, unsigned scale,
                                      std::uint64_t seed, bool keep_edges);

/// FNV-1a over the out-direction CSR: the input identity printed with
/// every run and compared by the self-test.
[[nodiscard]] std::uint64_t graph_checksum(const hipa::graph::Graph& g);

/// Print the generated input's identity (recipe, scale, |V|, |E|,
/// checksum) and its untimed generation cost.
void print_input(const char* label, const Recipe& recipe, unsigned scale,
                 const GeneratedGraph& g);

/// Independent sub-seeds of one workload seed, one per purpose.
[[nodiscard]] std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t purpose);

// ---------------------------------------------------------------------------
// Host facts and process memory (report.cpp)
// ---------------------------------------------------------------------------

struct HostFacts {
  std::string git_sha;
  unsigned nproc = 0;
  std::uint64_t llc_bytes = 0;  ///< summed over distinct last-level caches
  unsigned llc_instances = 0;
  unsigned numa_nodes = 0;
  bool perf_event = false;
  int perf_event_errno = 0;
};
[[nodiscard]] HostFacts host_facts();

/// A scratch file under Args::tmp_dir, unique to this process and
/// removed on every exit path.
class ScratchFile {
 public:
  ScratchFile(const Args& a, const std::string& name);
  ~ScratchFile();
  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;

  const std::string path;
};

/// Share of the host's CPU time the hypervisor stole since construction
/// (steal over all ticks of /proc/stat); 0 where none is reported.
class StealMeter {
 public:
  StealMeter();
  [[nodiscard]] double fraction() const;

 private:
  std::uint64_t steal_ = 0;
  std::uint64_t total_ = 0;
};

/// Reset the process's peak-RSS mark to its current RSS.
void reset_peak_rss();
/// Peak RSS since the last reset, in MiB.
[[nodiscard]] double peak_rss_mib();

// ---------------------------------------------------------------------------
// Report (report.cpp)
// ---------------------------------------------------------------------------

/// What one run measured and checked. Workloads add metrics and count
/// every checked output; main() prints the result line.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void metric(const std::string& name, double value, const std::string& unit);
  /// Record `n` checked outputs of which `failed` did not pass. A
  /// failure is also explained on stdout, never dropped silently.
  void outputs(std::uint64_t n, std::uint64_t failed,
               const std::string& what);
  /// Print a timing series with its sample count, median, quartiles,
  /// and the nearest-rank p99 and p99.9 where ten samples lie beyond.
  void series(const std::string& name, const std::vector<double>& samples,
              double scale, const std::string& unit);
  void note(const std::string& line);

  [[nodiscard]] std::string result_json() const;
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::string workload_;
  std::map<std::string, Value> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Run one measuring window and, when the hypervisor stole more than
/// 5 % of the host's CPU time during it, run it once more; the repeat's
/// figures stand. Outputs of both attempts count. On a shared host a
/// stolen vCPU stalls barriers and thread hand-offs, which moved QPS
/// and solve times by up to 5x.
template <class Window>
void steady_window(Report& r, Window&& window) {
  constexpr double kMaxSteal = 0.05;
  for (int attempt = 0; attempt < 2; ++attempt) {
    const StealMeter meter;
    window();
    const double steal = meter.fraction();
    r.note("host steal during the window: " + std::to_string(steal * 100) +
           " %");
    if (steal <= kMaxSteal) return;
  }
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

void run_pr_web(const Args& a, Report& r);
void run_pr_stream(const Args& a, Report& r);
void run_serve_mixed(const Args& a, Report& r);
void run_dist_mixed(const Args& a, Report& r);

/// The layers an in-core HiPa run with `threads` threads enters
/// (partition, pcp, engines, runtime barriers), measured on `g`: plan
/// and bins timed on their own, engine phases from traced solves with
/// `pr`'s settings for `seconds` (at least three). For workloads whose
/// path runs such an engine inside another component.
void report_hipa_layers(Report& r, const hipa::graph::Graph& g,
                        unsigned threads, std::uint64_t partition_bytes,
                        const hipa::engine::PageRankOptions& pr,
                        double seconds);

/// The layers an out-of-core run over the segmented file `path` enters
/// (segment reads, engines with I/O wait, runtime barriers), from traced
/// solves with `oo` and `pr` for `seconds` (at least three).
void report_oocore_layers(Report& r, const std::string& path,
                          const hipa::engine::OocoreOptions& oo,
                          const hipa::engine::PageRankOptions& pr,
                          double seconds);

/// Statistics and input-determinism checks; returns the number of
/// failed checks (each printed).
[[nodiscard]] int self_test();

}  // namespace perfbench
