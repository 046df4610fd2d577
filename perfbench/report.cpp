#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string_view>
#include <tuple>

#include "bench.hpp"
#include "common/error.hpp"
#include "runtime/affinity.hpp"
#include "runtime/hwprof.hpp"

namespace perfbench {

namespace {

/// Per-layer metrics of layers a workload's path never runs, as names or
/// "layer." prefixes. run.py reports them as 0 there, meaning "not run
/// on this workload"; any other per-layer metric must be measured.
struct NotRun {
  const char* workload;
  std::vector<std::string> metrics;
};
const NotRun kNotRun[] = {
    {"pr-web",
     {"engines.io_wait_s", "engines.overlap_ratio", "graph.", "serve.",
      "algos.", "shard."}},
    {"pr-stream", {"partition.", "pcp.", "sim.", "serve.", "algos.", "shard."}},
    {"serve-mixed",
     {"engines.io_wait_s", "engines.overlap_ratio", "graph.", "sim.",
      "shard."}},
    // The shards expose no trace facility and never refresh.
    {"dist-mixed",
     {"partition.", "pcp.", "sim.", "runtime.trace_overhead_frac",
      "serve.refresh_small_s", "serve.refresh_large_s",
      "serve.refresh_delta_busy_s", "serve.refresh_full_busy_s",
      "serve.delta_share", "serve.update_late_ms", "algos."}},
};

std::string read_line(const std::string& path) {
  std::ifstream f(path);
  std::string s;
  std::getline(f, s);
  return s;
}

/// "107520K" / "32M" / "4096" -> bytes.
std::uint64_t parse_size(const std::string& s) {
  if (s.empty()) return 0;
  std::uint64_t v = std::strtoull(s.c_str(), nullptr, 10);
  switch (s.back()) {
    case 'K': return v << 10;
    case 'M': return v << 20;
    case 'G': return v << 30;
    default: return v;
  }
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

HostFacts host_facts() {
  HostFacts h;
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  h.git_sha = sha != nullptr ? sha : "unknown";
  h.nproc = hipa::runtime::available_cpus();
  h.numa_nodes = hipa::runtime::topology().num_nodes();

  // Last-level cache: the highest cache level of any CPU; instances are
  // told apart by the CPUs sharing them.
  const std::string root = "/sys/devices/system/cpu";
  unsigned top_level = 0;
  std::set<std::string> seen;
  if (DIR* d = ::opendir(root.c_str())) {
    std::vector<std::string> cpus;
    while (const dirent* e = ::readdir(d)) {
      const std::string_view n(e->d_name);
      if (n.size() > 3 && n.substr(0, 3) == "cpu" &&
          std::isdigit(static_cast<unsigned char>(n[3]))) {
        cpus.emplace_back(n);
      }
    }
    ::closedir(d);
    for (const std::string& cpu : cpus) {
      for (unsigned idx = 0; idx < 16; ++idx) {
        const std::string dir =
            root + "/" + cpu + "/cache/index" + std::to_string(idx);
        const std::string level = read_line(dir + "/level");
        if (level.empty()) break;
        if (read_line(dir + "/type") == "Instruction") continue;
        const unsigned lv = static_cast<unsigned>(std::stoul(level));
        const std::string shared = read_line(dir + "/shared_cpu_list");
        const std::uint64_t bytes = parse_size(read_line(dir + "/size"));
        if (lv > top_level) {
          top_level = lv;
          seen.clear();
          h.llc_bytes = 0;
          h.llc_instances = 0;
        }
        if (lv == top_level && seen.insert(shared).second) {
          h.llc_bytes += bytes;
          ++h.llc_instances;
        }
      }
    }
  }

  hipa::runtime::HwCounterGroup group;
  hipa::runtime::HwCounters snap{};
  h.perf_event = group.begin(snap);
  h.perf_event_errno = group.last_errno();
  return h;
}

ScratchFile::ScratchFile(const Args& a, const std::string& name)
    : path(a.tmp_dir + "/" + std::to_string(::getpid()) + "-" + name) {}

ScratchFile::~ScratchFile() { std::remove(path.c_str()); }

namespace {

/// (steal, total) ticks from the aggregate line of /proc/stat.
std::pair<std::uint64_t, std::uint64_t> cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(f >> v)) break;
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

}  // namespace

StealMeter::StealMeter() { std::tie(steal_, total_) = cpu_ticks(); }

double StealMeter::fraction() const {
  const auto [steal, total] = cpu_ticks();
  return total > total_ ? static_cast<double>(steal - steal_) /
                              static_cast<double>(total - total_)
                        : 0.0;
}

void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) /
             1024.0;
    }
  }
  HIPA_CHECK(false, "VmHWM missing from /proc/self/status");
  __builtin_unreachable();
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  HIPA_CHECK(std::isfinite(value), "metric " << name << " is not finite");
  metrics_[name] = Value{value, unit};
  std::printf("  %-30s %16.6f %s\n", name.c_str(), value, unit.c_str());
}

void Report::outputs(std::uint64_t n, std::uint64_t failed,
                     const std::string& what) {
  attempted_ += n;
  failed_ += failed;
  std::printf("check %-44s %llu/%llu passed%s\n", what.c_str(),
              static_cast<unsigned long long>(n - failed),
              static_cast<unsigned long long>(n),
              failed == 0 ? "" : "  <-- FAILED");
}

void Report::series(const std::string& name, const std::vector<double>& samples,
                    double scale, const std::string& unit) {
  std::vector<double> s(samples);
  std::sort(s.begin(), s.end());
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: n=%zu", name.c_str(), s.size());
  std::string line = buf;
  if (!s.empty()) {
    std::snprintf(buf, sizeof buf, " median=%.6g %s", median(s) * scale,
                  unit.c_str());
    line += buf;
    if (s.size() >= 2) {
      const Quartiles q = quartiles(s);
      std::snprintf(buf, sizeof buf, " q1..q3=%.6g..%.6g", q.q1 * scale,
                    q.q3 * scale);
      line += buf;
    }
    bool tail = false;
    for (const double p : {99.0, 99.9}) {
      if (const auto v = percentile(s, p)) {
        std::snprintf(buf, sizeof buf, " p%g=%.6g %s", p, *v * scale,
                      unit.c_str());
        line += buf;
        tail = true;
      }
    }
    if (!tail) line += " (no p99: fewer than 10 samples beyond it)";
  }
  std::printf("%s\n", line.c_str());
}

void Report::note(const std::string& line) {
  std::printf("%s\n", line.c_str());
}

std::string Report::result_json() const {
  std::string out = "{\"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + fmt(v.value) +
           ", \"unit\": \"" + v.unit + "\"}";
  }
  out += "}, \"not_run\": [";
  first = true;
  for (const NotRun& nr : kNotRun) {
    if (nr.workload != workload_) continue;
    for (const std::string& m : nr.metrics) {
      if (!first) out += ", ";
      first = false;
      out += "\"" + m + "\"";
    }
  }
  return out + "]}";
}

}  // namespace perfbench
