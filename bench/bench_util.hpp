// Shared plumbing for the paper-reproduction bench binaries: flag
// parsing, dataset/machine construction at matched scale, table
// formatting.
//
// Every binary prints (a) the substitution banner — scale factors and
// what they mean — and (b) rows shaped like the paper's table/figure so
// EXPERIMENTS.md can be filled by direct comparison.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "algos/pagerank.hpp"
#include "common/cli.hpp"
#include "graph/datasets.hpp"
#include "sim/machine.hpp"

namespace hipa::bench {

/// Common CLI flags: --iters=N, --quick (tiny sizes for fast runs),
/// --dataset=name (restrict to one), --methods=a,b (restrict the
/// methodology set; names per algo::method_from_name, e.g.
/// "hipa,ppr,GPOP"), --trace-out=path (Chrome/Perfetto trace_events
/// timeline of the instrumented native run; open with
/// ui.perfetto.dev), --help.
///
/// The flag grammar itself (prefix matching, list splitting, strict
/// integers) lives in common/cli.hpp, shared with the offline tools;
/// this struct only binds it to the bench vocabulary.
struct Flags {
  unsigned iterations = 0;  ///< 0 = per-bench default
  bool quick = false;
  std::string dataset;
  std::vector<algo::Method> methods;  ///< empty = bench default set
  std::string trace_out;  ///< Chrome trace path ("" = no trace)

  static Flags parse(int argc, char** argv) {
    Flags f;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (const char* v = cli::flag_value(a, "--iters=")) {
        f.iterations = static_cast<unsigned>(cli::parse_u64("--iters", v));
      } else if (cli::flag_is(a, "--quick")) {
        // 8x extra shrink. Degenerate caches distort shapes; use
        // default scales for reproduction-quality numbers.
        f.quick = true;
      } else if (const char* v = cli::flag_value(a, "--dataset=")) {
        f.dataset = v;
      } else if (const char* v = cli::flag_value(a, "--methods=")) {
        f.methods = parse_methods(v);
      } else if (const char* v = cli::flag_value(a, "--trace-out=")) {
        f.trace_out = v;
      } else if (cli::flag_is(a, "--help")) {
        std::printf(
            "flags: --iters=N  --quick  --dataset=<name>  "
            "--methods=a,b  --trace-out=<path>\n"
            "datasets: journal pld wiki kron twitter mpi\n"
            "methods:  hipa ppr vpr gpop polymer (or the paper names)\n");
        std::exit(0);
      }
    }
    return f;
  }

  /// Comma-separated method list -> Methods via algo::method_from_name.
  /// Unknown names abort with a message listing the vocabulary — a
  /// silently dropped methodology would corrupt a reproduction run.
  static std::vector<algo::Method> parse_methods(const char* list) {
    return cli::parse_name_list<algo::Method>(
        list, [](const std::string& s) { return algo::method_from_name(s); },
        "method", "hipa ppr vpr gpop polymer");
  }

  /// The bench's method set: the --methods= filter if given (order
  /// preserved), otherwise `defaults`.
  [[nodiscard]] std::vector<algo::Method> methods_or(
      std::initializer_list<algo::Method> defaults) const {
    if (!methods.empty()) return methods;
    return std::vector<algo::Method>(defaults);
  }
};

/// One dataset instantiated at its matched scale, with the simulated
/// machine shrunk by the same factor.
struct ScaledDataset {
  std::string name;
  unsigned scale = 1;
  graph::Graph graph;
};

/// Load one dataset at its recommended (or quick) scale.
inline ScaledDataset load_scaled(const std::string& name, bool quick) {
  ScaledDataset d;
  d.name = name;
  d.scale = graph::recommended_scale(name) * (quick ? 8 : 1);
  d.graph = graph::make_dataset(name, d.scale);
  return d;
}

/// All six paper datasets (or the one named by flags).
inline std::vector<ScaledDataset> load_datasets(const Flags& flags) {
  std::vector<ScaledDataset> out;
  for (const auto& info : graph::paper_datasets()) {
    if (!flags.dataset.empty() && flags.dataset != info.name) continue;
    out.push_back(load_scaled(info.name, flags.quick));
  }
  return out;
}

/// Fresh simulated Skylake testbed scaled to match a dataset.
inline sim::SimMachine make_machine(unsigned scale,
                                    std::uint64_t seed = 1) {
  return sim::SimMachine(sim::Topology::skylake_2s().scaled(scale), {},
                         seed);
}

inline void print_banner(const char* experiment, const char* paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s  (reproduces %s)\n", experiment, paper_ref);
  std::printf("substitution: simulated 2-socket Skylake (2x10 cores x2 SMT);\n");
  std::printf("datasets are synthetic stand-ins scaled 1/N with caches and\n");
  std::printf("partition sizes scaled by the same N (printed per row).\n");
  std::printf("shapes (orderings, ratios, crossovers) are the reproduction\n");
  std::printf("target, not absolute seconds. See DESIGN.md / EXPERIMENTS.md.\n");
  std::printf("================================================================\n");
}

/// MApE per iteration — the paper's Fig. 5 metric.
inline double mape_per_iter(const engine::RunReport& r, eid_t edges) {
  return r.iterations == 0
             ? 0.0
             : r.stats.mape(edges) / static_cast<double>(r.iterations);
}

}  // namespace hipa::bench
