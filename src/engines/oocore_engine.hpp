// Out-of-core engine: any Kernel over a segmented graph file (native
// backend only — the point is real file I/O).
//
// The graph lives in a segmented HCSR v3 file (graph/io.hpp): the
// pull-direction CSR sliced by destination range. Only O(V) vertex
// attributes plus two segment-sized staging slots are resident; the
// edge topology streams through the slots one segment at a time, with
// an async prefetch thread reading segment N+1 while the team computes
// on segment N (double buffering). The compute is v-PR's pull core
// (engines/pull_core.hpp) run over each segment's destination range,
// so every kernel's values and iteration count are bitwise identical
// to VprEngine on the same graph, and to running fully in-core here —
// which `streaming = false` does, as the comparator. A segment that
// fails to read or validate throws on the caller's thread, prefetch or
// not.
//
// Time the compute team spends blocked on segment data is charged to
// the Phase::kIoWait telemetry row and trace span (thread 0); the
// stats() accessor reports fetch/wait seconds and the overlap ratio
// between them, plus byte accounting for the budget assertion.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/numeric.hpp"
#include "engines/backend.hpp"
#include "engines/kernels.hpp"
#include "engines/pull_core.hpp"
#include "engines/run_scope.hpp"
#include "graph/io.hpp"

namespace hipa::engine {

struct OocoreOptions {
  unsigned num_threads = 4;
  /// Resident-set ceiling for segment payload staging, in bytes.
  /// 0 = unlimited. Streaming mode needs two staging slots (double
  /// buffering), so the largest segment payload must fit the budget
  /// twice — checked at construction.
  std::size_t resident_budget_bytes = 0;
  /// false = load every segment up front and run the identical kernel
  /// fully in-core (the bitwise comparator for streaming runs).
  bool streaming = true;
  /// Overlap the read of segment N+1 with compute on segment N via a
  /// producer thread. false = synchronous reads on the driving thread
  /// (all fetch time becomes I/O wait). Ignored when !streaming.
  bool prefetch = true;
};

struct OocoreStats {
  unsigned segments = 0;
  std::uint64_t segment_fetches = 0;  ///< read_segment calls issued
  std::uint64_t bytes_fetched = 0;    ///< cumulative payload bytes read
  /// High-water mark of resident segment payload bytes (staging slots
  /// for streaming runs, the whole topology for in-core runs). Vertex
  /// attribute arrays (O(V)) are outside the budget by definition.
  std::size_t peak_resident_bytes = 0;
  std::size_t resident_budget_bytes = 0;  ///< 0 = unlimited
  double io_wait_seconds = 0.0;  ///< compute blocked on segment data
  double fetch_seconds = 0.0;    ///< wall time inside segment reads
  /// Fraction of fetch time hidden behind compute: 1 means every read
  /// finished before the team needed it, 0 means fully synchronous.
  [[nodiscard]] double overlap_ratio() const {
    if (fetch_seconds <= 0.0) return 1.0;
    const double r = 1.0 - io_wait_seconds / fetch_seconds;
    return r < 0.0 ? 0.0 : (r > 1.0 ? 1.0 : r);
  }
};

class OocoreEngine {
 public:
  using Mem = NativeBackend::Mem;

  OocoreEngine(const std::string& segmented_path, const OocoreOptions& opt,
               NativeBackend& backend)
      : opt_(opt),
        backend_(&backend),
        // Holds the start time until the end of the constructor body.
        preprocessing_seconds_(backend.now_seconds()),
        scsr_(graph::SegmentedCsr::open(segmented_path)),
        core_(backend, scsr_.num_vertices(), opt.num_threads,
              DataPlacement::kScatter) {
    HIPA_CHECK(scsr_.num_vertices() > 0,
               "'" << segmented_path << "' has no vertices");

    stats_.segments = scsr_.num_segments();
    stats_.resident_budget_bytes = opt.resident_budget_bytes;
    // PageRank's vertex arrays are allocated here, with the staging
    // slots, so the first PageRank run allocates nothing.
    core_.template slot<PageRankKernel>(
        [degrees = scsr_.out_degrees()](vid_t v) { return degrees[v]; });

    if (opt.streaming) {
      const std::size_t slot = scsr_.max_payload_bytes();
      const std::size_t resident = 2 * slot;
      HIPA_CHECK(
          opt.resident_budget_bytes == 0 ||
              resident <= opt.resident_budget_bytes,
          "resident budget " << opt.resident_budget_bytes
                             << " bytes cannot hold two staging slots of "
                             << slot
                             << " bytes (the largest segment payload) — "
                                "re-shard with a smaller segment size or "
                                "raise the budget");
      staging_[0] = backend.template alloc_pages<unsigned char>(slot);
      staging_[1] = backend.template alloc_pages<unsigned char>(slot);
      stats_.peak_resident_bytes = resident;
    } else {
      // Payloads start eid_t-aligned, so view()'s offsets are aligned.
      incore_ = backend.template alloc_pages<unsigned char>(
          scsr_.total_payload_bytes() + stats_.segments * sizeof(vid_t));
      incore_offsets_.reserve(stats_.segments);
      std::size_t pos = 0;
      for (unsigned s = 0; s < stats_.segments; ++s) {
        incore_offsets_.push_back(pos);
        scsr_.read_segment(s, incore_.data() + pos);
        ++stats_.segment_fetches;
        pos = round_up(pos + scsr_.segment(s).payload_bytes, sizeof(eid_t));
      }
      stats_.peak_resident_bytes = scsr_.total_payload_bytes();
    }
    preprocessing_seconds_ = backend.now_seconds() - preprocessing_seconds_;
  }

  /// The engine's one run entry (see VprEngine::run<K>).
  /// RunReport::telemetry includes the Phase::kIoWait row.
  template <class K>
  [[nodiscard]] KernelResult<K> run(const typename K::Options& ko,
                                    const RunOptions& ro = {}) {
    KernelResult<K> result;
    result.report = ro.instrumented()
                        ? run_impl<K, true>(ko, ro, &result.values)
                        : run_impl<K, false>(ko, ro, &result.values);
    return result;
  }

  /// PageRank shorthand for run<PageRankKernel> with `pr`'s damping.
  [[nodiscard]] RunResult run(const PageRankOptions& pr) {
    auto kr = run<PageRankKernel>({pr.damping}, pr);
    return {std::move(kr.report), std::move(kr.values)};
  }

  /// I/O accounting of the most recent run (fetch bytes/seconds reset
  /// per run; segments/budget are construction-time facts).
  [[nodiscard]] const OocoreStats& stats() const { return stats_; }

  [[nodiscard]] const graph::SegmentedCsr& graph() const { return scsr_; }
  [[nodiscard]] double preprocessing_seconds() const {
    return preprocessing_seconds_;
  }

 private:
  /// Double-buffered segment pipeline: a producer thread preads the
  /// flattened sequence seq = 0 .. iters*S-1 (segment seq % S) into
  /// slot seq % 2; the consumer (driving thread) blocks until its
  /// sequence number lands, runs the gather phase over it, then
  /// releases the slot. Two slots in flight keep exactly one read
  /// ahead of compute, which is all sequential consumption can use.
  /// A failed read parks its exception in `error` and ends the
  /// producer; the consumer rethrows it when it next waits. Stopping
  /// (or destroying) the pipeline joins the producer.
  struct Pipeline {
    std::mutex mu;
    std::condition_variable filled_cv;
    std::condition_variable freed_cv;
    std::int64_t slot_seq[2] = {-1, -1};  ///< sequence resident per slot
    std::int64_t next_consume = 0;
    bool done = false;
    std::exception_ptr error;
    double fetch_seconds = 0.0;
    std::uint64_t fetches = 0;
    std::thread producer;

    void stop() {
      {
        std::lock_guard<std::mutex> lock(mu);
        done = true;
      }
      freed_cv.notify_all();
      if (producer.joinable()) producer.join();
    }
    ~Pipeline() { stop(); }
  };

  template <class K, bool kTel>
  RunReport run_impl(const typename K::Options& ko, const RunOptions& ro,
                     std::vector<typename K::Value>* values_out) {
    const unsigned num_segments = stats_.segments;
    const unsigned threads = opt_.num_threads;
    stats_.io_wait_seconds = 0.0;
    stats_.fetch_seconds = 0.0;
    if (opt_.streaming) {
      stats_.segment_fetches = 0;
      bytes_fetched_base_ = scsr_.bytes_fetched();
    }

    // Start the producer once for the whole run; it stays exactly one
    // segment ahead across iteration boundaries too (the last segment
    // of iteration i overlaps the first read of i+1). If the run
    // throws, the core ends the team and ~Pipeline joins the producer
    // before the error reaches the caller.
    Pipeline pipe;
    const std::int64_t total =
        std::int64_t{K::max_iterations(ko, ro)} * num_segments;
    const bool async = opt_.streaming && opt_.prefetch && total > 0;
    if (async) {
      pipe.producer = std::thread([this, &pipe, total, num_segments] {
        produce(pipe, total, num_segments);
      });
    }

    ThreadTeamSpec spec;
    spec.num_threads = threads;
    spec.persistent = true;
    spec.binding = ThreadTeamSpec::Binding::kSpread;
    PullSlot<K>& sl = core_.template slot<K>(
        [degrees = scsr_.out_degrees()](vid_t v) { return degrees[v]; });
    std::int64_t seq = 0;
    // Thread 0 records scatter, then a gather and an io_wait span per
    // segment, every iteration.
    RunReport report = core_.template run<K, kTel>(
        sl, ko, ro, spec, {1 + 2 * std::size_t{num_segments}, 4}, "oocore",
        [&](RunScope<NativeBackend, kTel>& scope) {
          for (unsigned s = 0; s < num_segments; ++s, ++seq) {
            const graph::SegmentedCsr::SegmentView view =
                scsr_.view(s, acquire_segment<kTel>(pipe, async, s, seq));
            const std::uint64_t nv = view.range.size();
            scope.phase(runtime::Phase::kGather, [&](unsigned t, Mem& mem) {
              // Thread t's even share of the segment's destinations.
              const auto lo = static_cast<vid_t>(t * nv / threads);
              const auto hi = static_cast<vid_t>((t + 1) * nv / threads);
              core_.template pull_pass<K, kTel>(
                  sl, t, mem, view.range.begin + lo, view.range.begin + hi,
                  view.offsets.data() + lo, view.sources.data());
            });
            if (async) release_segment(pipe, seq);
          }
        },
        values_out);
    pipe.stop();
    if (async) {
      stats_.fetch_seconds = pipe.fetch_seconds;
      stats_.segment_fetches += pipe.fetches;
    }
    // In-core, everything was resident before the run.
    stats_.bytes_fetched =
        opt_.streaming ? scsr_.bytes_fetched() - bytes_fetched_base_ : 0;
    report.preprocessing_seconds = preprocessing_seconds_;
    return report;
  }

  /// Producer body: read the flattened segment sequence one slot ahead
  /// of the consumer. Only file I/O happens here — no arena traffic,
  /// no vertex-value access — so it needs no synchronization with the
  /// team beyond the slot protocol.
  void produce(Pipeline& pipe, std::int64_t total, unsigned num_segments) {
    try {
      for (std::int64_t seq = 0; seq < total; ++seq) {
        {
          std::unique_lock<std::mutex> lock(pipe.mu);
          pipe.freed_cv.wait(lock, [&] {
            return pipe.done || seq - pipe.next_consume < 2;
          });
          if (pipe.done) return;
        }
        const double f0 = backend_->now_seconds();
        scsr_.read_segment(static_cast<unsigned>(seq % num_segments),
                           staging_[seq % 2].data());
        const double dt = backend_->now_seconds() - f0;
        {
          std::lock_guard<std::mutex> lock(pipe.mu);
          pipe.fetch_seconds += dt;
          ++pipe.fetches;
          pipe.slot_seq[seq % 2] = seq;
        }
        pipe.filled_cv.notify_one();
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(pipe.mu);
        pipe.error = std::current_exception();
      }
      pipe.filled_cv.notify_one();
    }
  }

  /// Block until segment `s` (sequence `seq`) is resident and return
  /// its payload; rethrows the producer's error if its read failed.
  /// The blocked interval is the run's I/O wait — charged to thread
  /// 0's Phase::kIoWait telemetry row and trace span.
  template <bool kTel>
  const void* acquire_segment(Pipeline& pipe, bool async, unsigned s,
                              std::int64_t seq) {
    if (!opt_.streaming) {
      return incore_.data() + incore_offsets_[s];
    }
    runtime::MaybeSpan<kTel> span(core_.timeline());
    const double w0 = backend_->now_seconds();
    const void* payload = nullptr;
    if (async) {
      std::unique_lock<std::mutex> lock(pipe.mu);
      pipe.filled_cv.wait(lock, [&] {
        return pipe.slot_seq[seq % 2] == seq || pipe.error != nullptr;
      });
      if (pipe.slot_seq[seq % 2] != seq) std::rethrow_exception(pipe.error);
      payload = staging_[seq % 2].data();
    } else {
      scsr_.read_segment(s, staging_[0].data());
      ++stats_.segment_fetches;
      payload = staging_[0].data();
    }
    const double wait = backend_->now_seconds() - w0;
    stats_.io_wait_seconds += wait;
    if (!async) stats_.fetch_seconds += wait;
    if constexpr (kTel) {
      runtime::PhaseTimeline& timeline = core_.timeline();
      runtime::PhaseSample& row = timeline.thread(0)[runtime::Phase::kIoWait];
      ++row.invocations;
      row.wall_seconds += wait;
      row.bytes_consumed += scsr_.segment(s).payload_bytes;
      timeline.record_region(runtime::Phase::kIoWait, wait);
      span.finish(0, runtime::Phase::kIoWait, runtime::SpanKind::kKernel);
    }
    return payload;
  }

  /// Mark `seq` consumed so the producer may overwrite its slot.
  void release_segment(Pipeline& pipe, std::int64_t seq) {
    {
      std::lock_guard<std::mutex> lock(pipe.mu);
      pipe.next_consume = seq + 1;
    }
    pipe.freed_cv.notify_one();
  }

  OocoreOptions opt_;
  NativeBackend* backend_;
  double preprocessing_seconds_ = 0.0;
  graph::SegmentedCsr scsr_;
  PullCore<NativeBackend> core_;
  AlignedBuffer<unsigned char> staging_[2];  ///< streaming slots
  AlignedBuffer<unsigned char> incore_;      ///< !streaming: all payloads
  std::vector<std::size_t> incore_offsets_;  ///< per-segment offset in ^
  OocoreStats stats_;
  std::uint64_t bytes_fetched_base_ = 0;
};

}  // namespace hipa::engine
