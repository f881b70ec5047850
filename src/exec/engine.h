// Deterministic parallel execution engine.
//
// The paper's corpus is 675 VPs x 10,272 rounds x 26 addresses — far beyond
// what a single thread covers in reasonable wall time. This engine fans work
// units out over a fixed-size worker pool while keeping every output a pure
// function of (seed, config), independent of thread count and scheduling:
//
//   * callers draw per-unit RNGs by forking the campaign seed by unit name,
//     never by sharing a sequential stream across units;
//   * results are slot-addressed (unit i writes output[i]);
//   * observability is sharded per *unit* (ObsShards) and absorbed into the
//     main recorder in unit order after the region, which reproduces the
//     exact counter totals, histogram buckets, trace ids and ring-drop
//     behaviour of a single-threaded run — exports stay byte-identical no
//     matter which worker ran which unit, or in what order.
//
// Scheduling (which worker runs which unit, when) is therefore free to be
// dynamic. The scheduler is deterministic work stealing: each worker owns a
// contiguous range of units packed into one 64-bit atomic; owners pop units
// from the front, idle workers steal the tail half of the richest victim's
// remaining range. Long-pole units never strand the rest of a block behind
// them (see DESIGN.md §9 for the determinism argument).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "obs/obs.h"

namespace rootsim::exec {

class Profiler;

/// Effective worker count: `requested` if nonzero, else the ROOTSIM_WORKERS
/// environment variable, else 1. Never returns 0.
size_t resolve_workers(size_t requested = 0);

/// Runs `fn(unit, worker)` for every unit in [0, unit_count) on `workers`
/// work-stealing threads. With workers == 1 the loop runs inline on the
/// calling thread (same code path, no pool, no atomics), so serial and
/// parallel runs differ only in interleaving — never in results.
/// The second argument to `fn` is the *worker* index (which thread is
/// calling), not a partition: under work stealing any worker may run any
/// unit, so per-worker state (probers, scratch) is keyed by it while
/// per-unit state (RNG forks, output slots, obs shards) is keyed by `unit`.
///
/// Work stealing packs unit ranges into 32 bits: a multi-worker region of
/// 2^32 units or more throws std::length_error before any thread starts.
void parallel_for(size_t unit_count, size_t workers,
                  const std::function<void(size_t unit, size_t worker)>& fn);

/// Same, recording every unit's wall span and per-worker steal counts into
/// `profiler` (see profiler.h). nullptr profiler takes exactly the plain
/// overload's path — profiling only ever changes what is *measured*, never
/// what runs, so deterministic outputs are identical with it on or off.
void parallel_for(size_t unit_count, size_t workers, Profiler* profiler,
                  const std::function<void(size_t unit, size_t worker)>& fn);

/// Per-unit observability shards with deterministic merge.
///
/// Each unit records into its own Recorder; merge() absorbs them into the
/// main sinks in unit order. Shard tracers get the main tracer's capacity:
/// the concatenation of per-unit event streams in unit order *is* the serial
/// event stream, so the merged ring's content, id sequence and drop count
/// are byte-identical to a serial run (see Tracer::absorb) — regardless of
/// which worker ran which unit or in what order the scheduler interleaved
/// them. On a null main sink every shard is the null sink too and merge()
/// is a no-op.
class ObsShards {
 public:
  /// One shard per unit: pass the region's unit count.
  ObsShards(obs::Obs main, size_t shard_count);

  /// The Obs handle unit `index`'s work records into.
  obs::Obs shard(size_t index);

  /// Absorbs all shards into the main sinks, in unit order. Call exactly
  /// once, after the parallel region.
  void merge();

 private:
  obs::Obs main_;
  std::vector<std::unique_ptr<obs::Recorder>> shards_;
};

}  // namespace rootsim::exec
