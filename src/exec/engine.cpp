#include "exec/engine.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <thread>

#include "exec/profiler.h"

namespace rootsim::exec {

size_t resolve_workers(size_t requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("ROOTSIM_WORKERS")) {
    long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return 1;
}

namespace {

// A worker's remaining range of units, packed {begin:high32, end:low32} into
// one atomic word so owner pops and thief steals are single CASes. Empty when
// begin >= end. The packing caps unit counts below 2^32 (the corpus is
// ~2^23); run_units rejects larger regions.
constexpr uint64_t pack_range(uint32_t begin, uint32_t end) {
  return (static_cast<uint64_t>(begin) << 32) | end;
}
constexpr uint32_t range_begin(uint64_t range) {
  return static_cast<uint32_t>(range >> 32);
}
constexpr uint32_t range_end(uint64_t range) {
  return static_cast<uint32_t>(range);
}
constexpr uint32_t range_size(uint64_t range) {
  return range_end(range) > range_begin(range)
             ? range_end(range) - range_begin(range)
             : 0;
}

struct alignas(64) WorkerSlot {
  std::atomic<uint64_t> range{0};
};

// ABA on these CASes is benign by construction: a slot value [b,e) always
// means "units b..e-1 are available here, and nowhere else" — ranges only
// move between slots via successful CASes, a unit is in at most one visible
// range at any instant, and the transformation a CAS applies (pop front /
// split tail) is valid against the *value* regardless of the slot's history.
// seq_cst everywhere: the scheduler does a few CASes per probe-sized unit,
// so relaxed orderings buy nothing measurable and seq_cst keeps the
// happens-before story trivial for TSan and for readers.
void run_work_steal(size_t unit_count, size_t workers,
                    const std::function<void(size_t, size_t)>& fn,
                    uint64_t* steal_counts) {
  std::vector<WorkerSlot> slots(workers);
  const size_t chunk = (unit_count + workers - 1) / workers;
  for (size_t w = 0; w < workers; ++w) {
    const size_t begin = std::min(w * chunk, unit_count);
    const size_t end = std::min(begin + chunk, unit_count);
    slots[w].range.store(pack_range(static_cast<uint32_t>(begin),
                                    static_cast<uint32_t>(end)));
  }

  auto worker_loop = [&](size_t w) {
    uint64_t steals = 0;
    for (;;) {
      // Drain the front of our own range.
      uint64_t r = slots[w].range.load();
      while (range_size(r) > 0) {
        const uint32_t unit = range_begin(r);
        if (slots[w].range.compare_exchange_weak(
                r, pack_range(unit + 1, range_end(r)))) {
          fn(unit, w);
          r = slots[w].range.load();
        }
        // CAS failure reloaded r; retry against the fresh value.
      }
      // Own range empty: steal the tail half of the richest victim.
      size_t victim = workers;
      uint64_t victim_range = 0;
      uint32_t best = 0;
      for (size_t v = 0; v < workers; ++v) {
        if (v == w) continue;
        const uint64_t vr = slots[v].range.load();
        if (range_size(vr) > best) {
          best = range_size(vr);
          victim = v;
          victim_range = vr;
        }
      }
      // Every slot empty: retire. (A thief may still hold units it stole
      // but has not yet published — those run on the thief; nothing is
      // lost, we just stop looking.)
      if (victim == workers) break;
      const uint32_t b = range_begin(victim_range);
      const uint32_t e = range_end(victim_range);
      const uint32_t take = (e - b + 1) / 2;  // >= 1; == all when one left
      const uint32_t mid = e - take;
      if (slots[victim].range.compare_exchange_strong(victim_range,
                                                      pack_range(b, mid))) {
        ++steals;
        // Our slot is empty, and no thief can CAS an empty slot (expected
        // values are always non-empty), so a plain store publishes safely.
        slots[w].range.store(pack_range(mid, e));
      }
      // CAS failure: someone raced us for this victim; rescan.
    }
    if (steal_counts) steal_counts[w] = steals;
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t w = 0; w < workers; ++w) pool.emplace_back(worker_loop, w);
  for (auto& t : pool) t.join();
}

// The worker count a region runs on: `workers` clamped to [1, unit_count].
// Throws std::length_error for a multi-worker region the range packing
// cannot hold, before any thread starts or any profiler slot is allocated.
size_t region_workers(size_t unit_count, size_t workers) {
  workers = std::max<size_t>(1, std::min(workers, unit_count));
  if (workers > 1 && unit_count > std::numeric_limits<uint32_t>::max())
    throw std::length_error("parallel_for: work stealing takes fewer than "
                            "2^32 units per region");
  return workers;
}

// `workers` comes from region_workers().
void run_units(size_t unit_count, size_t workers,
               const std::function<void(size_t, size_t)>& fn,
               uint64_t* steal_counts) {
  if (workers == 1) {
    for (size_t unit = 0; unit < unit_count; ++unit) fn(unit, 0);
    return;
  }
  run_work_steal(unit_count, workers, fn, steal_counts);
}

}  // namespace

void parallel_for(size_t unit_count, size_t workers,
                  const std::function<void(size_t, size_t)>& fn) {
  run_units(unit_count, region_workers(unit_count, workers), fn, nullptr);
}

void parallel_for(size_t unit_count, size_t workers, Profiler* profiler,
                  const std::function<void(size_t, size_t)>& fn) {
  if (!profiler) {
    parallel_for(unit_count, workers, fn);
    return;
  }
  const size_t effective = region_workers(unit_count, workers);
  std::vector<uint64_t> steals(effective, 0);
  profiler->begin_region(unit_count, effective);
  run_units(
      unit_count, effective,
      [&](size_t unit, size_t worker) {
        const double begin_ms = profiler->now_ms();
        const double begin_cpu_ms = Profiler::thread_cpu_ms();
        fn(unit, worker);
        profiler->unit_done(unit, worker, begin_ms, profiler->now_ms(),
                            Profiler::thread_cpu_ms() - begin_cpu_ms);
      },
      steals.data());
  for (size_t w = 0; w < effective; ++w) profiler->note_steals(w, steals[w]);
  profiler->end_region();
}

ObsShards::ObsShards(obs::Obs main, size_t shard_count) : main_(main) {
  if (!main_.enabled()) return;
  size_t capacity = main_.tracer ? main_.tracer->capacity() : 1;
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i)
    shards_.push_back(std::make_unique<obs::Recorder>(capacity));
}

obs::Obs ObsShards::shard(size_t index) {
  if (shards_.empty()) return {};
  obs::Obs obs = shards_[index]->obs();
  // Mirror the main sink's shape: no tracer attached means the shard should
  // not pay for tracing either.
  if (!main_.tracer) obs.tracer = nullptr;
  if (!main_.metrics) obs.metrics = nullptr;
  if (!main_.rssac002) obs.rssac002 = nullptr;
  if (!main_.slo) obs.slo = nullptr;
  return obs;
}

void ObsShards::merge() {
  for (auto& shard : shards_) {
    if (main_.metrics) main_.metrics->merge_from(shard->metrics());
    if (main_.tracer) main_.tracer->absorb(std::move(shard->tracer()));
    if (main_.rssac002) main_.rssac002->merge_from(shard->rssac002());
    if (main_.slo) main_.slo->merge_from(shard->slo());
  }
  shards_.clear();
}

}  // namespace rootsim::exec
