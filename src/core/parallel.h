// High-level data-parallel helpers over filaments.
//
// The paper positions Filaments as a least-common-denominator compiler target (its RISC analogy,
// §1): a forall loop in a dataflow language lowers to "one filament per element". These helpers
// are that lowering, packaged for humans: block-distribute an index space across nodes, create
// one filament per local index (adaptive pools by default), run the sweep.
//
// All helpers are collective: every node must call them with the same arguments.
#ifndef DFIL_CORE_PARALLEL_H_
#define DFIL_CORE_PARALLEL_H_

#include <cstdint>

#include "src/common/check.h"
#include "src/core/node_env.h"

namespace dfil::core {

// The strip of [0, count) owned by `node` under block distribution.
struct Block {
  int64_t lo;
  int64_t hi;  // exclusive
  int64_t size() const { return hi - lo; }
};

inline Block BlockOf(int64_t count, NodeId node, int nodes) {
  const int64_t base = count / nodes;
  const int64_t extra = count % nodes;
  const int64_t lo = node * base + (node < extra ? node : extra);
  return Block{lo, lo + base + (node < extra ? 1 : 0)};
}

// Runs fn(env, i, 0, 0) once for every i in [0, count), block-distributed across nodes, followed
// by a barrier. `fn` must be a plain function or captureless lambda (filaments are stackless:
// code pointer + argument words). With `adaptive_pools` the runtime clusters filaments by the
// pages they fault on after the first sweep; this matters only for ParallelForEach/iterative use.
inline void ParallelFor(NodeEnv& env, int64_t count, FilamentFn fn, bool adaptive_pools = false) {
  const Block b = BlockOf(count, env.node(), env.nodes());
  const PoolHandle pool = adaptive_pools ? PoolHandle{} : env.CreatePool();
  for (int64_t i = b.lo; i < b.hi; ++i) {
    if (adaptive_pools) {
      env.CreateAutoFilament(fn, i, 0, 0);
    } else {
      env.CreateFilament(pool, fn, i, 0, 0);
    }
  }
  env.RunPools();
  env.Barrier();
}

// Iterative forall (the dataflow `for initial ... while` lowering): runs fn(env, i, j, 0) for
// every (i, j) in [0, rows) x [0, cols), rows block-distributed. Creates the filaments once, then
// sweeps until `step(iter)` — which must contain the per-iteration reduction — returns false.
inline void ParallelIterate2D(NodeEnv& env, int64_t rows, int64_t cols, FilamentFn fn,
                              const std::function<bool(int)>& step,
                              bool adaptive_pools = true) {
  const Block b = BlockOf(rows, env.node(), env.nodes());
  const PoolHandle pool = adaptive_pools ? PoolHandle{} : env.CreatePool();
  for (int64_t i = b.lo; i < b.hi; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      if (adaptive_pools) {
        env.CreateAutoFilament(fn, i, j, 0);
      } else {
        env.CreateFilament(pool, fn, i, j, 0);
      }
    }
  }
  env.RunIterative(step);
}

}  // namespace dfil::core

#endif  // DFIL_CORE_PARALLEL_H_
