#include "src/apps/jacobi.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace dfil::apps {
namespace {

using core::Cluster;
using core::ClusterConfig;
using core::GlobalArray2D;
using core::NodeEnv;

constexpr double kTopBoundary = 100.0;
constexpr double kBottomBoundary = 0.0;
constexpr double kLeftBoundary = 25.0;
constexpr double kRightBoundary = 75.0;

// Fills boundary conditions for row i of an n-wide grid row buffer.
void FillRow(double* row, int i, int n) {
  for (int j = 0; j < n; ++j) {
    row[j] = 0.0;
  }
  if (i == 0) {
    for (int j = 0; j < n; ++j) {
      row[j] = kTopBoundary;
    }
  } else if (i == n - 1) {
    for (int j = 0; j < n; ++j) {
      row[j] = kBottomBoundary;
    }
  } else {
    row[0] = kLeftBoundary;
    row[n - 1] = kRightBoundary;
  }
}

struct DfState {
  GlobalArray2D<double> grids[2];
  int src = 0;  // index of the current-iteration source grid
  int n = 0;
  double local_max = 0;
};

// One iterative filament per interior point.
void PointFilament(NodeEnv& env, int64_t i, int64_t j, int64_t) {
  auto* st = static_cast<DfState*>(env.user_ctx);
  const GlobalArray2D<double>& u = st->grids[st->src];
  const GlobalArray2D<double>& v = st->grids[1 - st->src];
  const auto si = static_cast<size_t>(i);
  const auto sj = static_cast<size_t>(j);
  const double up = u.Read(env, si - 1, sj);
  const double down = u.Read(env, si + 1, sj);
  const double left = u.Read(env, si, sj - 1);
  const double right = u.Read(env, si, sj + 1);
  const double next = 0.25 * (up + down + left + right);
  v.Write(env, si, sj, next);
  const double diff = std::fabs(next - u.Read(env, si, sj));
  if (diff > st->local_max) {
    st->local_max = diff;
  }
  env.ChargeWork(env.runtime().costs().jacobi_point);
}

}  // namespace

std::string AppIdentity(const JacobiParams& p) {
  return "jacobi n=" + std::to_string(p.n) + " iterations=" + std::to_string(p.iterations) +
         " pools=" + std::to_string(p.pools);
}

AppRun RunJacobiSeq(const JacobiParams& p, const ClusterConfig& base) {
  ClusterConfig cfg = base;
  cfg.nodes = 1;
  Cluster cluster(cfg);
  const int n = p.n;
  AppRun run;
  run.report = cluster.Run([&](NodeEnv& env) {
    const sim::CostModel& costs = env.runtime().costs();
    std::vector<double> u(static_cast<size_t>(n) * n);
    std::vector<double> v(static_cast<size_t>(n) * n);
    for (int i = 0; i < n; ++i) {
      FillRow(&u[static_cast<size_t>(i) * n], i, n);
      FillRow(&v[static_cast<size_t>(i) * n], i, n);
      env.ChargeWork(costs.loop_iter_overhead * n);
    }
    double maxdiff = 0;
    for (int iter = 0; iter < p.iterations; ++iter) {
      maxdiff = 0;
      for (int i = 1; i < n - 1; ++i) {
        for (int j = 1; j < n - 1; ++j) {
          const size_t idx = static_cast<size_t>(i) * n + j;
          const double next = 0.25 * (u[idx - n] + u[idx + n] + u[idx - 1] + u[idx + 1]);
          v[idx] = next;
          maxdiff = std::max(maxdiff, std::fabs(next - u[idx]));
        }
        env.ChargeWork(costs.jacobi_point * (n - 2));
      }
      std::swap(u, v);
    }
    run.output = u;
    run.checksum = maxdiff;
  });
  return run;
}

AppRun RunJacobiCg(const JacobiParams& p, const ClusterConfig& base) {
  ClusterConfig cfg = base;
  Cluster cluster(cfg);
  const int n = p.n;
  AppRun run;
  run.output.assign(static_cast<size_t>(n) * n, 0.0);
  std::vector<double> final_maxdiff(cfg.nodes, 0.0);
  run.report = cluster.Run([&](NodeEnv& env) {
    const sim::CostModel& costs = env.runtime().costs();
    const int nodes = env.nodes();
    const Strip strip = StripOf(n, env.node(), nodes);
    const int rows = strip.size();
    // Local strip with ghost rows at 0 and rows+1.
    const size_t w = static_cast<size_t>(n);
    std::vector<double> u((rows + 2) * w, 0.0);
    std::vector<double> v((rows + 2) * w, 0.0);
    for (int i = 0; i < rows; ++i) {
      FillRow(&u[(i + 1) * w], strip.lo + i, n);
      FillRow(&v[(i + 1) * w], strip.lo + i, n);
      env.ChargeWork(costs.loop_iter_overhead * n);
    }
    const bool has_up = strip.lo > 0;
    const bool has_down = strip.hi < n;
    auto row_span = [&](std::vector<double>& g, int r) {
      return std::span<const std::byte>(reinterpret_cast<const std::byte*>(&g[r * w]),
                                        w * sizeof(double));
    };

    // Updatable rows in local coordinates [1, rows]: global interior rows only.
    const int first = strip.lo == 0 ? 2 : 1;
    const int last = strip.hi == n ? rows - 1 : rows;

    double maxdiff = 0;
    for (int iter = 0; iter < p.iterations; ++iter) {
      // Maximal overlap (paper §4.2): send edges, update interior, receive edges, update edges.
      if (has_up) {
        env.SendData(env.node() - 1, 10, row_span(u, 1));
      }
      if (has_down) {
        env.SendData(env.node() + 1, 11, row_span(u, rows));
      }
      maxdiff = 0;
      auto update_row = [&](int r) {
        for (int j = 1; j < n - 1; ++j) {
          const size_t idx = static_cast<size_t>(r) * w + j;
          const double next = 0.25 * (u[idx - w] + u[idx + w] + u[idx - 1] + u[idx + 1]);
          v[idx] = next;
          maxdiff = std::max(maxdiff, std::fabs(next - u[idx]));
        }
        env.ChargeWork(costs.jacobi_point * (n - 2));
      };
      for (int r = first + 1; r <= last - 1; ++r) {
        update_row(r);
      }
      if (has_up) {
        std::vector<std::byte> ghost = env.RecvData(env.node() - 1, 11);
        std::memcpy(&u[0], ghost.data(), w * sizeof(double));
      }
      if (has_down) {
        std::vector<std::byte> ghost = env.RecvData(env.node() + 1, 10);
        std::memcpy(&u[(rows + 1) * w], ghost.data(), w * sizeof(double));
      }
      if (last >= first) {
        update_row(first);
        if (last != first) {
          update_row(last);
        }
      }
      const double global = CgAllReduce(env, maxdiff, CgOp::kMax, 900);
      std::swap(u, v);
      if (global < 0) {
        break;  // unreachable; keeps the reduction observable
      }
    }
    final_maxdiff[env.node()] = maxdiff;
    // Assemble the final grid for validation (each node contributes its local strip).
    for (int i = 0; i < rows; ++i) {
      std::memcpy(run.output.data() + static_cast<size_t>(strip.lo + i) * w, &u[(i + 1) * w],
                  w * sizeof(double));
    }
  });
  double global_max = 0;
  for (double m : final_maxdiff) {
    global_max = std::max(global_max, m);
  }
  run.checksum = global_max;
  return run;
}

AppRun RunJacobiDf(const JacobiParams& p, const ClusterConfig& base) {
  ClusterConfig cfg = base;
  Cluster cluster(cfg);
  const int n = p.n;
  // Unpadded allocation: one 4 KB page holds two 256-double rows, exactly the paper's geometry.
  auto g0 = GlobalArray2D<double>::Alloc(cluster.layout(), n, n, /*pad_rows_to_pages=*/false, "u");
  auto g1 = GlobalArray2D<double>::Alloc(cluster.layout(), n, n, false, "v");
  // Strip ownership: each node owns the pages of its rows (strips of even size align to pages).
  for (NodeId node = 0; node < cfg.nodes; ++node) {
    const Strip s = StripOf(n, node, cfg.nodes);
    if (s.size() > 0) {
      const size_t bytes = static_cast<size_t>(s.size()) * n * sizeof(double);
      cluster.layout().SetInitialOwner(g0.row_addr(s.lo), bytes, node);
      cluster.layout().SetInitialOwner(g1.row_addr(s.lo), bytes, node);
    }
  }

  AppRun run;
  run.output.assign(static_cast<size_t>(n) * n, 0.0);
  std::vector<DfState> states(cfg.nodes);
  std::vector<double> final_maxdiff(cfg.nodes, 0.0);
  run.report = cluster.Run([&](NodeEnv& env) {
    DfState& st = states[env.node()];
    st.grids[0] = g0;
    st.grids[1] = g1;
    st.src = 0;
    st.n = n;
    env.user_ctx = &st;
    const sim::CostModel& costs = env.runtime().costs();

    const Strip strip = StripOf(n, env.node(), env.nodes());
    for (int i = strip.lo; i < strip.hi; ++i) {
      FillRow(g0.RowWrite(env, i), i, n);
      FillRow(g1.RowWrite(env, i), i, n);
      env.ChargeWork(costs.loop_iter_overhead * n);
    }
    env.Barrier();

    // Updatable (interior) rows of this strip.
    const int first = std::max(strip.lo, 1);
    const int last = std::min(strip.hi, n - 1);  // exclusive
    if (first < last) {
      if (p.pools < 0) {
        // Adaptive pool assignment: one profiling sweep, then automatic per-page clustering.
        for (int i = first; i < last; ++i) {
          for (int j = 1; j < n - 1; ++j) {
            env.CreateAutoFilament(&PointFilament, i, j, 0);
          }
        }
      } else {
        // Pools: top edge row, bottom edge row, interior (paper §4.2). The edge pools fault on
        // the neighbour's page; the interior pool overlaps those fetches. pools=1 disables the
        // overlap (Figure 12's ablation).
        const bool three = p.pools >= 3 && last - first >= 3;
        const core::PoolHandle top_pool = env.CreatePool();
        const core::PoolHandle bottom_pool = three ? env.CreatePool() : top_pool;
        const core::PoolHandle interior_pool = three ? env.CreatePool() : top_pool;
        auto fill_row = [&](core::PoolHandle pool, int i) {
          for (int j = 1; j < n - 1; ++j) {
            env.CreateFilament(pool, &PointFilament, i, j, 0);
          }
        };
        fill_row(top_pool, first);
        if (last - 1 != first) {
          fill_row(bottom_pool, last - 1);
        }
        for (int i = first + 1; i < last - 1; ++i) {
          fill_row(interior_pool, i);
        }
      }
    }

    int iterations_done = 0;
    env.RunIterative([&](int iter) {
      const double local = st.local_max;
      st.local_max = 0;
      const double global = env.Reduce(local, core::ReduceOp::kMax);
      st.src = 1 - st.src;
      iterations_done = iter + 1;
      final_maxdiff[env.node()] = global;
      return iter + 1 < p.iterations;
    });

    // Validation extraction: local strip only, uncharged.
    const GlobalArray2D<double>& final_grid = st.grids[st.src];
    for (int i = strip.lo; i < strip.hi; ++i) {
      const double* row = final_grid.RowRead(env, i);
      std::memcpy(run.output.data() + static_cast<size_t>(i) * n, row, n * sizeof(double));
    }
  });
  run.checksum = final_maxdiff[0];
  return run;
}

}  // namespace dfil::apps
