// Jacobi iteration for Laplace's equation (paper §4.2, Figures 5, 10, 11, 12).
//
// 256x256 grid, 360 iterations in the paper. Strips of rows per node; a row is 2 KB, so a page
// holds two rows and (with strip sizes even) strips never share a writable page — only the edge
// pages are read-shared between neighbours. The DF program uses one iterative filament per point
// and three pools (top row / bottom row / interior): the edge pools fault on the neighbour's edge
// page, the interior pool overlaps those fetches. Implicit-invalidate is the paper's default PCP
// here; Figures 11 and 12 ablate the PCP and the pool count.
#ifndef DFIL_APPS_JACOBI_H_
#define DFIL_APPS_JACOBI_H_

#include <string>

#include "src/apps/common.h"

namespace dfil::apps {

struct JacobiParams {
  int n = 256;
  int iterations = 360;
  // 3 = paper default (top/bottom/interior). 1 = the no-overlap ablation of Figure 12.
  // -1 = adaptive pool assignment (this reproduction's future-work extension): the runtime
  // profiles the first sweep and clusters filaments by faulted page automatically.
  int pools = 3;
};

// The program identity benches stamp into the run fingerprint: the problem parameters, so
// `dfil_report diff` refuses to compare runs of different sizes, iteration counts or pool layouts.
std::string AppIdentity(const JacobiParams& p);

AppRun RunJacobiSeq(const JacobiParams& p, const core::ClusterConfig& base);
AppRun RunJacobiCg(const JacobiParams& p, const core::ClusterConfig& base);
AppRun RunJacobiDf(const JacobiParams& p, const core::ClusterConfig& base);

}  // namespace dfil::apps

#endif  // DFIL_APPS_JACOBI_H_
