// Ablation (ours): MPU scheduling and staging choices (DESIGN.md experiment
// A2) — what each piece of the hybrid co-design buys:
//   * cell-resident tiles vs per-pair extraction (the register-reuse argument),
//   * VPU staging vs scalar staging (the hybrid-pipeline argument),
// for both CIC and QSP, plus the measured MPU occupancy (valid tile slots per
// MOPA issue) for the direct and the Esirkepov kernels.
//
// Exits non-zero unless the component-packed direct deposit (deposit_mpu.h)
// holds its figures: cell-resident QSP occupancy exactly 75%, cell-resident
// CIC occupancy >= 36% (37.5% less the odd-bin singletons), and no pairwise
// row slower than the pair-layout kernel it replaced (kPairLayoutDepositS).

#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table.h"

namespace mpic {
namespace {

// Modeled deposit seconds of the pairwise rows under the previous pair layout
// (two particles per MOPA, one pass per component), by order.
constexpr double kPairLayoutDepositS[] = {0.023086743115206438,   // CIC
                                          0.12104473171738207};  // QSP

UniformWorkloadParams BaseParams(int order) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 12;
  p.tile = 12;
  p.ppc_x = 8;
  p.ppc_y = p.ppc_z = 4;
  p.order = order;
  return p;
}

bool Run() {
  bool ok = true;
  ConsoleTable t({"Order", "Scheduling", "Staging", "Deposit (s)", "Compute (s)",
                  "Preproc (s)", "MPU occupancy", "Gather MPU occ."});
  struct Config {
    DepositVariant v;
    const char* scheduling;
    const char* staging;
  };
  const Config configs[] = {
      {DepositVariant::kFullOpt, "cell-resident", "VPU"},
      {DepositVariant::kMatrixOnly, "cell-resident", "scalar"},
      {DepositVariant::kHybridNoSort, "pairwise", "VPU"},
  };
  for (int order : {1, 3}) {
    for (const Config& c : configs) {
      UniformWorkloadParams p = BaseParams(order);
      p.variant = c.v;
      const BenchResult r = RunUniform(p, /*warmup=*/1, /*steps=*/2);
      const double occupancy = r.mopa.DepositOccupancy();
      const double deposit_s = r.report.deposition_seconds;
      if (c.v == DepositVariant::kHybridNoSort) {
        const double ceiling = kPairLayoutDepositS[order == 1 ? 0 : 1];
        if (deposit_s > ceiling) {
          std::printf("FAIL: order %d pairwise deposit %.6g s > %.6g s of the "
                      "pair layout\n", order, deposit_s, ceiling);
          ok = false;
        }
      } else if (order == 3 ? occupancy != 0.75 : occupancy < 0.36) {
        std::printf("FAIL: order %d cell-resident (%s staging) occupancy "
                    "%.4f, gate %s\n", order, c.staging, occupancy,
                    order == 3 ? "== 0.75" : ">= 0.36");
        ok = false;
      }
      t.AddRow({std::to_string(order), c.scheduling, c.staging,
                FormatDouble(deposit_s, 4),
                FormatDouble(PhaseSec(r.report, Phase::kCompute) +
                                 PhaseSec(r.report, Phase::kReduce),
                             4),
                FormatDouble(PhaseSec(r.report, Phase::kPreproc), 4),
                r.mopa.DepositOccupancyCell(), r.mopa.GatherOccupancyCell()});
    }
  }
  t.Print("Ablation A2: MPU scheduling x staging (PPC=128)");
  std::printf(
      "\nExpected: cell-resident + VPU staging wins; pairwise extraction costs\n"
      "grow with order (per-pair tile drain); scalar staging inflates preproc.\n"
      "Direct occupancy is fixed by the component-packed kernel: 75%% QSP\n"
      "(4 MOPAs per particle), 37.5%% CIC pairs less odd-bin singletons.\n"
      "MPU occupancy counts deposit MOPAs only; the cell-batched field "
      "gather\n(orders >= 2 on the sorted MPU variants) has its own column.\n");

  // Esirkepov MOPA utilization per order: the window width is data-dependent
  // (Order+1 nodes per axis without a cell crossing, Order+2 with), so the
  // occupancy is a measured property of the packing — order-1 narrow quads
  // 25%, order-2 narrow pairs 28%, order-3 narrow pairs 50%, diluted by the
  // crossing fraction of the drift (wide pairs / singles; esirkepov_mpu.h).
  ConsoleTable et({"Order", "Scheduling", "MOPAs/particle-step", "MPU occupancy",
                   "Gather MPU occ."});
  for (int order : {1, 2, 3}) {
    for (DepositVariant v :
         {DepositVariant::kFullOpt, DepositVariant::kHybridNoSort}) {
      UniformWorkloadParams p = BaseParams(order);
      p.variant = v;
      p.scheme = CurrentScheme::kEsirkepov;
      const BenchResult r = RunUniform(p, /*warmup=*/1, /*steps=*/2);
      et.AddRow({std::to_string(order),
                 v == DepositVariant::kFullOpt ? "cell-resident" : "pairwise",
                 FormatDouble(static_cast<double>(r.mopa.deposit_mopas()) /
                                  static_cast<double>(r.particles),
                              3),
                 r.mopa.DepositOccupancyCell(), r.mopa.GatherOccupancyCell()});
    }
  }
  et.Print("Esirkepov MOPA utilization (PPC=128, thermal drift)");
  std::printf("\nDirect-deposit gates: %s\n", ok ? "ok" : "FAIL");
  return ok;
}

}  // namespace
}  // namespace mpic

int main() { return mpic::Run() ? 0 : 1; }
