// Ablation (ours): sorting strategy and adaptive-policy sensitivity.
//
// Part A compares the three sorting strategies available to the hybrid kernel
// under increasing particle churn (thermal velocity): no sorting, counting sort
// every step, and the GPMA incremental sorter with the adaptive policy.
// Part B sweeps the fixed re-sort interval to show the policy's sweet spot
// (DESIGN.md experiment A1).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"

namespace mpic {
namespace {

void PartA() {
  ConsoleTable t({"u_th/c", "Strategy", "Deposit (s)", "Sort (s)", "Global sorts"});
  for (double u_th : {0.005, 0.02, 0.08}) {
    for (DepositVariant v :
         {DepositVariant::kHybridNoSort, DepositVariant::kHybridGlobalSort,
          DepositVariant::kFullOpt}) {
      UniformWorkloadParams p;
      p.nx = p.ny = p.nz = 12;
      p.tile = 12;
      p.ppc_x = p.ppc_y = p.ppc_z = 4;  // PPC 64
      p.variant = v;
      p.u_th = u_th;
      const BenchResult r = RunUniform(p, /*warmup=*/1, /*steps=*/4);
      t.AddRow({FormatDouble(u_th, 3), VariantName(v),
                FormatDouble(r.report.deposition_seconds, 4),
                FormatDouble(PhaseSec(r.report, Phase::kSort), 4),
                std::to_string(r.global_sorts)});
    }
  }
  t.Print("Ablation A1a: sorting strategy vs particle churn (uniform, CIC)");
}

void PartB() {
  ConsoleTable t({"sort_interval", "Deposit (s)", "Sort (s)", "Global sorts"});
  for (int interval : {2, 5, 20, 1000}) {
    UniformWorkloadParams p;
    p.nx = p.ny = p.nz = 12;
    p.tile = 12;
    p.ppc_x = p.ppc_y = p.ppc_z = 4;
    p.variant = DepositVariant::kFullOpt;
    p.u_th = 0.04;
    HwContext hw;
    SimulationConfig cfg = MakeUniformConfig(p);
    cfg.engine.policy.sort_interval = interval;
    cfg.engine.policy.min_sort_interval = 1;
    cfg.engine.policy.trigger_perf_enable = false;
    Simulation sim(hw, cfg);
    UniformPlasmaConfig plasma;
    plasma.ppc_x = p.ppc_x;
    plasma.ppc_y = p.ppc_y;
    plasma.ppc_z = p.ppc_z;
    plasma.u_th = p.u_th;
    sim.SeedUniformPlasma(0, plasma);
    ScrambleParticleOrder(sim.tiles(), 7);
    sim.Initialize();
    sim.Run(1);
    const PhaseCycles before = SnapshotCycles(hw.ledger());
    const int64_t pushed_before = sim.particles_pushed();
    sim.Run(8);
    const RunReport r =
        MakeRunReport(hw, before, sim.particles_pushed() - pushed_before, 1);
    t.AddRow({std::to_string(interval), FormatDouble(r.deposition_seconds, 4),
              FormatDouble(PhaseSec(r, Phase::kSort), 4),
              std::to_string(sim.engine().total_global_sorts())});
  }
  t.Print("Ablation A1b: fixed re-sort interval sweep (FullOpt, u_th=0.04)");
}

}  // namespace
}  // namespace mpic

int main() {
  mpic::PartA();
  mpic::PartB();
  return 0;
}
