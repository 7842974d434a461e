// Resilience ablation: overhead, restore determinism, and MTTR of the
// runtime resilience layer (src/runtime/), with hard gates (non-zero exit on
// violation):
//
//   1. Overhead — uniform kernel workload with every sentinel armed plus
//      periodic in-memory checkpoints (interval 10) vs. the same run with the
//      resilience layer off. Gates: modeled-cycle overhead <= 2% on the QSP
//      (order 3, production shape order) configuration and bit-identical
//      physics digests on both (sentinels observe, never perturb).
//   2. Restore-digest matrix — save at step 3 on 2 modeled cores, restore
//      into twins on {1, 2, 4} modeled cores, for every DepositVariant under
//      both CurrentSchemes.
//      Gate: every twin finishes on the uninterrupted run's digest. The
//      re-sort policy's throughput trigger is disabled here — it reads
//      modeled cache history a checkpoint deliberately does not carry
//      (see src/runtime/checkpoint.h); all physics triggers stay on.
//   3. MTTR — a guaranteed-detectable field SEU (adaptive exponent bit flip)
//      at a fixed step, recovered by rollback under checkpoint intervals
//      {1, 5, 10, 20}. Gates: exactly one rollback, replay cost bounded by
//      the interval, and a recovered digest bit-identical to a run that
//      never faulted. A final degraded row (interval 0) shows
//      scrub-and-continue availability when no checkpoint exists.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/fault_injection.h"
#include "src/runtime/health.h"
#include "src/runtime/recovery.h"

namespace mpic {
namespace {

std::string DigestHex(uint64_t d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(d));
  return buf;
}

void SetThreads(int cores) {
#ifdef _OPENMP
  omp_set_num_threads(cores);
#endif
}

// ---------------------------------------------------------------------------
// Section 1: sentinel + checkpoint overhead on the uniform kernel workload.
// The <= 2% gate is evaluated on the QSP (order 3) configuration — the
// production shape order, where deposition dominates the step. The CIC row is
// informational: against the fastest possible order-1 kernel the fixed
// per-particle guard ops weigh relatively more, which is a statement about
// CIC's cheapness, not about the sentinels.

bool RunOverheadGate() {
  const int steps = 20;  // two full checkpoint intervals
  SetThreads(4);
  bool ok = true;

  ConsoleTable t({"Workload", "Config", "Cycles/step", "Health cyc/step",
                  "Overhead", "Digest match"});
  for (int order : {3, 1}) {
    UniformWorkloadParams p;
    p.nx = p.ny = p.nz = 12;
    p.ppc_x = p.ppc_y = p.ppc_z = 3;
    p.tile = 4;
    p.u_th = 0.05;
    p.order = order;
    const char* name = order == 3 ? "uniform 12^3 QSP" : "uniform 12^3 CIC";

    HwContext off_hw(MachineConfig::Lx2MultiCore(4));
    auto off = MakeUniformSimulation(off_hw, p);
    off->Run(steps);
    const double off_cycles = off_hw.ledger().TotalCycles();

    HwContext on_hw(MachineConfig::Lx2MultiCore(4));
    auto on = MakeUniformSimulation(on_hw, p);
    HealthConfig hc;  // every default sentinel armed (Gauss stays opt-in)
    on->EnableHealth(hc);
    RecoveryConfig rc;
    rc.checkpoint_interval = 10;
    ResilientRunner runner(on.get(), rc);
    const bool completed = runner.Run(steps);
    const double on_cycles = on_hw.ledger().TotalCycles();
    const PhaseCycles on_phases = SnapshotCycles(on_hw.ledger());
    const double health_cycles =
        on_phases[static_cast<size_t>(Phase::kHealth)];

    const double overhead = (on_cycles - off_cycles) / off_cycles;
    const bool digests_match = SimulationDigest(*on) == SimulationDigest(*off);
    if (order == 3) {
      ok = completed && digests_match && overhead <= 0.02;
    } else {
      ok = ok && completed && digests_match;
    }
    t.AddRow({name, "resilience off", FormatSci(off_cycles / steps, 3), "-",
              "-", "-"});
    t.AddRow({name, "sentinels + ckpt@10", FormatSci(on_cycles / steps, 3),
              FormatSci(health_cycles / steps, 3),
              FormatDouble(100.0 * overhead, 2) + "%",
              digests_match ? "yes" : "NO (BUG!)"});
  }
  t.Print("Resilience overhead (uniform 12^3, ppc 3^3, 4 cores, " +
          std::to_string(steps) + " steps)");
  std::printf("Overhead gate (QSP <= 2.00%%, identical digests): %s\n\n",
              ok ? "HOLD" : "VIOLATED");
  return ok;
}

// ---------------------------------------------------------------------------
// Section 2: restore-digest matrix across cores, variants, schemes.

constexpr DepositVariant kAllVariants[] = {
    DepositVariant::kScalar,           DepositVariant::kBaseline,
    DepositVariant::kBaselineIncrSort, DepositVariant::kRhocell,
    DepositVariant::kRhocellIncrSort,  DepositVariant::kRhocellIncrSortVpu,
    DepositVariant::kMatrixOnly,       DepositVariant::kHybridNoSort,
    DepositVariant::kHybridGlobalSort, DepositVariant::kFullOpt,
};

UniformWorkloadParams MatrixParams(DepositVariant v, CurrentScheme s) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 1;
  p.tile = 4;
  p.u_th = 0.1;
  p.variant = v;
  p.scheme = s;
  // The adaptive throughput trigger restores bit-exactly on the *same*
  // machine (checkpoint v2 carries its baselines; tests/checkpoint_test.cc
  // gates it). This matrix restores one image into *different* machines
  // (cores 1/2/4), where the trigger's modeled-throughput
  // input legitimately differs — so the cross-machine digest gate needs the
  // physics-driven triggers only.
  ResortPolicyConfig pol;
  pol.trigger_perf_enable = false;
  p.policy = pol;
  return p;
}

bool RunRestoreMatrix() {
  const int save_at = 3, run_after = 3;
  ConsoleTable t({"Variant", "Scheme", "cores 1", "cores 2", "cores 4",
                  "Digest"});
  bool ok = true;
  int twins = 0, matched = 0;
  for (DepositVariant v : kAllVariants) {
    for (CurrentScheme s : {CurrentScheme::kDirect, CurrentScheme::kEsirkepov}) {
      SetThreads(2);
      HwContext ref_hw(MachineConfig::Lx2MultiCore(2));
      auto ref = MakeUniformSimulation(ref_hw, MatrixParams(v, s));
      ref->Run(save_at);
      std::vector<uint8_t> ckpt;
      if (!SaveCheckpoint(*ref, &ckpt)) {
        ok = false;
        continue;
      }
      ref->Run(run_after);
      const uint64_t want = SimulationDigest(*ref);

      std::vector<std::string> row = {VariantName(v), CurrentSchemeName(s)};
      for (int cores : {1, 2, 4}) {
        SetThreads(cores);
        HwContext hw(MachineConfig::Lx2MultiCore(cores));
        auto twin = MakeUniformSimulation(hw, MatrixParams(v, s));
        const CheckpointStatus st = RestoreCheckpoint(twin.get(), ckpt);
        bool good = st.ok;
        if (good) {
          twin->Run(run_after);
          good = SimulationDigest(*twin) == want;
        }
        row.push_back(good ? "ok" : "FAIL");
        ok = ok && good;
        ++twins;
        matched += good ? 1 : 0;
      }
      row.push_back(DigestHex(want));
      t.AddRow(std::move(row));
    }
  }
  t.Print("Restore-digest matrix: save on 2 cores @ step 3, run to step 6");
  std::printf("Restore matrix gate: %d/%d twins bit-identical — %s\n\n",
              matched, twins, ok ? "HOLD" : "VIOLATED");
  return ok;
}

// ---------------------------------------------------------------------------
// Section 3: MTTR under a deterministic field SEU.

bool RunMttrTable(int steps) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 2;
  p.tile = 4;
  p.u_th = 0.1;
  // This gate compares a periodically-checkpointing, rolled-back run against
  // a clean run that never checkpoints — the adaptive throughput trigger
  // would read different modeled histories in the two runs by construction,
  // so the digest-vs-clean promise is made under the physics-driven triggers.
  // (Same-machine restart with the trigger ON is bit-exact since checkpoint
  // v2; see runtime/checkpoint.h.)
  ResortPolicyConfig pol;
  pol.trigger_perf_enable = false;
  p.policy = pol;
  const int64_t fault_step = steps / 2 + 1;

  SetThreads(4);
  HwContext clean_hw(MachineConfig::Lx2MultiCore(4));
  auto clean = MakeUniformSimulation(clean_hw, p);
  clean->Run(steps);
  const uint64_t clean_digest = SimulationDigest(*clean);

  ConsoleTable t({"Ckpt interval", "Recovery", "Trip step", "Restored",
                  "Steps replayed", "Ckpts", "Digest == clean"});
  bool ok = true;
  for (int interval : {1, 5, 10, 20, 0}) {
    FaultPlan plan;
    FaultSpec spec;
    spec.kind = FaultKind::kFieldBitFlip;
    spec.step = fault_step;
    spec.bit = -1;  // adaptive exponent flip: guaranteed detectable
    plan.faults.push_back(spec);
    FaultInjector injector(plan);

    HwContext hw(MachineConfig::Lx2MultiCore(4));
    auto sim = MakeUniformSimulation(hw, p);
    sim->EnableHealth(HealthConfig{});
    RecoveryConfig rc;
    rc.checkpoint_interval = interval;
    ResilientRunner runner(sim.get(), rc);
    runner.set_injector(&injector);
    const bool completed = runner.Run(steps);
    const RecoveryStats& st = runner.stats();

    const bool degraded_row = interval == 0;
    const bool digest_match = SimulationDigest(*sim) == clean_digest;
    bool row_ok;
    if (degraded_row) {
      // No checkpoint exists: availability is the promise, not continuity.
      row_ok = completed && st.degraded_recoveries == 1 && st.rollbacks == 0;
    } else {
      row_ok = completed && st.rollbacks == 1 &&
               st.degraded_recoveries == 0 && digest_match &&
               st.steps_replayed <= interval;
    }
    ok = ok && row_ok;

    const RecoveryEvent* ev = st.events.empty() ? nullptr : &st.events[0];
    t.AddRow({degraded_row ? "none (degraded)" : std::to_string(interval),
              degraded_row ? "scrub" : "rollback",
              ev != nullptr ? std::to_string(ev->trip_step) : "-",
              ev != nullptr && !ev->degraded ? std::to_string(ev->restored_step)
                                             : "-",
              std::to_string(st.steps_replayed),
              std::to_string(st.checkpoints_taken),
              degraded_row ? "n/a" : (digest_match ? "yes" : "NO (BUG!)")});
  }
  t.Print("MTTR: field SEU at step " + std::to_string(fault_step) + " of " +
          std::to_string(steps));
  std::printf("MTTR gate (1 rollback, replay <= interval, clean digest): %s\n",
              ok ? "HOLD" : "VIOLATED");
  return ok;
}

bool Run(int steps) {
#ifdef _OPENMP
  std::printf("OpenMP enabled, %d host thread(s) available.\n\n",
              omp_get_max_threads());
#else
  std::printf("Built without OpenMP: partitions run serially.\n\n");
#endif
  bool ok = RunOverheadGate();
  ok = RunRestoreMatrix() && ok;
  ok = RunMttrTable(2 * steps) && ok;
  return ok;
}

}  // namespace
}  // namespace mpic

int main(int argc, char** argv) {
  int steps = argc > 1 ? std::atoi(argv[1]) : 12;
  if (steps < 2) {
    std::fprintf(stderr, "usage: %s [steps >= 2]; using default\n", argv[0]);
    steps = 12;
  }
  return mpic::Run(steps) ? 0 : 1;
}
