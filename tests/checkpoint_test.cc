// Checkpoint/restart tests: a restored simulation must continue bit-identical
// to the uninterrupted run — across every deposit variant, shape order, and
// current scheme; across tile schedules and modeled core counts;
// through multi-species engine overrides and the moving window. Corrupted or
// truncated checkpoints must be rejected with the target simulation untouched.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/simulation.h"
#include "src/core/workloads.h"
#include "src/deposit/rhocell.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/digest.h"
#include "src/runtime/fault_injection.h"

namespace mpic {
namespace {

// ---- Round trip across the engine matrix ------------------------------------

struct EngineCombo {
  DepositVariant variant;
  int order;
  CurrentScheme scheme;
};

std::vector<EngineCombo> AllEngineCombos() {
  std::vector<EngineCombo> combos;
  for (DepositVariant v :
       {DepositVariant::kScalar, DepositVariant::kBaseline,
        DepositVariant::kBaselineIncrSort, DepositVariant::kRhocell,
        DepositVariant::kRhocellIncrSort, DepositVariant::kRhocellIncrSortVpu,
        DepositVariant::kMatrixOnly, DepositVariant::kHybridNoSort,
        DepositVariant::kHybridGlobalSort, DepositVariant::kFullOpt}) {
    const VariantTraits traits = TraitsOf(v);
    for (int order : {1, 2, 3}) {
      for (CurrentScheme scheme :
           {CurrentScheme::kDirect, CurrentScheme::kEsirkepov}) {
        if (scheme == CurrentScheme::kDirect && order == 2 &&
            (traits.uses_rhocell || traits.uses_mpu)) {
          continue;  // direct rhocell/MPU kernels are odd-order only
        }
        combos.push_back({v, order, scheme});
      }
    }
  }
  return combos;
}

TEST(CheckpointRoundTrip, EveryVariantOrderAndScheme) {
  for (const EngineCombo& c : AllEngineCombos()) {
    SCOPED_TRACE(std::string(VariantName(c.variant)) + " order " +
                 std::to_string(c.order) +
                 (c.scheme == CurrentScheme::kEsirkepov ? " esirkepov"
                                                        : " direct"));
    UniformWorkloadParams p;
    p.nx = p.ny = p.nz = 8;
    p.ppc_x = p.ppc_y = p.ppc_z = 1;
    p.tile = 4;
    p.variant = c.variant;
    p.order = c.order;
    p.scheme = c.scheme;
    p.u_th = 0.1;  // enough churn for movers and slot recycling

    HwContext ref_hw(MachineConfig::Lx2MultiCore(2));
    auto ref = MakeUniformSimulation(ref_hw, p);
    ref->Run(3);
    std::vector<uint8_t> ckpt;
    ASSERT_TRUE(SaveCheckpoint(*ref, &ckpt)) << "save failed";
    ref->Run(3);
    const uint64_t want = SimulationDigest(*ref);

    HwContext twin_hw(MachineConfig::Lx2MultiCore(2));
    auto twin = MakeUniformSimulation(twin_hw, p);
    twin->Run(1);  // desynchronize; restore must overwrite everything
    const CheckpointStatus st = RestoreCheckpoint(twin.get(), ckpt);
    ASSERT_TRUE(st) << st.error;
    EXPECT_EQ(twin->step_count(), 3);
    twin->Run(3);
    EXPECT_EQ(SimulationDigest(*twin), want);
  }
}

// A checkpoint is core-count-portable: an image saved from a 4-core run must
// continue bit-identically on a 1-core (serial deposit and reduce) or 2-core
// twin, and on a 4-core one.
TEST(CheckpointRoundTrip, CrossScheduleAndCoreRestore) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 2;
  p.tile = 4;
  p.u_th = 0.1;

  HwContext src_hw(MachineConfig::Lx2MultiCore(4));
  auto src = MakeUniformSimulation(src_hw, p);
  src->Run(3);
  std::vector<uint8_t> ckpt;
  ASSERT_TRUE(SaveCheckpoint(*src, &ckpt));
  src->Run(4);
  const uint64_t want = SimulationDigest(*src);

  for (int cores : {1, 2, 4}) {
    SCOPED_TRACE(std::to_string(cores) + " cores");
    HwContext hw(MachineConfig::Lx2MultiCore(cores));
    auto twin = MakeUniformSimulation(hw, p);
    const CheckpointStatus st = RestoreCheckpoint(twin.get(), ckpt);
    ASSERT_TRUE(st) << st.error;
    twin->Run(4);
    EXPECT_EQ(SimulationDigest(*twin), want);
  }
}

TEST(CheckpointRoundTrip, MultiSpeciesEngineOverrides) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.tile = 4;
  UniformSpeciesParams electrons;
  electrons.species = Species::Electron();
  electrons.ppc_x = electrons.ppc_y = electrons.ppc_z = 2;
  electrons.u_th = 0.1;
  UniformSpeciesParams ions;
  ions.species = Species::Proton();
  ions.ppc_x = ions.ppc_y = ions.ppc_z = 1;
  ions.variant = DepositVariant::kHybridNoSort;
  ions.order = 3;
  p.species_params = {electrons, ions};

  HwContext ref_hw(MachineConfig::Lx2MultiCore(2));
  auto ref = MakeUniformSimulation(ref_hw, p);
  ref->Run(3);
  std::vector<uint8_t> ckpt;
  ASSERT_TRUE(SaveCheckpoint(*ref, &ckpt));
  ref->Run(3);
  const uint64_t want = SimulationDigest(*ref);

  HwContext twin_hw(MachineConfig::Lx2MultiCore(2));
  auto twin = MakeUniformSimulation(twin_hw, p);
  const CheckpointStatus st = RestoreCheckpoint(twin.get(), ckpt);
  ASSERT_TRUE(st) << st.error;
  twin->Run(3);
  EXPECT_EQ(SimulationDigest(*twin), want);
}

// The moving window's non-structural state — shifted z0, fractional shift
// accumulator, injection RNG cursor — must all survive the round trip, or the
// continued runs inject different particles.
TEST(CheckpointRoundTrip, LwfaMovingWindowWithIons) {
  LwfaWorkloadParams p;
  p.nx = p.ny = 8;
  p.nz = 32;
  p.tile = 4;
  p.tile_z = 8;
  p.with_ions = true;
  // The re-sort policy keeps its default configuration — including the
  // adaptive performance trigger. Its throughput baselines ride the v2
  // SPECIES tail, and the model_sync handshake makes the trigger's modeled
  // throughput input identical on both sides (see runtime/checkpoint.h).

  HwContext ref_hw(MachineConfig::Lx2MultiCore(2));
  auto ref = MakeLwfaSimulation(ref_hw, p);
  ref->Run(6);
  std::vector<uint8_t> ckpt;
  CheckpointWriteOptions wopts;
  wopts.model_sync = true;
  ASSERT_TRUE(SaveCheckpoint(*ref, &ckpt, wopts));
  ref->Run(6);
  const uint64_t want = SimulationDigest(*ref);

  HwContext twin_hw(MachineConfig::Lx2MultiCore(2));
  auto twin = MakeLwfaSimulation(twin_hw, p);
  CheckpointReadOptions ropts;
  ropts.model_sync = true;
  const CheckpointStatus st = RestoreCheckpoint(twin.get(), ckpt, ropts);
  ASSERT_TRUE(st) << st.error;
  // The twin starts at z0 = 0; the restore must reinstate the shifted window.
  EXPECT_GT(twin->config().geom.z0, 0.0);
  twin->Run(6);
  EXPECT_EQ(SimulationDigest(*twin), want);
}

// Restart-at-every-step bisection: checkpoint a two-stream run at each of its
// N steps; every restart must land on the same final digest. If a restart
// diverges, the first failing k isolates the step whose state the format
// fails to capture.
TEST(CheckpointRoundTrip, TwoStreamRestartAtEveryStep) {
  TwoStreamParams p;
  constexpr int kSteps = 8;

  HwContext ref_hw(MachineConfig::Lx2MultiCore(2));
  auto ref = MakeTwoStreamSimulation(ref_hw, p);
  std::vector<std::vector<uint8_t>> ckpts;
  for (int k = 0; k < kSteps; ++k) {
    std::vector<uint8_t> buf;
    ASSERT_TRUE(SaveCheckpoint(*ref, &buf));
    ckpts.push_back(std::move(buf));
    ref->Step();
  }
  const uint64_t want = SimulationDigest(*ref);

  for (int k = 0; k < kSteps; ++k) {
    SCOPED_TRACE("restart at step " + std::to_string(k));
    HwContext hw(MachineConfig::Lx2MultiCore(2));
    auto twin = MakeTwoStreamSimulation(hw, p);
    const CheckpointStatus st =
        RestoreCheckpoint(twin.get(), ckpts[static_cast<size_t>(k)]);
    ASSERT_TRUE(st) << st.error;
    ASSERT_EQ(twin->step_count(), k);
    twin->Run(kSteps - k);
    EXPECT_EQ(SimulationDigest(*twin), want);
  }
}

TEST(CheckpointRoundTrip, FileBacked) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 1;
  p.tile = 4;

  HwContext ref_hw(MachineConfig::Lx2MultiCore(1));
  auto ref = MakeUniformSimulation(ref_hw, p);
  ref->Run(2);
  const std::string path = ::testing::TempDir() + "/mpic_ckpt_test.bin";
  ASSERT_TRUE(SaveCheckpointFile(*ref, path));
  ref->Run(2);
  const uint64_t want = SimulationDigest(*ref);

  HwContext twin_hw(MachineConfig::Lx2MultiCore(1));
  auto twin = MakeUniformSimulation(twin_hw, p);
  const CheckpointStatus st = RestoreCheckpointFile(twin.get(), path);
  ASSERT_TRUE(st) << st.error;
  twin->Run(2);
  EXPECT_EQ(SimulationDigest(*twin), want);
  std::remove(path.c_str());
}

// Restoring with the ledger snapshot resumes the modeled clock of the
// checkpointed run.
TEST(CheckpointRoundTrip, LedgerRestoreResumesModeledClock) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 1;
  p.tile = 4;

  HwContext ref_hw(MachineConfig::Lx2MultiCore(2));
  auto ref = MakeUniformSimulation(ref_hw, p);
  ref->Run(3);
  const double cycles_at_save = ref_hw.ledger().TotalCycles();
  std::vector<uint8_t> ckpt;
  ASSERT_TRUE(SaveCheckpoint(*ref, &ckpt));

  HwContext twin_hw(MachineConfig::Lx2MultiCore(2));
  auto twin = MakeUniformSimulation(twin_hw, p);
  CheckpointReadOptions opts;
  opts.restore_ledger = true;
  ASSERT_TRUE(RestoreCheckpoint(twin.get(), ckpt, opts));
  EXPECT_DOUBLE_EQ(twin_hw.ledger().TotalCycles(), cycles_at_save);
}

// The v4 LEDGER tail: a QSP kFullOpt run issues gather MOPAs (the
// cell-batched field gather), and a ledger restore carries the pair over.
TEST(CheckpointRoundTrip, LedgerRestoreCarriesGatherMopaCounters) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 3;
  p.tile = 4;
  p.order = 3;

  HwContext ref_hw(MachineConfig::Lx2MultiCore(2));
  auto ref = MakeUniformSimulation(ref_hw, p);
  ref->Run(2);
  const LedgerCounters at_save = ref_hw.ledger().counters();
  ASSERT_GT(at_save.gather_mopas, 0u);
  std::vector<uint8_t> ckpt;
  ASSERT_TRUE(SaveCheckpoint(*ref, &ckpt));

  HwContext twin_hw(MachineConfig::Lx2MultiCore(2));
  auto twin = MakeUniformSimulation(twin_hw, p);
  CheckpointReadOptions opts;
  opts.restore_ledger = true;
  ASSERT_TRUE(RestoreCheckpoint(twin.get(), ckpt, opts));
  EXPECT_EQ(twin_hw.ledger().counters().gather_mopas, at_save.gather_mopas);
  EXPECT_EQ(twin_hw.ledger().counters().gather_mopa_valid_slots,
            at_save.gather_mopa_valid_slots);
}

// ---- Cycle-exact restore: the model-sync handshake ---------------------------

// Save with model_sync, restore with restore_ledger + model_sync: the twin
// must match the saving run bit-for-bit in physics AND in every modeled
// phase-cycle bucket and ledger counter — including the steal pair and with
// the adaptive performance trigger at its enabled default — across
// tile-schedule policies, core counts, and the multi-rank machine. These are
// exactly the states version-1 images omitted.
TEST(CheckpointCycleExact, RestoreMatchesUninterruptedRun) {
  struct Combo {
    int ranks, cores;
    bool steal;
  };
  const std::vector<Combo> combos = {
      {1, 4, false}, {1, 4, true}, {1, 1, true}, {2, 4, true}, {2, 2, false},
  };
  for (const Combo& c : combos) {
    SCOPED_TRACE(std::to_string(c.ranks) + " ranks, " +
                 std::to_string(c.cores) + " cores, " +
                 (c.steal ? "steal" : "static"));
    UniformWorkloadParams p;
    p.nx = p.ny = 8;
    p.nz = 16;
    p.ppc_x = p.ppc_y = p.ppc_z = 2;
    p.tile = 4;
    p.u_th = 0.1;

    const MachineConfig mc = MachineConfig::Lx2Cluster(c.ranks, c.cores, c.steal);
    HwContext ref_hw(mc);
    auto ref = MakeUniformSimulation(ref_hw, p);
    ref->Run(4);
    std::vector<uint8_t> ckpt;
    CheckpointWriteOptions wopts;
    wopts.model_sync = true;
    ASSERT_TRUE(SaveCheckpoint(*ref, &ckpt, wopts));
    const std::vector<double> est_at_save = ref->block(0).pass1_costs.estimate;
    ref->Run(4);
    const uint64_t want = SimulationDigest(*ref);

    HwContext twin_hw(mc);
    auto twin = MakeUniformSimulation(twin_hw, p);
    twin->Run(2);  // desynchronize; restore must overwrite everything
    CheckpointReadOptions ropts;
    ropts.restore_ledger = true;
    ropts.model_sync = true;
    const CheckpointStatus st = RestoreCheckpoint(twin.get(), ckpt, ropts);
    ASSERT_TRUE(st) << st.error;
    if (c.steal) {
      EXPECT_FALSE(twin->block(0).pass1_costs.estimate.empty())
          << "kCostSteal per-tile estimates not restored";
      EXPECT_EQ(twin->block(0).pass1_costs.estimate, est_at_save);
    }
    twin->Run(4);

    EXPECT_EQ(SimulationDigest(*twin), want);
    for (int ph = 0; ph < kNumPhases; ++ph) {
      EXPECT_DOUBLE_EQ(twin_hw.ledger().PhaseCycles(static_cast<Phase>(ph)),
                       ref_hw.ledger().PhaseCycles(static_cast<Phase>(ph)))
          << "phase " << PhaseName(static_cast<Phase>(ph));
    }
    const LedgerCounters& a = ref_hw.ledger().counters();
    const LedgerCounters& b = twin_hw.ledger().counters();
    EXPECT_EQ(b.scalar_ops, a.scalar_ops);
    EXPECT_EQ(b.vpu_ops, a.vpu_ops);
    EXPECT_EQ(b.vpu_mem, a.vpu_mem);
    EXPECT_EQ(b.gathers, a.gathers);
    EXPECT_EQ(b.scatters, a.scatters);
    EXPECT_EQ(b.mopas, a.mopas);
    EXPECT_EQ(b.gather_mopas, a.gather_mopas);
    EXPECT_EQ(b.gather_mopa_valid_slots, a.gather_mopa_valid_slots);
    EXPECT_EQ(b.l1_hits, a.l1_hits);
    EXPECT_EQ(b.l1_misses, a.l1_misses);
    EXPECT_EQ(b.l2_hits, a.l2_hits);
    EXPECT_EQ(b.l2_misses, a.l2_misses);
    EXPECT_EQ(b.tasks_stolen, a.tasks_stolen);
    EXPECT_DOUBLE_EQ(b.steal_cycles, a.steal_cycles);
  }
}

// The kCostSteal estimate wire-through is not cosmetic: a restored stealing
// run must replan the same schedule and therefore accumulate the same steal
// counters as the uninterrupted run (checked above); this test pins the
// baseline expectation that the stealing machine actually steals on an
// imbalanced workload, so the counter comparisons above are non-vacuous.
TEST(CheckpointCycleExact, StealCountersAreNonVacuous) {
  BunchedBeamParams p;
  p.nx = p.ny = p.nz = 16;
  p.ppc_x = p.ppc_y = p.ppc_z = 4;

  HwContext hw(MachineConfig::Lx2Cluster(1, 4, /*stealing=*/true));
  auto sim = MakeBunchedBeamSimulation(hw, p);
  sim->Run(3);
  EXPECT_GT(hw.ledger().counters().tasks_stolen, 0u);
}

// NUMA cycle-exact restore: on a 2-domain machine with live remote steals,
// the restored run must replan the same sticky placement — the committed
// per-tile owner vectors ride the v3 SPECIES tail — and therefore accumulate
// the same remote-line, remote-cycle, and remote-steal totals as the
// uninterrupted run, to the last cycle.
TEST(CheckpointCycleExact, NumaRestoreMatchesUninterruptedRun) {
  BunchedBeamParams p;
  p.nx = p.ny = p.nz = 16;
  p.ppc_x = p.ppc_y = p.ppc_z = 4;

  const MachineConfig mc = MachineConfig::Lx2MultiCoreNuma(4, 2);
  HwContext ref_hw(mc);
  auto ref = MakeBunchedBeamSimulation(ref_hw, p);
  ref->Run(4);
  std::vector<uint8_t> ckpt;
  CheckpointWriteOptions wopts;
  wopts.model_sync = true;
  ASSERT_TRUE(SaveCheckpoint(*ref, &ckpt, wopts));
  const std::vector<int32_t> own_at_save = ref->block(0).pass1_costs.owner;
  ref->Run(4);
  const uint64_t want = SimulationDigest(*ref);
  // Non-vacuous: this workload/machine combination must exercise the remote
  // paths, or the counter comparisons below prove nothing.
  EXPECT_GT(ref_hw.ledger().counters().tasks_stolen_remote, 0u);
  EXPECT_GT(ref_hw.ledger().counters().remote_lines, 0u);

  HwContext twin_hw(mc);
  auto twin = MakeBunchedBeamSimulation(twin_hw, p);
  twin->Run(2);  // desynchronize; restore must overwrite everything
  CheckpointReadOptions ropts;
  ropts.restore_ledger = true;
  ropts.model_sync = true;
  const CheckpointStatus st = RestoreCheckpoint(twin.get(), ckpt, ropts);
  ASSERT_TRUE(st) << st.error;
  ASSERT_FALSE(own_at_save.empty());
  EXPECT_EQ(twin->block(0).pass1_costs.owner, own_at_save)
      << "committed owner vector not restored";
  twin->Run(4);

  EXPECT_EQ(SimulationDigest(*twin), want);
  for (int ph = 0; ph < kNumPhases; ++ph) {
    EXPECT_DOUBLE_EQ(twin_hw.ledger().PhaseCycles(static_cast<Phase>(ph)),
                     ref_hw.ledger().PhaseCycles(static_cast<Phase>(ph)))
        << "phase " << PhaseName(static_cast<Phase>(ph));
  }
  const LedgerCounters& a = ref_hw.ledger().counters();
  const LedgerCounters& b = twin_hw.ledger().counters();
  EXPECT_EQ(b.l2_misses, a.l2_misses);
  EXPECT_EQ(b.tasks_stolen, a.tasks_stolen);
  EXPECT_EQ(b.tasks_stolen_remote, a.tasks_stolen_remote);
  EXPECT_EQ(b.remote_lines, a.remote_lines);
  EXPECT_DOUBLE_EQ(b.remote_cycles, a.remote_cycles);
  EXPECT_DOUBLE_EQ(b.steal_cycles, a.steal_cycles);
}

// ---- Rejection of damaged or incompatible checkpoints ------------------------

// Version 1 images lack the adaptive-trigger baselines, the kCostSteal
// estimates, and the steal counters; restoring one would silently break the
// bit-exact contract, so the version gate must reject it outright.
TEST(CheckpointRejection, RejectsVersion1Image) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 1;
  p.tile = 4;

  HwContext src_hw(MachineConfig::Lx2MultiCore(1));
  auto src = MakeUniformSimulation(src_hw, p);
  src->Run(1);
  std::vector<uint8_t> ckpt;
  ASSERT_TRUE(SaveCheckpoint(*src, &ckpt));

  HwContext tgt_hw(MachineConfig::Lx2MultiCore(1));
  auto tgt = MakeUniformSimulation(tgt_hw, p);
  const uint64_t before = SimulationDigest(*tgt);

  std::vector<uint8_t> old_image = ckpt;
  old_image[8] = 1;  // u32 version field, little-endian, at offset 8
  const CheckpointStatus st = RestoreCheckpoint(tgt.get(), old_image);
  EXPECT_FALSE(st.ok);
  EXPECT_NE(st.error.find("unsupported version"), std::string::npos)
      << st.error;
  EXPECT_EQ(SimulationDigest(*tgt), before) << "target mutated on reject";
}



// Version 3 images lack the gather MOPA counters of the LEDGER tail; the
// version gate rejects them like every older format.
TEST(CheckpointRejection, RejectsVersion3Image) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 1;
  p.tile = 4;

  HwContext src_hw(MachineConfig::Lx2MultiCore(1));
  auto src = MakeUniformSimulation(src_hw, p);
  src->Run(1);
  std::vector<uint8_t> ckpt;
  ASSERT_TRUE(SaveCheckpoint(*src, &ckpt));
  ASSERT_EQ(ckpt[8], 4) << "current images are version 4";

  HwContext tgt_hw(MachineConfig::Lx2MultiCore(1));
  auto tgt = MakeUniformSimulation(tgt_hw, p);
  const uint64_t before = SimulationDigest(*tgt);

  std::vector<uint8_t> old_image = ckpt;
  old_image[8] = 3;  // u32 version field, little-endian, at offset 8
  const CheckpointStatus st = RestoreCheckpoint(tgt.get(), old_image);
  EXPECT_FALSE(st.ok);
  EXPECT_NE(st.error.find("unsupported version 3"), std::string::npos)
      << st.error;
  EXPECT_EQ(SimulationDigest(*tgt), before) << "target mutated on reject";
}

TEST(CheckpointRejection, TruncationAndCorruptionLeaveTargetUnmutated) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 1;
  p.tile = 4;

  HwContext src_hw(MachineConfig::Lx2MultiCore(1));
  auto src = MakeUniformSimulation(src_hw, p);
  src->Run(2);
  std::vector<uint8_t> good;
  ASSERT_TRUE(SaveCheckpoint(*src, &good));

  HwContext tgt_hw(MachineConfig::Lx2MultiCore(1));
  auto tgt = MakeUniformSimulation(tgt_hw, p);
  tgt->Run(1);
  const uint64_t before = SimulationDigest(*tgt);

  // Truncation at several depths: inside the header, inside a section header,
  // inside a payload.
  for (size_t keep : {size_t{4}, size_t{20}, good.size() / 2, good.size() - 1}) {
    SCOPED_TRACE("truncate to " + std::to_string(keep));
    std::vector<uint8_t> bad = good;
    TruncateCheckpoint(&bad, keep);
    const CheckpointStatus st = RestoreCheckpoint(tgt.get(), bad);
    EXPECT_FALSE(st.ok);
    EXPECT_FALSE(st.error.empty());
    EXPECT_EQ(SimulationDigest(*tgt), before) << "target mutated on reject";
  }

  // Single bit flips in the section data must fail the FNV checksums.
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    SCOPED_TRACE("bit flip seed " + std::to_string(seed));
    std::vector<uint8_t> bad = good;
    FlipCheckpointBit(&bad, seed);
    const CheckpointStatus st = RestoreCheckpoint(tgt.get(), bad);
    EXPECT_FALSE(st.ok);
    EXPECT_EQ(SimulationDigest(*tgt), before) << "target mutated on reject";
  }

  // The pristine buffer still restores (the copies above never aliased it).
  EXPECT_TRUE(RestoreCheckpoint(tgt.get(), good));
}

TEST(CheckpointRejection, IncompatibleConfiguration) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 1;
  p.tile = 4;

  HwContext src_hw(MachineConfig::Lx2MultiCore(1));
  auto src = MakeUniformSimulation(src_hw, p);
  src->Run(1);
  std::vector<uint8_t> ckpt;
  ASSERT_TRUE(SaveCheckpoint(*src, &ckpt));

  // Different shape order.
  {
    UniformWorkloadParams q = p;
    q.order = 3;
    HwContext hw(MachineConfig::Lx2MultiCore(1));
    auto tgt = MakeUniformSimulation(hw, q);
    const uint64_t before = SimulationDigest(*tgt);
    EXPECT_FALSE(RestoreCheckpoint(tgt.get(), ckpt).ok);
    EXPECT_EQ(SimulationDigest(*tgt), before);
  }
  // Different grid.
  {
    UniformWorkloadParams q = p;
    q.nx = 16;
    HwContext hw(MachineConfig::Lx2MultiCore(1));
    auto tgt = MakeUniformSimulation(hw, q);
    EXPECT_FALSE(RestoreCheckpoint(tgt.get(), ckpt).ok);
  }
  // Different species registry.
  {
    UniformWorkloadParams q = p;
    q.species = {Species::Electron(), Species::Proton()};
    HwContext hw(MachineConfig::Lx2MultiCore(1));
    auto tgt = MakeUniformSimulation(hw, q);
    EXPECT_FALSE(RestoreCheckpoint(tgt.get(), ckpt).ok);
  }
  // Different current scheme.
  {
    UniformWorkloadParams q = p;
    q.scheme = CurrentScheme::kEsirkepov;
    HwContext hw(MachineConfig::Lx2MultiCore(1));
    auto tgt = MakeUniformSimulation(hw, q);
    EXPECT_FALSE(RestoreCheckpoint(tgt.get(), ckpt).ok);
  }
}

}  // namespace
}  // namespace mpic
