#include <gtest/gtest.h>

#include <vector>

#include "src/hw/cache_model.h"
#include "src/hw/cost_ledger.h"
#include "src/hw/hw_context.h"
#include "src/hw/machine_config.h"
#include "src/hw/mem_map.h"
#include "src/hw/vec.h"

namespace mpic {
namespace {

TEST(MachineConfig, PeakRatesMatchPaperRatios) {
  const MachineConfig cfg = MachineConfig::Lx2();
  // MOPA: 64 FMA per instruction at issue interval 2 => 4x a single VPU MLA
  // pipe's 8 FMA/cycle (Sec. 5.1).
  const double mopa_fma_per_cycle = kMpuTile * kMpuTile / cfg.mopa_issue_cycles;
  const double mla_fma_per_cycle = kVpuLanes;
  EXPECT_DOUBLE_EQ(mopa_fma_per_cycle / mla_fma_per_cycle, 4.0);
  EXPECT_DOUBLE_EQ(cfg.MpuPeakFlopsPerCycle(), 64.0);
  EXPECT_DOUBLE_EQ(cfg.VpuPeakFlopsPerCycle(), 32.0);
}

TEST(CostLedger, PhaseAccounting) {
  CostLedger ledger;
  ledger.SetPhase(Phase::kPreproc);
  ledger.AddCycles(5.0);
  {
    PhaseScope scope(ledger, Phase::kCompute);
    ledger.AddCycles(7.0);
  }
  ledger.AddCycles(1.0);  // back to preproc
  EXPECT_DOUBLE_EQ(ledger.PhaseCycles(Phase::kPreproc), 6.0);
  EXPECT_DOUBLE_EQ(ledger.PhaseCycles(Phase::kCompute), 7.0);
  EXPECT_DOUBLE_EQ(ledger.TotalCycles(), 13.0);
}

TEST(CostLedger, DepositionCyclesSumsKernelPhases) {
  CostLedger ledger;
  for (Phase p : {Phase::kPreproc, Phase::kCompute, Phase::kSort, Phase::kReduce,
                  Phase::kGather, Phase::kSolver}) {
    ledger.SetPhase(p);
    ledger.AddCycles(1.0);
  }
  EXPECT_DOUBLE_EQ(ledger.DepositionCycles(), 4.0);
  EXPECT_DOUBLE_EQ(ledger.TotalCycles(), 6.0);
}

TEST(CacheModel, RepeatAccessHitsL1) {
  const MachineConfig cfg = MachineConfig::Lx2();
  CacheModel cache(cfg);
  CostLedger ledger;
  EXPECT_GT(cache.Touch(0x1000, ledger), 0.0);  // cold miss
  EXPECT_DOUBLE_EQ(cache.Touch(0x1000, ledger), 0.0);
  EXPECT_DOUBLE_EQ(cache.Touch(0x1008, ledger), 0.0);  // same line
  EXPECT_EQ(ledger.counters().l1_misses, 1u);
  EXPECT_EQ(ledger.counters().l1_hits, 2u);
}

TEST(CacheModel, L1EvictionFallsBackToL2) {
  const MachineConfig cfg = MachineConfig::Lx2();
  CacheModel cache(cfg);
  CostLedger ledger;
  // L1: 32 KiB, 8-way, 64 sets. Touch 9 lines mapping to the same set.
  const uint64_t set_stride = 64ull * 64ull;  // num_sets * line
  for (int i = 0; i < 9; ++i) {
    cache.Touch(i * set_stride, ledger);
  }
  // First line was evicted from L1 but still sits in the (bigger) L2.
  const double penalty = cache.Touch(0, ledger);
  EXPECT_DOUBLE_EQ(penalty, cfg.l2.hit_penalty_cycles);
  EXPECT_GT(ledger.counters().l2_hits, 0u);
}

TEST(CacheModel, TouchRangeCountsEveryLine) {
  const MachineConfig cfg = MachineConfig::Lx2();
  CacheModel cache(cfg);
  CostLedger ledger;
  cache.TouchRange(0, 64 * 4, ledger);  // exactly 4 lines
  EXPECT_EQ(ledger.counters().l1_misses, 4u);
  cache.TouchRange(32, 64, ledger);  // straddles two (now hot) lines
  EXPECT_EQ(ledger.counters().l1_hits, 2u);
}

TEST(CacheModel, ResetColdsTheCache) {
  const MachineConfig cfg = MachineConfig::Lx2();
  CacheModel cache(cfg);
  CostLedger ledger;
  cache.Touch(0x40, ledger);
  cache.Reset();
  EXPECT_GT(cache.Touch(0x40, ledger), 0.0);
}

TEST(MemMap, TranslateIsStableAndDistinct) {
  MemMap map;
  std::vector<double> a(100), b(100);
  map.Register(a.data(), a.size() * sizeof(double));
  map.Register(b.data(), b.size() * sizeof(double));
  const uint64_t a0 = map.Translate(a.data());
  const uint64_t a5 = map.Translate(a.data() + 5);
  const uint64_t b0 = map.Translate(b.data());
  EXPECT_EQ(a5 - a0, 5 * sizeof(double));
  EXPECT_NE(a0, b0);
  // Logical layout is allocation-order deterministic: first region at the
  // first page.
  EXPECT_EQ(a0, 4096u);
}

TEST(MemMap, ReRegisterSameBaseIsStable) {
  MemMap map;
  std::vector<double> a(100);
  const uint64_t first = map.Register(a.data(), a.size() * sizeof(double));
  const uint64_t second = map.Register(a.data(), a.size() * sizeof(double));
  EXPECT_EQ(first, second);
}

TEST(MemMap, UnregisteredPointerMapsHigh) {
  MemMap map;
  double local = 0.0;
  EXPECT_GE(map.Translate(&local), uint64_t{1} << 46);
}

TEST(HwContext, VectorArithmeticSemantics) {
  HwContext hw;
  const Vec8 a = Vec8::Splat(2.0);
  const Vec8 b = Vec8::Splat(3.0);
  const Vec8 c = Vec8::Splat(10.0);
  EXPECT_DOUBLE_EQ(hw.VMul(a, b)[3], 6.0);
  EXPECT_DOUBLE_EQ(hw.VFma(a, b, c)[2], 16.0);
  EXPECT_EQ(hw.ledger().counters().vpu_ops, 2u);
  EXPECT_GT(hw.ledger().TotalCycles(), 0.0);
}

TEST(HwContext, VpuOpsChargesCounterAndCycles) {
  // The charge is exactly n / vpu_pipes, never n * (1.0 / vpu_pipes): at 3
  // pipes the two differ in the last bit for n = 5, 7, 10, ..., which would
  // move the modeled cycles of every kernel that charges through VpuOps.
  for (int pipes : {2, 3}) {
    MachineConfig cfg = MachineConfig::Lx2();
    cfg.vpu_pipes = pipes;
    HwContext hw(cfg);
    for (int n : {1, 5, 7, 24, 45}) {
      hw.ledger().Reset();
      hw.VpuOps(n);
      EXPECT_EQ(hw.ledger().counters().vpu_ops, static_cast<uint64_t>(n));
      EXPECT_EQ(hw.ledger().TotalCycles(), n / static_cast<double>(pipes))
          << "pipes=" << pipes << " n=" << n;
    }
  }
}

TEST(HwContext, LoadStoreRoundTrip) {
  HwContext hw;
  std::vector<double> buf(16, 0.0);
  hw.RegisterRegion(buf.data(), buf.size() * sizeof(double));
  Vec8 v;
  for (int i = 0; i < kVpuLanes; ++i) {
    v[i] = i * 1.5;
  }
  hw.VStore(buf.data(), v);
  const Vec8 r = hw.VLoad(buf.data());
  for (int i = 0; i < kVpuLanes; ++i) {
    EXPECT_DOUBLE_EQ(r[i], i * 1.5);
  }
}

TEST(HwContext, GatherScatterSemantics) {
  HwContext hw;
  std::vector<double> buf(64, 0.0);
  hw.RegisterRegion(buf.data(), buf.size() * sizeof(double));
  const int64_t idx[8] = {0, 8, 16, 24, 32, 40, 48, 56};
  Vec8 v;
  for (int i = 0; i < 8; ++i) {
    v[i] = 100.0 + i;
  }
  hw.VScatter(buf.data(), idx, v, Mask8::All());
  EXPECT_DOUBLE_EQ(buf[8], 101.0);
  const Vec8 g = hw.VGather(buf.data(), idx, Mask8::All());
  EXPECT_DOUBLE_EQ(g[7], 107.0);
  // Masked lanes stay untouched.
  hw.VScatter(buf.data(), idx, Vec8::Splat(-1.0), Mask8::FirstN(2));
  EXPECT_DOUBLE_EQ(buf[0], -1.0);
  EXPECT_DOUBLE_EQ(buf[16], 102.0);
}

TEST(HwContext, MopaMatchesNaiveOuterProduct) {
  HwContext hw;
  Vec8 a, b;
  for (int i = 0; i < 8; ++i) {
    a[i] = i + 1;
    b[i] = 10.0 * i;
  }
  MpuTileReg tile;
  tile.At(0, 0) = 99.0;  // MopaZero overwrites, never accumulates
  hw.MopaZero(tile, a, b);
  hw.Mopa(tile, a, b);  // accumulate a second product
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 8; ++c) {
      EXPECT_DOUBLE_EQ(tile.At(r, c), 2.0 * (r + 1) * (10.0 * c));
    }
  }
  EXPECT_EQ(hw.ledger().counters().mopas, 2u);
  EXPECT_DOUBLE_EQ(hw.ledger().PhaseCycles(Phase::kOther),
                   2.0 * hw.cfg().mopa_issue_cycles);
}

TEST(HwContext, TileReadRowExtractsRow) {
  HwContext hw;
  MpuTileReg tile;
  tile.At(3, 5) = 42.0;
  const Vec8 row = hw.TileReadRow(tile, 3);
  EXPECT_DOUBLE_EQ(row[5], 42.0);
  EXPECT_DOUBLE_EQ(row[0], 0.0);
}

TEST(HwContext, MopaRequiresMpu) {
  HwContext hw(MachineConfig::Lx2VpuOnly());
  MpuTileReg tile;
  Vec8 a = Vec8::Splat(1.0);
  EXPECT_DEATH(hw.Mopa(tile, a, a), "without an MPU");
}

TEST(HwContext, BulkChargeRoofline) {
  HwContext hw;
  const double before = hw.ledger().TotalCycles();
  // Compute-bound: 3200 flops at 32 flops/cycle = 100 cycles.
  hw.ChargeBulk(3200.0, 0.0);
  EXPECT_DOUBLE_EQ(hw.ledger().TotalCycles() - before, 100.0);
  // Memory-bound: 3200 bytes at 16 B/cycle = 200 cycles.
  hw.ChargeBulk(0.0, 3200.0);
  EXPECT_DOUBLE_EQ(hw.ledger().TotalCycles() - before, 300.0);
}

TEST(HwContext, ResetModelZeroesLedgerAndColdsCache) {
  HwContext hw;
  std::vector<double> buf(8, 0.0);
  hw.RegisterRegion(buf.data(), buf.size() * sizeof(double));
  hw.LoadScalar(&buf[0]);
  hw.ResetModel();
  EXPECT_DOUBLE_EQ(hw.ledger().TotalCycles(), 0.0);
  hw.LoadScalar(&buf[0]);
  EXPECT_EQ(hw.ledger().counters().l1_misses, 1u);  // cold again
}

TEST(HwContext, SortedAccessCheaperThanScattered) {
  // The load-bearing property of the whole model: streaming through an array
  // costs less than striding over it, because of the cache.
  HwContext hw;
  std::vector<double> buf(1 << 16, 1.0);  // 512 KiB: fits L2, not L1
  hw.RegisterRegion(buf.data(), buf.size() * sizeof(double));
  // Sequential: every double in order; 7 of 8 touches hit the line in L1.
  for (size_t i = 0; i < buf.size(); ++i) {
    hw.TouchRead(&buf[i], 8);
  }
  const double sequential = hw.ledger().TotalCycles();
  hw.ResetModel();
  // Scattered: same touch count, but hopping 97 lines per access — defeats
  // both the L1 (revisits come after eviction) and the stride prefetcher.
  size_t pos = 0;
  for (size_t i = 0; i < buf.size(); ++i) {
    hw.TouchRead(&buf[pos], 8);
    pos = (pos + 97 * 8) % buf.size();
  }
  const double scattered = hw.ledger().TotalCycles();
  EXPECT_LT(sequential * 1.5, scattered);
}

}  // namespace
}  // namespace mpic
