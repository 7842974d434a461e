// Second-round hardware-model tests: the stride prefetcher, the
// contiguity-aware indexed load, logical address staggering, and the cost
// relationships the calibrated kernels rely on.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/hw/hw_context.h"

namespace mpic {
namespace {

TEST(Prefetcher, SequentialMissesAreDiscounted) {
  HwContext hw;
  std::vector<double> buf(1 << 15, 0.0);  // 256 KiB: misses L1, fits L2
  hw.RegisterRegion(buf.data(), buf.size() * sizeof(double));
  // Touch line starts sequentially: after the first miss the stream tracker
  // predicts every subsequent line.
  const MachineConfig& cfg = hw.cfg();
  double first = 0.0;
  double later = 0.0;
  for (int line = 0; line < 64; ++line) {
    const double before = hw.ledger().TotalCycles();
    hw.TouchRead(&buf[static_cast<size_t>(line) * 8], 8);
    const double cost = hw.ledger().TotalCycles() - before;
    if (line == 0) {
      first = cost;
    } else if (line == 32) {
      later = cost;
    }
  }
  EXPECT_GT(first, cfg.dram_penalty_cycles * 0.9);
  EXPECT_LT(later, cfg.dram_penalty_cycles * cfg.prefetch_factor + 1.0);
}

TEST(Prefetcher, RandomHopsPayFullPenalty) {
  HwContext hw;
  std::vector<double> buf(1 << 15, 0.0);
  hw.RegisterRegion(buf.data(), buf.size() * sizeof(double));
  const MachineConfig& cfg = hw.cfg();
  size_t pos = 0;
  double total = 0.0;
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    const double before = hw.ledger().TotalCycles();
    hw.TouchRead(&buf[pos], 8);
    total += hw.ledger().TotalCycles() - before;
    pos = (pos + 97 * 8) % buf.size();
  }
  // Average per access must be near the undiscounted DRAM penalty.
  EXPECT_GT(total / n, cfg.dram_penalty_cycles * 0.8);
}

TEST(Prefetcher, TracksManyStreamsConcurrently) {
  HwContext hw;
  // 22 interleaved streams (the staging pattern) within the tracker budget.
  const int kStreams = 22;
  std::vector<std::vector<double>> streams(kStreams, std::vector<double>(4096, 0.0));
  for (auto& s : streams) {
    hw.RegisterRegion(s.data(), s.size() * sizeof(double));
  }
  // Warm one line of each stream (allocates trackers), then advance all
  // streams line by line: everything should be predicted.
  for (auto& s : streams) {
    hw.TouchRead(s.data(), 8);
  }
  const double before = hw.ledger().TotalCycles();
  const MachineConfig& cfg = hw.cfg();
  int accesses = 0;
  for (int line = 1; line < 20; ++line) {
    for (auto& s : streams) {
      hw.TouchRead(s.data() + static_cast<size_t>(line) * 8, 8);
      ++accesses;
    }
  }
  const double per_access = (hw.ledger().TotalCycles() - before) / accesses;
  EXPECT_LT(per_access,
            cfg.dram_penalty_cycles * cfg.prefetch_factor + 1.0);
}

TEST(VGatherAuto, ContiguousChargesLikeVectorLoad) {
  HwContext hw;
  std::vector<double> buf(256, 1.5);
  hw.RegisterRegion(buf.data(), buf.size() * sizeof(double));
  // Warm the lines so only issue costs differ.
  for (size_t i = 0; i < buf.size(); i += 8) {
    hw.TouchRead(&buf[i], 64);
  }
  const int64_t contiguous[8] = {16, 17, 18, 19, 20, 21, 22, 23};
  const int64_t scattered[8] = {3, 40, 80, 120, 160, 200, 240, 250};

  const double before_c = hw.ledger().TotalCycles();
  const Vec8 vc = hw.VGatherAuto(buf.data(), contiguous, Mask8::All());
  const double cost_c = hw.ledger().TotalCycles() - before_c;

  const double before_s = hw.ledger().TotalCycles();
  const Vec8 vs = hw.VGatherAuto(buf.data(), scattered, Mask8::All());
  const double cost_s = hw.ledger().TotalCycles() - before_s;

  EXPECT_DOUBLE_EQ(vc[0], 1.5);
  EXPECT_DOUBLE_EQ(vs[7], 1.5);
  EXPECT_LT(cost_c * 2.0, cost_s);  // gather issue dominates the scattered path
  EXPECT_EQ(hw.ledger().counters().gathers, 1u);  // only the scattered one
}

TEST(VGatherAuto, MaskedTailStillContiguous) {
  HwContext hw;
  std::vector<double> buf(64, 2.0);
  hw.RegisterRegion(buf.data(), buf.size() * sizeof(double));
  const int64_t idx[8] = {10, 11, 12, 0, 0, 0, 0, 0};
  const Vec8 v = hw.VGatherAuto(buf.data(), idx, Mask8::FirstN(3));
  EXPECT_DOUBLE_EQ(v[2], 2.0);
  EXPECT_DOUBLE_EQ(v[5], 0.0);  // masked lanes zeroed
  EXPECT_EQ(hw.ledger().counters().gathers, 0u);
}

TEST(MemMap, RegionBasesSpreadAcrossCacheSets) {
  MemMap map;
  std::vector<std::vector<double>> arrays(10, std::vector<double>(1024, 0.0));
  std::vector<uint64_t> sets;
  for (auto& a : arrays) {
    const uint64_t base = map.Register(a.data(), a.size() * sizeof(double));
    sets.push_back((base / 64) % 64);
  }
  // Not all regions may share a set (that was the thrash bug); require at
  // least 5 distinct L1 sets among 10 regions.
  std::sort(sets.begin(), sets.end());
  sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
  EXPECT_GE(sets.size(), 5u);
}

TEST(MemMap, GrownRegionGetsFreshLogicalRange) {
  MemMap map;
  std::vector<double> a(64);
  const uint64_t first = map.Register(a.data(), 64 * sizeof(double));
  // Same base, larger size (models a realloc landing on the same address).
  const uint64_t second = map.Register(a.data(), 128 * sizeof(double));
  EXPECT_NE(first, second);
  EXPECT_EQ(map.Translate(a.data()), second);
}

TEST(MemMap, OverlappingStaleRegionIsDropped) {
  MemMap map;
  auto* raw = new double[256];
  map.Register(raw, 256 * sizeof(double));
  // A "new allocation" overlapping the middle of the stale one.
  const uint64_t base = map.Register(raw + 64, 64 * sizeof(double));
  EXPECT_EQ(map.Translate(raw + 64), base);
  delete[] raw;
}

TEST(CostRelation, MopaBeatsVpuPerFlop) {
  // The architectural premise: one MOPA (128 FLOPs) costs less than the
  // equivalent 8 VPU FMA instructions (8 x 16 FLOPs).
  HwContext hw;
  MpuTileReg tile;
  Vec8 a = Vec8::Splat(1.0);
  const double before_mopa = hw.ledger().TotalCycles();
  hw.Mopa(tile, a, a);
  const double mopa = hw.ledger().TotalCycles() - before_mopa;

  const double before_vpu = hw.ledger().TotalCycles();
  Vec8 acc = Vec8::Zero();
  for (int i = 0; i < 8; ++i) {
    acc = hw.VFma(a, a, acc);
  }
  const double vpu = hw.ledger().TotalCycles() - before_vpu;
  EXPECT_LT(mopa, vpu);
  EXPECT_DOUBLE_EQ(mopa, hw.cfg().mopa_issue_cycles);
}

TEST(CostRelation, SortedKernelPremiseHolds) {
  // Gather issue cost > vector load issue cost: the reason cell-sorted
  // (contiguous) staged access wins.
  const MachineConfig cfg = MachineConfig::Lx2();
  EXPECT_GT(cfg.gather_issue_cycles, cfg.vector_mem_issue_cycles * 4);
}

TEST(LedgerSummary, MentionsCountersAndPhases) {
  HwContext hw;
  hw.ScalarOps(3);
  MpuTileReg tile;
  hw.Mopa(tile, Vec8::Splat(1.0), Vec8::Splat(1.0));
  const std::string s = hw.ledger().Summary();
  EXPECT_NE(s.find("mopa=1"), std::string::npos);
  EXPECT_NE(s.find("scalar=3"), std::string::npos);
  EXPECT_NE(s.find("other="), std::string::npos);
}

// MOPAs issued under Phase::kGather count into both the ledger-wide pair and
// the gather pair; other phases only into the ledger-wide pair. The pair
// merges across workers and shows in the Summary.
TEST(LedgerCounters, GatherMopasCountedApartFromDeposit) {
  HwContext hw;
  MpuTileReg tile;
  {
    PhaseScope phase(hw.ledger(), Phase::kCompute);
    hw.Mopa(tile, Vec8::Splat(1.0), Vec8::Splat(1.0), 32);
  }
  {
    PhaseScope phase(hw.ledger(), Phase::kGather);
    hw.MopaZero(tile, Vec8::Splat(1.0), Vec8::Splat(1.0), 24);
    hw.Mopa(tile, Vec8::Splat(1.0), Vec8::Splat(1.0), 16);
  }
  const LedgerCounters& c = hw.ledger().counters();
  EXPECT_EQ(c.mopas, 3u);
  EXPECT_EQ(c.mopa_valid_slots, 72u);
  EXPECT_EQ(c.gather_mopas, 2u);
  EXPECT_EQ(c.gather_mopa_valid_slots, 40u);
  EXPECT_NE(hw.ledger().Summary().find("gather=2"), std::string::npos);

  CostLedger merged;
  merged.MergeParallel({&hw.ledger(), &hw.ledger()});
  EXPECT_EQ(merged.counters().gather_mopas, 4u);
  EXPECT_EQ(merged.counters().gather_mopa_valid_slots, 80u);
}

TEST(Vec, SplatAndMaskHelpers) {
  const Vec8 v = Vec8::Splat(2.5);
  EXPECT_DOUBLE_EQ(v[0], 2.5);
  EXPECT_DOUBLE_EQ(v[7], 2.5);
  EXPECT_EQ(Mask8::All().PopCount(), 8);
  EXPECT_EQ(Mask8::FirstN(3).PopCount(), 3);
  EXPECT_EQ(Mask8::FirstN(0).PopCount(), 0);
  MpuTileReg t;
  t.At(2, 3) = 1.0;
  t.Zero();
  EXPECT_DOUBLE_EQ(t.At(2, 3), 0.0);
}

}  // namespace
}  // namespace mpic
