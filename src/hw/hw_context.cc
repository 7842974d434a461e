#include "src/hw/hw_context.h"

#include <cmath>

#include "src/common/check.h"

namespace mpic {

HwContext::HwContext(const MachineConfig& cfg)
    : cfg_(cfg),
      cache_(cfg),
      vpu_op_cycles_(1.0 / static_cast<double>(cfg.vpu_pipes)),
      scalar_op_cycles_(1.0 / cfg.scalar_ops_per_cycle) {}

void HwContext::ResetModel() {
  ledger_.Reset();
  cache_.Reset();
  for (auto& w : workers_) {
    w->ResetModel();
  }
  for (auto& r : ranks_) {
    r->ResetModel();
  }
}

void HwContext::FlushModelCaches() {
  cache_.Reset();
  for (auto& w : workers_) {
    w->FlushModelCaches();
  }
  for (auto& r : ranks_) {
    r->FlushModelCaches();
  }
}

HwContext& HwContext::rank(int r) {
  MPIC_CHECK(r >= 0 && r < num_ranks());
  while (static_cast<int>(ranks_.size()) <= r) {
    // A rank is a full node minus the rank dimension: it fans out over its own
    // cores but never over further ranks.
    MachineConfig node_cfg = cfg_;
    node_cfg.num_ranks = 1;
    ranks_.push_back(std::make_unique<HwContext>(node_cfg));
  }
  return *ranks_[static_cast<size_t>(r)];
}

HwContext& HwContext::worker(int w) {
  MPIC_CHECK(w >= 0 && w < num_cores());
  while (static_cast<int>(workers_.size()) <= w) {
    // Workers never fan out further themselves: their config models one core.
    MachineConfig core_cfg = cfg_;
    core_cfg.num_cores = 1;
    workers_.push_back(std::make_unique<HwContext>(core_cfg));
    workers_.back()->numa_domain_ = NumaDomainOfWorker(
        static_cast<int>(workers_.size()) - 1, num_cores(),
        cfg_.num_numa_domains);
  }
  return *workers_[static_cast<size_t>(w)];
}

void HwContext::ChargeMem(const void* p, size_t bytes, double issue_cycles,
                          bool write, uint64_t count_as_vpu_mem) {
  (void)write;  // the model charges reads and writes identically
  const MemLocation loc = mem_.TranslateEx(p);
  const double penalty = cache_.TouchRange(loc.addr, bytes, ledger_, IsRemote(loc));
  ledger_.AddCycles(issue_cycles + penalty);
  if (count_as_vpu_mem != 0) {
    ledger_.counters().vpu_mem += count_as_vpu_mem;
  } else {
    ++ledger_.counters().scalar_mem;
  }
}

// ---- Scalar stream ---------------------------------------------------------

void HwContext::ScalarOps(int n) {
  ledger_.counters().scalar_ops += static_cast<uint64_t>(n);
  ledger_.AddCycles(scalar_op_cycles_ * n);
}

double HwContext::LoadScalar(const double* p) {
  ChargeMem(p, sizeof(double), cfg_.scalar_mem_issue_cycles, /*write=*/false, 0);
  return *p;
}

void HwContext::StoreScalar(double* p, double v) {
  ChargeMem(p, sizeof(double), cfg_.scalar_mem_issue_cycles, /*write=*/true, 0);
  *p = v;
}

void HwContext::AccumScalar(double* p, double v) {
  // Load + add + store; the line is touched once (it stays in L1 for the RMW).
  ChargeMem(p, sizeof(double), 2.0 * cfg_.scalar_mem_issue_cycles, /*write=*/true, 0);
  ScalarOps(1);
  *p += v;
}

void HwContext::TouchRead(const void* p, size_t bytes) {
  ChargeMem(p, bytes, cfg_.scalar_mem_issue_cycles, /*write=*/false, 0);
}

void HwContext::TouchWrite(const void* p, size_t bytes) {
  ChargeMem(p, bytes, cfg_.scalar_mem_issue_cycles, /*write=*/true, 0);
}

// ---- VPU stream ------------------------------------------------------------

Vec8 HwContext::VLoad(const double* p) {
  ChargeMem(p, sizeof(double) * kVpuLanes, cfg_.vector_mem_issue_cycles,
            /*write=*/false, 1);
  Vec8 r;
  for (int i = 0; i < kVpuLanes; ++i) {
    r[i] = p[i];
  }
  return r;
}

void HwContext::VLoadLanes(const double* p, int lane0, int n, Vec8& dst) {
  MPIC_DCHECK(lane0 >= 0 && n >= 1 && lane0 + n <= kVpuLanes);
  ChargeMem(p, sizeof(double) * static_cast<size_t>(n),
            cfg_.vector_mem_issue_cycles, /*write=*/false, 1);
  for (int i = 0; i < n; ++i) {
    dst[lane0 + i] = p[i];
  }
}

void HwContext::VStore(double* p, const Vec8& v) {
  ChargeMem(p, sizeof(double) * kVpuLanes, cfg_.vector_mem_issue_cycles,
            /*write=*/true, 1);
  for (int i = 0; i < kVpuLanes; ++i) {
    p[i] = v[i];
  }
}

Vec8 HwContext::VGather(const double* base, const int64_t* idx, const Mask8& m) {
  ++ledger_.counters().gathers;
  ledger_.AddCycles(cfg_.gather_issue_cycles);
  Vec8 r = Vec8::Zero();
  for (int i = 0; i < kVpuLanes; ++i) {
    if (!m.lane[static_cast<size_t>(i)]) {
      continue;
    }
    const double* p = base + idx[i];
    const MemLocation loc = mem_.TranslateEx(p);
    ledger_.AddCycles(
        cache_.TouchRange(loc.addr, sizeof(double), ledger_, IsRemote(loc)));
    r[i] = *p;
  }
  return r;
}

Vec8 HwContext::VGatherAuto(const double* base, const int64_t* idx, const Mask8& m) {
  int active = 0;
  bool contiguous = true;
  for (int i = 0; i < kVpuLanes; ++i) {
    if (!m.lane[static_cast<size_t>(i)]) {
      continue;
    }
    if (active > 0 && idx[i] != idx[0] + i) {
      contiguous = false;
    }
    ++active;
  }
  if (!contiguous || active == 0) {
    return VGather(base, idx, m);
  }
  // One masked vector load.
  ChargeMem(base + idx[0], sizeof(double) * static_cast<size_t>(active),
            cfg_.vector_mem_issue_cycles, /*write=*/false, 1);
  Vec8 r = Vec8::Zero();
  for (int i = 0; i < kVpuLanes; ++i) {
    if (m.lane[static_cast<size_t>(i)]) {
      r[i] = base[idx[i]];
    }
  }
  return r;
}

void HwContext::VScatter(double* base, const int64_t* idx, const Vec8& v,
                         const Mask8& m) {
  ++ledger_.counters().scatters;
  ledger_.AddCycles(cfg_.gather_issue_cycles);
  for (int i = 0; i < kVpuLanes; ++i) {
    if (!m.lane[static_cast<size_t>(i)]) {
      continue;
    }
    double* p = base + idx[i];
    const MemLocation loc = mem_.TranslateEx(p);
    ledger_.AddCycles(
        cache_.TouchRange(loc.addr, sizeof(double), ledger_, IsRemote(loc)));
    *p = v[i];
  }
}

void HwContext::VScatterAccum(double* base, const int64_t* idx, const Vec8& v,
                              const Mask8& m) {
  ++ledger_.counters().scatters;
  ledger_.AddCycles(cfg_.gather_issue_cycles + vpu_op_cycles_);
  for (int i = 0; i < kVpuLanes; ++i) {
    if (!m.lane[static_cast<size_t>(i)]) {
      continue;
    }
    double* p = base + idx[i];
    const MemLocation loc = mem_.TranslateEx(p);
    ledger_.AddCycles(
        cache_.TouchRange(loc.addr, sizeof(double), ledger_, IsRemote(loc)));
    *p += v[i];
  }
}

Vec8 HwContext::VMul(const Vec8& a, const Vec8& b) {
  ++ledger_.counters().vpu_ops;
  ledger_.AddCycles(vpu_op_cycles_);
  Vec8 r;
  for (int i = 0; i < kVpuLanes; ++i) {
    r[i] = a[i] * b[i];
  }
  return r;
}

Vec8 HwContext::VFma(const Vec8& a, const Vec8& b, const Vec8& c) {
  ++ledger_.counters().vpu_ops;
  ledger_.AddCycles(vpu_op_cycles_);
  Vec8 r;
  for (int i = 0; i < kVpuLanes; ++i) {
    r[i] = std::fma(a[i], b[i], c[i]);
  }
  return r;
}

// ---- MPU stream ------------------------------------------------------------

void HwContext::CountMopa(int valid_slots) {
  LedgerCounters& c = ledger_.counters();
  ++c.mopas;
  c.mopa_valid_slots += static_cast<uint64_t>(valid_slots);
  if (ledger_.phase() == Phase::kGather) {
    ++c.gather_mopas;
    c.gather_mopa_valid_slots += static_cast<uint64_t>(valid_slots);
  }
  ledger_.AddCycles(cfg_.mopa_issue_cycles);
}

void HwContext::Mopa(MpuTileReg& tile, const Vec8& a, const Vec8& b,
                     int valid_slots) {
  MPIC_CHECK_MSG(cfg_.has_mpu, "MPU kernel executed on a machine without an MPU");
  CountMopa(valid_slots);
  for (int r = 0; r < kMpuTile; ++r) {
    for (int c = 0; c < kMpuTile; ++c) {
      tile.At(r, c) = std::fma(a[r], b[c], tile.At(r, c));
    }
  }
}

void HwContext::MopaZero(MpuTileReg& tile, const Vec8& a, const Vec8& b,
                         int valid_slots) {
  MPIC_CHECK_MSG(cfg_.has_mpu, "MPU kernel executed on a machine without an MPU");
  CountMopa(valid_slots);
  for (int r = 0; r < kMpuTile; ++r) {
    for (int c = 0; c < kMpuTile; ++c) {
      tile.At(r, c) = a[r] * b[c];
    }
  }
}

Vec8 HwContext::TileReadRow(const MpuTileReg& tile, int row) {
  MPIC_CHECK_MSG(cfg_.has_mpu, "MPU kernel executed on a machine without an MPU");
  ledger_.AddCycles(cfg_.mpu_vpu_transfer_cycles);
  Vec8 r;
  for (int c = 0; c < kMpuTile; ++c) {
    r[c] = tile.At(row, c);
  }
  return r;
}

// ---- Bulk accounting -------------------------------------------------------

void HwContext::ChargeSteal(bool remote) {
  double cycles = cfg_.steal_cost_cycles + cfg_.dram_penalty_cycles;
  if (remote) {
    cycles = cfg_.steal_cost_cycles * cfg_.remote_mem_latency_factor +
             cfg_.remote_line_transfer_cycles + cfg_.dram_penalty_cycles;
  }
  PhaseScope phase(ledger_, Phase::kOther);
  ledger_.AddCycles(cycles);
  ledger_.counters().tasks_stolen += 1;
  if (remote) ledger_.counters().tasks_stolen_remote += 1;
  ledger_.counters().steal_cycles += cycles;
}

void HwContext::ChargeBulk(double flops, double bytes) {
  const double compute_cycles = flops / cfg_.VpuPeakFlopsPerCycle();
  const double mem_cycles = bytes / cfg_.stream_bytes_per_cycle;
  ledger_.AddCycles(compute_cycles > mem_cycles ? compute_cycles : mem_cycles);
}

}  // namespace mpic
