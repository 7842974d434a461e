// Machine description for the modeled CPU (the paper's "LX2") and its memory
// hierarchy. All deposition / sorting kernels execute through this model: the
// arithmetic is real FP64, while the cycle costs come from these parameters.
//
// The parameters marked "Sec. 5.1" encode the facts the paper states about the
// LX2: 512-bit FP64 VPUs, 8x8 FP64 MPU tiles, MOPA at ~4x the FLOP rate of the
// VPU MLA instruction, >=1.3 GHz clock. The cache and penalty numbers are
// conventional values for a server-class core; they are knobs of the model, not
// claims about the real chip.

#ifndef MPIC_SRC_HW_MACHINE_CONFIG_H_
#define MPIC_SRC_HW_MACHINE_CONFIG_H_

#include <cstddef>
#include <cstdint>

namespace mpic {

// Number of FP64 lanes in one VPU vector register (512 bits).
inline constexpr int kVpuLanes = 8;
// MPU tile is kMpuTile x kMpuTile FP64 accumulators.
inline constexpr int kMpuTile = 8;
// Cache line size in bytes (one VPU vector).
inline constexpr int kCacheLineBytes = 64;

struct CacheLevelConfig {
  size_t size_bytes = 0;
  int ways = 0;
  // Effective extra cycles charged when an access is served by this level
  // (values are post-overlap estimates for an out-of-order core, not raw
  // load-to-use latencies).
  double hit_penalty_cycles = 0.0;
};

// How tile-parallel fan-outs (src/hw/parallel_for.h) map positions to the
// modeled cores.
enum class TileSchedulePolicy : int {
  // Fixed contiguous block split over the cores (the seed model). Optimal for
  // uniform workloads, pathological for clumped ones: the core owning the
  // dense tiles carries the whole critical path.
  kStatic = 0,
  // Cost-guided task queues: positions are ordered by per-tile cycle
  // estimates fed back from the previous step, assigned greedily to the
  // least-loaded core (longest-processing-time), and idle cores steal from
  // the tail of the most-loaded queue, paying steal_cost_cycles plus one
  // remote-queue line per steal. The whole schedule — assignment and steal
  // sequence — is computed from the estimates alone (src/hw/tile_scheduler.h),
  // so it is bit-deterministic and independent of OpenMP timing.
  kCostSteal = 1,
};

struct MachineConfig {
  // --- Core (Sec. 5.1) ---
  double freq_ghz = 1.3;
  // Modeled core count. Tile-parallel stages (gather/push, boundaries, the
  // per-tile sort scan, deposition staging + kernel) are partitioned statically
  // over this many cores, each with a private ledger and cache; region cycles
  // merge into the main ledger as the critical path (max over cores) with
  // event counters summed. 1 reproduces the single-core seed model exactly.
  int num_cores = 1;
  // Scalar ALU micro-ops retired per cycle (superscalar width for the modeled
  // non-SIMD instruction stream).
  double scalar_ops_per_cycle = 3.0;
  // VPU FMA pipes; each pipe retires one 8-lane FP64 instruction per cycle.
  int vpu_pipes = 2;
  // Cycles between successive MOPA issues on one MPU pipe. One MOPA performs
  // kMpuTile^2 = 64 FMAs; at an issue interval of 2 this is 64 FMA / 2 cycles
  // = 32 FMA/cycle = 4x the 8 FMA/cycle of a single VPU MLA pipe (Sec. 5.1).
  double mopa_issue_cycles = 2.0;
  // Cycles to move one vector register between the MPU tile file and the VPU
  // register file (tile row extraction).
  double mpu_vpu_transfer_cycles = 1.0;

  // --- Memory issue costs ---
  // Port cost of one scalar load/store (two AGU/store ports plus store
  // forwarding make scalar memory ops cheaper than half a cycle each).
  double scalar_mem_issue_cycles = 0.25;
  // Port cost of one contiguous vector load/store.
  double vector_mem_issue_cycles = 0.5;
  // Issue cost of an 8-lane gather/scatter instruction (microcoded).
  double gather_issue_cycles = 4.0;
  // Fork/join cost of one tile-parallel region (thread wake-up + barrier),
  // charged once per fan-out on the main ledger when num_cores > 1. Makes the
  // modeled cost of a step depend on how many separate sweeps it launches —
  // the fused two-pass pipeline pays it twice per species.
  double parallel_region_fork_join_cycles = 400.0;

  // --- Memory hierarchy ---
  CacheLevelConfig l1{32 * 1024, 8, 0.0};
  CacheLevelConfig l2{1024 * 1024, 16, 4.0};
  // Effective post-overlap DRAM penalty per missing line.
  double dram_penalty_cycles = 35.0;
  // Hardware stride prefetcher: number of tracked streams and the residual
  // fraction of the miss penalty paid when a line was predicted (sequential
  // next-line access within a tracked stream).
  int prefetch_streams = 32;
  double prefetch_factor = 0.15;
  // Sustainable streaming bandwidth per core, used only by bulk (roofline)
  // accounting for regular stencil sweeps.
  double stream_bytes_per_cycle = 16.0;

  // --- Multi-rank model ---
  // Modeled rank count. At > 1 the global grid shards into contiguous z-slab
  // domains of tiles (src/hw/rank_topology.h); each rank owns `num_cores`
  // cores with private caches, ledgers, and a private MemMap one level out
  // from the core model. Tile-parallel regions fan out rank-first, then
  // core-within-rank; inter-rank traffic (field/J halo exchange, particle
  // migration) is charged under Phase::kComm via the link parameters below.
  // 1 reproduces the single-rank model exactly.
  int num_ranks = 1;
  // Fixed per-message latency of the modeled inter-rank link (software stack
  // + wire), in core cycles.
  double rank_link_latency_cycles = 600.0;
  // Sustained link bandwidth in bytes per core cycle (~10 GB/s at 1.3 GHz —
  // a commodity interconnect, deliberately slower than the
  // stream_bytes_per_cycle memory path).
  double rank_link_bytes_per_cycle = 8.0;

  // --- NUMA model ---
  // Number of NUMA domains the modeled cores split into (contiguous split,
  // like the rank split of tiles: NumaDomainOfWorker below). Each MemMap
  // region carries a home domain (first-touch at registration by the
  // registering worker's domain; tile-owned SoA/scratch is re-homed to the
  // tile's scheduled owner each step). A cache miss that goes to DRAM in a
  // non-local home domain pays remote_mem_latency_factor on the miss penalty,
  // counted in the remote_lines / remote_cycles ledger counters. 1 reproduces
  // the flat-memory model exactly.
  int num_numa_domains = 1;
  // Multiplier on the DRAM miss penalty for a line homed in another domain
  // (typical 1.5-2x for a two-socket interconnect hop). Also multiplies
  // steal_cost_cycles for a cross-domain steal.
  double remote_mem_latency_factor = 2.0;
  // Extra cycles per cross-domain steal: the migrated task descriptor's line
  // crosses the interconnect once (on top of the dram_penalty_cycles every
  // steal pays for the queue entry).
  double remote_line_transfer_cycles = 60.0;

  // --- Tile scheduling ---
  // How tile-parallel regions map positions to cores; see TileSchedulePolicy.
  TileSchedulePolicy tile_schedule = TileSchedulePolicy::kStatic;
  // Modeled cost of one successful steal under kCostSteal: CAS on the victim's
  // deque tail plus the coherence round-trip to pull the task descriptor. The
  // thief additionally pays one remote line (dram_penalty_cycles) for the
  // migrated queue entry; both are charged on the thief's ledger under
  // Phase::kOther and counted in tasks_stolen / steal_cycles. Stealing across
  // a NUMA domain boundary costs steal_cost_cycles * remote_mem_latency_factor
  // + remote_line_transfer_cycles instead.
  double steal_cost_cycles = 120.0;
  // Under kCostSteal, bias the LPT assignment toward each tile's previous
  // owner (then toward the previous owner's NUMA domain) whenever the choice
  // stays within one planner cost bucket of the least-loaded worker. Keeps a
  // tile's pages and cached lines where they already are; false restores the
  // owner-oblivious PR 8 assignment (the naive-LPT ablation arm).
  bool sticky_placement = true;

  // Peak FP64 FLOP/s of the VPU complex on one core: pipes * lanes * 2 (FMA).
  double VpuPeakFlopsPerCycle() const {
    return static_cast<double>(vpu_pipes) * kVpuLanes * 2.0;
  }
  // Peak FP64 FLOP/s of the MPU on one core: one tile of FMAs per issue.
  double MpuPeakFlopsPerCycle() const {
    return kMpuTile * kMpuTile * 2.0 / mopa_issue_cycles;
  }
  // Theoretical peak used for efficiency accounting: the MPU path (the paper
  // computes "% of theoretical peak" against the unit actually targeted).
  double PeakFlopsPerCycle() const { return MpuPeakFlopsPerCycle(); }

  double CyclesToSeconds(double cycles) const { return cycles / (freq_ghz * 1e9); }

  // The modeled LX2 core (defaults above).
  static MachineConfig Lx2() { return MachineConfig{}; }

  // An LX2 chip with `cores` identical cores (shared machine parameters,
  // private per-core caches in the model).
  static MachineConfig Lx2MultiCore(int cores) {
    MachineConfig cfg;
    cfg.num_cores = cores;
    return cfg;
  }

  // An LX2 chip with `cores` cores and the cost-guided work-stealing tile
  // scheduler instead of the static partition.
  static MachineConfig Lx2MultiCoreStealing(int cores) {
    MachineConfig cfg;
    cfg.num_cores = cores;
    cfg.tile_schedule = TileSchedulePolicy::kCostSteal;
    return cfg;
  }

  // An LX2 node with `cores` cores split over `domains` NUMA domains, running
  // the cost-guided work-stealing scheduler (the configuration where placement
  // matters; kStatic callers can flip tile_schedule back).
  static MachineConfig Lx2MultiCoreNuma(int cores, int domains) {
    MachineConfig cfg;
    cfg.num_cores = cores;
    cfg.num_numa_domains = domains;
    cfg.tile_schedule = TileSchedulePolicy::kCostSteal;
    return cfg;
  }

  // A modeled cluster of `ranks` LX2 nodes, each with `cores` cores;
  // `stealing` selects the cost-guided work-stealing tile scheduler inside
  // each rank.
  static MachineConfig Lx2Cluster(int ranks, int cores, bool stealing = false) {
    MachineConfig cfg;
    cfg.num_ranks = ranks;
    cfg.num_cores = cores;
    if (stealing) {
      cfg.tile_schedule = TileSchedulePolicy::kCostSteal;
    }
    return cfg;
  }

  // A VPU-only machine: identical except kernels may not use the MPU. Used by
  // tests to confirm MPU kernels fail loudly without an MPU.
  static MachineConfig Lx2VpuOnly() {
    MachineConfig cfg;
    cfg.has_mpu = false;
    return cfg;
  }

  bool has_mpu = true;
};

// NUMA domain of a node-local worker id: the cores split contiguously over
// the domains with the remainder spread over the leading domains, mirroring
// how tiles split over ranks (WorkerTileRange). Degenerate inputs (one
// domain, one core, more domains than cores) clamp sanely so call sites can
// use it unconditionally.
inline int NumaDomainOfWorker(int worker, int num_cores, int num_domains) {
  if (num_domains <= 1 || num_cores <= 1 || worker <= 0) return 0;
  if (num_domains > num_cores) num_domains = num_cores;
  if (worker >= num_cores) worker = num_cores - 1;
  const int base = num_cores / num_domains;
  const int extra = num_cores % num_domains;
  const int leading = extra * (base + 1);
  if (worker < leading) return worker / (base + 1);
  return extra + (worker - leading) / base;
}

}  // namespace mpic

#endif  // MPIC_SRC_HW_MACHINE_CONFIG_H_
