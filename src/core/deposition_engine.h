// DepositionEngine: the MatrixPIC framework proper (paper Algorithm 1),
// exposed as composable per-tile pipeline stages.
//
// Per timestep a caller (core/step_pipeline.h) drives, per tile,
//   ScanTile            — incremental sort preparation: detect particles whose
//                         cell changed (including tile leavers), apply pending
//                         moves to the GPMA (O(1) amortized), rebuild a tile's
//                         GPMA when insertion pressure demands;
//   [barrier] DeliverMovers / PostScanGlobalSort — serial, order-preserving
//                         cross-tile delivery (and, for the global-sort-each-
//                         step variant, the per-tile counting sort);
//   StageAndDepositTile — staging + the configured deposition kernel (or, in
//                         CurrentScheme::kEsirkepov, the staged
//                         charge-conserving kernel into the per-tile
//                         TileCurrent scratch);
//   ReduceTile          — rhocell / Esirkepov-scratch reduction onto the
//                         global J arrays, run color class by color class
//                         (reduce_coloring());
// and FinishStep evaluates the adaptive global re-sorting policy (Sec. 4.4),
// performing GlobalSortParticlesByCell when a trigger fires.
//
// Every stage touches only tile-private state until the serial barriers, and
// the reduction visits color classes in a fixed order, so the result does not
// depend on how many cores run the tile stages.
//
// Every cost is charged to the active HwContext under the paper's phases, so a
// bench can read Total/Preproc/Compute/Sort/Reduce straight off the ledger.

#ifndef MPIC_SRC_CORE_DEPOSITION_ENGINE_H_
#define MPIC_SRC_CORE_DEPOSITION_ENGINE_H_

#include <cstdint>
#include <vector>

#include "src/core/deposit_variant.h"
#include "src/deposit/deposit_params.h"
#include "src/deposit/esirkepov.h"
#include "src/deposit/rhocell.h"
#include "src/grid/field_set.h"
#include "src/hw/hw_context.h"
#include "src/particles/tile_set.h"
#include "src/sort/resort_policy.h"

namespace mpic {

class RankSet;  // src/hw/rank_topology.h

struct EngineConfig {
  DepositVariant variant = DepositVariant::kFullOpt;
  int order = 1;  // 1 (CIC), 2 (TSC: scalar/baseline only), 3 (QSP)
  // Physics of the J deposition, orthogonal to the variant: kDirect runs the
  // variant's own kernel (q*v*S); kEsirkepov replaces it with the staged
  // charge-conserving tile kernel (src/deposit/esirkepov.h) while keeping the
  // variant's sort machinery, staging cost profile, and re-sort policy.
  // kEsirkepov supports every order 1-3 with any variant; on MPU variants the
  // combine runs on the MOPA kernel (src/deposit/esirkepov_mpu.h).
  CurrentScheme current_scheme = CurrentScheme::kDirect;
  GpmaConfig gpma;
  ResortPolicyConfig policy;
};

struct EngineStepStats {
  int64_t moved_particles = 0;
  int64_t crossed_tiles = 0;
  int64_t gpma_rebuilds = 0;
  bool global_sorted = false;
  SortDecision decision = SortDecision::kNoSort;
};

// Models a stage's re-read of the x/y/z position streams: one batched vector
// load per kVpuLanes slots. Pass 1 runs the boundary and scan stages right
// after the push that wrote these lines, so the cache model sees them still
// resident. Shared by the sort scan and the boundary stage so the two
// stages' accounting can never drift apart.
void TouchPositionStreams(HwContext& hw, const ParticleSoA& soa, int32_t n_slots);

// Models a read-modify-write sweep of the old-position lanes (one batched
// vector load + store per kVpuLanes slots per axis). Shared by the capture
// stage and the boundary wrap so the old-lane accounting cannot drift apart.
void TouchOldPositionStreams(HwContext& hw, ParticleSoA& soa, int32_t n_slots);

// Per-worker partial of the scan stage. Tile-parallel callers keep one slot
// per worker and fold the totals into EngineStepStats with AccumulateScan
// after the region (worker order is fixed, so the fold is deterministic).
struct TileScanPartial {
  int64_t crossed = 0;
  int64_t moved = 0;
  int64_t rebuilds = 0;
};

class DepositionEngine {
 public:
  DepositionEngine(HwContext& hw, const EngineConfig& config);

  // One-time setup: global sort, GPMA build, region registration, reduction
  // coloring. Also used to re-initialize between bench configurations.
  void Initialize(TileSet& tiles, FieldSet& fields);

  // ---- Per-tile pipeline stages -------------------------------------------
  //
  // Protocol per timestep: BeginStep once; ScanTile for every tile (tiles may
  // run concurrently — all mutations are tile-private); DeliverMovers then
  // PostScanGlobalSort as serial barriers; StageAndDepositTile for every tile
  // (concurrently only for rhocell-backed variants — see
  // deposit_is_tile_parallel); ReduceTile for every tile, color class by
  // color class; FinishStep once. J must be zeroed by the caller before the
  // first StageAndDepositTile of a step (Simulation does).

  // Sizes the per-tile mover staging for this step and records the step dt
  // (consumed by the Esirkepov scheme; callers running kDirect may omit it).
  void BeginStep(TileSet& tiles, double dt = 0.0);

  // Pass-1 scan of one tile: recompute cells, apply within-tile GPMA moves,
  // stage tile leavers for ordered delivery. For unsorted variants this is
  // the plain redistribute scan. Charges `hw` (pass a worker context when
  // tile-parallel).
  void ScanTile(HwContext& hw, TileSet& tiles, int t, TileScanPartial* partial);

  // Folds one worker's scan partial into the step stats and the rank-wide
  // sort statistics. Call once per worker slot, in worker order.
  void AccumulateScan(const TileScanPartial& partial, EngineStepStats* stats);

  // Serial barrier: delivers cross-tile movers in source-tile order, so
  // destination slot assignment never depends on the parallel schedule.
  void DeliverMovers(TileSet& tiles, EngineStepStats* stats);

  // Serial barrier for SortMode::kGlobalEachStep: the full per-tile counting
  // sort (tile ownership is already current after DeliverMovers). No-op for
  // the other sort modes.
  void PostScanGlobalSort(TileSet& tiles, FieldSet& fields, EngineStepStats* stats);

  // Serial pre-pass before a tile-parallel deposit region: (re)registers the
  // tiles' SoA/scratch with the MAIN context, whose map the workers snapshot.
  // Worker-local registrations are dropped when the next region refreshes the
  // snapshot, so arrays that (re)allocated since the last step (mover
  // delivery, window injection) would otherwise fall back to nondeterministic
  // identity mapping. `home_domains` (optional, one entry per tile, -1 =
  // leave) re-homes each tile's regions to its scheduled owner's NUMA domain
  // while registering (see ScopedHomeDomain).
  void RefreshTileRegistrations(TileSet& tiles,
                                const std::vector<int>* home_domains = nullptr);

  // Replays the engine's full region-registration sequence (field arrays,
  // per-tile staging, rhocell blocks, Esirkepov scratch) against the current
  // address map — the engine-level slice of Simulation::ModelSyncPoint()'s
  // deterministic layout rebuild after MemMap::Clear(). Re-sizes every tile's
  // scratch from the current particle storage first, so the registered byte
  // counts (and with them the whole logical layout) are a pure function of
  // simulation state, not of this run's resize history.
  void ReregisterModelRegions(TileSet& tiles, FieldSet& fields);

  // Pass-2 stage of one tile: staging + the configured deposition kernel for
  // a species of the given charge [C]. Rhocell-backed kernels and the
  // Esirkepov scheme write only tile-private staging and scratch blocks and
  // may run tile-parallel; the direct kBaselineScatter/kScalarReference
  // kernels scatter straight into shared J and must be called serially
  // (deposit_is_tile_parallel() distinguishes them).
  void StageAndDepositTile(HwContext& hw, TileSet& tiles, FieldSet& fields,
                           double charge, int t);

  // Reduces one tile's scratch — rhocell blocks, or the Esirkepov TileCurrent
  // — onto the global J arrays (no-op for direct non-rhocell variants). Tiles
  // of one reduce_coloring() class have disjoint node footprints and may run
  // concurrently; classes must run as sequential barriers, in class order,
  // for the accumulation order onto shared nodes to be schedule-independent.
  void ReduceTile(HwContext& hw, TileSet& tiles, FieldSet& fields, int t);

  // Updates rank statistics from this step's deposition cycles and evaluates
  // the global re-sorting policy, sorting now if a trigger fires.
  void FinishStep(TileSet& tiles, FieldSet& fields, double step_cycles,
                  EngineStepStats* stats);

  // Folds the periodic guard contributions of jx/jy/jz into the interior and
  // charges the reduction to the ledger (Phase::kReduce).
  static void FoldCurrentGuards(HwContext& hw, FieldSet& fields);

  // Registers a freshly added particle with the sorting structures (moving
  // window injection). The particle must already be inside its tile. Charges
  // `hw` — tile-parallel injection passes its worker context (the GPMA insert
  // touches only the destination tile's structures) and a per-worker rebuild
  // counter (nullable), folded back with AccumulateInjectionRebuilds in
  // worker order.
  void NotifyParticleAdded(HwContext& hw, TileSet& tiles, int tile_index,
                           int32_t pid, int64_t* rebuilds);
  void AccumulateInjectionRebuilds(int64_t rebuilds);

  // Removes a particle (absorbed / left the window), charging `hw` —
  // tile-parallel callers pass their worker context (all mutations stay
  // tile-private), serial callers the engine's own.
  void RemoveParticle(HwContext& hw, TileSet& tiles, int tile_index, int32_t pid);

  // Forces GlobalSortParticlesByCell on every tile now.
  void GlobalSort(TileSet& tiles);

  const EngineConfig& config() const { return config_; }
  const VariantTraits& traits() const { return traits_; }
  // True when the engine runs the charge-conserving Esirkepov current scheme.
  bool esirkepov() const {
    return config_.current_scheme == CurrentScheme::kEsirkepov;
  }
  // True when StageAndDepositTile may run tile-parallel (the kernel
  // accumulates into tile-private rhocell blocks or the Esirkepov TileCurrent
  // instead of shared J).
  bool deposit_is_tile_parallel() const {
    return traits_.uses_rhocell || esirkepov();
  }
  // Halo-disjoint color classes of the scratch -> J reduction (empty when no
  // reduction runs). Computed once at Initialize; the moving window keeps
  // tile boxes fixed in index space, so the schedule never changes. The halo
  // is the reach of the active scheme: RhocellHaloNodes for direct rhocell
  // kernels, the wider EsirkepovHaloNodes for the Esirkepov scheme.
  const std::vector<std::vector<int>>& reduce_coloring() const {
    return reduce_coloring_;
  }
  const RankSortStats& rank_stats() const { return rank_stats_; }
  int64_t total_global_sorts() const { return total_global_sorts_; }

  // ---- Multi-rank hooks (src/hw/rank_topology.h) ---------------------------

  // Attaches the modeled rank decomposition. While attached, DeliverMovers
  // counts the cross-tile movers whose source and destination tiles live on
  // different ranks — the particles a real cluster would serialize over the
  // link — per source rank. StepPipeline feeds the counts to
  // RankComm::ChargeMigration. Pass nullptr to detach.
  void AttachRankSet(const RankSet* ranks);
  // Per-source-rank cross-rank mover counts of the current/last step (reset
  // by BeginStep; empty when no RankSet is attached).
  const std::vector<int64_t>& cross_rank_movers_last_step() const {
    return cross_rank_movers_;
  }

  // ---- Resilience hooks (src/runtime/) -------------------------------------

  // Checkpoint restore: reinstates the complete re-sort policy state — the
  // physics-driven inputs (steps since sort, accumulated rebuilds), the
  // adaptive throughput pair driving the performance trigger, and the
  // lifetime sort count. Together with the checkpoint model-sync protocol
  // (runtime/checkpoint.h) this makes restart bit-exact with every trigger
  // enabled: the saving run and the restored run see identical baselines and
  // identical post-sync modeled throughput, so the trigger fires on the same
  // steps.
  void RestoreSortState(const RankSortStats& stats, int64_t total_global_sorts);

  // Fault-injection hook (src/runtime/fault_injection.h): discards tile `t`'s
  // staged cross-tile movers between the scan and DeliverMovers, modeling a
  // lost migration buffer. Returns the number of particles dropped (they are
  // already removed from the source tile, so the census sentinel sees the
  // loss). Meaningful only between ScanTile and DeliverMovers of one step.
  int64_t ClearStagedMovers(int t);

 private:
  template <int Order>
  void StageAndDepositTileImpl(HwContext& hw, ParticleTile& tile, FieldSet& fields,
                               const DepositParams& params,
                               DepositScratch& scratch, RhocellBuffer& rhocell);
  void ScanTileIncremental(HwContext& hw, TileSet& tiles, int t,
                           TileScanPartial* partial);
  void ScanTileRedistribute(HwContext& hw, TileSet& tiles, int t,
                            TileScanPartial* partial);
  void RegisterRegions(TileSet& tiles, FieldSet& fields);
  void UpdateRankStats(TileSet& tiles, double step_cycles, int64_t live);
  // Bumps cross_rank_movers_ for a mover whose tiles live on different ranks.
  void CountCrossRankMover(int src_tile, int dest_tile);

  // Key bases for this engine's keyed region registrations: SoA + staging of
  // tile t use MemRegionKey(mem_owner_id_, t, 0..31), the Esirkepov scratch
  // streams 32..68.
  uint64_t TileKey(int t) const;
  uint64_t EsirkepovKey(int t) const;
  template <int Order>
  void EsirkepovDepositTileImpl(HwContext& hw, uint64_t key_base,
                                ParticleTile& tile, const DepositParams& params,
                                EsirkepovScratch& scratch, TileCurrent& tile_j);

  HwContext& hw_;
  EngineConfig config_;
  VariantTraits traits_;
  uint64_t mem_owner_id_;
  ResortPolicy policy_;
  RankSortStats rank_stats_;
  int64_t total_global_sorts_ = 0;
  const RankSet* rank_set_ = nullptr;
  std::vector<int64_t> cross_rank_movers_;  // per source rank, this step

  std::vector<DepositScratch> scratch_;   // per tile
  std::vector<RhocellBuffer> rhocells_;   // per tile
  // Esirkepov-scheme staging + per-tile J scratch (allocated only when the
  // scheme is kEsirkepov).
  std::vector<EsirkepovScratch> esirk_scratch_;  // per tile
  std::vector<TileCurrent> tile_currents_;       // per tile
  double step_dt_ = 0.0;  // recorded by BeginStep for the deposit stages
  std::vector<std::vector<int>> reduce_coloring_;
  struct Mover {
    Particle p;
    int dest_tile;
  };
  // Cross-tile movers staged per source tile during the (tile-parallel) scan
  // and delivered serially in tile order, so delivery order — and therefore
  // destination slot assignment — matches the serial run exactly.
  std::vector<std::vector<Mover>> tile_movers_;
};

}  // namespace mpic

#endif  // MPIC_SRC_CORE_DEPOSITION_ENGINE_H_
