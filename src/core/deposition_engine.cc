#include "src/core/deposition_engine.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/deposit/deposit_baseline.h"
#include "src/deposit/deposit_mpu.h"
#include "src/deposit/deposit_rhocell.h"
#include "src/deposit/esirkepov_mpu.h"
#include "src/deposit/deposit_scalar.h"
#include "src/deposit/deposit_staging.h"
#include "src/hw/parallel_for.h"
#include "src/hw/rank_topology.h"

namespace mpic {

void TouchPositionStreams(HwContext& hw, const ParticleSoA& soa, int32_t n_slots) {
  for (int32_t base = 0; base < n_slots; base += kVpuLanes) {
    const size_t batch = static_cast<size_t>(
        std::min<int32_t>(kVpuLanes, n_slots - base));
    hw.TouchRead(soa.x.data() + base, sizeof(double) * batch);
    hw.TouchRead(soa.y.data() + base, sizeof(double) * batch);
    hw.TouchRead(soa.z.data() + base, sizeof(double) * batch);
  }
}

void TouchOldPositionStreams(HwContext& hw, ParticleSoA& soa, int32_t n_slots) {
  for (int32_t base = 0; base < n_slots; base += kVpuLanes) {
    const size_t batch = static_cast<size_t>(
        std::min<int32_t>(kVpuLanes, n_slots - base));
    hw.TouchRead(soa.xo.data() + base, sizeof(double) * batch);
    hw.TouchRead(soa.yo.data() + base, sizeof(double) * batch);
    hw.TouchRead(soa.zo.data() + base, sizeof(double) * batch);
    hw.TouchWrite(soa.xo.data() + base, sizeof(double) * batch);
    hw.TouchWrite(soa.yo.data() + base, sizeof(double) * batch);
    hw.TouchWrite(soa.zo.data() + base, sizeof(double) * batch);
    hw.ledger().counters().vpu_mem += 6;
  }
}

uint64_t DepositionEngine::TileKey(int t) const {
  return MemRegionKey(mem_owner_id_, t, 0);
}

uint64_t DepositionEngine::EsirkepovKey(int t) const {
  return MemRegionKey(mem_owner_id_, t, 32);
}

DepositionEngine::DepositionEngine(HwContext& hw, const EngineConfig& config)
    : hw_(hw), config_(config), traits_(TraitsOf(config.variant)),
      mem_owner_id_(NextMemOwnerId()), policy_(config.policy) {
  // The Esirkepov scheme replaces the variant's J kernel with its own staged
  // tile kernel, which supports every order — the odd-order restriction binds
  // only when the rhocell/MPU kernels actually run.
  if ((traits_.uses_rhocell || traits_.uses_mpu) &&
      config_.current_scheme == CurrentScheme::kDirect) {
    MPIC_CHECK_MSG(config_.order == 1 || config_.order == 3,
                   "rhocell/MPU kernels support CIC (1) and QSP (3) only");
  }
  MPIC_CHECK_MSG(config_.order >= 1 && config_.order <= 3,
                 "shape order must be 1, 2, or 3");
}

void DepositionEngine::Initialize(TileSet& tiles, FieldSet& fields) {
  scratch_.assign(static_cast<size_t>(tiles.num_tiles()), DepositScratch{});
  rhocells_.assign(static_cast<size_t>(tiles.num_tiles()), RhocellBuffer{});
  esirk_scratch_.assign(static_cast<size_t>(tiles.num_tiles()), EsirkepovScratch{});
  tile_currents_.assign(static_cast<size_t>(tiles.num_tiles()), TileCurrent{});
  for (int t = 0; t < tiles.num_tiles(); ++t) {
    ParticleTile& tile = tiles.tile(t);
    if (esirkepov()) {
      // Per-tile Yee-staggered J scratch: fixed dimensions for the whole run
      // (the moving window keeps tile boxes fixed in index space).
      tile_currents_[static_cast<size_t>(t)].Resize(tile, config_.order);
    } else if (traits_.uses_rhocell) {
      rhocells_[static_cast<size_t>(t)].Resize(std::max(1, tile.num_cells()),
                                               config_.order);
    }
  }
  reduce_coloring_.clear();
  if (esirkepov()) {
    reduce_coloring_ = tiles.HaloDisjointColoring(EsirkepovHaloNodes(config_.order));
  } else if (traits_.uses_rhocell) {
    reduce_coloring_ = tiles.HaloDisjointColoring(RhocellHaloNodes(config_.order));
  }
  // The paper's baselines never sort; only sorting variants pay for (and
  // benefit from) the initial GlobalSortParticlesByCell.
  if (traits_.sort_mode != SortMode::kNone) {
    GlobalSort(tiles);
  }
  rank_stats_ = RankSortStats{};
  RegisterRegions(tiles, fields);
}

void DepositionEngine::GlobalSort(TileSet& tiles) {
  // Per-tile counting sorts are rank-local work: ranks sort their own
  // domains concurrently, so the serial charge scales down by the rank count.
  ScopedRankScale rank_scale(hw_.ledger(), hw_.num_ranks());
  PhaseScope phase(hw_.ledger(), Phase::kSort);
  int64_t moved = 0;
  for (int t = 0; t < tiles.num_tiles(); ++t) {
    moved += tiles.tile(t).GlobalSortTile(tiles.geom(), config_.gpma);
  }
  // Counting sort: streaming writes of the ten SoA components (positions,
  // momenta, weight, and the old-position lanes all permute together) plus
  // two index passes, and — the expensive part — the permutation gather,
  // whose reads are random per particle.
  hw_.ChargeBulk(0.0, static_cast<double>(moved) * (10.0 * 8.0 * 2.0 + 4.0 * 2.0));
  hw_.ChargeCycles(static_cast<double>(moved) * 8.0);
  ++total_global_sorts_;
  rank_stats_.steps_since_sort = 0;
  rank_stats_.local_rebuilds = 0;
  rank_stats_.baseline_throughput = 0.0;  // re-baselined on the next step
}

void DepositionEngine::NotifyParticleAdded(HwContext& hw, TileSet& tiles,
                                           int tile_index, int32_t pid,
                                           int64_t* rebuilds) {
  if (traits_.sort_mode == SortMode::kNone) {
    return;
  }
  PhaseScope phase(hw.ledger(), Phase::kSort);
  ParticleTile& tile = tiles.tile(tile_index);
  const int cell = tile.CellOfParticle(tiles.geom(), pid);
  auto res = tile.gpma().Insert(pid, cell);
  hw.ChargeCycles(static_cast<double>(res.words_touched));
  if (!res.ok) {
    const int64_t words = tile.gpma().Rebuild();
    auto retry = tile.gpma().Insert(pid, cell);
    MPIC_CHECK(retry.ok);
    hw.ChargeCycles(static_cast<double>(words) * 0.25 +
                    static_cast<double>(retry.words_touched));
    tile.was_rebuilt_this_step = true;
    // Tile-parallel callers count into their worker slot (rank stats are
    // engine-shared); the serial path updates the rank stats directly.
    if (rebuilds != nullptr) {
      ++*rebuilds;
    } else {
      ++rank_stats_.local_rebuilds;
    }
  }
}

void DepositionEngine::AccumulateInjectionRebuilds(int64_t rebuilds) {
  rank_stats_.local_rebuilds += rebuilds;
}

void DepositionEngine::RemoveParticle(HwContext& hw, TileSet& tiles, int tile_index,
                                      int32_t pid) {
  ParticleTile& tile = tiles.tile(tile_index);
  if (traits_.sort_mode != SortMode::kNone && tile.gpma().CellOf(pid) >= 0) {
    PhaseScope phase(hw.ledger(), Phase::kSort);
    auto res = tile.gpma().Remove(pid);
    hw.ChargeCycles(static_cast<double>(res.words_touched));
  }
  tile.RemoveParticle(pid);
}

// ---- Pass-1 scan -----------------------------------------------------------

void DepositionEngine::BeginStep(TileSet& tiles, double dt) {
  tile_movers_.resize(static_cast<size_t>(tiles.num_tiles()));
  step_dt_ = dt;
  if (rank_set_ != nullptr) {
    cross_rank_movers_.assign(static_cast<size_t>(rank_set_->num_ranks()), 0);
  }
}

void DepositionEngine::AttachRankSet(const RankSet* ranks) {
  rank_set_ = ranks;
  cross_rank_movers_.clear();
  if (rank_set_ != nullptr) {
    cross_rank_movers_.assign(static_cast<size_t>(rank_set_->num_ranks()), 0);
  }
}

void DepositionEngine::ScanTile(HwContext& hw, TileSet& tiles, int t,
                                TileScanPartial* partial) {
  if (traits_.sort_mode == SortMode::kIncremental) {
    ScanTileIncremental(hw, tiles, t, partial);
  } else {
    // Unsorted variants still need particles in their owning tiles (WarpX's
    // Redistribute); kGlobalEachStep re-establishes ownership before its full
    // sort. Charged outside the deposition kernel phases, mirroring the
    // paper's accounting where the baseline has no "Sort" column.
    ScanTileRedistribute(hw, tiles, t, partial);
  }
}

void DepositionEngine::ScanTileIncremental(HwContext& hw, TileSet& tiles, int t,
                                           TileScanPartial* partial) {
  const GridGeometry& geom = tiles.geom();
  PhaseScope phase(hw.ledger(), Phase::kSort);
  ParticleTile& tile = tiles.tile(t);
  std::vector<Mover>& movers = tile_movers_[static_cast<size_t>(t)];
  movers.clear();
  tile.was_rebuilt_this_step = false;
  Gpma& gpma = tile.gpma();
  const int32_t n_slots = tile.num_slots();
  // VPU scan: recompute the cell of each live particle and compare with its
  // GPMA bin (Algorithm 1, Phase 1). ~3 vector ops per 8 slots plus the
  // position loads.
  hw.ChargeCycles(static_cast<double>((n_slots + kVpuLanes - 1) / kVpuLanes) *
                  3.0 / hw.cfg().vpu_pipes);
  TouchPositionStreams(hw, tile.soa(), n_slots);

  struct PendingMove {
    int32_t pid;
    int32_t new_cell;
  };
  std::vector<PendingMove> pending;
  for (int32_t pid = 0; pid < n_slots; ++pid) {
    if (!tile.IsLive(pid)) {
      continue;
    }
    const auto i = static_cast<size_t>(pid);
    const ParticleSoA& soa = tile.soa();
    const int ix = geom.CellX(soa.x[i]);
    const int iy = geom.CellY(soa.y[i]);
    const int iz = geom.CellZ(soa.z[i]);
    if (!tile.ContainsCell(ix, iy, iz)) {
      // Leaves the tile: remove here, queue for its destination tile.
      auto res = gpma.Remove(pid);
      hw.ChargeCycles(static_cast<double>(res.words_touched));
      movers.push_back({tile.soa().Get(pid), tiles.TileOfCell(ix, iy, iz)});
      tile.RemoveParticle(pid);
      ++partial->crossed;
      continue;
    }
    const int cell = tile.LocalCellId(ix, iy, iz);
    if (gpma.CellOf(pid) != cell) {
      pending.push_back({pid, static_cast<int32_t>(cell)});
    }
  }
  // ApplyPendingMoves: deletions first, then insertions (gaps freed by the
  // leavers become available to the arrivers).
  for (const PendingMove& m : pending) {
    auto res = gpma.Remove(m.pid);
    hw.ChargeCycles(static_cast<double>(res.words_touched));
  }
  for (const PendingMove& m : pending) {
    auto res = gpma.Insert(m.pid, m.new_cell);
    hw.ChargeCycles(static_cast<double>(res.words_touched));
    if (!res.ok) {
      const int64_t words = gpma.Rebuild();
      hw.ChargeCycles(static_cast<double>(words) * 0.25);
      tile.was_rebuilt_this_step = true;
      ++partial->rebuilds;
      auto retry = gpma.Insert(m.pid, m.new_cell);
      MPIC_CHECK(retry.ok);
      hw.ChargeCycles(static_cast<double>(retry.words_touched));
    }
    ++partial->moved;
  }
}

void DepositionEngine::ScanTileRedistribute(HwContext& hw, TileSet& tiles, int t,
                                            TileScanPartial* partial) {
  const GridGeometry& geom = tiles.geom();
  PhaseScope phase(hw.ledger(), Phase::kOther);
  ParticleTile& tile = tiles.tile(t);
  std::vector<Mover>& movers = tile_movers_[static_cast<size_t>(t)];
  movers.clear();
  const int32_t n_slots = tile.num_slots();
  hw.ChargeCycles(static_cast<double>((n_slots + kVpuLanes - 1) / kVpuLanes) *
                  3.0 / hw.cfg().vpu_pipes);
  TouchPositionStreams(hw, tile.soa(), n_slots);
  for (int32_t pid = 0; pid < n_slots; ++pid) {
    if (!tile.IsLive(pid)) {
      continue;
    }
    const auto i = static_cast<size_t>(pid);
    const ParticleSoA& soa = tile.soa();
    const int ix = geom.CellX(soa.x[i]);
    const int iy = geom.CellY(soa.y[i]);
    const int iz = geom.CellZ(soa.z[i]);
    if (!tile.ContainsCell(ix, iy, iz)) {
      movers.push_back({tile.soa().Get(pid), tiles.TileOfCell(ix, iy, iz)});
      tile.RemoveParticle(pid);
      hw.ChargeCycles(8.0);
      ++partial->crossed;
    }
  }
}

void DepositionEngine::AccumulateScan(const TileScanPartial& partial,
                                      EngineStepStats* stats) {
  stats->crossed_tiles += partial.crossed;
  stats->moved_particles += partial.moved;
  stats->gpma_rebuilds += partial.rebuilds;
  rank_stats_.local_rebuilds += partial.rebuilds;
}

void DepositionEngine::DeliverMovers(TileSet& tiles, EngineStepStats* stats) {
  const GridGeometry& geom = tiles.geom();
  // With a rank decomposition attached, delivery work splits over the ranks
  // (each rank inserts its own arrivals concurrently), so the serial charge
  // scales down by the rank count; the link cost of the cross-rank movers is
  // charged separately by RankComm::ChargeMigration from the counts taken
  // here. The *execution* stays serial in source-tile order either way, so
  // destination slot assignment is identical for any rank count.
  ScopedRankScale rank_scale(hw_.ledger(), hw_.num_ranks());
  if (traits_.sort_mode == SortMode::kIncremental) {
    // Deliver cross-tile movers serially, in source-tile order: destination
    // slot assignment (AddParticle recycles free slots in stack order) must
    // not depend on the parallel schedule for results to stay bit-identical
    // to serial.
    PhaseScope phase(hw_.ledger(), Phase::kSort);
    for (size_t src = 0; src < tile_movers_.size(); ++src) {
      std::vector<Mover>& movers = tile_movers_[src];
      for (const Mover& m : movers) {
        CountCrossRankMover(static_cast<int>(src), m.dest_tile);
        ParticleTile& dest = tiles.tile(m.dest_tile);
        const int32_t pid = dest.AddParticle(m.p);
        const int cell = dest.CellOfParticle(geom, pid);
        auto res = dest.gpma().Insert(pid, cell);
        hw_.ChargeCycles(static_cast<double>(res.words_touched) + 4.0);
        if (!res.ok) {
          const int64_t words = dest.gpma().Rebuild();
          hw_.ChargeCycles(static_cast<double>(words) * 0.25);
          dest.was_rebuilt_this_step = true;
          ++rank_stats_.local_rebuilds;
          ++stats->gpma_rebuilds;
          auto retry = dest.gpma().Insert(pid, cell);
          MPIC_CHECK(retry.ok);
          hw_.ChargeCycles(static_cast<double>(retry.words_touched));
        }
      }
      movers.clear();
    }
    return;
  }
  // Unsorted delivery: plain slot insertion, same ordering contract.
  PhaseScope phase(hw_.ledger(), Phase::kOther);
  for (size_t src = 0; src < tile_movers_.size(); ++src) {
    std::vector<Mover>& movers = tile_movers_[src];
    for (const Mover& m : movers) {
      CountCrossRankMover(static_cast<int>(src), m.dest_tile);
      tiles.tile(m.dest_tile).AddParticle(m.p);
      hw_.ChargeCycles(8.0);
    }
    movers.clear();
  }
}

void DepositionEngine::CountCrossRankMover(int src_tile, int dest_tile) {
  if (rank_set_ == nullptr) {
    return;
  }
  const int src_rank = rank_set_->RankOfTile(src_tile);
  if (src_rank != rank_set_->RankOfTile(dest_tile)) {
    ++cross_rank_movers_[static_cast<size_t>(src_rank)];
  }
}

void DepositionEngine::PostScanGlobalSort(TileSet& tiles, FieldSet& fields,
                                          EngineStepStats* stats) {
  if (traits_.sort_mode != SortMode::kGlobalEachStep) {
    return;
  }
  // Tiles sort independently; ranks run their domains concurrently.
  ScopedRankScale rank_scale(hw_.ledger(), hw_.num_ranks());
  PhaseScope phase(hw_.ledger(), Phase::kSort);
  int64_t moved = 0;
  for (int t = 0; t < tiles.num_tiles(); ++t) {
    moved += tiles.tile(t).GlobalSortTile(tiles.geom(), config_.gpma);
  }
  hw_.ChargeBulk(0.0, static_cast<double>(moved) * (10.0 * 8.0 * 2.0 + 4.0 * 2.0));
  hw_.ChargeCycles(static_cast<double>(moved) * 8.0);
  RegisterRegions(tiles, fields);
  stats->global_sorted = true;
}

// ---- Pass-2 staging + kernel + reduction -----------------------------------

void DepositionEngine::RefreshTileRegistrations(
    TileSet& tiles, const std::vector<int>* home_domains) {
  for (int t = 0; t < tiles.num_tiles(); ++t) {
    ParticleTile& tile = tiles.tile(t);
    if (tile.num_live() == 0) {
      continue;
    }
    // Placement pass: registrations below run under the tile's home domain
    // (the NUMA domain of its last scheduled owner), re-homing the tile's
    // SoA/scratch pages so they follow the tile between domains.
    ScopedHomeDomain home_scope(
        hw_, home_domains != nullptr ? (*home_domains)[static_cast<size_t>(t)]
                                     : -1);
    DepositScratch& scratch = scratch_[static_cast<size_t>(t)];
    // Size the staging ahead of the region so the kernels' writes land in
    // registered (deterministically mapped) memory from the first touch. The
    // Esirkepov scheme stages into its own scratch; the variant's staging
    // arrays stay empty then.
    if (esirkepov()) {
      EsirkepovScratch& es = esirk_scratch_[static_cast<size_t>(t)];
      es.Resize(tile.soa().size(), config_.order);
      RegisterEsirkepovRegions(hw_, EsirkepovKey(t), es,
                               tile_currents_[static_cast<size_t>(t)]);
    } else if (traits_.staging != StagingKind::kNone) {
      scratch.Resize(tile.soa().size(), config_.order);
    }
    RegisterStagingRegions(hw_, TileKey(t), tile, scratch);
  }
}

void DepositionEngine::StageAndDepositTile(HwContext& hw, TileSet& tiles,
                                           FieldSet& fields, double charge, int t) {
  ParticleTile& tile = tiles.tile(t);
  if (tile.num_live() == 0) {
    return;
  }
  DepositParams params;
  params.geom = tiles.geom();
  params.charge = charge;
  params.dt = step_dt_;
  // Size the staging and bring the model's address space current BEFORE the
  // kernels touch anything: the SoA streams (DeliverMovers may have grown
  // this tile since the last refresh) and the scratch may have reallocated
  // (cheap no-op otherwise), and every access must land in registered memory
  // to keep the modeled cache deterministic. The Esirkepov scheme stages into
  // its own scratch, registered by EsirkepovDepositTileImpl.
  DepositScratch& scratch = scratch_[static_cast<size_t>(t)];
  if (!esirkepov() && traits_.staging != StagingKind::kNone) {
    scratch.Resize(tile.soa().size(), config_.order);
  }
  RegisterStagingRegions(hw, TileKey(t), tile, scratch);
  if (esirkepov()) {
    EsirkepovScratch& es = esirk_scratch_[static_cast<size_t>(t)];
    TileCurrent& tj = tile_currents_[static_cast<size_t>(t)];
    switch (config_.order) {
      case 1:
        EsirkepovDepositTileImpl<1>(hw, EsirkepovKey(t), tile, params, es, tj);
        break;
      case 2:
        EsirkepovDepositTileImpl<2>(hw, EsirkepovKey(t), tile, params, es, tj);
        break;
      case 3:
        EsirkepovDepositTileImpl<3>(hw, EsirkepovKey(t), tile, params, es, tj);
        break;
      default:
        MPIC_CHECK_MSG(false, "unsupported shape order");
    }
    return;
  }
  RhocellBuffer& rhocell = rhocells_[static_cast<size_t>(t)];
  switch (config_.order) {
    case 1:
      StageAndDepositTileImpl<1>(hw, tile, fields, params, scratch, rhocell);
      break;
    case 2:
      StageAndDepositTileImpl<2>(hw, tile, fields, params, scratch, rhocell);
      break;
    case 3:
      StageAndDepositTileImpl<3>(hw, tile, fields, params, scratch, rhocell);
      break;
    default:
      MPIC_CHECK_MSG(false, "unsupported shape order");
  }
}

template <int Order>
void DepositionEngine::EsirkepovDepositTileImpl(HwContext& hw, uint64_t key_base,
                                                ParticleTile& tile,
                                                const DepositParams& params,
                                                EsirkepovScratch& scratch,
                                                TileCurrent& tile_j) {
  // Size and register the staging before anything touches it (same contract
  // as the SoA streams: writes must land in deterministically mapped memory).
  scratch.Resize(tile.soa().size(), Order);
  RegisterEsirkepovRegions(hw, key_base, scratch, tile_j);
  // The variant's staging cost profile carries over: VPU-staged variants
  // charge batched staging, the others the scalar loop.
  StageEsirkepovTile<Order>(hw, tile, params, traits_.staging == StagingKind::kVpu,
                            scratch);
  if (traits_.uses_mpu) {
    // MPU variants route the combine through the MOPA kernel, riding the GPMA
    // sort cell-resident where the variant maintains it, pairwise otherwise —
    // the same scheduling split as the direct DepositMpu dispatch.
    DepositEsirkepovMpuTile<Order>(hw, tile, params,
                                   traits_.sorted_iteration
                                       ? MpuScheduling::kCellResident
                                       : MpuScheduling::kPairwise,
                                   scratch, tile_j);
  } else {
    DepositEsirkepovTile<Order>(hw, tile, params, traits_.sorted_iteration,
                                scratch, tile_j);
  }
}

template <int Order>
void DepositionEngine::StageAndDepositTileImpl(HwContext& hw, ParticleTile& tile,
                                               FieldSet& fields,
                                               const DepositParams& params,
                                               DepositScratch& scratch,
                                               RhocellBuffer& rhocell) {
  switch (traits_.staging) {
    case StagingKind::kScalarLoop:
      StageTileScalar<Order>(hw, tile, params, scratch);
      break;
    case StagingKind::kVpu:
      StageTileVpu<Order>(hw, tile, params, scratch);
      break;
    case StagingKind::kNone:
      break;
  }

  switch (traits_.kernel) {
    case KernelKind::kScalarReference:
      DepositScalarTile<Order>(hw, tile, params, fields);
      break;
    case KernelKind::kBaselineScatter:
      DepositBaselineTile<Order>(hw, tile, params, scratch, fields,
                                 traits_.sorted_iteration);
      break;
    case KernelKind::kRhocellAutoVec:
      if constexpr (Order == 1 || Order == 3) {
        DepositRhocellAutoVec<Order>(hw, tile, params, scratch, rhocell,
                                     traits_.sorted_iteration);
      }
      break;
    case KernelKind::kRhocellVpu:
      if constexpr (Order == 1 || Order == 3) {
        DepositRhocellVpu<Order>(hw, tile, params, scratch, rhocell,
                                 traits_.sorted_iteration);
      }
      break;
    case KernelKind::kMpu:
      if constexpr (Order == 1 || Order == 3) {
        DepositMpu<Order>(hw, tile, params, scratch, rhocell,
                          traits_.sorted_iteration ? MpuScheduling::kCellResident
                                                   : MpuScheduling::kPairwise);
      }
      break;
  }
}

void DepositionEngine::ReduceTile(HwContext& hw, TileSet& tiles, FieldSet& fields,
                                  int t) {
  ParticleTile& tile = tiles.tile(t);
  if (tile.num_live() == 0) {
    return;
  }
  if (esirkepov()) {
    ReduceEsirkepovToGrid(hw, tile_currents_[static_cast<size_t>(t)], fields);
    return;
  }
  if (!traits_.uses_rhocell) {
    return;
  }
  RhocellBuffer& rhocell = rhocells_[static_cast<size_t>(t)];
  switch (config_.order) {
    case 1:
      ReduceRhocellToGrid<1>(hw, tile, rhocell, fields);
      break;
    case 3:
      ReduceRhocellToGrid<3>(hw, tile, rhocell, fields);
      break;
    default:
      MPIC_CHECK_MSG(false, "rhocell reduction requires order 1 or 3");
  }
}

// ---- Step finalization -----------------------------------------------------

void DepositionEngine::RegisterRegions(TileSet& tiles, FieldSet& fields) {
  auto reg_field = [this](const FieldArray& f) {
    hw_.RegisterRegion(f.data(), f.size() * sizeof(double));
  };
  reg_field(fields.ex);
  reg_field(fields.ey);
  reg_field(fields.ez);
  reg_field(fields.bx);
  reg_field(fields.by);
  reg_field(fields.bz);
  reg_field(fields.jx);
  reg_field(fields.jy);
  reg_field(fields.jz);
  for (int t = 0; t < tiles.num_tiles(); ++t) {
    RegisterStagingRegions(hw_, TileKey(t), tiles.tile(t),
                           scratch_[static_cast<size_t>(t)]);
    RhocellBuffer& rc = rhocells_[static_cast<size_t>(t)];
    if (rc.num_cells() > 0) {
      hw_.RegisterRegion(rc.jx().data(), rc.jx().size() * sizeof(double));
      hw_.RegisterRegion(rc.jy().data(), rc.jy().size() * sizeof(double));
      hw_.RegisterRegion(rc.jz().data(), rc.jz().size() * sizeof(double));
    }
    if (esirkepov()) {
      RegisterEsirkepovRegions(hw_, EsirkepovKey(t),
                               esirk_scratch_[static_cast<size_t>(t)],
                               tile_currents_[static_cast<size_t>(t)]);
    }
  }
}

void DepositionEngine::ReregisterModelRegions(TileSet& tiles, FieldSet& fields) {
  for (int t = 0; t < tiles.num_tiles(); ++t) {
    ParticleTile& tile = tiles.tile(t);
    const size_t n = tile.soa().size();
    if (esirkepov()) {
      esirk_scratch_[static_cast<size_t>(t)].Resize(n, config_.order);
    } else if (traits_.staging != StagingKind::kNone) {
      scratch_[static_cast<size_t>(t)].Resize(n, config_.order);
    }
  }
  RegisterRegions(tiles, fields);
}

void DepositionEngine::UpdateRankStats(TileSet& tiles, double step_cycles,
                                       int64_t live) {
  ++rank_stats_.steps_since_sort;
  int64_t capacity = 0;
  int64_t empty = 0;
  for (int t = 0; t < tiles.num_tiles(); ++t) {
    capacity += tiles.tile(t).gpma().capacity();
    empty += tiles.tile(t).gpma().num_empty_slots();
  }
  rank_stats_.empty_slot_ratio =
      capacity == 0 ? 0.0 : static_cast<double>(empty) / static_cast<double>(capacity);
  const double secs = hw_.cfg().CyclesToSeconds(step_cycles);
  rank_stats_.step_throughput = secs > 0.0 ? static_cast<double>(live) / secs : 0.0;
  if (rank_stats_.baseline_throughput == 0.0) {
    rank_stats_.baseline_throughput = rank_stats_.step_throughput;
  }
}

void DepositionEngine::FinishStep(TileSet& tiles, FieldSet& fields,
                                  double step_cycles, EngineStepStats* stats) {
  UpdateRankStats(tiles, step_cycles, tiles.TotalLive());

  // Global re-sorting policy (Sec. 4.4).
  if (traits_.sort_mode == SortMode::kIncremental) {
    stats->decision = policy_.Evaluate(rank_stats_);
    if (ResortPolicy::ShouldSort(stats->decision)) {
      GlobalSort(tiles);
      RegisterRegions(tiles, fields);
      stats->global_sorted = true;
    }
  }
}

void DepositionEngine::RestoreSortState(const RankSortStats& stats,
                                        int64_t total_global_sorts) {
  rank_stats_ = stats;
  total_global_sorts_ = total_global_sorts;
}

int64_t DepositionEngine::ClearStagedMovers(int t) {
  if (t < 0 || static_cast<size_t>(t) >= tile_movers_.size()) {
    return 0;
  }
  std::vector<Mover>& movers = tile_movers_[static_cast<size_t>(t)];
  const auto dropped = static_cast<int64_t>(movers.size());
  movers.clear();
  return dropped;
}

void DepositionEngine::FoldCurrentGuards(HwContext& hw, FieldSet& fields) {
  // Each rank folds the guards of its own slab; the cross-rank z-boundary
  // contributions ride the modeled J halo exchange (RankComm).
  ScopedRankScale rank_scale(hw.ledger(), hw.num_ranks());
  PhaseScope phase(hw.ledger(), Phase::kReduce);
  fields.jx.FoldGuardsPeriodic();
  fields.jy.FoldGuardsPeriodic();
  fields.jz.FoldGuardsPeriodic();
  const double guard_nodes =
      static_cast<double>(fields.jx.size()) - static_cast<double>(fields.geom.NumCells());
  hw.ChargeBulk(guard_nodes * 3.0, guard_nodes * 8.0 * 3.0 * 2.0);
}

}  // namespace mpic
