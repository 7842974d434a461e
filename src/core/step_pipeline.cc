#include "src/core/step_pipeline.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/core/rank_comm.h"
#include "src/particles/species.h"
#include "src/push/boris_pusher.h"
#include "src/push/field_gather.h"
#include "src/runtime/fault_injection.h"

namespace mpic {

int64_t SimStepStats::TotalLive() const {
  int64_t sum = 0;
  for (const SpeciesStepStats& s : species) {
    sum += s.live;
  }
  return sum;
}

int64_t SimStepStats::TotalPushed() const {
  int64_t sum = 0;
  for (const SpeciesStepStats& s : species) {
    sum += s.pushed;
  }
  return sum;
}

EngineStepStats SimStepStats::Aggregate() const {
  EngineStepStats agg;
  for (const SpeciesStepStats& s : species) {
    agg.moved_particles += s.engine.moved_particles;
    agg.crossed_tiles += s.engine.crossed_tiles;
    agg.gpma_rebuilds += s.engine.gpma_rebuilds;
    agg.global_sorted = agg.global_sorted || s.engine.global_sorted;
    if (static_cast<int>(s.engine.decision) > static_cast<int>(agg.decision)) {
      agg.decision = s.engine.decision;
    }
  }
  return agg;
}

namespace {

// Per-tile NUMA home domains for one species this step, derived from last
// step's pass1 owners — the canonical placement anchor: every stage of the
// species touches the same SoA/scratch, so all of a tile's pages home where
// its pass1 ran. Empty when the model has nothing to re-home (flat memory,
// static schedule, or no owner feedback yet); -1 entries leave a tile's
// current homes untouched.
std::vector<int> TileHomeDomains(const HwContext& hw,
                                 const SpeciesBlock& block) {
  std::vector<int> domains;
  const MachineConfig& cfg = hw.cfg();
  if (cfg.num_numa_domains <= 1 ||
      cfg.tile_schedule != TileSchedulePolicy::kCostSteal) {
    return domains;
  }
  const std::vector<int32_t>& owner = block.pass1_costs.owner;
  if (owner.size() != static_cast<size_t>(block.tiles.num_tiles())) {
    return domains;
  }
  const int cores = cfg.num_cores < 1 ? 1 : cfg.num_cores;
  domains.resize(owner.size());
  for (size_t t = 0; t < owner.size(); ++t) {
    const int g = owner[t];
    // Owners are global worker ids (rank * num_cores + core); the domain
    // split is per node, so only the core-within-rank part matters.
    domains[t] = g < 0 ? -1
                       : NumaDomainOfWorker(g % cores, cores,
                                            cfg.num_numa_domains);
  }
  return domains;
}

// Whether the species' gather may batch by GPMA cell bins on the MPU (see
// GatherFieldsTileFor).
bool GatherByCellBins(const SpeciesBlock& block) {
  const VariantTraits& traits = block.engine.traits();
  return traits.uses_mpu && traits.sorted_iteration;
}

}  // namespace

// ---- Per-tile stages --------------------------------------------------------

void StepPipeline::ZeroCurrentsStage(FieldSet& fields) {
  const double bytes = static_cast<double>(fields.jx.size()) * 8.0 * 3.0;
  if (!ParallelEnabled(hw_)) {
    // One core: a single serial streaming-store block.
    PhaseScope phase(hw_.ledger(), Phase::kOther);
    fields.ZeroCurrents();
    hw_.ChargeBulk(0.0, bytes);
    return;
  }
  // Dedicated fan-out: each worker (core, or rank x core) zeroes a contiguous
  // chunk of jx/jy/jz (disjoint writes), so the charge overlaps across cores
  // like every other tile-parallel stage instead of serializing at the top of
  // the step.
  const int n = static_cast<int>(fields.jx.size());
  const int chunks = WorkerSlotCount(hw_);
  ParallelForTiles(hw_, chunks, [&](HwContext& hw, int, int c) {
    PhaseScope phase(hw.ledger(), Phase::kOther);
    const TileRange r = WorkerTileRange(n, chunks, c);
    for (FieldArray* f : {&fields.jx, &fields.jy, &fields.jz}) {
      std::fill(f->vec().begin() + r.begin, f->vec().begin() + r.end, 0.0);
    }
    hw.ChargeBulk(0.0, static_cast<double>(r.end - r.begin) * 8.0 * 3.0);
  });
}

void StepPipeline::PrepareTileRegions(SpeciesBlock& block) {
  // On a NUMA machine the serial refresh doubles as the placement pass: each
  // tile's registrations run under its owner's home domain, migrating the
  // tile's SoA/scratch pages to wherever the tile ran last step — which is
  // also where the sticky scheduler will prefer to run it this step.
  const std::vector<int> home = TileHomeDomains(hw_, block);
  block.engine.RefreshTileRegistrations(block.tiles,
                                        home.empty() ? nullptr : &home);
  for (int t = 0; t < block.tiles.num_tiles(); ++t) {
    ParticleTile& tile = block.tiles.tile(t);
    if (tile.num_live() == 0) {
      continue;
    }
    GatherScratch& gs = block.gather_scratch[static_cast<size_t>(t)];
    gs.Resize(tile.soa().size());
    ScopedHomeDomain scope(hw_,
                           home.empty() ? -1 : home[static_cast<size_t>(t)]);
    RegisterGatherRegions(hw_, MemRegionKey(block.mem_owner_id, t, 0), gs);
  }
}

void StepPipeline::CaptureOldPositionsTile(HwContext& hw, ParticleTile& tile) {
  // Pre-push position capture for the Esirkepov scheme: a streaming copy of
  // the three position streams into the old-position lanes, so the deposit
  // stage can form each particle's displacement after push, wrap, and
  // cross-tile migration. Charged with the push it prefixes.
  PhaseScope phase(hw.ledger(), Phase::kPush);
  ParticleSoA& soa = tile.soa();
  const int32_t n = tile.num_slots();
  std::copy(soa.x.begin(), soa.x.end(), soa.xo.begin());
  std::copy(soa.y.begin(), soa.y.end(), soa.yo.begin());
  std::copy(soa.z.begin(), soa.z.end(), soa.zo.begin());
  for (int32_t base = 0; base < n; base += kVpuLanes) {
    const size_t batch =
        static_cast<size_t>(std::min<int32_t>(kVpuLanes, n - base));
    hw.TouchRead(soa.x.data() + base, sizeof(double) * batch);
    hw.TouchRead(soa.y.data() + base, sizeof(double) * batch);
    hw.TouchRead(soa.z.data() + base, sizeof(double) * batch);
    hw.TouchWrite(soa.xo.data() + base, sizeof(double) * batch);
    hw.TouchWrite(soa.yo.data() + base, sizeof(double) * batch);
    hw.TouchWrite(soa.zo.data() + base, sizeof(double) * batch);
    hw.ledger().counters().vpu_mem += 6;
  }
}

void StepPipeline::BoundaryTile(HwContext& hw, SpeciesBlock& block,
                                bool drop_behind_window, int t,
                                int64_t* dropped) {
  PhaseScope phase(hw.ledger(), Phase::kOther);
  const GridGeometry& g = block.tiles.geom();
  ParticleTile& tile = block.tiles.tile(t);
  ParticleSoA& soa = tile.soa();
  // Under the Esirkepov scheme a periodic wrap must shift the old position by
  // the same offset, so the displacement — the physical quantity the scheme
  // deposits — is unchanged by the coordinate jump.
  const bool track_old = block.engine.esirkepov();
  const int32_t n = tile.num_slots();
  hw.ChargeCycles(static_cast<double>((n + kVpuLanes - 1) / kVpuLanes) *
                  (track_old ? 9.0 : 6.0) / hw.cfg().vpu_pipes);
  TouchPositionStreams(hw, soa, n);
  if (track_old) {
    // The old-position lanes stream through alongside (read-modify-write).
    TouchOldPositionStreams(hw, soa, n);
  }
  for (int32_t pid = 0; pid < n; ++pid) {
    if (!tile.IsLive(pid)) {
      continue;
    }
    const auto i = static_cast<size_t>(pid);
    const double wx = g.WrapX(soa.x[i]);
    const double wy = g.WrapY(soa.y[i]);
    if (track_old) {
      soa.xo[i] += wx - soa.x[i];
      soa.yo[i] += wy - soa.y[i];
    }
    soa.x[i] = wx;
    soa.y[i] = wy;
    if (drop_behind_window) {
      if (soa.z[i] < g.z0 || soa.z[i] >= g.z0 + g.LengthZ()) {
        block.engine.RemoveParticle(hw, block.tiles, t, pid);
        if (dropped != nullptr) {
          ++*dropped;
        }
      }
    } else {
      const double wz = g.WrapZ(soa.z[i]);
      if (track_old) {
        soa.zo[i] += wz - soa.z[i];
      }
      soa.z[i] = wz;
    }
  }
}

// ---- Fused two-pass schedule ------------------------------------------------

void StepPipeline::FusedPass1(const StepPipelineInputs& in, SpeciesBlock& block,
                              int sid, const FieldSet& fields,
                              SpeciesStepStats* ss) {
  switch (block.engine.config().order) {
    case 1:
      FusedPass1Impl<1>(in, block, sid, fields, ss);
      break;
    case 2:
      FusedPass1Impl<2>(in, block, sid, fields, ss);
      break;
    case 3:
      FusedPass1Impl<3>(in, block, sid, fields, ss);
      break;
    default:
      MPIC_CHECK_MSG(false, "unsupported shape order");
  }
}

template <int Order>
void StepPipeline::FusedPass1Impl(const StepPipelineInputs& in, SpeciesBlock& block,
                                  int sid, const FieldSet& fields,
                                  SpeciesStepStats* ss) {
  PushParams pp;
  pp.dt = in.dt;
  pp.charge = block.species.charge;
  pp.mass = block.species.mass;
  HealthMonitor* monitor = in.health;
  const bool guards_on = monitor != nullptr && monitor->config().check_particles;
  const GridGeometry& g = block.tiles.geom();
  const double min_d = std::min(g.dx, std::min(g.dy, g.dz));
  // Pre-gather: no particle belongs outside its tile's domain image by more
  // than rounding. Post-push: one step of legitimate motion (< c*dt) plus the
  // same slack, checked before the wrap launders the excursion.
  const double pre_margin = 0.5 * min_d;
  const double post_margin = kSpeedOfLight * in.dt + 0.5 * min_d;
  // One region fuses four stages per tile. Everything is tile-private (the
  // fields are read-only, boundary drops and GPMA mutations touch only the
  // tile's own structures, leavers stage into the tile's mover list), so the
  // fusion changes nothing about which operations run — only their order, and
  // with it the modeled cache residency of the tile's SoA streams. The health
  // guards keep that property: quarantine bytes are per (species, tile), each
  // written by exactly one worker.
  std::vector<PaddedSlot<Pass1Partial>> partials(
      static_cast<size_t>(WorkerSlotCount(hw_)));
  // Under the cost-guided scheduler, feed last step's per-tile cycles in as
  // estimates and capture this step's for the next (kStatic leaves the
  // feedback loop untouched so static runs match the seed model exactly).
  const bool cost_sched =
      hw_.cfg().tile_schedule == TileSchedulePolicy::kCostSteal;
  RegionCosts costs;
  if (cost_sched) {
    costs.estimates = &block.pass1_costs.estimate;
    costs.measured = &block.pass1_costs.measured;
    costs.prev_owners = &block.pass1_costs.owner;
    costs.owners = &block.pass1_costs.owner_measured;
  }
  ParallelForTiles(
      hw_, block.tiles.num_tiles(),
      [&](HwContext& hw, int worker, int t) {
        ParticleTile& tile = block.tiles.tile(t);
        Pass1Partial& part = partials[static_cast<size_t>(worker)].value;
        if (guards_on &&
            !monitor->GuardTileFull(hw, tile, g, pre_margin,
                                    block.species.mass, sid, t, &part.health)) {
          // Quarantined: the poisoned lanes must not reach the gather (a
          // non-finite position indexes the grid) or the sort scan (CellX of
          // NaN is undefined). The tile sits out the whole step.
          return;
        }
        if (tile.num_live() > 0) {
          if (block.engine.esirkepov()) {
            CaptureOldPositionsTile(hw, tile);
          }
          GatherScratch& gs = block.gather_scratch[static_cast<size_t>(t)];
          GatherFieldsTileFor<Order>(hw, tile, fields, gs,
                                     GatherByCellBins(block));
          PushTileBoris(hw, tile, gs, pp);
          part.pushed += tile.num_live();
          if (guards_on &&
              !monitor->GuardTilePositions(hw, tile, g, post_margin, sid, t,
                                           &part.health)) {
            // Poisoned by this step's push (a bad gathered field): stop
            // before the fmod wrap destroys the evidence.
            return;
          }
        }
        BoundaryTile(hw, block, in.drop_behind_window, t, &part.dropped);
        block.engine.ScanTile(hw, block.tiles, t, &part.scan);
      },
      RegionMerge::kFusedStages, costs);
  if (cost_sched) {
    block.pass1_costs.Commit();
  }

  block.pushed_last_step = 0;
  for (const PaddedSlot<Pass1Partial>& slot : partials) {
    block.pushed_last_step += slot.value.pushed;
    ss->dropped += slot.value.dropped;
    block.engine.AccumulateScan(slot.value.scan, &ss->engine);
    if (monitor != nullptr) {
      monitor->AccumulateTilePartial(slot.value.health);
    }
  }
  block.particles_pushed += block.pushed_last_step;
  ss->pushed = block.pushed_last_step;
}

void StepPipeline::DepositTiles(const StepPipelineInputs& in,
                                SpeciesBlock& block, int sid,
                                FieldSet& fields) {
  DepositionEngine& engine = block.engine;
  TileSet& tiles = block.tiles;
  const double charge = block.species.charge;
  // Quarantined tiles sit out staging, kernel, AND reduction: their scratch
  // (rhocell blocks, Esirkepov buffers) still holds the previous step's
  // accumulation, which a reduce would re-deposit as phantom current.
  const HealthMonitor* monitor = in.health;
  const bool any_q = monitor != nullptr && monitor->AnyQuarantined();
  const auto skip = [&](int t) {
    return any_q && monitor->IsQuarantined(sid, t);
  };

  const bool cost_sched =
      hw_.cfg().tile_schedule == TileSchedulePolicy::kCostSteal;

  // Pass 2: staging + kernel. Rhocell-backed kernels accumulate into
  // tile-private blocks and fan out; the baseline/scalar kernels scatter
  // straight into shared J and stay serial.
  if (ParallelEnabled(hw_) && engine.deposit_is_tile_parallel()) {
    const std::vector<int> home = TileHomeDomains(hw_, block);
    engine.RefreshTileRegistrations(tiles, home.empty() ? nullptr : &home);
    RegionCosts costs;
    if (cost_sched) {
      costs.estimates = &block.deposit_costs.estimate;
      costs.measured = &block.deposit_costs.measured;
      costs.prev_owners = &block.deposit_costs.owner;
      costs.owners = &block.deposit_costs.owner_measured;
    }
    ParallelForTiles(
        hw_, tiles.num_tiles(),
        [&](HwContext& hw, int, int t) {
          if (skip(t)) {
            return;
          }
          engine.StageAndDepositTile(hw, tiles, fields, charge, t);
        },
        RegionMerge::kFusedStages, costs);
    if (cost_sched) {
      block.deposit_costs.Commit();
    }
  } else {
    // Serial deposit (shared-J scatter kernels): on a multi-rank machine each
    // rank sweeps its own domain's tiles concurrently.
    ScopedRankScale rank_scale(hw_.ledger(), hw_.num_ranks());
    for (int t = 0; t < tiles.num_tiles(); ++t) {
      if (skip(t)) {
        continue;
      }
      engine.StageAndDepositTile(hw_, tiles, fields, charge, t);
    }
  }

  // Rhocell -> J reduction on the halo-disjoint colored schedule: tiles of
  // one class write disjoint node sets and fan out; the classes run as
  // sequential barriers in class order, so shared halo nodes accumulate
  // identically whether a class fans out or runs inline. The cost
  // feedback is tile-indexed across all classes: each class gathers its
  // tiles' estimates into a positional list for the scheduler and scatters
  // the positional measurements back by tile id.
  const bool have_reduce_est =
      cost_sched && block.reduce_costs.estimate.size() ==
                        static_cast<size_t>(tiles.num_tiles());
  const bool have_reduce_own =
      cost_sched && block.reduce_costs.owner.size() ==
                        static_cast<size_t>(tiles.num_tiles());
  if (cost_sched) {
    block.reduce_costs.measured.assign(
        static_cast<size_t>(tiles.num_tiles()), 0.0);
    block.reduce_costs.owner_measured.assign(
        static_cast<size_t>(tiles.num_tiles()), -1);
  }
  std::vector<double> class_est;
  std::vector<double> class_meas;
  std::vector<int32_t> class_own_est;
  std::vector<int32_t> class_own;
  for (const std::vector<int>& color_class : engine.reduce_coloring()) {
    // A singleton class (common under the thin-tile per-coordinate fallback)
    // has nothing to overlap with — run it inline rather than paying a
    // fork/join for a one-tile region.
    if (ParallelEnabled(hw_) && engine.deposit_is_tile_parallel() &&
        color_class.size() > 1) {
      RegionCosts costs;
      if (cost_sched) {
        if (have_reduce_est) {
          class_est.clear();
          for (int t : color_class) {
            class_est.push_back(
                block.reduce_costs.estimate[static_cast<size_t>(t)]);
          }
          costs.estimates = &class_est;
        }
        if (have_reduce_own) {
          class_own_est.clear();
          for (int t : color_class) {
            class_own_est.push_back(
                block.reduce_costs.owner[static_cast<size_t>(t)]);
          }
          costs.prev_owners = &class_own_est;
        }
        costs.measured = &class_meas;
        costs.owners = &class_own;
      }
      ParallelForTileList(
          hw_, color_class,
          [&](HwContext& hw, int, int t) {
            if (skip(t)) {
              return;
            }
            engine.ReduceTile(hw, tiles, fields, t);
          },
          RegionMerge::kPhaseMax, costs);
      if (cost_sched) {
        for (size_t i = 0; i < color_class.size(); ++i) {
          block.reduce_costs.measured[static_cast<size_t>(color_class[i])] =
              class_meas[i];
          block.reduce_costs.owner_measured[static_cast<size_t>(
              color_class[i])] = class_own[i];
        }
      }
    } else {
      for (int t : color_class) {
        if (skip(t)) {
          continue;
        }
        engine.ReduceTile(hw_, tiles, fields, t);
      }
    }
  }
  if (cost_sched) {
    block.reduce_costs.Commit();
  }
}

// ---- Step orchestration -----------------------------------------------------

void StepPipeline::RunParticleStages(const StepPipelineInputs& in,
                                     std::vector<std::unique_ptr<SpeciesBlock>>& blocks,
                                     FieldSet& fields, SimStepStats* stats) {
  // Zero current accumulators (once; species accumulate into the shared J).
  ZeroCurrentsStage(fields);

  // Arm the health monitor's quarantine map before the first particle stage.
  if (in.health != nullptr && !blocks.empty()) {
    in.health->BeginStep(static_cast<int>(blocks.size()),
                         blocks[0]->tiles.num_tiles());
  }

  // Every species accumulates into the shared J. With one species the guard
  // fold happens right after its deposit (the seed behavior); with several,
  // folding must wait until all species have accumulated, because a fold
  // refills the guards with interior images that a later fold would count
  // again.
  const bool shared_fold = blocks.size() > 1;
  stats->species.clear();

  for (size_t sidx = 0; sidx < blocks.size(); ++sidx) {
    SpeciesBlock* b = blocks[sidx].get();
    const int sid = static_cast<int>(sidx);
    SpeciesStepStats ss;
    ss.name = b->species.name;
    PrepareTileRegions(*b);
    b->engine.BeginStep(b->tiles, in.dt);
    const double dep_before = hw_.ledger().DepositionCycles();
    FusedPass1(in, *b, sid, fields, &ss);
    // Fault hook: a lost migration buffer vanishes here, after the scan
    // staged the movers and before the delivery barrier. Deliberately NOT
    // counted into ss.dropped — the loss is silent, which is exactly what
    // the census sentinel exists to catch.
    if (in.injector != nullptr) {
      in.injector->OnMoversStaged(*b, sid, in.step);
    }
    b->engine.DeliverMovers(b->tiles, &ss.engine);
    b->engine.PostScanGlobalSort(b->tiles, fields, &ss.engine);
    DepositTiles(in, *b, sid, fields);
    if (!shared_fold) {
      DepositionEngine::FoldCurrentGuards(hw_, fields);
    }
    // The policy's throughput trigger sees this species' deposition-phase
    // cycles (Preproc+Compute+Sort+Reduce) of this step.
    b->engine.FinishStep(b->tiles, fields,
                         hw_.ledger().DepositionCycles() - dep_before,
                         &ss.engine);
    stats->species.push_back(std::move(ss));
  }

  if (shared_fold) {
    DepositionEngine::FoldCurrentGuards(hw_, fields);
  }

  // Modeled inter-rank communication of the particle stages: the particles
  // whose cross-tile movers crossed a rank boundary (counted per source rank
  // by every species' DeliverMovers) and the guard-plane J contributions the
  // fold just merged across the rank boundaries. Charged under Phase::kComm;
  // physics is untouched (see src/core/rank_comm.h).
  if (in.rank_comm != nullptr) {
    std::vector<int64_t> movers(
        static_cast<size_t>(in.rank_comm->num_ranks()), 0);
    for (const std::unique_ptr<SpeciesBlock>& b : blocks) {
      const std::vector<int64_t>& per_rank =
          b->engine.cross_rank_movers_last_step();
      for (size_t r = 0; r < per_rank.size() && r < movers.size(); ++r) {
        movers[r] += per_rank[r];
      }
    }
    in.rank_comm->ChargeMigration(movers);
    in.rank_comm->ExchangeCurrentHalos(fields);
  }

  // Collision stage: after every species has deposited, so this step's J
  // reflects the pre-collision momenta, and after the sort barriers, so the
  // GPMA bins hold each cell's current occupants. Scattering rewrites only
  // momenta — positions, slots, and GPMA structures are untouched — so the
  // stage is a pure tail of the step.
  if (in.collisions != nullptr) {
    in.collisions->Apply(in.step, in.dt);
    stats->collisions = in.collisions->last_step_stats();
  } else {
    stats->collisions = CollisionStepStats{};
  }
}

}  // namespace mpic
