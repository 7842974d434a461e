// Ablation: the cell-batched MPU field gather against the scalar reference
// (src/push/field_gather.h), on the same tiles of a built kFullOpt workload.
//
// For shape order {2 (TSC), 3 (QSP)} x PPC {8, 27, 64, 125} x modeled cores
// {1, 4}, a uniform plasma is built and stepped twice (non-trivial fields,
// GPMA bins maintained incrementally), then one gather fan-out runs over all
// tiles with each entry point from cold modeled caches. The table reports the
// gather-phase critical path of both, the reduction, the MPU occupancy of the
// gather MOPAs and the relative field error of the cell path.
//
// Gates (non-zero exit on any failure):
//   * gather cycles >= 35% lower than the scalar path at QSP PPC 64;
//   * no point slower than the scalar path — the per-batch selection rule
//     must hand sparse batches to the scalar particles;
//   * relative error of every gathered component <= 1e-12.
//
// Writes BENCH_gather.json (the JsonWriter sidecar) to the working directory.

#include <cstdio>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench/bench_util.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/hw/parallel_for.h"
#include "src/push/field_gather.h"

namespace mpic {
namespace {

constexpr double kMinQspReduction = 0.35;
constexpr double kMaxRelError = 1e-12;

struct GatherPoint {
  int order = 0;
  int ppc = 0;
  int cores = 0;
  double scalar_cycles = 0.0;
  double cell_cycles = 0.0;
  double rel_error = 0.0;
  MopaCounts mopa;
  double Reduction() const { return 1.0 - cell_cycles / scalar_cycles; }
};

// All six gathered components of every tile, concatenated in tile order.
std::vector<double> Flatten(const std::vector<GatherScratch>& scratch, int comp) {
  std::vector<double> out;
  for (const GatherScratch& gs : scratch) {
    const std::vector<double>* v[6] = {&gs.ex, &gs.ey, &gs.ez,
                                       &gs.bx, &gs.by, &gs.bz};
    out.insert(out.end(), v[comp]->begin(), v[comp]->end());
  }
  return out;
}

template <int Order>
GatherPoint Measure(int ppc1d, int cores) {
#ifdef _OPENMP
  omp_set_num_threads(cores);
#endif
  HwContext hw(MachineConfig::Lx2MultiCore(cores));
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.tile = 4;
  p.ppc_x = p.ppc_y = p.ppc_z = ppc1d;
  p.order = Order;
  p.variant = DepositVariant::kFullOpt;
  // The direct MPU deposit is CIC/QSP only; TSC runs the Esirkepov scheme.
  p.scheme = Order == 2 ? CurrentScheme::kEsirkepov : CurrentScheme::kDirect;
  auto sim = MakeUniformSimulation(hw, p);
  sim->Run(2);

  SpeciesBlock& block = sim->block(0);
  TileSet& tiles = block.tiles;
  block.engine.RefreshTileRegistrations(tiles);
  for (int t = 0; t < tiles.num_tiles(); ++t) {
    GatherScratch& gs = block.gather_scratch[static_cast<size_t>(t)];
    gs.Resize(tiles.tile(t).soa().size());
    RegisterGatherRegions(hw, MemRegionKey(block.mem_owner_id, t, 0), gs);
  }
  const FieldSet& fields = sim->fields();
  const auto gather = [&](bool cells) {
    hw.FlushModelCaches();
    const double before = hw.ledger().PhaseCycles(Phase::kGather);
    ParallelForTiles(hw, tiles.num_tiles(), [&](HwContext& w, int, int t) {
      const ParticleTile& tile = tiles.tile(t);
      if (tile.num_live() == 0) {
        return;
      }
      GatherScratch& gs = block.gather_scratch[static_cast<size_t>(t)];
      if (cells) {
        GatherFieldsTileCells<Order>(w, tile, fields, gs);
      } else {
        GatherFieldsTile<Order>(w, tile, fields, gs);
      }
    });
    return hw.ledger().PhaseCycles(Phase::kGather) - before;
  };

  GatherPoint r;
  r.order = Order;
  r.ppc = ppc1d * ppc1d * ppc1d;
  r.cores = cores;
  r.scalar_cycles = gather(false);
  const std::vector<GatherScratch> reference = block.gather_scratch;
  const LedgerCounters c0 = hw.ledger().counters();
  r.cell_cycles = gather(true);
  r.mopa = MopaCounts::Delta(hw.ledger().counters(), c0);
  for (int comp = 0; comp < 6; ++comp) {
    r.rel_error = std::max(r.rel_error,
                           RelMaxError(Flatten(reference, comp),
                                       Flatten(block.gather_scratch, comp)));
  }
  return r;
}

bool Run() {
  std::vector<GatherPoint> points;
  for (int order : {2, 3}) {
    for (int ppc1d : {2, 3, 4, 5}) {
      for (int cores : {1, 4}) {
        points.push_back(order == 2 ? Measure<2>(ppc1d, cores)
                                    : Measure<3>(ppc1d, cores));
      }
    }
  }

  ConsoleTable t({"Order", "PPC", "Cores", "Scalar cyc", "Cell cyc",
                  "Reduction", "Gather MPU occ.", "Rel. error", "Gate"});
  JsonWriter json;
  json.Field("bench", "abl_gather");
  json.BeginArray("points");
  bool ok = true;
  bool qsp64_seen = false;
  for (const GatherPoint& pt : points) {
    const bool not_slower = pt.cell_cycles <= pt.scalar_cycles;
    const bool accurate = pt.rel_error <= kMaxRelError;
    const bool qsp64 = pt.order == 3 && pt.ppc == 64;
    const bool reduced = !qsp64 || pt.Reduction() >= kMinQspReduction;
    const bool pass = not_slower && accurate && reduced;
    qsp64_seen = qsp64_seen || qsp64;
    ok = ok && pass;
    const double occ =
        MpuOccupancy(pt.mopa.gather_mopas, pt.mopa.gather_valid_slots);
    t.AddRow({std::to_string(pt.order), std::to_string(pt.ppc),
              std::to_string(pt.cores), FormatSci(pt.scalar_cycles, 3),
              FormatSci(pt.cell_cycles, 3),
              FormatDouble(100.0 * pt.Reduction(), 1) + "%",
              pt.mopa.GatherOccupancyCell(),
              FormatSci(pt.rel_error, 2), pass ? "ok" : "FAIL"});
    json.BeginObject();
    json.Field("order", pt.order);
    json.Field("ppc", pt.ppc);
    json.Field("cores", pt.cores);
    json.Field("scalar_gather_cycles", pt.scalar_cycles);
    json.Field("cell_gather_cycles", pt.cell_cycles);
    json.Field("reduction", pt.Reduction());
    json.Field("gather_mopas", pt.mopa.gather_mopas);
    json.Field("gather_mpu_occupancy", occ);
    json.Field("rel_error", pt.rel_error);
    json.Field("pass", pass);
    json.EndObject();
  }
  json.EndArray();
  ok = ok && qsp64_seen;
  json.BeginObject("gates");
  json.Field("min_qsp_ppc64_reduction", kMinQspReduction);
  json.Field("max_rel_error", kMaxRelError);
  json.Field("pass", ok);
  json.EndObject();

  t.Print("Gather ablation: cell-batched MPU gather vs scalar reference "
          "(kFullOpt, 8^3 grid, tile 4)");
  std::printf("\nGates %s: >= %.0f%% lower gather at QSP PPC 64, no point "
              "slower than scalar, relative error <= %.0e.\n",
              ok ? "HOLD" : "VIOLATED", 100.0 * kMinQspReduction, kMaxRelError);
  json.WriteFile("BENCH_gather.json");
  return ok;
}

}  // namespace
}  // namespace mpic

int main() { return mpic::Run() ? 0 : 1; }
