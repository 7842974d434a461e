#include "src/runtime/checkpoint.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "src/common/fnv.h"
#include "src/core/simulation.h"

namespace mpic {

namespace {

constexpr char kMagic[8] = {'M', 'P', 'I', 'C', 'C', 'K', 'P', '\1'};
// Version 2: the SPECIES tail gained the re-sort policy's adaptive throughput
// baselines and the three kCostSteal per-tile estimate vectors, the LEDGER
// counters gained the steal pair, and multi-rank machines write a RANKS
// section. Version 3: the SPECIES tail gained the three committed per-tile
// owner vectors (sticky placement replans from them) and the LEDGER counters
// gained the NUMA trio (tasks_stolen_remote, remote_lines, remote_cycles).
// Version 4: the LEDGER counters gained the gather MOPA pair (gather_mopas,
// gather_mopa_valid_slots). Older images omit state a bit-exact restart
// needs, so they are rejected rather than half-restored.
constexpr uint32_t kVersion = 4;

enum SectionId : uint32_t {
  kSectionMeta = 1,
  kSectionFields = 2,
  kSectionSpecies = 3,
  kSectionLedger = 4,
  kSectionRanks = 5,
};

// ---- Little serialization helpers -------------------------------------------

class Writer {
 public:
  explicit Writer(std::vector<uint8_t>* out) : out_(out) {}

  void Bytes(const void* p, size_t n) {
    if (n == 0) {
      return;  // an empty vector's data() may be null
    }
    const auto* b = static_cast<const uint8_t*>(p);
    out_->insert(out_->end(), b, b + n);
  }
  template <typename T>
  void Pod(T v) {
    Bytes(&v, sizeof(T));
  }
  template <typename T>
  void Vec(const std::vector<T>& v) {
    Pod<uint64_t>(v.size());
    Bytes(v.data(), v.size() * sizeof(T));
  }

 private:
  std::vector<uint8_t>* out_;
};

class Reader {
 public:
  Reader(const uint8_t* p, size_t n) : p_(p), n_(n) {}

  bool Bytes(void* dst, size_t n) {
    if (!ok_ || n > n_ - pos_) {
      ok_ = false;
      return false;
    }
    if (n > 0) {  // an empty vector's data() may be null
      std::memcpy(dst, p_ + pos_, n);
      pos_ += n;
    }
    return true;
  }
  template <typename T>
  bool Pod(T* v) {
    return Bytes(v, sizeof(T));
  }
  template <typename T>
  bool Vec(std::vector<T>* v) {
    uint64_t count = 0;
    if (!Pod(&count)) {
      return false;
    }
    if (count > (n_ - pos_) / sizeof(T)) {
      ok_ = false;
      return false;
    }
    v->resize(static_cast<size_t>(count));
    return Bytes(v->data(), static_cast<size_t>(count) * sizeof(T));
  }
  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == n_; }

 private:
  const uint8_t* p_;
  size_t n_;
  size_t pos_ = 0;
  bool ok_ = true;
};

void AppendSection(std::vector<uint8_t>* out, uint32_t id, uint32_t index,
                   const std::vector<uint8_t>& payload) {
  Writer w(out);
  w.Pod<uint32_t>(id);
  w.Pod<uint32_t>(index);
  w.Pod<uint64_t>(payload.size());
  w.Pod<uint64_t>(Fnv1a(payload.data(), payload.size()));
  w.Bytes(payload.data(), payload.size());
}

// ---- Staged (parse-before-mutate) representations ---------------------------

struct MetaSpecies {
  uint64_t name_fnv = 0;
  double charge = 0.0, mass = 0.0;
  int32_t variant = 0, order = 0, scheme = 0;
};

struct Meta {
  int64_t step = 0;
  double time = 0.0, dt = 0.0;
  GridGeometry geom;
  int32_t guard_cells = 0, tile_x = 0, tile_y = 0, tile_z = 0;
  uint8_t staggered_j = 0, moving_window = 0;
  double window_accumulated = 0.0;
  uint64_t injection_seed = 0;
  std::vector<MetaSpecies> species;
};

struct StagedTile {
  std::vector<double> lanes[10];
  std::vector<uint8_t> live;
  std::vector<int32_t> free_slots;
  Gpma::State gpma;
};

struct StagedSpecies {
  std::vector<StagedTile> tiles;
  RankSortStats sort_stats;
  int64_t total_global_sorts = 0;
  // Committed kCostSteal per-tile estimates (what the next step plans from).
  std::vector<double> pass1_est, deposit_est, reduce_est;
  // v3: committed per-tile owners (global worker ids) — the sticky-placement
  // preference and home-domain anchor for the next step's schedule.
  std::vector<int32_t> pass1_own, deposit_own, reduce_own;
};

struct StagedLedger {
  std::vector<double> phase_cycles;
  LedgerCounters counters;
};

struct StagedRanks {
  std::vector<RankCommStats> stats;
};

FieldArray* FieldByIndex(FieldSet& f, int i) {
  FieldArray* arrays[] = {&f.ex, &f.ey, &f.ez, &f.bx, &f.by,
                          &f.bz, &f.jx, &f.jy, &f.jz, &f.rho};
  return arrays[i];
}

void WriteCounters(Writer* w, const LedgerCounters& c) {
  for (const uint64_t v :
       {c.scalar_ops, c.scalar_mem, c.vpu_ops, c.vpu_mem, c.gathers,
        c.scatters, c.mopas, c.mopa_valid_slots, c.atomics, c.l1_hits,
        c.l1_misses, c.l2_hits, c.l2_misses}) {
    w->Pod<uint64_t>(v);
  }
  // v2: the work-stealing pair — a restored kCostSteal run must resume its
  // steal accounting, not restart it from zero.
  w->Pod<uint64_t>(c.tasks_stolen);
  w->Pod<double>(c.steal_cycles);
  // v3: the NUMA trio, same reasoning.
  w->Pod<uint64_t>(c.tasks_stolen_remote);
  w->Pod<uint64_t>(c.remote_lines);
  w->Pod<double>(c.remote_cycles);
  // v4: the gather MOPA pair, same reasoning.
  w->Pod<uint64_t>(c.gather_mopas);
  w->Pod<uint64_t>(c.gather_mopa_valid_slots);
}

bool ReadCounters(Reader* r, LedgerCounters* c) {
  for (uint64_t* v :
       {&c->scalar_ops, &c->scalar_mem, &c->vpu_ops, &c->vpu_mem, &c->gathers,
        &c->scatters, &c->mopas, &c->mopa_valid_slots, &c->atomics,
        &c->l1_hits, &c->l1_misses, &c->l2_hits, &c->l2_misses}) {
    if (!r->Pod(v)) {
      return false;
    }
  }
  return r->Pod(&c->tasks_stolen) && r->Pod(&c->steal_cycles) &&
         r->Pod(&c->tasks_stolen_remote) && r->Pod(&c->remote_lines) &&
         r->Pod(&c->remote_cycles) && r->Pod(&c->gather_mopas) &&
         r->Pod(&c->gather_mopa_valid_slots);
}

CheckpointStatus ParseError(const std::string& what) {
  return CheckpointStatus::Error("checkpoint: " + what);
}

}  // namespace

// ---- Save --------------------------------------------------------------------

CheckpointStatus SaveCheckpoint(Simulation& sim,
                                std::vector<uint8_t>* out,
                                const CheckpointWriteOptions& opts) {
  if (!sim.initialized()) {
    return ParseError("simulation not initialized");
  }
  out->clear();

  // META.
  std::vector<uint8_t> meta;
  {
    Writer w(&meta);
    w.Pod<int64_t>(sim.step_count());
    w.Pod<double>(sim.time());
    w.Pod<double>(sim.dt());
    const GridGeometry& g = sim.config().geom;
    w.Pod<int32_t>(g.nx);
    w.Pod<int32_t>(g.ny);
    w.Pod<int32_t>(g.nz);
    for (const double v : {g.dx, g.dy, g.dz, g.x0, g.y0, g.z0}) {
      w.Pod<double>(v);
    }
    w.Pod<int32_t>(sim.config().guard_cells);
    w.Pod<int32_t>(sim.config().tile_x);
    w.Pod<int32_t>(sim.config().tile_y);
    w.Pod<int32_t>(sim.config().tile_z);
    w.Pod<uint8_t>(sim.staggered_j() ? 1 : 0);
    w.Pod<uint8_t>(sim.config().moving_window ? 1 : 0);
    w.Pod<double>(sim.window_accumulated());
    w.Pod<uint64_t>(sim.injection_seed());
    w.Pod<int32_t>(sim.num_species());
    for (int sid = 0; sid < sim.num_species(); ++sid) {
      const SpeciesBlock& b = sim.block(sid);
      w.Pod<uint64_t>(
          Fnv1a(b.species.name.data(), b.species.name.size()));
      w.Pod<double>(b.species.charge);
      w.Pod<double>(b.species.mass);
      const EngineConfig& ec = b.engine.config();
      w.Pod<int32_t>(static_cast<int32_t>(ec.variant));
      w.Pod<int32_t>(ec.order);
      w.Pod<int32_t>(static_cast<int32_t>(ec.current_scheme));
    }
  }
  AppendSection(out, kSectionMeta, 0, meta);

  // FIELDS.
  std::vector<uint8_t> fields;
  {
    Writer w(&fields);
    for (int i = 0; i < 10; ++i) {
      w.Vec(FieldByIndex(sim.fields(), i)->vec());
    }
  }
  AppendSection(out, kSectionFields, 0, fields);

  // SPECIES_i.
  for (int sid = 0; sid < sim.num_species(); ++sid) {
    const SpeciesBlock& b = sim.block(sid);
    std::vector<uint8_t> sp;
    Writer w(&sp);
    w.Pod<int32_t>(b.tiles.num_tiles());
    for (int t = 0; t < b.tiles.num_tiles(); ++t) {
      const ParticleTile& tile = b.tiles.tile(t);
      const ParticleSoA& soa = tile.soa();
      for (const std::vector<double>* lane :
           {&soa.x, &soa.y, &soa.z, &soa.ux, &soa.uy, &soa.uz, &soa.w,
            &soa.xo, &soa.yo, &soa.zo}) {
        w.Vec(*lane);
      }
      w.Vec(tile.live_bits());
      w.Vec(tile.free_slots());
      const Gpma::State gs = tile.gpma().ExportState();
      w.Pod<double>(gs.config.gap_fraction);
      w.Pod<int32_t>(gs.config.min_gap_per_bin);
      w.Pod<int32_t>(gs.config.max_shift_bins);
      w.Pod<int32_t>(gs.num_cells);
      w.Pod<int32_t>(gs.num_particles);
      w.Vec(gs.local_index);
      w.Vec(gs.bin_offsets);
      w.Vec(gs.bin_lengths);
      w.Vec(gs.slot_of_pid);
      w.Vec(gs.cell_of_pid);
    }
    const RankSortStats& rs = b.engine.rank_stats();
    w.Pod<int32_t>(rs.steps_since_sort);
    w.Pod<int64_t>(rs.local_rebuilds);
    w.Pod<int64_t>(b.engine.total_global_sorts());
    // v2 tail: the adaptive trigger's throughput baselines — omitting these
    // made the performance trigger re-baseline after restore, breaking
    // bit-exact restart whenever it was enabled.
    w.Pod<double>(rs.empty_slot_ratio);
    w.Pod<double>(rs.step_throughput);
    w.Pod<double>(rs.baseline_throughput);
    // v2 tail: the committed kCostSteal per-tile estimates, so a restored
    // run replans the same schedule (and therefore the same steal ledger)
    // as a never-interrupted one.
    w.Vec(b.pass1_costs.estimate);
    w.Vec(b.deposit_costs.estimate);
    w.Vec(b.reduce_costs.estimate);
    // v3 tail: the committed owners alongside the estimates — sticky
    // placement and the tiles' home domains replan from these, so a restored
    // run places (and steals) exactly like a never-interrupted one.
    w.Vec(b.pass1_costs.owner);
    w.Vec(b.deposit_costs.owner);
    w.Vec(b.reduce_costs.owner);
    AppendSection(out, kSectionSpecies, static_cast<uint32_t>(sid), sp);
  }

  // LEDGER.
  if (opts.include_ledger) {
    std::vector<uint8_t> led;
    Writer w(&led);
    w.Pod<uint32_t>(static_cast<uint32_t>(kNumPhases));
    for (int p = 0; p < kNumPhases; ++p) {
      w.Pod<double>(sim.hw().ledger().PhaseCycles(static_cast<Phase>(p)));
    }
    WriteCounters(&w, sim.hw().ledger().counters());
    AppendSection(out, kSectionLedger, 0, led);
  }

  // RANKS: cumulative per-rank communication totals (multi-rank model only).
  const bool have_ranks = sim.rank_comm() != nullptr;
  if (have_ranks) {
    std::vector<uint8_t> rk;
    Writer w(&rk);
    const std::vector<RankCommStats>& stats = sim.rank_comm()->stats();
    w.Pod<int32_t>(static_cast<int32_t>(stats.size()));
    for (const RankCommStats& s : stats) {
      w.Pod<uint64_t>(s.bytes_sent);
      w.Pod<uint64_t>(s.messages);
      w.Pod<double>(s.comm_cycles);
      w.Pod<uint64_t>(s.migrated_particles);
    }
    AppendSection(out, kSectionRanks, 0, rk);
  }

  // Prepend the header.
  std::vector<uint8_t> file;
  file.reserve(out->size() + 16);
  {
    Writer w(&file);
    w.Bytes(kMagic, sizeof(kMagic));
    w.Pod<uint32_t>(kVersion);
    w.Pod<uint32_t>(
        static_cast<uint32_t>(2 + sim.num_species() +
                              (opts.include_ledger ? 1 : 0) +
                              (have_ranks ? 1 : 0)));
  }
  file.insert(file.end(), out->begin(), out->end());
  *out = std::move(file);

  if (opts.model_sync) {
    // Save-side half of the cycle-exact handshake: continue this run from
    // the same deterministic model state a restored twin rebuilds. Runs
    // after serialization so the image itself is unaffected.
    sim.ModelSyncPoint();
  }

  if (opts.charge != nullptr) {
    // Serialization is a streaming copy of the whole image (read state, write
    // buffer: both directions billed). stream_bytes_per_cycle is per core and
    // the format's per-tile records are independently sizable, so a resident
    // implementation serializes tile-parallel; the modeled critical path is
    // the image split across the machine's cores.
    PhaseScope phase(opts.charge->ledger(), Phase::kHealth);
    opts.charge->ChargeBulk(
        0.0, 2.0 * static_cast<double>(out->size()) /
                 static_cast<double>(opts.charge->cfg().num_cores));
  }
  return CheckpointStatus::Ok();
}

// ---- Restore -------------------------------------------------------------------

CheckpointStatus RestoreCheckpoint(Simulation* sim,
                                   const std::vector<uint8_t>& buf,
                                   const CheckpointReadOptions& opts) {
  if (!sim->initialized()) {
    return ParseError("target simulation not initialized");
  }

  // ---- Phase 1: parse and verify EVERYTHING before mutating anything ----
  if (buf.size() < 16 || std::memcmp(buf.data(), kMagic, sizeof(kMagic)) != 0) {
    return ParseError("bad magic (not a checkpoint, or truncated header)");
  }
  uint32_t version = 0, n_sections = 0;
  std::memcpy(&version, buf.data() + 8, 4);
  std::memcpy(&n_sections, buf.data() + 12, 4);
  if (version != kVersion) {
    std::ostringstream os;
    os << "unsupported version " << version;
    return ParseError(os.str());
  }

  struct Section {
    uint32_t id = 0, index = 0;
    const uint8_t* payload = nullptr;
    size_t bytes = 0;
  };
  std::vector<Section> sections;
  size_t pos = 16;
  for (uint32_t s = 0; s < n_sections; ++s) {
    if (buf.size() - pos < 24) {
      return ParseError("truncated section header");
    }
    Section sec;
    uint64_t bytes = 0, fnv = 0;
    std::memcpy(&sec.id, buf.data() + pos, 4);
    std::memcpy(&sec.index, buf.data() + pos + 4, 4);
    std::memcpy(&bytes, buf.data() + pos + 8, 8);
    std::memcpy(&fnv, buf.data() + pos + 16, 8);
    pos += 24;
    if (bytes > buf.size() - pos) {
      return ParseError("truncated section payload");
    }
    sec.payload = buf.data() + pos;
    sec.bytes = static_cast<size_t>(bytes);
    pos += sec.bytes;
    if (Fnv1a(sec.payload, sec.bytes) != fnv) {
      std::ostringstream os;
      os << "checksum mismatch in section id " << sec.id;
      return ParseError(os.str());
    }
    sections.push_back(sec);
  }

  const Section* meta_sec = nullptr;
  const Section* fields_sec = nullptr;
  const Section* ledger_sec = nullptr;
  const Section* ranks_sec = nullptr;
  std::vector<const Section*> species_secs(
      static_cast<size_t>(sim->num_species()), nullptr);
  for (const Section& s : sections) {
    switch (s.id) {
      case kSectionMeta:
        meta_sec = &s;
        break;
      case kSectionFields:
        fields_sec = &s;
        break;
      case kSectionLedger:
        ledger_sec = &s;
        break;
      case kSectionRanks:
        ranks_sec = &s;
        break;
      case kSectionSpecies:
        if (s.index >= species_secs.size()) {
          return ParseError("species section index out of range");
        }
        species_secs[s.index] = &s;
        break;
      default:
        break;  // unknown sections are skipped (forward compatibility)
    }
  }
  if (meta_sec == nullptr || fields_sec == nullptr) {
    return ParseError("missing META or FIELDS section");
  }
  for (size_t sid = 0; sid < species_secs.size(); ++sid) {
    if (species_secs[sid] == nullptr) {
      std::ostringstream os;
      os << "missing SPECIES section for species " << sid;
      return ParseError(os.str());
    }
  }

  // META: parse and validate compatibility with the target simulation.
  Meta meta;
  {
    Reader r(meta_sec->payload, meta_sec->bytes);
    r.Pod(&meta.step);
    r.Pod(&meta.time);
    r.Pod(&meta.dt);
    r.Pod(&meta.geom.nx);
    r.Pod(&meta.geom.ny);
    r.Pod(&meta.geom.nz);
    for (double* v : {&meta.geom.dx, &meta.geom.dy, &meta.geom.dz,
                      &meta.geom.x0, &meta.geom.y0, &meta.geom.z0}) {
      r.Pod(v);
    }
    r.Pod(&meta.guard_cells);
    r.Pod(&meta.tile_x);
    r.Pod(&meta.tile_y);
    r.Pod(&meta.tile_z);
    r.Pod(&meta.staggered_j);
    r.Pod(&meta.moving_window);
    r.Pod(&meta.window_accumulated);
    r.Pod(&meta.injection_seed);
    int32_t n_species = 0;
    r.Pod(&n_species);
    if (!r.ok() || n_species < 0 || n_species > 1 << 20) {
      return ParseError("malformed META section");
    }
    meta.species.resize(static_cast<size_t>(n_species));
    for (MetaSpecies& ms : meta.species) {
      r.Pod(&ms.name_fnv);
      r.Pod(&ms.charge);
      r.Pod(&ms.mass);
      r.Pod(&ms.variant);
      r.Pod(&ms.order);
      r.Pod(&ms.scheme);
    }
    if (!r.ok()) {
      return ParseError("malformed META section");
    }
  }
  const SimulationConfig& cfg = sim->config();
  if (static_cast<int>(meta.species.size()) != sim->num_species()) {
    return ParseError("species count mismatch");
  }
  if (meta.geom.nx != cfg.geom.nx || meta.geom.ny != cfg.geom.ny ||
      meta.geom.nz != cfg.geom.nz || meta.geom.dx != cfg.geom.dx ||
      meta.geom.dy != cfg.geom.dy || meta.geom.dz != cfg.geom.dz ||
      meta.geom.x0 != cfg.geom.x0 || meta.geom.y0 != cfg.geom.y0) {
    return ParseError("grid geometry mismatch");
  }
  if (meta.moving_window != (cfg.moving_window ? 1 : 0)) {
    return ParseError("moving-window configuration mismatch");
  }
  if (meta.moving_window == 0 && meta.geom.z0 != cfg.geom.z0) {
    return ParseError("grid geometry mismatch (z origin)");
  }
  if (meta.guard_cells != cfg.guard_cells || meta.tile_x != cfg.tile_x ||
      meta.tile_y != cfg.tile_y || meta.tile_z != cfg.tile_z) {
    return ParseError("guard/tile configuration mismatch");
  }
  if (meta.dt != sim->dt()) {
    return ParseError("dt mismatch (different CFL or solver configuration)");
  }
  if (meta.staggered_j != (sim->staggered_j() ? 1 : 0)) {
    return ParseError("current-scheme (J staggering) mismatch");
  }
  for (int sid = 0; sid < sim->num_species(); ++sid) {
    const SpeciesBlock& b = sim->block(sid);
    const MetaSpecies& ms = meta.species[static_cast<size_t>(sid)];
    const EngineConfig& ec = b.engine.config();
    if (ms.name_fnv != Fnv1a(b.species.name.data(), b.species.name.size()) ||
        ms.charge != b.species.charge || ms.mass != b.species.mass ||
        ms.variant != static_cast<int32_t>(ec.variant) ||
        ms.order != ec.order ||
        ms.scheme != static_cast<int32_t>(ec.current_scheme)) {
      std::ostringstream os;
      os << "species " << sid << " identity/engine mismatch";
      return ParseError(os.str());
    }
  }

  // FIELDS: stage and validate sizes.
  std::vector<double> staged_fields[10];
  {
    Reader r(fields_sec->payload, fields_sec->bytes);
    for (auto& staged_field : staged_fields) {
      r.Vec(&staged_field);
    }
    if (!r.ok()) {
      return ParseError("malformed FIELDS section");
    }
    for (int i = 0; i < 10; ++i) {
      if (staged_fields[i].size() != FieldByIndex(sim->fields(), i)->vec().size()) {
        return ParseError("field array size mismatch");
      }
    }
  }

  // SPECIES: stage and validate structure.
  std::vector<StagedSpecies> staged(static_cast<size_t>(sim->num_species()));
  for (int sid = 0; sid < sim->num_species(); ++sid) {
    const Section* sec = species_secs[static_cast<size_t>(sid)];
    StagedSpecies& ss = staged[static_cast<size_t>(sid)];
    Reader r(sec->payload, sec->bytes);
    int32_t n_tiles = 0;
    r.Pod(&n_tiles);
    if (!r.ok() || n_tiles != sim->block(sid).tiles.num_tiles()) {
      return ParseError("tile count mismatch");
    }
    ss.tiles.resize(static_cast<size_t>(n_tiles));
    for (StagedTile& st : ss.tiles) {
      for (auto& lane : st.lanes) {
        r.Vec(&lane);
      }
      r.Vec(&st.live);
      r.Vec(&st.free_slots);
      r.Pod(&st.gpma.config.gap_fraction);
      r.Pod(&st.gpma.config.min_gap_per_bin);
      r.Pod(&st.gpma.config.max_shift_bins);
      r.Pod(&st.gpma.num_cells);
      r.Pod(&st.gpma.num_particles);
      r.Vec(&st.gpma.local_index);
      r.Vec(&st.gpma.bin_offsets);
      r.Vec(&st.gpma.bin_lengths);
      r.Vec(&st.gpma.slot_of_pid);
      r.Vec(&st.gpma.cell_of_pid);
      if (!r.ok()) {
        return ParseError("malformed SPECIES section");
      }
      const size_t n = st.lanes[0].size();
      for (const auto& lane : st.lanes) {
        if (lane.size() != n) {
          return ParseError("particle lane size mismatch");
        }
      }
      if (st.live.size() != n) {
        return ParseError("live bitmap size mismatch");
      }
      size_t live_count = 0;
      for (const uint8_t b : st.live) {
        live_count += b != 0 ? 1 : 0;
      }
      if (live_count + st.free_slots.size() != n) {
        return ParseError("live/free census mismatch");
      }
      for (const int32_t f : st.free_slots) {
        if (f < 0 || static_cast<size_t>(f) >= n ||
            st.live[static_cast<size_t>(f)] != 0) {
          return ParseError("free-slot stack inconsistent with live bitmap");
        }
      }
      if (st.gpma.num_cells > 0) {
        if (st.gpma.bin_offsets.size() !=
                static_cast<size_t>(st.gpma.num_cells) + 1 ||
            st.gpma.bin_lengths.size() !=
                static_cast<size_t>(st.gpma.num_cells) ||
            st.gpma.local_index.size() !=
                static_cast<size_t>(st.gpma.bin_offsets.back())) {
          return ParseError("GPMA structure inconsistent");
        }
      }
    }
    r.Pod(&ss.sort_stats.steps_since_sort);
    r.Pod(&ss.sort_stats.local_rebuilds);
    r.Pod(&ss.total_global_sorts);
    r.Pod(&ss.sort_stats.empty_slot_ratio);
    r.Pod(&ss.sort_stats.step_throughput);
    r.Pod(&ss.sort_stats.baseline_throughput);
    r.Vec(&ss.pass1_est);
    r.Vec(&ss.deposit_est);
    r.Vec(&ss.reduce_est);
    r.Vec(&ss.pass1_own);
    r.Vec(&ss.deposit_own);
    r.Vec(&ss.reduce_own);
    if (!r.ok()) {
      return ParseError("malformed SPECIES section tail");
    }
  }

  // LEDGER (optional).
  StagedLedger staged_ledger;
  bool have_ledger = false;
  if (opts.restore_ledger && ledger_sec != nullptr) {
    Reader r(ledger_sec->payload, ledger_sec->bytes);
    uint32_t n_phases = 0;
    r.Pod(&n_phases);
    if (!r.ok() || n_phases > 64) {
      return ParseError("malformed LEDGER section");
    }
    staged_ledger.phase_cycles.resize(n_phases);
    for (uint32_t p = 0; p < n_phases; ++p) {
      r.Pod(&staged_ledger.phase_cycles[p]);
    }
    if (!ReadCounters(&r, &staged_ledger.counters) || !r.ok()) {
      return ParseError("malformed LEDGER section");
    }
    have_ledger = true;
  }

  // RANKS (present iff the saving machine modeled multiple ranks). Applied
  // only when the target models the same rank count; a rank-count change is
  // a machine reconfiguration, and the per-rank history is meaningless then.
  StagedRanks staged_ranks;
  bool have_ranks_state = false;
  if (ranks_sec != nullptr && sim->rank_comm() != nullptr) {
    Reader r(ranks_sec->payload, ranks_sec->bytes);
    int32_t n_ranks = 0;
    r.Pod(&n_ranks);
    if (!r.ok() || n_ranks < 0 || n_ranks > 1 << 20) {
      return ParseError("malformed RANKS section");
    }
    if (n_ranks != sim->rank_comm()->num_ranks()) {
      return ParseError("rank count mismatch");
    }
    staged_ranks.stats.resize(static_cast<size_t>(n_ranks));
    for (RankCommStats& s : staged_ranks.stats) {
      r.Pod(&s.bytes_sent);
      r.Pod(&s.messages);
      r.Pod(&s.comm_cycles);
      r.Pod(&s.migrated_particles);
    }
    if (!r.ok()) {
      return ParseError("malformed RANKS section");
    }
    have_ranks_state = true;
  }

  // ---- Phase 2: everything verified — apply (no failure paths below) ----
  sim->RestoreGeometry(meta.geom);
  for (int i = 0; i < 10; ++i) {
    // Copy in place: the field arrays are registered with the modeled address
    // map by pointer, so their storage must not reallocate.
    std::vector<double>& dst = FieldByIndex(sim->fields(), i)->vec();
    std::copy(staged_fields[i].begin(), staged_fields[i].end(), dst.begin());
  }
  for (int sid = 0; sid < sim->num_species(); ++sid) {
    SpeciesBlock& b = sim->block(sid);
    StagedSpecies& ss = staged[static_cast<size_t>(sid)];
    for (int t = 0; t < b.tiles.num_tiles(); ++t) {
      StagedTile& st = ss.tiles[static_cast<size_t>(t)];
      ParticleSoA soa;
      soa.x = std::move(st.lanes[0]);
      soa.y = std::move(st.lanes[1]);
      soa.z = std::move(st.lanes[2]);
      soa.ux = std::move(st.lanes[3]);
      soa.uy = std::move(st.lanes[4]);
      soa.uz = std::move(st.lanes[5]);
      soa.w = std::move(st.lanes[6]);
      soa.xo = std::move(st.lanes[7]);
      soa.yo = std::move(st.lanes[8]);
      soa.zo = std::move(st.lanes[9]);
      ParticleTile& tile = b.tiles.tile(t);
      tile.RestoreStorage(std::move(soa), std::move(st.live),
                          std::move(st.free_slots));
      tile.gpma().ImportState(std::move(st.gpma));
    }
    b.engine.RestoreSortState(ss.sort_stats, ss.total_global_sorts);
    b.pass1_costs.estimate = std::move(ss.pass1_est);
    b.deposit_costs.estimate = std::move(ss.deposit_est);
    b.reduce_costs.estimate = std::move(ss.reduce_est);
    b.pass1_costs.owner = std::move(ss.pass1_own);
    b.deposit_costs.owner = std::move(ss.deposit_own);
    b.reduce_costs.owner = std::move(ss.reduce_own);
  }
  sim->RestoreClock(meta.step, meta.time);
  sim->set_injection_seed(meta.injection_seed);
  sim->set_window_accumulated(meta.window_accumulated);

  if (have_ledger) {
    CostLedger& ledger = sim->hw().ledger();
    ledger.Reset();
    for (size_t p = 0;
         p < staged_ledger.phase_cycles.size() && p < kNumPhases; ++p) {
      ledger.SetPhase(static_cast<Phase>(p));
      ledger.AddCycles(staged_ledger.phase_cycles[p]);
    }
    ledger.SetPhase(Phase::kOther);
    ledger.counters() = staged_ledger.counters;
  }
  if (have_ranks_state) {
    sim->rank_comm()->mutable_stats() = std::move(staged_ranks.stats);
  }

  if (opts.model_sync) {
    // Restore-side half of the cycle-exact handshake. Runs after the state
    // apply (the tile SoA storage just moved, so the old registrations are
    // stale either way) and before the serialization charge, mirroring the
    // save side's serialize -> sync -> charge order.
    sim->ModelSyncPoint();
  }

  if (opts.charge != nullptr) {
    // Tile-parallel like the save path: read buffer, write state.
    PhaseScope phase(opts.charge->ledger(), Phase::kHealth);
    opts.charge->ChargeBulk(
        0.0, 2.0 * static_cast<double>(buf.size()) /
                 static_cast<double>(opts.charge->cfg().num_cores));
  }
  return CheckpointStatus::Ok();
}

// ---- File wrappers -------------------------------------------------------------

CheckpointStatus SaveCheckpointFile(Simulation& sim,
                                    const std::string& path,
                                    const CheckpointWriteOptions& opts) {
  std::vector<uint8_t> buf;
  CheckpointStatus st = SaveCheckpoint(sim, &buf, opts);
  if (!st) {
    return st;
  }
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    return ParseError("cannot open '" + path + "' for writing");
  }
  f.write(reinterpret_cast<const char*>(buf.data()),
          static_cast<std::streamsize>(buf.size()));
  if (!f.good()) {
    return ParseError("short write to '" + path + "'");
  }
  return CheckpointStatus::Ok();
}

CheckpointStatus RestoreCheckpointFile(Simulation* sim,
                                       const std::string& path,
                                       const CheckpointReadOptions& opts) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) {
    return ParseError("cannot open '" + path + "' for reading");
  }
  const std::streamsize size = f.tellg();
  f.seekg(0);
  std::vector<uint8_t> buf(static_cast<size_t>(size));
  f.read(reinterpret_cast<char*>(buf.data()), size);
  if (!f.good()) {
    return ParseError("short read from '" + path + "'");
  }
  return RestoreCheckpoint(sim, buf, opts);
}

}  // namespace mpic
