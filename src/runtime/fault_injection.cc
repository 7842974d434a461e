#include "src/runtime/fault_injection.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/rng.h"
#include "src/core/simulation.h"
#include "src/core/species_block.h"

namespace mpic {

namespace {

// Flips `bit` of v's IEEE-754 image. bit < 0 selects the most significant
// CLEAR exponent bit — still a single-bit flip, but adaptively sited so the
// magnitude always inflates by >= 2^512 (or overflows to Inf): the
// "guaranteed detectable" configuration the recovery tests use. A fixed bit
// models an arbitrary SEU instead (low mantissa bits are silent precision
// faults by design).
double FlipValueBit(double v, int bit) {
  uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  if (bit >= 0) {
    u ^= 1ull << (bit & 63);
  } else {
    int chosen = 51;  // all-exponent-set (already NaN/Inf): flip mantissa MSB
    for (int b = 62; b >= 52; --b) {
      if ((u & (1ull << b)) == 0) {
        chosen = b;
        break;
      }
    }
    u ^= 1ull << chosen;
  }
  std::memcpy(&v, &u, sizeof(v));
  return v;
}

double QuietNan(uint64_t payload) {
  const uint64_t u = 0x7FF8000000000000ull | (payload & 0x0007FFFFFFFFFFFFull);
  double v = 0.0;
  std::memcpy(&v, &u, sizeof(v));
  return v;
}

FieldArray* FieldByIndex(FieldSet& f, int i) {
  FieldArray* arrays[] = {&f.ex, &f.ey, &f.ez, &f.bx, &f.by,
                          &f.bz, &f.jx, &f.jy, &f.jz};
  return arrays[i < 0 || i > 8 ? 0 : i];
}

std::vector<double>* LaneByIndex(ParticleSoA& soa, int i) {
  std::vector<double>* lanes[] = {&soa.x,  &soa.y,  &soa.z, &soa.ux, &soa.uy,
                                  &soa.uz, &soa.w,  &soa.xo, &soa.yo, &soa.zo};
  return lanes[i < 0 || i > 9 ? 0 : i];
}

// First live pid at or after `start` (wrapping); -1 if the tile is empty.
int32_t NextLiveSlot(const ParticleTile& tile, int32_t start) {
  const int32_t n = tile.num_slots();
  if (n == 0 || tile.num_live() == 0) {
    return -1;
  }
  for (int32_t i = 0; i < n; ++i) {
    const int32_t pid = static_cast<int32_t>((start + i) % n);
    if (tile.IsLive(pid)) {
      return pid;
    }
  }
  return -1;
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  fired_.assign(plan_.faults.size(), 0);
}

void FaultInjector::Reset() {
  std::fill(fired_.begin(), fired_.end(), 0);
  applied_ = 0;
}

int FaultInjector::ApplyPreStep(Simulation* sim) {
  int applied_now = 0;
  for (size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& spec = plan_.faults[i];
    if (fired_[i] != 0 || spec.kind == FaultKind::kDropStagedMovers ||
        spec.step != sim->step_count()) {
      continue;
    }
    Rng rng = Rng::ForStream(plan_.seed, static_cast<uint64_t>(i),
                             static_cast<uint64_t>(spec.step), 7);
    switch (spec.kind) {
      case FaultKind::kFieldBitFlip: {
        // Restrict to unique interior nodes ([0, n-1] per axis): guard nodes
        // and the upper periodic image are refilled from the interior every
        // step, which would silently launder the fault before any sentinel
        // could observe it.
        FieldArray& a = *FieldByIndex(sim->fields(), spec.field);
        if (a.size() == 0 || a.nx() == 0 || a.ny() == 0 || a.nz() == 0) {
          break;
        }
        int fi = 0, fj = 0, fk = 0;
        if (spec.target_max) {
          double best = -1.0;
          for (int k = 0; k < a.nz(); ++k) {
            for (int j = 0; j < a.ny(); ++j) {
              for (int i = 0; i < a.nx(); ++i) {
                const double m = std::abs(a.At(i, j, k));
                if (m > best) {
                  best = m;
                  fi = i;
                  fj = j;
                  fk = k;
                }
              }
            }
          }
        } else {
          fi = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(a.nx())));
          fj = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(a.ny())));
          fk = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(a.nz())));
        }
        a.At(fi, fj, fk) =
            FlipValueBit(a.At(fi, fj, fk), spec.bit >= 0 ? spec.bit : -1);
        ++applied_now;
        break;
      }
      case FaultKind::kParticleBitFlip:
      case FaultKind::kTileSoACorrupt: {
        if (spec.species < 0 || spec.species >= sim->num_species()) {
          break;
        }
        SpeciesBlock& b = sim->block(spec.species);
        const int n_tiles = b.tiles.num_tiles();
        const int start =
            spec.tile >= 0
                ? spec.tile % n_tiles
                : static_cast<int>(
                      rng.NextBelow(static_cast<uint64_t>(n_tiles)));
        ParticleTile* tile = nullptr;
        for (int j = 0; j < n_tiles; ++j) {
          ParticleTile& cand = b.tiles.tile((start + j) % n_tiles);
          if (cand.num_live() > 0) {
            tile = &cand;
            break;
          }
        }
        if (tile == nullptr) {
          break;  // species has no particles; the fault lands on nothing
        }
        const int32_t slot0 = NextLiveSlot(
            *tile, static_cast<int32_t>(rng.NextBelow(
                       static_cast<uint64_t>(tile->num_slots()))));
        if (spec.kind == FaultKind::kParticleBitFlip) {
          std::vector<double>& lane = *LaneByIndex(tile->soa(), spec.lane);
          lane[static_cast<size_t>(slot0)] =
              FlipValueBit(lane[static_cast<size_t>(slot0)], spec.bit);
        } else {
          int32_t pid = slot0;
          const int count =
              std::min<int>(spec.count, tile->num_live());
          for (int c = 0; c < count && pid >= 0; ++c) {
            for (int lane = 0; lane < 7; ++lane) {
              (*LaneByIndex(tile->soa(), lane))[static_cast<size_t>(pid)] =
                  QuietNan(rng.NextU64());
            }
            pid = NextLiveSlot(*tile, pid + 1);
          }
        }
        ++applied_now;
        break;
      }
      case FaultKind::kDropStagedMovers:
        break;  // handled by OnMoversStaged
    }
    fired_[i] = 1;
  }
  applied_ += applied_now;
  return applied_now;
}

int64_t FaultInjector::OnMoversStaged(SpeciesBlock& block, int sid,
                                      int64_t step) {
  int64_t dropped = 0;
  for (size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& spec = plan_.faults[i];
    if (fired_[i] != 0 || spec.kind != FaultKind::kDropStagedMovers ||
        spec.species != sid || step < spec.step) {
      continue;
    }
    Rng rng = Rng::ForStream(plan_.seed, static_cast<uint64_t>(i),
                             static_cast<uint64_t>(step), 11);
    const int n_tiles = block.tiles.num_tiles();
    const int start =
        spec.tile >= 0
            ? spec.tile % n_tiles
            : static_cast<int>(rng.NextBelow(static_cast<uint64_t>(n_tiles)));
    for (int j = 0; j < n_tiles; ++j) {
      const int64_t d = block.engine.ClearStagedMovers((start + j) % n_tiles);
      if (d > 0) {
        dropped += d;
        break;  // one tile's migration buffer is lost, not all of them
      }
    }
    if (dropped > 0) {
      fired_[i] = 1;  // armed specs stay pending until movers actually exist
      ++applied_;
    }
  }
  return dropped;
}

void TruncateCheckpoint(std::vector<uint8_t>* buf, size_t keep_bytes) {
  if (keep_bytes < buf->size()) {
    buf->resize(keep_bytes);
  }
}

void FlipCheckpointBit(std::vector<uint8_t>* buf, uint64_t seed) {
  if (buf->size() <= 17) {
    return;
  }
  const size_t idx =
      16 + static_cast<size_t>(Mix64(seed) % (buf->size() - 16));
  const int bit = static_cast<int>(Mix64(seed ^ 0x9E3779B97F4A7C15ull) % 8);
  (*buf)[idx] ^= static_cast<uint8_t>(1u << bit);
}

}  // namespace mpic
