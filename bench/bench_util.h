// Shared helpers for the paper-reproduction bench binaries.
//
// Each bench binary reproduces one table or figure: it runs the relevant
// workloads under a fresh modeled machine, reads the per-phase cycle ledger,
// and prints rows in the paper's layout. Absolute values are modeled seconds
// on the 1.3 GHz LX2 model at simulator scale — the claims under test are the
// *relative* numbers (speedups, crossovers, efficiency ranking).

#ifndef MPIC_BENCH_BENCH_UTIL_H_
#define MPIC_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

// Fnv1a and the FieldsDigest/ParticlesDigest/SimulationDigest family the
// benches gate bit-identity with live in the library; benches and tests must
// hash state the same way or a digest mismatch means nothing.
#include "src/common/fnv.h"
#include "src/common/table.h"
#include "src/core/diagnostics.h"
#include "src/core/workloads.h"
#include "src/runtime/digest.h"

namespace mpic {

// Mean fraction of MPU tile slots carrying useful work per MOPA issue.
inline double MpuOccupancy(uint64_t mopas, uint64_t valid_slots) {
  return mopas == 0 ? 0.0
                    : static_cast<double>(valid_slots) /
                          (64.0 * static_cast<double>(mopas));
}

// A table cell for an occupancy: "-" where no MOPA issued.
inline std::string OccupancyCell(uint64_t mopas, uint64_t valid_slots) {
  return mopas == 0
             ? std::string("-")
             : FormatDouble(100.0 * MpuOccupancy(mopas, valid_slots), 1) + "%";
}

// MOPA issues and their useful slots over a measured window: ledger-wide, and
// the subset issued by the cell-batched field gather. Deposit figures are the
// difference.
struct MopaCounts {
  uint64_t mopas = 0;
  uint64_t valid_slots = 0;
  uint64_t gather_mopas = 0;
  uint64_t gather_valid_slots = 0;

  static MopaCounts Delta(const LedgerCounters& now,
                          const LedgerCounters& before) {
    MopaCounts d;
    d.mopas = now.mopas - before.mopas;
    d.valid_slots = now.mopa_valid_slots - before.mopa_valid_slots;
    d.gather_mopas = now.gather_mopas - before.gather_mopas;
    d.gather_valid_slots =
        now.gather_mopa_valid_slots - before.gather_mopa_valid_slots;
    return d;
  }
  uint64_t deposit_mopas() const { return mopas - gather_mopas; }
  double DepositOccupancy() const {
    return MpuOccupancy(deposit_mopas(), valid_slots - gather_valid_slots);
  }
  std::string DepositOccupancyCell() const {
    return OccupancyCell(deposit_mopas(), valid_slots - gather_valid_slots);
  }
  std::string GatherOccupancyCell() const {
    return OccupancyCell(gather_mopas, gather_valid_slots);
  }
};

struct BenchResult {
  RunReport report;
  int64_t particles = 0;
  int64_t global_sorts = 0;
  MopaCounts mopa;
};

// Runs a uniform-plasma workload: `warmup` steps outside the measured window,
// then `steps` measured steps.
inline BenchResult RunUniform(const UniformWorkloadParams& params, int warmup,
                              int steps) {
  HwContext hw;
  auto sim = MakeUniformSimulation(hw, params);
  sim->Run(warmup);
  const PhaseCycles before = SnapshotCycles(hw.ledger());
  const LedgerCounters c0 = hw.ledger().counters();
  const int64_t pushed_before = sim->particles_pushed();
  sim->Run(steps);
  BenchResult r;
  r.particles = sim->particles_pushed() - pushed_before;
  r.report = MakeRunReport(hw, before, r.particles, params.order);
  r.global_sorts = sim->engine().total_global_sorts();
  r.mopa = MopaCounts::Delta(hw.ledger().counters(), c0);
  return r;
}

inline BenchResult RunLwfa(const LwfaWorkloadParams& params, int warmup, int steps) {
  HwContext hw;
  auto sim = MakeLwfaSimulation(hw, params);
  sim->Run(warmup);
  const PhaseCycles before = SnapshotCycles(hw.ledger());
  const LedgerCounters c0 = hw.ledger().counters();
  const int64_t pushed_before = sim->particles_pushed();
  sim->Run(steps);
  BenchResult r;
  r.particles = sim->particles_pushed() - pushed_before;
  r.report = MakeRunReport(hw, before, r.particles, 1);
  r.global_sorts = sim->engine().total_global_sorts();
  r.mopa = MopaCounts::Delta(hw.ledger().counters(), c0);
  return r;
}

inline double PhaseSec(const RunReport& r, Phase p) {
  return r.phase_seconds[static_cast<size_t>(p)];
}

// Tiny append-only JSON emitter for the BENCH_*.json sidecars the ablation
// benches write next to their console tables, so the perf trajectory is
// machine-diffable across PRs instead of living only in CI logs. Covers just
// the subset the benches need — objects, arrays, string/number/bool fields —
// and assumes keys and string values need no escaping (identifiers, hex
// digests, workload names).
class JsonWriter {
 public:
  JsonWriter() { Open('{'); }

  void BeginObject() { Sep(); Open('{'); }
  void BeginObject(const char* key) { KeyedSep(key); Open('{'); }
  void EndObject() { Close('}'); }
  void BeginArray(const char* key) { KeyedSep(key); Open('['); }
  void EndArray() { Close(']'); }

  void Field(const char* key, const std::string& v) {
    KeyedSep(key);
    out_ += '"';
    out_ += v;
    out_ += '"';
  }
  void Field(const char* key, const char* v) { Field(key, std::string(v)); }
  void Field(const char* key, bool v) {
    KeyedSep(key);
    out_ += v ? "true" : "false";
  }
  void Field(const char* key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    KeyedSep(key);
    out_ += buf;
  }
  void Field(const char* key, int v) { Field(key, static_cast<int64_t>(v)); }
  void Field(const char* key, int64_t v) {
    KeyedSep(key);
    out_ += std::to_string(v);
  }
  void Field(const char* key, uint64_t v) {
    KeyedSep(key);
    out_ += std::to_string(v);
  }

  // Closes any open scopes (including the root object) and returns the
  // document.
  std::string Finish() {
    while (!open_.empty()) {
      Close(open_.back() == '[' ? ']' : '}');
    }
    return out_;
  }

  // Finishes the document and writes it to `path`; prints a warning and
  // returns false on I/O failure (the bench gates stay console-driven).
  bool WriteFile(const std::string& path) {
    std::ofstream f(path, std::ios::trunc);
    if (f) {
      f << Finish() << "\n";
    }
    if (!f) {
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
      return false;
    }
    std::printf("Wrote %s\n", path.c_str());
    return true;
  }

 private:
  void Open(char c) {
    out_ += c;
    open_.push_back(c);
    has_member_.push_back(false);
  }
  void Close(char c) {
    out_ += c;
    open_.pop_back();
    has_member_.pop_back();
  }
  void Sep() {
    if (has_member_.back()) {
      out_ += ',';
    }
    has_member_.back() = true;
  }
  void KeyedSep(const char* key) {
    Sep();
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }

  std::string out_;
  std::vector<char> open_;
  std::vector<bool> has_member_;
};

// 16-digit lowercase hex of an FNV digest, the form the benches print and gate.
inline std::string DigestHex(uint64_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return std::string(buf);
}

}  // namespace mpic

#endif  // MPIC_BENCH_BENCH_UTIL_H_
