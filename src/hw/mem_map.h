// Maps host pointers to stable logical addresses for the cache model.
//
// Host heap addresses change run-to-run (ASLR, allocator reuse), which would
// make modeled cache behavior nondeterministic. Kernels therefore register
// each array; the MemMap lays registered regions out sequentially in a logical
// address space (page-aligned, with guard gaps), and translates any interior
// pointer.
//
// Arrays that can reallocate over a run (particle SoA streams, staging
// scratch, GPMA index arrays) use *keyed* registration: the key names the
// logical array, and the map remaps the key to a fresh logical range whenever
// its base or size changes. Because reallocation events (vector growth) are
// themselves deterministic, the resulting logical layout is a pure function
// of the program's registration sequence — independent of where the allocator
// happens to place anything. Plain Register() remains for arrays that live at
// one address for the whole run (fields, rhocell blocks).
//
// Translation is on the hot path of every modeled access, so the table keeps a
// one-entry MRU cache: almost all consecutive accesses fall in the same region.

#ifndef MPIC_SRC_HW_MEM_MAP_H_
#define MPIC_SRC_HW_MEM_MAP_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace mpic {

// Process-unique owner id for building keyed-registration keys. Construction
// order of the owners (engines, species blocks) is deterministic, so the ids
// — and with them the registration sequences — are too.
uint64_t NextMemOwnerId();

// Key for one registered stream of one tile of one owner (an engine or a
// species block): owner ids are process-unique, tiles fit 24 bits, stream
// enumerates the owner's per-tile arrays.
inline uint64_t MemRegionKey(uint64_t owner, int tile, int stream) {
  return (owner << 32) | (static_cast<uint64_t>(tile) << 8) |
         static_cast<uint64_t>(stream);
}

// NUMA home-domain intent attached to a registration. `domain` is the home
// assigned when the registration creates (or moves) a region — the model's
// first-touch rule, supplied by the registering context from its own NUMA
// domain. When `authoritative` is set (a placement decision, not a mere
// touch: HwContext::ScopedHomeDomain), an already-registered region is
// re-homed too, so a tile's pages follow its scheduled owner.
struct HomeDomain {
  int domain = 0;
  bool authoritative = false;
};

// A translated address plus the home domain of the region it fell in
// (-1 for unmapped pointers, which the cache model treats as local).
struct MemLocation {
  uint64_t addr = 0;
  int home_domain = -1;
};

class MemMap {
 public:
  // Registers [base, base+bytes). Re-registering the same base with a size that
  // still fits is a no-op; a grown region at the same base moves to a fresh
  // logical range. Returns the logical base address. For arrays that may
  // reallocate, use RegisterKeyed instead — a freed region left behind here
  // can alias a later allocation at the same address.
  uint64_t Register(const void* base, size_t bytes, HomeDomain home = {});

  // Keyed registration: `key` names one logical array. While the array stays
  // at the same base (and fits its recorded size) this returns the existing
  // logical base; when it moved or grew, the key's old region is dropped and
  // a fresh logical range is assigned. Returns the logical base address.
  uint64_t RegisterKeyed(uint64_t key, const void* base, size_t bytes,
                         HomeDomain home = {});

  // Re-homes the region containing `p` (no-op for unmapped pointers; the
  // version stamp bumps only when the domain actually changes). Returns true
  // when a region was found.
  bool SetHomeDomain(const void* p, int domain);

  // Translates an interior pointer of a registered region. Pointers outside any
  // region are identity-mapped into a distinct high address range (so stray
  // accesses still behave sanely, just without cross-run determinism).
  uint64_t Translate(const void* p) { return TranslateEx(p).addr; }

  // Translate plus the containing region's home domain (-1 when unmapped).
  MemLocation TranslateEx(const void* p);

  // Drops all registrations (e.g. between bench configurations).
  void Clear();

  size_t num_regions() const { return regions_.size(); }

  // Mutation stamp, drawn from a process-global counter so two maps compare
  // equal only if neither mutated since one was copied from the other. The
  // parallel-region machinery uses it to skip redundant worker snapshots.
  uint64_t version() const { return version_; }

 private:
  struct Region {
    uintptr_t host_base;
    uintptr_t host_end;
    uint64_t logical_base;
    int home_domain;
  };
  struct KeyedRecord {
    uintptr_t host_base;
    size_t bytes;
    uint64_t logical_base;
  };

  void BumpVersion();
  // Places a new region (staggered logical base, guard gap), evicting stale
  // regions whose host ranges the new allocation proves freed. Returns the
  // logical base.
  uint64_t InsertRegion(uintptr_t host, size_t bytes, int home_domain);
  void EraseRegion(uintptr_t host_base, uint64_t logical_base);
  // True when the exact region is still present (a keyed record's region can
  // in principle be evicted by a later overlapping registration; the keyed
  // fast path re-validates rather than hand out a dead logical base).
  bool RegionExists(uintptr_t host_base, uint64_t logical_base) const;

  // Sorted by host_base for binary search.
  std::vector<Region> regions_;
  std::unordered_map<uint64_t, KeyedRecord> keyed_;
  size_t mru_ = 0;
  uint64_t next_logical_ = 1 << 12;
  uint64_t region_counter_ = 0;
  uint64_t version_ = 0;

  static constexpr uint64_t kUnmappedBase = uint64_t{1} << 46;
};

}  // namespace mpic

#endif  // MPIC_SRC_HW_MEM_MAP_H_
