// Signed tuple multisets — the Δ−/Δ+ sets of paper §4.2 in one structure.
//
// A DeltaMultiset maps tuples to signed counts: negative entries are the
// paper's Δ− (tuples leaving the world/view) and positive entries are Δ+
// (tuples entering). Using one signed structure makes the Blakeley-style
// rewrites (Eq. 6) linear-algebraic: operators distribute over deltas, and
// the multiset counters required for projection (the paper's Remark after
// Eq. 6) fall out naturally.
//
// Representation: deltas on the MCMC hot path are tiny — one accepted step
// contributes a −old/+new pair, and per-operator output deltas are usually
// a handful of tuples — so small multisets live in a flat vector scanned
// linearly (no per-entry node allocations, no hashing). Only when a delta
// outgrows the inline capacity does it spill into an unordered_map, which
// is pre-reserved so growth does not rehash entry by entry.
//
// DeltaAccumulator is the producer-side companion: it coalesces in-place
// row updates at insert time (row-granular pre-images) and only expands
// into per-table −/+ multisets when the consumer drains it.
#ifndef FGPDB_VIEW_DELTA_H_
#define FGPDB_VIEW_DELTA_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/database.h"
#include "storage/tuple.h"

namespace fgpdb {
namespace view {

class DeltaMultiset {
 public:
  using Map = std::unordered_map<Tuple, int64_t, TupleHasher>;

  /// Distinct tuples held inline (flat vector) before spilling to the map.
  static constexpr size_t kInlineCapacity = 8;

  DeltaMultiset() = default;

  /// Adds `count` (may be negative) occurrences of `tuple`; entries whose
  /// count reaches zero are erased.
  void Add(const Tuple& tuple, int64_t count = 1);

  /// Signed count of `tuple` (0 if absent).
  int64_t Count(const Tuple& tuple) const;

  /// Merges another delta into this one (entry-wise addition).
  void Merge(const DeltaMultiset& other);

  /// Applies fn(tuple, count) to every non-zero entry.
  void ForEach(const std::function<void(const Tuple&, int64_t)>& fn) const;

  bool empty() const { return inline_entries_.empty() && counts_.empty(); }
  size_t distinct_size() const {
    return spilled_ ? counts_.size() : inline_entries_.size();
  }

  /// Sum of positive counts (number of inserted tuple instances).
  int64_t PositiveTotal() const;

  /// Sum of |negative| counts (number of removed tuple instances).
  int64_t NegativeTotal() const;

  /// True if every count is >= 1 (a plain bag, e.g. a view's contents).
  bool IsNonNegative() const;

  /// Empties the multiset. Spilled bucket storage is kept so a multiset
  /// reused round after round (operator output buffers, drained DeltaSets)
  /// does not re-grow its hash table from scratch.
  void Clear() {
    inline_entries_.clear();
    counts_.clear();
    spilled_ = false;
  }

  /// The shared empty multiset (what skipped operators and absent tables
  /// hand out without allocating).
  static const DeltaMultiset& Empty();

  bool operator==(const DeltaMultiset& other) const;

  /// Diagnostic rendering, sorted for determinism.
  std::string ToString() const;

 private:
  using Entry = std::pair<Tuple, int64_t>;

  /// Moves the inline entries into the map representation, reserving room
  /// for growth so the fill that follows does not rehash repeatedly.
  void Spill();

  // Small representation: unsorted entries, linear equality scan. Empty
  // once spilled_ is set.
  std::vector<Entry> inline_entries_;
  // Large representation, used once distinct tuples exceed kInlineCapacity.
  Map counts_;
  bool spilled_ = false;
};

/// Per-base-table deltas accumulated between query (re-)evaluations — the
/// contents of the paper's auxiliary "added"/"deleted" tables.
class DeltaSet {
 public:
  DeltaMultiset& ForTable(const std::string& table) { return per_table_[table]; }

  /// Delta for `table`; a shared empty delta if none recorded.
  const DeltaMultiset& Get(const std::string& table) const;

  bool empty() const;

  /// Total tuple instances touched across tables (|Δ−| + |Δ+|).
  int64_t TotalMagnitude() const;

  /// Applies fn(table, delta) to every recorded table, including tables
  /// whose delta is currently empty.
  void ForEachTable(
      const std::function<void(const std::string&, const DeltaMultiset&)>& fn)
      const;

  /// Empties every per-table delta. Table buckets (and their spilled hash
  /// storage) are retained, so a DeltaSet drained once per thinning
  /// interval reuses its allocations instead of rebuilding them.
  void Clear() {
    for (auto& [table, delta] : per_table_) {
      (void)table;
      delta.Clear();
    }
  }

 private:
  std::unordered_map<std::string, DeltaMultiset> per_table_;
};

/// Insert-time coalescing accumulator for in-place row updates — the hot
/// producer feeding the materialized evaluator (paper §4.2's auxiliary
/// tables, bucketed per base table).
///
/// The MCMC driver overwrites one field of one live row per accepted jump,
/// and rows oscillate: over a thinning interval of k steps a row may flip
/// many times, or flip and revert. Recording −old/+new tuple pairs per flip
/// costs two tuple hashes per step and leaves the cancellation work to the
/// multiset. This accumulator instead records one *pre-image* per touched
/// row — the first call per (table, row) copies the tuple, later calls are
/// a single hash-map probe — and expands to −pre-image/+current pairs only
/// at Flush(), reading the current tuple from the table. A row flipped R
/// times costs O(1) amortized per flip and contributes at most one −/+
/// pair; a reverted row contributes nothing.
///
/// Constraint: rows recorded here must still be live at Flush() time (the
/// binding path only updates in place, never deletes).
class DeltaAccumulator {
 public:
  /// Records that `row` of `table` is about to be overwritten; `pre_image`
  /// is its current (pre-update) contents. Only the first call per row
  /// copies the tuple.
  void RecordPreImage(const std::string& table, RowId row,
                      const Tuple& pre_image);

  /// Expands the recorded rows against their current table contents in
  /// `db`, adding −pre-image/+current to `out` for every row whose tuple
  /// actually changed. Clears the accumulator (retaining bucket storage).
  void Flush(const Database& db, DeltaSet* out);

  bool empty() const;

  /// Distinct rows currently tracked (diagnostics).
  size_t rows_touched() const;

  void Clear();

 private:
  using RowMap = std::unordered_map<RowId, Tuple>;
  std::unordered_map<std::string, RowMap> per_table_;
};

}  // namespace view
}  // namespace fgpdb

#endif  // FGPDB_VIEW_DELTA_H_
