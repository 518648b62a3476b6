// Storage policies for pairwise gain tables.
//
// A GainMatrix used to be a monolithic dense std::vector<double> — O(n^2)
// doubles per variant table, materialized eagerly, frozen at construction.
// That is the right trade for the n <= 10^3 instances the offline
// algorithms sweep, but it walls off two regimes the paper's oblivious
// power assignments make perfectly sound: very large universes where only
// a small working set of links is ever active or links move (every entry
// is a closed-form function of two links' endpoints, so it can be
// evaluated on demand instead of stored), and online growth (a new link's
// power depends only on its own length, so its row/column can be appended
// without touching anything already computed).
//
// Three backends answer the same queries:
//
//   dense       one interleaved buffer that GainMatrix owns and fills
//               eagerly: cell (j, i) holds the receiver-side gain and,
//               when the sender side is built, the sender-side gain right
//               after it, so the bidirectional checks read one cache line
//               per pair. The hot path is a raw load (no virtual call).
//               General metrics and the offline engines.
//   appendable  AppendableGainStorage: per-row vectors with amortized
//               growth; a fresh link gets its row and column in O(n).
//   computed    ComputedGainStorage: no table; every entry is evaluated on
//               demand, so a moved link costs nothing to refresh and huge
//               universes keep O(n) memory.
//
// GainStorage is the seam behind the two backends that keep a GainFiller
// alive (one n x n table per side behind a tiny virtual interface); the
// dense buffer lives in GainMatrix itself.
//
// Entries are computed per element by the same formula, so every backend
// holds bit-for-bit the values the dense build would — backends differ in
// cost and residency, never in results. (Over an EuclideanMetric,
// GainMatrix reads a computed table through its own inline kernel instead
// of the filler — the same values, see EuclideanGainKernel in
// gain_matrix.h.) Dense tables are frozen; only appendable (growth, slot
// reuse) and computed (motion) change.
#ifndef OISCHED_SINR_GAIN_STORAGE_H
#define OISCHED_SINR_GAIN_STORAGE_H

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace oisched {

/// Which storage policy a gain table lives in. All backends answer queries
/// bit-for-bit identically; they differ in memory residency and in whether
/// the table can grow.
enum class GainBackend {
  /// One interleaved row-major buffer in GainMatrix, filled eagerly.
  /// O(n^2) resident per side; the fastest lookups and the default for
  /// moderate n.
  dense,
  /// Per-row vectors with amortized growth: append_request extends the
  /// table by one row and one column in O(n) without rebuilding.
  appendable,
  /// No table at all: every entry is evaluated on demand — by GainMatrix's
  /// inline Euclidean kernel over an EuclideanMetric (which also offers
  /// the pow-free estimates the exact-policy filter reads), through the
  /// filler otherwise. Nothing resident, reads are thread-safe, and a
  /// moved link needs no rewrite (its entries read the updated request
  /// and power stores); the only backend whose footprint lets n >= 10^5
  /// universes replay at all.
  computed,
};

/// Human-readable backend name ("dense" / "appendable" / "computed").
[[nodiscard]] const char* to_string(GainBackend backend);

/// Parses a backend name (as printed by to_string); returns false on an
/// unknown word.
[[nodiscard]] bool parse_gain_backend(const std::string& word, GainBackend& backend);

/// Computes one table entry. Must be pure (same (j, i) -> same double) and
/// return 0.0 on the diagonal; the appendable and computed backends keep it
/// alive and call it long after construction.
using GainFiller = std::function<double(std::size_t j, std::size_t i)>;

/// One square table of pairwise gains behind a storage policy: the
/// appendable and computed backends (dense tables live in GainMatrix).
class GainStorage {
 public:
  virtual ~GainStorage() = default;

  [[nodiscard]] virtual GainBackend kind() const noexcept = 0;
  /// Current number of rows (== columns).
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;
  /// Entry (j, i).
  [[nodiscard]] virtual double at(std::size_t j, std::size_t i) const = 0;
  /// Doubles currently resident — the observable of the memory model.
  [[nodiscard]] virtual std::size_t resident_doubles() const noexcept = 0;
};

/// Growable table: one vector per row, filled eagerly for the initial
/// universe and extended by grow_to. Appending one link costs O(n) filler
/// calls (its row plus its column) with amortized O(1) reallocation per
/// entry. Growth is NOT thread-safe; the online scheduler (its only
/// mutating owner) is single-threaded per instance.
class AppendableGainStorage final : public GainStorage {
 public:
  AppendableGainStorage(std::size_t n, GainFiller fill);

  [[nodiscard]] GainBackend kind() const noexcept override {
    return GainBackend::appendable;
  }
  [[nodiscard]] std::size_t size() const noexcept override { return rows_.size(); }
  [[nodiscard]] double at(std::size_t j, std::size_t i) const override {
    return rows_[j][i];
  }
  [[nodiscard]] std::size_t resident_doubles() const noexcept override;
  /// Recomputes row `link` and column `link` through the stored filler —
  /// the endpoint-motion and slot-reuse path. The caller has already
  /// updated the request and power stores the filler reads, so the
  /// rewritten entries are the moved link's new gains. Not thread-safe,
  /// like growth.
  void refresh_link(std::size_t link);

  /// Extends the table to new_n rows/columns, filling the fresh row and
  /// column entries through the stored filler (which must already see the
  /// grown request universe).
  void grow_to(std::size_t new_n);

 private:
  GainFiller fill_;
  std::vector<std::vector<double>> rows_;
};

/// Tableless storage: every query evaluates the filler, so nothing is
/// resident and reads are thread-safe. The filler reads the matrix's
/// request and power stores, so a moved link's entries follow the stores
/// with nothing to rewrite. GainMatrix over an EuclideanMetric bypasses
/// at() with its inline kernel; other metrics read through it.
class ComputedGainStorage final : public GainStorage {
 public:
  ComputedGainStorage(std::size_t n, GainFiller fill);

  [[nodiscard]] GainBackend kind() const noexcept override {
    return GainBackend::computed;
  }
  [[nodiscard]] std::size_t size() const noexcept override { return n_; }
  [[nodiscard]] double at(std::size_t j, std::size_t i) const override {
    return (i == j) ? 0.0 : fill_(j, i);
  }
  [[nodiscard]] std::size_t resident_doubles() const noexcept override { return 0; }

 private:
  std::size_t n_;
  GainFiller fill_;
};

/// Factory over the appendable and computed backends; throws
/// PreconditionError for dense, whose buffer GainMatrix builds itself.
[[nodiscard]] std::unique_ptr<GainStorage> make_gain_storage(GainBackend backend,
                                                             std::size_t n,
                                                             GainFiller fill);

}  // namespace oisched

#endif  // OISCHED_SINR_GAIN_STORAGE_H
