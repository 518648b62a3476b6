// Shared gain-matrix engine: precomputed pairwise SINR gains.
//
// Every algorithm in the library keeps asking the same two questions: "how
// strong is request i's own signal?" and "how strongly does request j
// interfere at one of request i's endpoints?". Answered directly, each
// query costs a metric distance plus a std::pow — and the coloring
// algorithms ask them Theta(n^2) times and more, recomputing identical
// values inside every feasibility test. A GainMatrix answers them once per
// (metric, requests, powers, variant): all n^2 variant-resolved
// contributions are tabulated up front and the hot loops become table
// lookups.
//
// The tables store exactly the values the direct path computes
// (power / path_loss with the min-endpoint rule applied per variant), and
// the query-side overloads below sum them in the same order as their
// direct counterparts in sinr/feasibility.h — so verdicts, margins and the
// resulting colorings are bit-for-bit identical. The direct path stays
// alive behind the same APIs (see FeasibilityEngine) for cross-checking.
#ifndef OISCHED_SINR_GAIN_MATRIX_H
#define OISCHED_SINR_GAIN_MATRIX_H

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "metric/metric_space.h"
#include "sinr/feasibility.h"
#include "sinr/gain_storage.h"
#include "sinr/model.h"
#include "util/exact_sum.h"

namespace oisched {

class Instance;

/// Which machinery answers feasibility queries inside an algorithm. Both
/// produce bit-for-bit identical results; they differ only in cost.
enum class FeasibilityEngine {
  /// Re-evaluate the whole color class from scratch on every query
  /// (check_feasible): O(k^2) distance/pow work per insertion test. The
  /// reference semantics; kept for cross-checking and benchmarking.
  direct,
  /// Precomputed GainMatrix plus incremental accumulators: O(n^2) pow work
  /// once per instance, then O(k) table lookups per insertion test.
  gain_matrix,
};

/// Human-readable engine name ("direct" / "gain_matrix").
[[nodiscard]] const char* to_string(FeasibilityEngine engine);

/// Precomputed pairwise gains for one (metric, requests, powers, variant).
///
/// at_v(j, i) is the interference request j contributes at request i's
/// receiver v_i under the variant's rule (sender u_j radiates in the
/// directed variant; the nearer endpoint radiates in the bidirectional
/// one); at_u(j, i) is the same at u_i. The bidirectional constraints need
/// at_u, so its table is always built for that variant; the directed ones
/// never consult it, so directed callers only get it (and pay its n^2
/// build) by passing with_sender_gains = true — the sqrt-coloring LP does,
/// because it budgets interference at sender nodes too. Without the table
/// at_u reads as 0, matching the direct path that never evaluates it.
/// Co-located interferers yield +infinity, like the direct path.
/// signal(i) is p_i / l_i; construction requires all links to have
/// positive loss, mirroring the precondition of every direct checker.
///
/// The tables live behind a GainStorage policy (gain_storage.h). `dense`
/// keeps the historical eager layout (and its raw-pointer fast path);
/// `tiled` materializes B x B tiles lazily so huge universes with
/// localized activity stay memory-bounded; `appendable` grows —
/// append_request gives a fresh link its row and column in O(n), the
/// foundation of the online scheduler's growing universe; `computed`
/// keeps no table, so update_request moves a link by rewriting only the
/// stores. Every backend computes each entry with the same formula from
/// the same inputs, so queries are bit-for-bit identical across backends.
///
/// Lifetime: the matrix copies the requests and powers it was built from
/// (requests()/powers() view the copies), but only references the metric —
/// the caller keeps it alive, as Instance's gain cache does. Lazy and
/// appendable backends consult the metric after construction; dense never
/// does, but the contract is uniform.
class GainMatrix {
 public:
  GainMatrix(const MetricSpace& metric, std::span<const Request> requests,
             std::span<const double> powers, double alpha, Variant variant,
             bool with_sender_gains = false, GainBackend backend = GainBackend::dense);
  GainMatrix(const Instance& instance, std::span<const double> powers, double alpha,
             Variant variant, bool with_sender_gains = false,
             GainBackend backend = GainBackend::dense);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] Variant variant() const noexcept { return variant_; }
  [[nodiscard]] double alpha() const noexcept { return alpha_; }
  [[nodiscard]] GainBackend backend() const noexcept { return backend_; }
  [[nodiscard]] const MetricSpace& metric() const noexcept { return *metric_; }
  [[nodiscard]] std::span<const Request> requests() const noexcept {
    return *requests_store_;
  }
  [[nodiscard]] std::span<const double> powers() const noexcept { return *powers_store_; }

  /// Own-link signal strength p_i / l_i.
  [[nodiscard]] double signal(std::size_t i) const { return signal_[i]; }
  /// Contribution of request j at request i's receiver v_i (j != i).
  [[nodiscard]] double at_v(std::size_t j, std::size_t i) const {
    if (dense_v_ != nullptr) return dense_v_[j * n_ + i];
    return at_v_->at(j, i);
  }
  /// Contribution of request j at request i's sender u_i (j != i); 0 when
  /// the sender-side table was not built (directed default).
  [[nodiscard]] double at_u(std::size_t j, std::size_t i) const {
    if (dense_u_ != nullptr) return dense_u_[j * n_ + i];
    return at_u_ == nullptr ? 0.0 : at_u_->at(j, i);
  }

  /// acc[i] += the gain row j contributes at column i, for every i in
  /// [begin, end), on the receiver side (or the sender side, which must
  /// have been built). One IEEE add per slot in column order, so every
  /// backend yields the same sums. The dense table is read through its raw
  /// row pointer, every other backend through point lookups.
  void add_row_to(std::size_t j, bool sender_side, std::size_t begin, std::size_t end,
                  double* acc) const;

  /// Grows the universe by one link (appendable backend only): copies the
  /// request, computes its signal and its table row/column in O(n), and
  /// returns the new link's index. Spans handed out by requests()/powers()
  /// before the append are invalidated. Not thread-safe.
  std::size_t append_request(const Request& request, double power);

  /// Re-points link `link` at new endpoints (endpoint motion or slot
  /// reuse), possibly with a new power: updates the request and power
  /// stores and the link's signal. Requires the appendable backend, which
  /// also rewrites the link's table row and column (O(n) evaluations), or
  /// the computed backend, which has no table and is done in O(1). Either
  /// way queries stay bit-for-bit identical to a freshly constructed
  /// matrix over the moved universe. Dense and tiled tables are frozen,
  /// and Instance's shared cache never holds a movable backend. Not
  /// thread-safe.
  void update_request(std::size_t link, const Request& request, double power);

  /// The receiver-side storage — tests and the memory model observe tile
  /// residency through it.
  [[nodiscard]] const GainStorage& receiver_storage() const noexcept { return *at_v_; }
  /// The sender-side storage; nullptr when that table was not built.
  [[nodiscard]] const GainStorage* sender_storage() const noexcept {
    return at_u_.get();
  }
  /// Doubles currently resident across signal and both tables.
  [[nodiscard]] std::size_t resident_doubles() const noexcept;

 private:
  std::size_t n_;
  double alpha_;
  Variant variant_;
  GainBackend backend_;
  const MetricSpace* metric_;
  /// Owned copies shared with the storage fillers, so lazily materialized
  /// entries read the same data the eager build would have — including the
  /// rows appended after construction.
  std::shared_ptr<std::vector<Request>> requests_store_;
  std::shared_ptr<std::vector<double>> powers_store_;
  std::vector<double> signal_;
  std::shared_ptr<GainStorage> at_v_;
  std::shared_ptr<GainStorage> at_u_;
  /// Raw fast-path pointers into dense storage (nullptr otherwise).
  const double* dense_v_ = nullptr;
  const double* dense_u_ = nullptr;
};

/// check_feasible over precomputed gains; identical to the direct overload.
[[nodiscard]] FeasibilityReport check_feasible(const GainMatrix& gains,
                                               std::span<const std::size_t> active,
                                               const SinrParams& params);

/// The accumulator arithmetic of an IncrementalGainClass.
///
/// Plain floating-point accumulators are order-sensitive: subtracting a
/// departed member's contributions does not, in general, reproduce the sum
/// a fresh replay of the surviving adds would compute. Both arithmetics
/// below decide every verdict exactly as a freshly built class would; they
/// differ in what they store and what a removal costs.
enum class RemovePolicy {
  /// Plain sums over all n slots in insertion order, replayed after every
  /// removal: O(n) per add, O(|class| * n) per remove. The offline gain
  /// engine, and the reference the exact arithmetic is gated against.
  rebuild,
  /// Numerically exact verdicts at O(|class|) per add and remove. The
  /// value a verdict thresholds is the correct rounding of the infinitely
  /// precise sum of the members' gains at a slot — a pure function of the
  /// member set, whatever the insertion and removal history. The class
  /// never stores that value: it keeps a plain running sum per member slot
  /// together with a forward error bound, certifies each verdict from the
  /// bound, and pays for an exact sum (util/exact_sum.h) only when the
  /// bound cannot decide (see IncrementalGainClass). accumulator_v/u and
  /// member_accumulator_v/u compute the exact value on demand, so they are
  /// bit-for-bit those of a fresh exact class over the same members, and
  /// accumulator_drift() is exactly 0.0. (Sole replay: a member slot whose
  /// true interference sum exceeded DBL_MAX stays saturated until the next
  /// removal re-derives the class from scratch, counted in
  /// removal_rebuilds().) The online scheduler's default.
  exact,
};

/// Human-readable policy name ("rebuild" / "exact").
[[nodiscard]] const char* to_string(RemovePolicy policy);

/// Parses a policy name (as printed by to_string); returns false on an
/// unknown word.
[[nodiscard]] bool parse_remove_policy(const std::string& word, RemovePolicy& policy);

/// Incrementally maintained color class over a GainMatrix.
///
/// Same contract as IncrementalClass, but with no distance or pow work:
/// every test is a table lookup against accumulated interference. Under
/// the rebuild policy the accumulators cover *all* n requests in
/// insertion order (verdicts bit-for-bit identical to IncrementalClass),
/// so the candidate's own constraint is a single lookup and add walks a
/// full O(n) table row. Classes also shrink: remove() evicts a member
/// under the configured RemovePolicy.
///
/// Member mode (the exact policy): whether a class can take a link
/// depends only on gains between its members and that link, so only the
/// k = |class| member slots are stored, in insertion order alongside the
/// members. Every verdict is the test
///
///   f(x) = signal > beta * ((x + extra) + noise)
///
/// at x = the correct rounding RN(S) of the exact slot sum S (extra is the
/// candidate's gain at a member, or 0 for a member's or candidate's own
/// check). The class decides it without knowing RN(S):
///
///   * A member slot holds a plain double s, updated by one IEEE add or
///     subtract per event, and a bound e with |s - S| <= e. One add or
///     subtract errs by at most u|s'| (u = 2^-53, s' the new value; 0 when
///     s' is subnormal), and e grows by fl(4u|s'|) >= 3u|s'| per update.
///     Rounding e's own sum loses at most u*e', which the slack repays as
///     long as e' <= 2|s'|; a per-slot budget (e <= 2^-26 |s|, checked on
///     every update) guarantees that, so the invariant holds for any
///     number of updates.
///   * A candidate's own slot is a plain sum of its c member gains, in any
///     order, with e = c * 4u * s (the classic gamma_c bound for non-negative
///     terms, with room to spare).
///   * RN is monotone, so RN(s - e) <= RN(S) <= RN(s + e), and fl(s -/+ e)
///     are exactly those roundings. f is monotone non-increasing in x, so
///     f(fl(s + e)) true certifies acceptance and f(fl(s - e)) false
///     certifies rejection. Both ends are tested with the threshold
///     expression unchanged, so a certified verdict IS the exact one.
///   * Only when the ends disagree (the threshold lies within the bound),
///     when a gain or sum is non-finite or near DBL_MAX, or when an update
///     pushes a slot past its budget does the class gather the k gains and
///     sum them exactly (ExactSum::sum_of) — counted in exact_fallbacks().
///     A slot re-derived that way restarts from s = RN(S), e = 4u|s|.
///
/// The accepting can_add stashes the candidate's own slot and the add
/// that follows reuses it; any mutation drops the stash. Motion of a
/// non-member touches nothing.
class IncrementalGainClass {
 public:
  IncrementalGainClass(const GainMatrix& gains, const SinrParams& params,
                       RemovePolicy policy = RemovePolicy::rebuild);

  [[nodiscard]] bool can_add(std::size_t request_index) const;
  void add(std::size_t request_index);
  /// Evicts a member (precondition: it is one). Under RemovePolicy::rebuild
  /// the accumulators afterwards equal a fresh replay of the surviving adds
  /// in insertion order, bit for bit; under exact every verdict and exact
  /// accessor equals that of a freshly built exact-policy class over the
  /// survivors, at O(|class|) cost.
  void remove(std::size_t request_index);

  /// Endpoint-motion bracket, phase 1 of 2: called on EVERY class (member
  /// or not) BEFORE GainMatrix::update_request moves link `link`. Under
  /// exact a member class subtracts the link's stale row contribution from
  /// the other member slots (a slot this leaves without a usable bound is
  /// marked for re-derivation in phase 2, over the moved gains); a
  /// non-member class has nothing to read from the old gains (member mode
  /// drops its can_add stash, nothing else). Under rebuild nothing happens
  /// here, because finish_link_update replays.
  /// Must be paired with finish_link_update on the same link, with no
  /// other mutation in between.
  void begin_link_update(std::size_t link);
  /// Endpoint-motion bracket, phase 2 of 2: called AFTER the matrix
  /// update. A member class adds the link's new row contribution; every
  /// class then re-derives slot `link` from its members, because the
  /// column behind that slot changed and the add/remove paths never touch
  /// a link's own slot (member mode stores no non-member slot, so a
  /// non-member class does nothing). Under exact the resulting verdicts
  /// and exact accessors are those of a freshly built exact class over the
  /// same members and the moved universe, with no replay (the
  /// sticky-saturation escape hatch of remove() applies here too, counted
  /// in removal_rebuilds()); under rebuild a member class replays.
  void finish_link_update(std::size_t link);
  /// True when every member still decodes against the live accumulators —
  /// the O(|class|) re-validation the online scheduler runs after motion
  /// (only the moved link's own class can break: removing a member only
  /// shrinks interference sums termwise everywhere else).
  [[nodiscard]] bool members_feasible() const;

  [[nodiscard]] bool contains(std::size_t request_index) const;
  /// Extends the accumulators after the gain matrix grew (appendable
  /// backend): fresh slots receive the members' contributions in insertion
  /// order, bit-identical to a from-scratch replay over the grown
  /// universe. Must be called before the next can_add/add/remove once the
  /// matrix has appended rows; a no-op when sizes already agree, and
  /// always in member mode (no slot is indexed by the universe).
  void sync_universe();
  /// Re-derives the accumulators from the members — the canonical
  /// from-scratch state (a no-op change of every verdict and exact
  /// accessor outside the saturation escape hatch).
  void rebuild();
  /// Under rebuild: the largest absolute deviation of the live
  /// accumulators from a replayed rebuild. Under exact: the largest
  /// distance by which a member slot's certified interval misses the
  /// correctly rounded exact sum. The exactness suites' cross-check —
  /// 0.0 means sound, and it is always exactly 0.0 under both policies.
  /// O(|class|^2) under exact. Does not modify the class.
  [[nodiscard]] double accumulator_drift() const;

  /// Full accumulator replays triggered by removals so far (every remove
  /// under rebuild, only the saturation escape hatch under exact) — the
  /// counter the online scheduler aggregates to show the rebuilds a
  /// policy eliminated.
  [[nodiscard]] std::size_t removal_rebuilds() const noexcept {
    return removal_rebuilds_;
  }
  /// Verdicts and slot re-derivations the exact policy's error-bound
  /// filter sent to the exact O(|class|) sum so far (always 0 under
  /// rebuild).
  [[nodiscard]] std::size_t exact_fallbacks() const noexcept { return exact_fallbacks_; }

  /// The interference the members contribute at request i's receiver /
  /// sender: under rebuild the live accumulator slot can_add thresholds
  /// against; under exact the correctly rounded exact sum, computed on
  /// demand in O(|class|). Exposed so the exactness suites can compare
  /// states bit for bit.
  [[nodiscard]] double accumulator_v(std::size_t i) const;
  /// 0.0 for the directed variant, which has no sender-side constraint.
  [[nodiscard]] double accumulator_u(std::size_t i) const;
  /// accumulator_v / accumulator_u of members()[pos] — O(1) under rebuild,
  /// O(|class|) under exact.
  [[nodiscard]] double member_accumulator_v(std::size_t pos) const;
  [[nodiscard]] double member_accumulator_u(std::size_t pos) const;

  [[nodiscard]] const std::vector<std::size_t>& members() const noexcept {
    return members_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return members_.size(); }

 private:
  static constexpr std::size_t kNoExtra = static_cast<std::size_t>(-1);

  /// Member mode: a plain running sum and its forward error bound. A slot
  /// whose sum saturated (its exact sum passed DBL_MAX) reads
  /// {+inf, +inf} until it is re-derived from scratch; one without a usable
  /// bound (a non-finite gain, or between the two phases of a link update)
  /// reads {0, +inf}, which sends every verdict on it to the exact path.
  struct Slot {
    double sum = 0.0;
    double bound = 0.0;
  };

  [[nodiscard]] bool member_mode() const noexcept {
    return policy_ == RemovePolicy::exact;
  }
  /// Member mode: the position of `link` in members_ (and its slots), or
  /// kNoExtra for a non-member.
  [[nodiscard]] std::size_t position_of(std::size_t link) const;
  /// Member mode: the exact sum of the members' gains at `link` on one
  /// side, skipping `link` itself — gathered first, then accumulated.
  [[nodiscard]] ExactSum own_slot_sum(std::size_t link, bool sender_side) const;
  /// Member mode: a slot restarted from an exact sum — s = RN(S) with
  /// e = 4u|s|, or the saturated / unbounded markers.
  [[nodiscard]] static Slot anchored(const ExactSum& exact);
  /// Member mode: the plain sum of the members' gains at `link` on one
  /// side, skipping `link` itself, with its bound — exact instead when the
  /// plain sum is non-finite or near DBL_MAX.
  [[nodiscard]] Slot own_slot(std::size_t link, bool sender_side) const;
  /// Member mode: f(x) certified from the slot at member position `pos`
  /// (sender side or not), falling back to the exact sum on a straddle —
  /// the out-of-line _exactly half, so the certified path stays inline.
  [[nodiscard]] bool member_passes(std::size_t pos, bool sender_side, double signal,
                                   double extra) const;
  [[nodiscard]] bool member_passes_exactly(std::size_t pos, bool sender_side, double signal,
                                           double extra) const;
  /// Member mode: the candidate's own check, certified from its plain own
  /// slot; on a straddle `own` is replaced by the exact sum.
  [[nodiscard]] bool own_passes(std::size_t link, bool sender_side, double signal,
                                Slot& own) const;
  [[nodiscard]] bool own_passes_exactly(std::size_t link, bool sender_side, double signal,
                                        Slot& own) const;
  /// Member mode: adds (or withdraws) row `link`'s gains at every member
  /// slot except position `skip`. A slot the update leaves without a
  /// usable bound is re-derived from the current members when `settled`,
  /// and marked for re-derivation otherwise. Returns true when a slot is
  /// left saturated.
  bool member_apply_row(std::size_t link, std::size_t skip, bool add_op, bool settled);
  /// Member mode: re-derives the slot at position `pos` on one side from
  /// the current members; returns true when it saturated.
  bool member_rederive(std::size_t pos, bool sender_side);
  /// Member mode: resets both slots at position `pos` from the members.
  void member_reset(std::size_t pos);
  /// Member mode: counterparts of can_add / remove / rebuild /
  /// accumulator_drift.
  [[nodiscard]] bool member_can_add(std::size_t request_index) const;
  void member_remove(std::size_t request_index);
  void member_rebuild();
  [[nodiscard]] double member_drift() const;

  void replay_accumulators(std::vector<double>& acc_v, std::vector<double>& acc_u) const;
  void rederive_slot(std::size_t link);

  const GainMatrix* gains_;
  SinrParams params_;
  RemovePolicy policy_;
  bool update_pending_ = false;
  std::size_t removal_rebuilds_ = 0;
  mutable std::size_t exact_fallbacks_ = 0;
  std::vector<std::size_t> members_;
  /// Interference from the members at v_i / u_i, for every request i
  /// (empty in member mode). The slots of members themselves exclude their
  /// own contribution.
  std::vector<double> acc_v_;
  std::vector<double> acc_u_;
  /// Member mode only: member slots aligned with members_ — the filtered
  /// interference at each member's receiver / sender.
  std::vector<Slot> slots_v_;
  std::vector<Slot> slots_u_;
  /// Member mode only: gather buffer for the exact path, and the own slots
  /// of the last candidate can_add accepted (stash_link_ == kNoExtra when
  /// none is valid).
  mutable std::vector<double> gather_;
  mutable std::size_t stash_link_ = kNoExtra;
  mutable Slot stash_v_;
  mutable Slot stash_u_;
};

/// greedy_feasible_subset over precomputed gains; identical selection.
[[nodiscard]] std::vector<std::size_t> greedy_feasible_subset(
    const GainMatrix& gains, std::span<const std::size_t> candidates,
    const SinrParams& params);

/// Precomputed directed link losses for the MAC simulator: the path loss
/// between the half-slot transmitter of pair j and the half-slot receiver
/// of pair i. Phase 0 sends u -> v (loss_uv), phase 1 sends v -> u
/// (loss_vu, bidirectional only). Losses — not gains — are stored so the
/// simulator's power / loss arithmetic stays bit-identical while skipping
/// the per-slot distance and pow work.
class LinkLossMatrix {
 public:
  LinkLossMatrix(const MetricSpace& metric, std::span<const Request> requests,
                 double alpha, Variant variant);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  /// Path loss l(u_j, v_i).
  [[nodiscard]] double loss_uv(std::size_t j, std::size_t i) const {
    return loss_uv_[j * n_ + i];
  }
  /// Path loss l(v_j, u_i); only built for the bidirectional variant
  /// (the directed simulator has no phase-1 half-slot).
  [[nodiscard]] double loss_vu(std::size_t j, std::size_t i) const;

 private:
  std::size_t n_;
  std::vector<double> loss_uv_;
  std::vector<double> loss_vu_;
};

}  // namespace oisched

#endif  // OISCHED_SINR_GAIN_MATRIX_H
