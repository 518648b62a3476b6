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

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "metric/euclidean.h"
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

/// One gain entry as every backend computes it: power / distance^alpha,
/// with the loss from std::pow and +infinity for a co-located pair.
[[nodiscard]] inline double exact_gain(double power, double distance, double alpha) {
  const double loss = path_loss(distance, alpha);
  return loss == 0.0 ? std::numeric_limits<double>::infinity() : power / loss;
}

/// Relative slack of estimated_gain: |exact_gain - estimated_gain| <=
/// kGainEstimateSlack * estimated_gain.
inline constexpr double kGainEstimateSlack = 0x1p-45;

/// exact_gain without std::pow, for an integer alpha = exponent in [1, 8]:
/// power / (d * d * ... * d). Within kGainEstimateSlack of exact_gain
/// because both read the same distance d, so only their rounding differs:
/// the exponent - 1 products err by at most (exponent - 1)u, std::pow by
/// at most 1 ulp (2u; glibc documents its pow below 1 ulp), and each
/// divide by u — about 11u in all for exponent 8, against a slack of
/// 256u (u = 2^-53). The analysis needs every intermediate and the result
/// normal, so outside 2^-900 < d^alpha < 2^900, or for a quotient outside
/// the same range, it returns exact_gain itself (error 0). "The same
/// distance" is a premise on the caller: a reader that holds copies of
/// the metric's points (IncrementalGainClass's member records) must
/// compute d with the same code over the same operands in the same order
/// (EuclideanGainKernel::distance), since a reordered or contracted
/// squared distance may differ from the entry's in its last bits.
[[nodiscard]] inline double estimated_gain(double power, double distance, int exponent,
                                           double alpha) {
  double loss = distance;
  for (int k = 1; k < exponent; ++k) loss *= distance;
  if (loss > 0x1p-900 && loss < 0x1p900) {
    const double gain = power / loss;
    if (gain > 0x1p-900 && gain < 0x1p900) return gain;
  }
  return exact_gain(power, distance, alpha);
}

/// The computed backend's inline gain kernel over an EuclideanMetric: it
/// reads the point array and the matrix's request and power stores
/// directly, with no virtual call and no GainFiller. exact() is the
/// filler's entry bit for bit (the same distances, min, std::pow and
/// divide); estimate() is estimated_gain over the same distance. A value
/// type of raw pointers, so a hot loop copies it into registers once.
struct EuclideanGainKernel {
  const Point* points = nullptr;
  const Request* requests = nullptr;
  const double* powers = nullptr;
  double alpha = 0.0;
  /// alpha when it is an integer in [1, 8], else 0 (no estimate).
  int exponent = 0;
  bool directed = true;

  /// The variant's interferer distance from an interferer with endpoints
  /// (from_u, from_v) to `target`. The bidirectional variant takes the
  /// nearer endpoint; sqrt is monotone and correctly rounded, so the sqrt
  /// of the smaller squared distance is bit for bit the min of the two
  /// distances the filler takes.
  [[nodiscard]] double distance(const Point& from_u, const Point& from_v,
                                const Point& target) const {
    const double du = squared_euclidean_distance(from_u, target);
    if (directed) return std::sqrt(du);
    return std::sqrt(std::min(du, squared_euclidean_distance(from_v, target)));
  }
  /// The distance from request j to request i's receiver (or sender).
  [[nodiscard]] double distance(std::size_t j, std::size_t i, bool sender_side) const {
    const Request& rj = requests[j];
    return distance(points[rj.u], points[rj.v],
                    points[sender_side ? requests[i].u : requests[i].v]);
  }
  [[nodiscard]] double exact(std::size_t j, std::size_t i, bool sender_side) const {
    if (i == j) return 0.0;
    return exact_gain(powers[j], distance(j, i, sender_side), alpha);
  }
  /// The estimate of an interferer of power `power` with endpoints
  /// (from_u, from_v) at `target`: given copies of request j's points and
  /// power and of request i's target point, bit for bit estimate(j, i, ·)
  /// for i != j, because it is the same code over the same operands.
  /// Requires exponent >= 1 (GainMatrix::gain_slack() > 0).
  [[nodiscard]] double estimate(const Point& from_u, const Point& from_v, double power,
                                const Point& target) const {
    return estimated_gain(power, distance(from_u, from_v, target), exponent, alpha);
  }
  [[nodiscard]] double estimate(std::size_t j, std::size_t i, bool sender_side) const {
    if (i == j) return 0.0;
    const Request& rj = requests[j];
    return estimate(points[rj.u], points[rj.v], powers[j],
                    points[sender_side ? requests[i].u : requests[i].v]);
  }
};

/// One class member's endpoints, power and signal, copied from a computed
/// Euclidean matrix's stores: the points are copies of the metric's, so a
/// kernel estimate over a record reads the same operands as one over the
/// stores. Oblivious powers depend only on the link itself, so a record
/// stays valid until its link moves.
struct MemberRecord {
  Point u;
  Point v;
  double power = 0.0;
  double signal = 0.0;

  friend bool operator==(const MemberRecord&, const MemberRecord&) = default;
};

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
/// `dense` keeps both sides in one interleaved buffer the matrix owns and
/// fills eagerly: cell (j, i) holds at_v(j, i) and, when the sender side
/// is built, at_u(j, i) right after it (a width of 2 doubles, else 1), so
/// a bidirectional check reads both gains of a pair from one cache line
/// and a table row is width * n contiguous doubles. The build walks each
/// unordered pair {i, j} once, in square tiles of 64 links, and writes
/// cells (j, i) and (i, j) from one read of the pair's endpoint distances
/// (four in the bidirectional variant) with one std::pow per distinct
/// loss; the buffer is not zero-filled, since every cell, the diagonal
/// included, is written once. That rests on the metric's symmetry being
/// exact (metric_space.h): d(a, b) and d(b, a) are the same double, so
/// each cell is still the filler's value bit for bit. The other two
/// backends live behind a GainStorage policy (gain_storage.h):
/// `appendable` grows — append_request gives a fresh link its row and
/// column in O(n), the foundation of the online scheduler's growing
/// universe; `computed` keeps no table, so huge universes stay O(n) in
/// memory and update_request moves a link by rewriting only the stores.
/// Every backend computes each entry with the same formula from the same
/// inputs, so queries are bit-for-bit identical across backends.
/// A computed matrix over an EuclideanMetric skips its storage's filler:
/// at_v/at_u and add_row_to evaluate the inline EuclideanGainKernel, and
/// for an integer alpha <= 8 its estimate() is a pow-free value within
/// gain_slack() of the entry, which the exact-policy filter of
/// IncrementalGainClass reads instead of calling std::pow.
///
/// Lifetime: the matrix copies the requests and powers it was built from
/// (requests()/powers() view the copies), but only references the metric —
/// the caller keeps it alive, as Instance's gain cache does. Appendable
/// and computed backends consult the metric after construction; dense
/// never does, but the contract is uniform.
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
    if (dense_ != nullptr) return dense_[(j * n_ + i) * width_];
    return entry(j, i, /*sender_side=*/false);
  }
  /// Contribution of request j at request i's sender u_i (j != i); 0 when
  /// the sender-side table was not built (directed default).
  [[nodiscard]] double at_u(std::size_t j, std::size_t i) const {
    if (dense_ != nullptr) return width_ == 2 ? dense_[(j * n_ + i) * 2 + 1] : 0.0;
    return at_u_ == nullptr ? 0.0 : entry(j, i, /*sender_side=*/true);
  }
  /// Prefetches dense row j (at_v(j, ·) and at_u(j, ·)), one prefetch per
  /// cache line, ahead of a scan that reads it at scattered columns; a
  /// no-op when the matrix has no dense table.
  void prefetch_row(std::size_t j) const noexcept;

  /// Relative slack of the kernel's estimates: |at_v(j, i) - e| <=
  /// gain_slack() * e for e = euclidean_kernel()->estimate(j, i, false),
  /// and the same on the sender side. kGainEstimateSlack for a computed
  /// matrix over an EuclideanMetric with an integer alpha in [1, 8]; 0
  /// otherwise, where the filter reads the entries themselves.
  [[nodiscard]] double gain_slack() const noexcept {
    return kernel_.exponent == 0 ? 0.0 : kGainEstimateSlack;
  }
  /// The inline Euclidean kernel of a computed matrix, or nullptr (any
  /// other backend or metric). Its estimate() is the pow-free value
  /// gain_slack() bounds; hot loops copy the kernel once per call.
  [[nodiscard]] const EuclideanGainKernel* euclidean_kernel() const noexcept {
    return kernel_.points == nullptr ? nullptr : &kernel_;
  }

  /// acc[i] += the gain row j contributes at column i, for every i in
  /// [begin, end), on the receiver side (or the sender side, which must
  /// have been built). One IEEE add per slot in column order, so every
  /// backend yields the same sums. The dense table is walked through its
  /// raw row pointer at stride width, every other backend through point
  /// lookups.
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
  /// matrix over the moved universe. Dense tables are frozen, and the
  /// matrices Instance's cache shares are const. Not thread-safe.
  void update_request(std::size_t link, const Request& request, double power);

  /// Doubles currently resident: the signals plus n^2 per built side.
  [[nodiscard]] std::size_t resident_doubles() const noexcept;

 private:
  /// at_v / at_u off the dense fast path: the Euclidean kernel, else the
  /// storage. Out of line, so the dense lookup stays small where it is
  /// inlined.
  [[nodiscard]] double entry(std::size_t j, std::size_t i, bool sender_side) const;

  std::size_t n_;
  double alpha_;
  Variant variant_;
  GainBackend backend_;
  const MetricSpace* metric_;
  /// Owned copies shared with the storage fillers, so on-demand entries
  /// read the same data the eager build would have — including the rows
  /// appended after construction.
  std::shared_ptr<std::vector<Request>> requests_store_;
  std::shared_ptr<std::vector<double>> powers_store_;
  std::vector<double> signal_;
  /// The appendable and computed tables (null on dense).
  std::shared_ptr<GainStorage> at_v_;
  std::shared_ptr<GainStorage> at_u_;
  /// The dense buffer, n * n cells of width_ doubles, shared by copies of
  /// the matrix; dense_ is its raw fast-path pointer (nullptr otherwise).
  /// width_ is 2 when the sender side is built, else 1.
  std::shared_ptr<const double[]> dense_table_;
  const double* dense_ = nullptr;
  std::size_t width_ = 1;
  /// The inline kernel of a computed Euclidean matrix (points == nullptr
  /// otherwise). Its store pointers stay valid: a computed matrix never
  /// grows, and update_request rewrites the stores in place.
  EuclideanGainKernel kernel_;
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
/// at x = the correct rounding RN(S) of the exact slot sum S of the
/// members' gain entries (extra is the candidate's gain entry at a member,
/// or 0 for a member's or candidate's own check). The class decides it
/// without knowing RN(S), and on a computed Euclidean matrix without the
/// entries themselves either: there it reads each gain g as the kernel's
/// estimate (GainMatrix::euclidean_kernel), a pow-free g~ with |g - g~| <= d g~
/// (d = gain_slack() = 2^-45; the estimate's error analysis, which assumes
/// libm's pow within 1 ulp, is at estimated_gain). Every other matrix
/// reads the entries, d = 0 and the terms in d below vanish.
///
/// On that computed Euclidean matrix the class also keeps one
/// MemberRecord per member, aligned with the members and their slots: a
/// copy of the member's endpoints, power and signal, filled on add,
/// erased on remove and refilled when the member moves (begin_link_update
/// still reads the stale copy, which matches the stale stores). The
/// member loops stream the records and load the other link of each gain
/// (the candidate, or the link being added, removed or moved) from the
/// kernel once per call, so an estimate costs no link -> request -> point
/// gather. The estimate's slack argument needs the same distance as the
/// entry's, and a record's points are copies of the metric's, so each
/// streamed estimate runs EuclideanGainKernel::estimate's own code over
/// the same operands in the same order: it is bit for bit the kernel's.
///
///   * A member slot holds a plain double s, updated by one IEEE add or
///     subtract of a read gain g~ per event, and a bound e with
///     |s - S| <= e. One add or subtract errs by at most u|s'| (u = 2^-53,
///     s' the new value; 0 when s' is subnormal) plus |g - g~| <= d g~, and
///     e grows by fl(4u|s'|) >= 3u|s'| plus 2d g~ per update. Rounding e's
///     own sum loses at most u*e', which the slack repays as long as
///     e' <= 2|s'|; a per-slot budget (e <= 2^-26 |s|, checked on every
///     update) guarantees that, so the invariant holds for any number of
///     updates.
///   * A candidate's own slot is a plain sum of its c read member gains,
///     in any order, with e = c * 4u * s + 2d * s (the classic gamma_c bound
///     for non-negative terms plus the estimates' slack, with room to
///     spare).
///   * RN is monotone, so RN(s - e) <= RN(S) <= RN(s + e), and fl(s -/+ e)
///     are exactly those roundings. Likewise the candidate's gain entry
///     lies in [fl(g~ - d g~), fl(g~ + d g~)]. f is monotone non-increasing
///     in x and in extra (fl(x + extra) is monotone in each), so f at the
///     two upper ends true certifies acceptance and f at the two lower ends
///     false certifies rejection. Both ends are tested with the threshold
///     expression unchanged, so a certified verdict IS the exact one.
///   * An update that pushes a slot past its budget re-derives it the way
///     a candidate's own slot is summed: a fresh plain sum of its c read
///     gains with e = c * 4u * s + 2d * s.
///   * Only when the ends disagree (the threshold lies within the bound),
///     or when a gain or sum is non-finite or near DBL_MAX, does the class
///     gather the k gain entries and sum them exactly (ExactSum::sum_of),
///     with the candidate's exact entry — counted in exact_fallbacks(). A
///     slot anchored that way restarts from s = RN(S), e = 4u|s|. So
///     std::pow runs only on this path.
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
  /// The member records, aligned with members(), of an exact-policy class
  /// over a matrix with gain_slack() > 0; empty for every other class.
  [[nodiscard]] std::span<const MemberRecord> records() const noexcept { return records_; }

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
  /// Member mode over a matrix whose estimates the filter reads: the class
  /// keeps records_.
  [[nodiscard]] bool keeps_records() const noexcept {
    return member_mode() && gains_->gain_slack() > 0.0;
  }
  /// Member mode: the record of link `link` from the matrix's stores.
  [[nodiscard]] MemberRecord record_of(std::size_t link) const;
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
  /// side, skipping `link` itself, read through `reader` (the entries, or
  /// the estimates over the records, see the class comment), with its
  /// bound — exact instead when the plain sum is non-finite or near
  /// DBL_MAX. own_slot picks the reader for `link`; callers that already
  /// hold one for it pass it on.
  [[nodiscard]] Slot own_slot(std::size_t link, bool sender_side) const;
  template <typename Reader>
  [[nodiscard]] Slot own_slot_with(Reader reader, bool sender_side) const;
  /// Member mode: f(x) certified from the slot at member position `pos`
  /// (sender side or not) with the candidate's gain somewhere in
  /// [extra_lo, extra_hi], falling back to the exact sum and the exact
  /// gain of `candidate` (kNoExtra: none, extra 0) on a straddle — the
  /// out-of-line _exactly half, so the certified path stays inline.
  [[nodiscard]] bool member_passes(std::size_t pos, bool sender_side, double signal,
                                   double extra_lo, double extra_hi,
                                   std::size_t candidate) const;
  [[nodiscard]] bool member_passes_exactly(std::size_t pos, bool sender_side, double signal,
                                           std::size_t candidate) const;
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
  template <typename Reader>
  bool member_apply_row_with(Reader reader, std::size_t skip, bool add_op, bool settled);
  /// Member mode: re-derives the slot at position `pos` on one side from
  /// the current members as a fresh own slot (a plain sum and its bound,
  /// exact only past the plain sum's range); returns true when it
  /// saturated.
  bool member_rederive(std::size_t pos, bool sender_side);
  /// Member mode: resets both slots at position `pos` from the members.
  void member_reset(std::size_t pos);
  /// Member mode: counterparts of can_add / remove / rebuild /
  /// accumulator_drift.
  [[nodiscard]] bool member_can_add(std::size_t request_index) const;
  template <typename Reader>
  [[nodiscard]] bool member_can_add_with(Reader reader) const;
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
  /// keeps_records() only: the member records, aligned with members_.
  std::vector<MemberRecord> records_;
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
/// the per-slot distance and pow work. loss_vu is the transpose of
/// loss_uv (l(v_j, u_i) = l(u_i, v_j) under the metric's exact symmetry),
/// so only loss_uv calls the metric and std::pow.
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
