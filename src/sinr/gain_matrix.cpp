#include "sinr/gain_matrix.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "core/instance.h"
#include "util/error.h"

namespace oisched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Element generator for one table side: the exact formula of the
/// historical eager build, evaluated per entry. Captures the shared
/// request/power stores (not the matrix), so a lazily materialized tile,
/// an appended row or an on-demand entry reads the same data — and a grown
/// or moved store is visible to later fills without rewiring anything.
GainFiller make_gain_filler(const MetricSpace* metric,
                            std::shared_ptr<std::vector<Request>> requests,
                            std::shared_ptr<std::vector<double>> powers, double alpha,
                            Variant variant, bool sender_side) {
  return [metric, requests = std::move(requests), powers = std::move(powers), alpha,
          variant, sender_side](std::size_t j, std::size_t i) -> double {
    if (i == j) return 0.0;
    const Request& rj = (*requests)[j];
    const Request& ri = (*requests)[i];
    const NodeId target = sender_side ? ri.u : ri.v;
    const double loss = variant == Variant::directed
                            ? path_loss(metric->distance(rj.u, target), alpha)
                            : min_endpoint_loss(*metric, rj, target, alpha);
    return loss == 0.0 ? kInf : (*powers)[j] / loss;
  };
}

/// Adds row j of one table to acc over [0, n) minus the diagonal entry
/// `skip` — a member never interferes with itself, and skipping by
/// splitting the walk keeps the slot untouched instead of relying on
/// += 0.0 (which would flip the sign of a -0.0 slot).
void add_row_skipping(const GainMatrix& gains, std::size_t j, bool sender_side,
                      std::size_t skip, double* acc) {
  gains.add_row_to(j, sender_side, 0, skip, acc);
  gains.add_row_to(j, sender_side, skip + 1, gains.size(), acc);
}

}  // namespace

const char* to_string(FeasibilityEngine engine) {
  switch (engine) {
    case FeasibilityEngine::direct:
      return "direct";
    case FeasibilityEngine::gain_matrix:
      return "gain_matrix";
  }
  return "unknown";
}

const char* to_string(RemovePolicy policy) {
  switch (policy) {
    case RemovePolicy::rebuild:
      return "rebuild";
    case RemovePolicy::exact:
      return "exact";
  }
  return "unknown";
}

bool parse_remove_policy(const std::string& word, RemovePolicy& policy) {
  if (word == "rebuild") {
    policy = RemovePolicy::rebuild;
  } else if (word == "exact") {
    policy = RemovePolicy::exact;
  } else {
    return false;
  }
  return true;
}

GainMatrix::GainMatrix(const MetricSpace& metric, std::span<const Request> requests,
                       std::span<const double> powers, double alpha, Variant variant,
                       bool with_sender_gains, GainBackend backend)
    : n_(requests.size()),
      alpha_(alpha),
      variant_(variant),
      backend_(backend),
      metric_(&metric),
      requests_store_(std::make_shared<std::vector<Request>>(requests.begin(), requests.end())),
      powers_store_(std::make_shared<std::vector<double>>(powers.begin(), powers.end())) {
  require(requests.size() == powers.size(),
          "GainMatrix: powers must be given for every request");
  signal_.reserve(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    const double l = link_loss(metric, requests[i], alpha_);
    require(l > 0.0, "GainMatrix: request endpoints must be distinct points");
    signal_.push_back(powers[i] / l);
  }
  const bool build_at_u = variant_ == Variant::bidirectional || with_sender_gains;
  if (backend_ == GainBackend::dense) {
    // Fused native build (the historical eager loop): one metric/pow pass
    // fills both tables with no per-element filler dispatch. Same formula,
    // same values, bit for bit — just the fast path for the default
    // backend that every offline run cold-builds.
    std::vector<double> table_v(n_ * n_, 0.0);
    std::vector<double> table_u;
    if (build_at_u) table_u.assign(n_ * n_, 0.0);
    for (std::size_t j = 0; j < n_; ++j) {
      const Request& rj = requests[j];
      for (std::size_t i = 0; i < n_; ++i) {
        if (i == j) continue;
        const Request& ri = requests[i];
        const double lv = variant_ == Variant::directed
                              ? path_loss(metric.distance(rj.u, ri.v), alpha_)
                              : min_endpoint_loss(metric, rj, ri.v, alpha_);
        table_v[j * n_ + i] = lv == 0.0 ? kInf : powers[j] / lv;
        if (build_at_u) {
          const double lu = variant_ == Variant::directed
                                ? path_loss(metric.distance(rj.u, ri.u), alpha_)
                                : min_endpoint_loss(metric, rj, ri.u, alpha_);
          table_u[j * n_ + i] = lu == 0.0 ? kInf : powers[j] / lu;
        }
      }
    }
    at_v_ = std::make_shared<DenseGainStorage>(n_, std::move(table_v));
    if (build_at_u) at_u_ = std::make_shared<DenseGainStorage>(n_, std::move(table_u));
  } else {
    at_v_ = make_gain_storage(backend_, n_,
                              make_gain_filler(metric_, requests_store_, powers_store_,
                                               alpha_, variant_, /*sender_side=*/false));
    if (build_at_u) {
      at_u_ = make_gain_storage(backend_, n_,
                                make_gain_filler(metric_, requests_store_, powers_store_,
                                                 alpha_, variant_, /*sender_side=*/true));
    }
  }
  dense_v_ = at_v_->dense_data();
  dense_u_ = at_u_ == nullptr ? nullptr : at_u_->dense_data();
}

GainMatrix::GainMatrix(const Instance& instance, std::span<const double> powers,
                       double alpha, Variant variant, bool with_sender_gains,
                       GainBackend backend)
    : GainMatrix(instance.metric(), instance.requests(), powers, alpha, variant,
                 with_sender_gains, backend) {}

std::size_t GainMatrix::append_request(const Request& request, double power) {
  require(backend_ == GainBackend::appendable,
          "GainMatrix: only the appendable backend can grow");
  require(request.u < metric_->size() && request.v < metric_->size(),
          "GainMatrix: request endpoint out of metric range");
  const double l = link_loss(*metric_, request, alpha_);
  require(l > 0.0, "GainMatrix: request endpoints must be distinct points");
  require(std::isfinite(power) && power > 0.0,
          "GainMatrix: powers must be positive and finite");
  // Grow the stores first so the fillers see the new link, then extend the
  // tables by its row and column.
  requests_store_->push_back(request);
  powers_store_->push_back(power);
  n_ = requests_store_->size();
  signal_.push_back(power / l);
  static_cast<AppendableGainStorage&>(*at_v_).grow_to(n_);
  if (at_u_ != nullptr) static_cast<AppendableGainStorage&>(*at_u_).grow_to(n_);
  return n_ - 1;
}

void GainMatrix::update_request(std::size_t link, const Request& request,
                                double power) {
  require(backend_ == GainBackend::appendable || backend_ == GainBackend::computed,
          "GainMatrix: only the appendable and computed backends move links");
  require(link < n_, "GainMatrix: update of an out-of-range link");
  require(request.u < metric_->size() && request.v < metric_->size(),
          "GainMatrix: request endpoint out of metric range");
  const double l = link_loss(*metric_, request, alpha_);
  require(l > 0.0, "GainMatrix: request endpoints must be distinct points");
  require(std::isfinite(power) && power > 0.0,
          "GainMatrix: powers must be positive and finite");
  // The fillers read the shared stores, so computed entries follow them at
  // once; an appendable table then rewrites the link's row and column
  // through the same fillers — exactly what an eager build over the moved
  // universe would compute.
  (*requests_store_)[link] = request;
  (*powers_store_)[link] = power;
  signal_[link] = power / l;
  if (backend_ == GainBackend::appendable) {
    static_cast<AppendableGainStorage&>(*at_v_).refresh_link(link);
    if (at_u_ != nullptr) static_cast<AppendableGainStorage&>(*at_u_).refresh_link(link);
  }
}

void GainMatrix::add_row_to(std::size_t j, bool sender_side, std::size_t begin, std::size_t end,
                            double* acc) const {
  if (const double* dense = sender_side ? dense_u_ : dense_v_) {
    const double* row = dense + j * n_;
    for (std::size_t i = begin; i < end; ++i) acc[i] += row[i];
    return;
  }
  const GainStorage& table = sender_side ? *at_u_ : *at_v_;
  for (std::size_t i = begin; i < end; ++i) acc[i] += table.at(j, i);
}

std::size_t GainMatrix::resident_doubles() const noexcept {
  std::size_t total = signal_.size() + at_v_->resident_doubles();
  if (at_u_ != nullptr) total += at_u_->resident_doubles();
  return total;
}

FeasibilityReport check_feasible(const GainMatrix& gains,
                                 std::span<const std::size_t> active,
                                 const SinrParams& params) {
  params.validate();
  FeasibilityReport report;
  report.worst_margin = kInf;
  const bool bidirectional = gains.variant() == Variant::bidirectional;
  for (std::size_t pos = 0; pos < active.size(); ++pos) {
    const std::size_t i = active[pos];
    const double signal = gains.signal(i);
    const int num_constraints = bidirectional ? 2 : 1;
    for (int c = 0; c < num_constraints; ++c) {
      double interference = 0.0;
      for (std::size_t other = 0; other < active.size(); ++other) {
        if (other == pos) continue;
        const std::size_t j = active[other];
        interference += c == 0 ? gains.at_v(j, i) : gains.at_u(j, i);
      }
      const double demand = params.beta * (interference + params.noise);
      const double margin = demand > 0.0 ? signal / demand : kInf;
      if (margin < report.worst_margin) {
        report.worst_margin = margin;
        report.worst_request = pos;
      }
      if (!(signal > demand)) report.feasible = false;
    }
  }
  return report;
}

IncrementalGainClass::IncrementalGainClass(const GainMatrix& gains,
                                           const SinrParams& params,
                                           RemovePolicy policy)
    : gains_(&gains), params_(params), policy_(policy) {
  params_.validate();
  if (!member_mode()) {
    acc_v_.assign(gains_->size(), 0.0);
    if (gains_->variant() == Variant::bidirectional) acc_u_.assign(gains_->size(), 0.0);
  }
}

bool IncrementalGainClass::can_add(std::size_t request_index) const {
  if (member_mode()) return member_can_add(request_index);
  require(acc_v_.size() == gains_->size(),
          "IncrementalGainClass: the gain matrix grew; call sync_universe() first");
  const bool bidirectional = gains_->variant() == Variant::bidirectional;
  const double cand_signal = gains_->signal(request_index);

  // Existing members must tolerate the newcomer's extra interference.
  for (const std::size_t m : members_) {
    const double extra_v = gains_->at_v(request_index, m);
    if (!(gains_->signal(m) > params_.beta * (acc_v_[m] + extra_v + params_.noise))) {
      return false;
    }
    if (bidirectional) {
      const double extra_u = gains_->at_u(request_index, m);
      if (!(gains_->signal(m) > params_.beta * (acc_u_[m] + extra_u + params_.noise))) {
        return false;
      }
    }
  }

  // The newcomer must decode against everyone already in the class.
  if (!(cand_signal > params_.beta * (acc_v_[request_index] + params_.noise))) return false;
  if (bidirectional &&
      !(cand_signal > params_.beta * (acc_u_[request_index] + params_.noise))) {
    return false;
  }
  return true;
}

void IncrementalGainClass::add(std::size_t request_index) {
  const bool bidirectional = gains_->variant() == Variant::bidirectional;
  if (member_mode()) {
    // Error-free accumulation: each slot keeps the exact expansion, and
    // the exposed double is its correct rounding — a pure function of the
    // member multiset, so any later subtract restores today's state bit
    // for bit. The newcomer's own slot is the sum its accepting can_add
    // already computed, when that stash is still valid.
    ExactSum own_v;
    ExactSum own_u;
    if (stash_link_ == request_index) {
      own_v = std::move(stash_v_);
      own_u = std::move(stash_u_);
    } else {
      own_v = own_slot_sum(request_index, /*sender_side=*/false);
      if (bidirectional) own_u = own_slot_sum(request_index, /*sender_side=*/true);
    }
    stash_link_ = kNoExtra;
    // A slot this leaves saturated is repaired by the next removal.
    (void)member_apply_row(request_index, kNoExtra, /*add_op=*/true);
    members_.push_back(request_index);
    const std::size_t pos = members_.size() - 1;
    member_exact_v_.resize(pos + 1);
    member_exact_v_.store(pos, own_v);
    member_v_.push_back(own_v.value());
    if (bidirectional) {
      member_exact_u_.resize(pos + 1);
      member_exact_u_.store(pos, own_u);
      member_u_.push_back(own_u.value());
    }
    return;
  }
  require(acc_v_.size() == gains_->size(),
          "IncrementalGainClass: the gain matrix grew; call sync_universe() first");
  add_row_skipping(*gains_, request_index, /*sender_side=*/false, request_index, acc_v_.data());
  if (bidirectional) {
    add_row_skipping(*gains_, request_index, /*sender_side=*/true, request_index,
                     acc_u_.data());
  }
  members_.push_back(request_index);
}

bool IncrementalGainClass::contains(std::size_t request_index) const {
  return position_of(request_index) != kNoExtra;
}

std::size_t IncrementalGainClass::position_of(std::size_t link) const {
  const auto it = std::find(members_.begin(), members_.end(), link);
  return it == members_.end() ? kNoExtra : static_cast<std::size_t>(it - members_.begin());
}

ExactSum IncrementalGainClass::own_slot_sum(std::size_t link, bool sender_side) const {
  // Gather the column entries first, so the strided loads overlap, and
  // only then accumulate.
  gather_.resize(members_.size());
  std::size_t count = 0;
  if (sender_side) {
    for (const std::size_t m : members_) {
      if (m != link) gather_[count++] = gains_->at_u(m, link);
    }
  } else {
    for (const std::size_t m : members_) {
      if (m != link) gather_[count++] = gains_->at_v(m, link);
    }
  }
  return ExactSum::sum_of({gather_.data(), count});
}

bool IncrementalGainClass::member_apply_row(std::size_t link, std::size_t skip, bool add_op) {
  const std::size_t k = members_.size();
  bool saturated = false;
  const auto apply_side = [&](bool sender_side, ExactSumBank& bank,
                              std::vector<double>& slots) {
    gather_.resize(k);
    for (std::size_t p = 0; p < k; ++p) {
      gather_[p] = sender_side ? gains_->at_u(link, members_[p])
                               : gains_->at_v(link, members_[p]);
    }
    for (std::size_t p = 0; p < k; ++p) {
      if (p == skip) continue;
      slots[p] = add_op ? bank.add(p, gather_[p]) : bank.subtract(p, gather_[p]);
      saturated |= bank.saturated(p);
    }
  };
  apply_side(/*sender_side=*/false, member_exact_v_, member_v_);
  if (gains_->variant() == Variant::bidirectional) {
    apply_side(/*sender_side=*/true, member_exact_u_, member_u_);
  }
  return saturated;
}

void IncrementalGainClass::member_rederive(std::size_t pos) {
  const std::size_t link = members_[pos];
  const ExactSum sum_v = own_slot_sum(link, /*sender_side=*/false);
  member_exact_v_.store(pos, sum_v);
  member_v_[pos] = sum_v.value();
  if (gains_->variant() == Variant::bidirectional) {
    const ExactSum sum_u = own_slot_sum(link, /*sender_side=*/true);
    member_exact_u_.store(pos, sum_u);
    member_u_[pos] = sum_u.value();
  }
}

bool IncrementalGainClass::member_can_add(std::size_t request_index) const {
  const bool bidirectional = gains_->variant() == Variant::bidirectional;
  // Existing members must tolerate the newcomer's extra interference —
  // tested first, because most rejections happen here and it needs no
  // own-slot sum.
  for (std::size_t p = 0; p < members_.size(); ++p) {
    const std::size_t m = members_[p];
    const double signal = gains_->signal(m);
    const double extra_v = gains_->at_v(request_index, m);
    if (!(signal > params_.beta * (member_v_[p] + extra_v + params_.noise))) return false;
    if (bidirectional) {
      const double extra_u = gains_->at_u(request_index, m);
      if (!(signal > params_.beta * (member_u_[p] + extra_u + params_.noise))) {
        return false;
      }
    }
  }

  // The newcomer must decode against everyone already in the class.
  const double cand_signal = gains_->signal(request_index);
  ExactSum own_v = own_slot_sum(request_index, /*sender_side=*/false);
  if (!(cand_signal > params_.beta * (own_v.value() + params_.noise))) return false;
  ExactSum own_u;
  if (bidirectional) {
    own_u = own_slot_sum(request_index, /*sender_side=*/true);
    if (!(cand_signal > params_.beta * (own_u.value() + params_.noise))) return false;
  }
  stash_link_ = request_index;
  stash_v_ = std::move(own_v);
  stash_u_ = std::move(own_u);
  return true;
}

void IncrementalGainClass::member_remove(std::size_t request_index) {
  const std::size_t pos = position_of(request_index);
  require(pos != kNoExtra, "IncrementalGainClass: remove of a non-member");
  stash_link_ = kNoExtra;
  const auto at = static_cast<std::ptrdiff_t>(pos);
  members_.erase(members_.begin() + at);
  member_v_.erase(member_v_.begin() + at);
  member_exact_v_.erase(pos);
  if (gains_->variant() == Variant::bidirectional) {
    member_u_.erase(member_u_.begin() + at);
    member_exact_u_.erase(pos);
  }
  // Subtracting from the expansions is error-free, so every surviving
  // slot lands bit for bit where a freshly built class would.
  if (member_apply_row(request_index, kNoExtra, /*add_op=*/false)) {
    // A member slot's true interference sum once exceeded the double
    // range: ExactSum saturation is sticky, so subtraction alone cannot
    // bring the finite state back even though the survivors' sum may be
    // representable again. Re-derive from scratch — the only removal that
    // ever pays a replay under this policy, and only in this
    // beyond-DBL_MAX regime.
    ++removal_rebuilds_;
    member_rebuild();
    return;
  }
  ++removes_since_rebuild_;
#ifndef NDEBUG
  // Debug tripwire for the exactness claim itself: every member slot must
  // coincide — exactly, not approximately — with a fresh exact sum.
  if (removes_since_rebuild_ % 8 == 0) {
    ensure(accumulator_drift() == 0.0,
           "IncrementalGainClass: exact accumulator deviated from replay");
  }
#endif
}

void IncrementalGainClass::member_rebuild() {
  for (std::size_t pos = 0; pos < members_.size(); ++pos) member_rederive(pos);
  removes_since_rebuild_ = 0;
}

double IncrementalGainClass::member_drift() const {
  double drift = 0.0;
  for (std::size_t p = 0; p < members_.size(); ++p) {
    const double fresh_v = own_slot_sum(members_[p], /*sender_side=*/false).value();
    drift = std::max(drift, std::abs(member_v_[p] - fresh_v));
    if (gains_->variant() == Variant::bidirectional) {
      const double fresh_u = own_slot_sum(members_[p], /*sender_side=*/true).value();
      drift = std::max(drift, std::abs(member_u_[p] - fresh_u));
    }
  }
  return drift;
}

double IncrementalGainClass::accumulator_v(std::size_t i) const {
  if (!member_mode()) return acc_v_[i];
  const std::size_t pos = position_of(i);
  return pos != kNoExtra ? member_v_[pos] : own_slot_sum(i, /*sender_side=*/false).value();
}

double IncrementalGainClass::accumulator_u(std::size_t i) const {
  if (gains_->variant() != Variant::bidirectional) return 0.0;
  if (!member_mode()) return acc_u_[i];
  const std::size_t pos = position_of(i);
  return pos != kNoExtra ? member_u_[pos] : own_slot_sum(i, /*sender_side=*/true).value();
}

double IncrementalGainClass::member_accumulator_v(std::size_t pos) const {
  return member_mode() ? member_v_[pos] : acc_v_[members_[pos]];
}

double IncrementalGainClass::member_accumulator_u(std::size_t pos) const {
  if (gains_->variant() != Variant::bidirectional) return 0.0;
  return member_mode() ? member_u_[pos] : acc_u_[members_[pos]];
}

void IncrementalGainClass::remove(std::size_t request_index) {
  if (member_mode()) {
    member_remove(request_index);
    return;
  }
  require(acc_v_.size() == gains_->size(),
          "IncrementalGainClass: the gain matrix grew; call sync_universe() first");
  const auto it = std::find(members_.begin(), members_.end(), request_index);
  require(it != members_.end(), "IncrementalGainClass: remove of a non-member");
  members_.erase(it);
  ++removal_rebuilds_;
  rebuild();
}

void IncrementalGainClass::begin_link_update(std::size_t link) {
  require(!update_pending_,
          "IncrementalGainClass: begin_link_update while an update is pending");
  require(link < gains_->size(),
          "IncrementalGainClass: update of an out-of-range link");
  update_pending_ = true;
  if (member_mode()) {
    // The stash may hold the moving link's own slot; a member's stale row
    // leaves the other member slots error-free.
    stash_link_ = kNoExtra;
    const std::size_t pos = position_of(link);
    if (pos != kNoExtra) (void)member_apply_row(link, pos, /*add_op=*/false);
    return;
  }
  require(acc_v_.size() == gains_->size(),
          "IncrementalGainClass: the gain matrix grew; call sync_universe() first");
  // The rebuild policy replays in finish_link_update, and a non-member's
  // stale row is accumulated nowhere.
}

void IncrementalGainClass::finish_link_update(std::size_t link) {
  require(update_pending_,
          "IncrementalGainClass: finish_link_update without a pending update");
  update_pending_ = false;
  if (member_mode()) {
    // A non-member's own slot is summed on demand from the refreshed
    // column, so only a member class has work: re-add the row, then
    // re-derive the link's own slot from the refreshed column.
    const std::size_t pos = position_of(link);
    if (pos == kNoExtra) return;
    if (member_apply_row(link, pos, /*add_op=*/true)) {
      // Same escape hatch as remove(): only a replay restores the finite
      // state of a saturated slot.
      ++removal_rebuilds_;
      member_rebuild();
      return;
    }
    member_rederive(pos);
    ++removes_since_rebuild_;
#ifndef NDEBUG
    // Debug tripwire for the in-place-update exactness claim itself, at
    // the same cadence as the removal tripwire.
    if (removes_since_rebuild_ % 8 == 0) {
      ensure(accumulator_drift() == 0.0,
             "IncrementalGainClass: exact accumulator deviated after link update");
    }
#endif
    return;
  }
  if (contains(link)) {
    // The rebuild policy restores every slot — including slot `link` — by
    // replaying the members over the refreshed tables.
    ++removal_rebuilds_;
    rebuild();
    return;
  }
  // Slot `link` reads column `link`, which just changed — and the add
  // path never touches a link's own slot. Re-derive it from the members.
  rederive_slot(link);
}

void IncrementalGainClass::rederive_slot(std::size_t link) {
  const bool bidirectional = gains_->variant() == Variant::bidirectional;
  // The rebuild policy replays the slot in insertion order — the
  // arithmetic of replay_accumulators, restricted to one slot.
  double sum_v = 0.0;
  double sum_u = 0.0;
  for (const std::size_t m : members_) {
    if (m == link) continue;
    sum_v += gains_->at_v(m, link);
    if (bidirectional) sum_u += gains_->at_u(m, link);
  }
  acc_v_[link] = sum_v;
  if (bidirectional) acc_u_[link] = sum_u;
}

bool IncrementalGainClass::members_feasible() const {
  const bool bidirectional = gains_->variant() == Variant::bidirectional;
  if (member_mode()) {
    for (std::size_t p = 0; p < members_.size(); ++p) {
      const double signal = gains_->signal(members_[p]);
      if (!(signal > params_.beta * (member_v_[p] + params_.noise))) return false;
      if (bidirectional && !(signal > params_.beta * (member_u_[p] + params_.noise))) {
        return false;
      }
    }
    return true;
  }
  for (const std::size_t m : members_) {
    if (!(gains_->signal(m) > params_.beta * (acc_v_[m] + params_.noise))) return false;
    if (bidirectional &&
        !(gains_->signal(m) > params_.beta * (acc_u_[m] + params_.noise))) {
      return false;
    }
  }
  return true;
}

void IncrementalGainClass::sync_universe() {
  if (member_mode()) return;  // no slot is indexed by the universe
  const std::size_t n = gains_->size();
  if (acc_v_.size() == n) return;
  require(acc_v_.size() < n, "IncrementalGainClass: gain matrices never shrink");
  const std::size_t old_n = acc_v_.size();
  const bool bidirectional = gains_->variant() == Variant::bidirectional;
  acc_v_.resize(n, 0.0);
  if (bidirectional) acc_u_.resize(n, 0.0);
  // The fresh slots accumulate the members' contributions in insertion
  // order — exactly the sums a from-scratch replay over the grown universe
  // produces, so exactness guarantees survive growth.
  for (const std::size_t m : members_) {
    gains_->add_row_to(m, /*sender_side=*/false, old_n, n, acc_v_.data());
    if (bidirectional) gains_->add_row_to(m, /*sender_side=*/true, old_n, n, acc_u_.data());
  }
}

void IncrementalGainClass::replay_accumulators(std::vector<double>& acc_v,
                                               std::vector<double>& acc_u) const {
  const bool bidirectional = gains_->variant() == Variant::bidirectional;
  acc_v.assign(gains_->size(), 0.0);
  acc_u.assign(bidirectional ? gains_->size() : 0, 0.0);
  for (const std::size_t m : members_) {
    add_row_skipping(*gains_, m, /*sender_side=*/false, m, acc_v.data());
    if (bidirectional) add_row_skipping(*gains_, m, /*sender_side=*/true, m, acc_u.data());
  }
}

void IncrementalGainClass::rebuild() {
  if (member_mode()) {
    member_rebuild();
    return;
  }
  replay_accumulators(acc_v_, acc_u_);
}

double IncrementalGainClass::accumulator_drift() const {
  if (member_mode()) return member_drift();
  std::vector<double> fresh_v, fresh_u;
  replay_accumulators(fresh_v, fresh_u);
  double drift = 0.0;
  for (std::size_t i = 0; i < acc_v_.size(); ++i) {
    drift = std::max(drift, std::abs(acc_v_[i] - fresh_v[i]));
  }
  for (std::size_t i = 0; i < acc_u_.size(); ++i) {
    drift = std::max(drift, std::abs(acc_u_[i] - fresh_u[i]));
  }
  return drift;
}

std::vector<std::size_t> greedy_feasible_subset(const GainMatrix& gains,
                                                std::span<const std::size_t> candidates,
                                                const SinrParams& params) {
  IncrementalGainClass cls(gains, params);
  for (const std::size_t j : candidates) {
    if (cls.can_add(j)) cls.add(j);
  }
  return cls.members();
}

double LinkLossMatrix::loss_vu(std::size_t j, std::size_t i) const {
  require(!loss_vu_.empty(), "LinkLossMatrix: loss_vu is bidirectional-only");
  return loss_vu_[j * n_ + i];
}

LinkLossMatrix::LinkLossMatrix(const MetricSpace& metric,
                               std::span<const Request> requests, double alpha,
                               Variant variant)
    : n_(requests.size()) {
  loss_uv_.assign(n_ * n_, 0.0);
  if (variant == Variant::bidirectional) loss_vu_.assign(n_ * n_, 0.0);
  for (std::size_t j = 0; j < n_; ++j) {
    const Request& rj = requests[j];
    for (std::size_t i = 0; i < n_; ++i) {
      const Request& ri = requests[i];
      loss_uv_[j * n_ + i] = path_loss(metric.distance(rj.u, ri.v), alpha);
      if (variant == Variant::bidirectional) {
        loss_vu_[j * n_ + i] = path_loss(metric.distance(rj.v, ri.u), alpha);
      }
    }
  }
}

}  // namespace oisched
