#include "sinr/gain_matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>

#include "core/instance.h"
#include "metric/euclidean.h"
#include "util/error.h"

namespace oisched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// The exact policy's filter (see IncrementalGainClass): a slot's bound
/// grows by kSlack = 4u times its new magnitude per update, may reach
/// kBudget times that magnitude before the slot is re-derived exactly,
/// and a slot at or above kHuge is re-derived too, since only the exact
/// sum can tell whether it passed DBL_MAX.
constexpr double kSlack = 0x1p-51;
constexpr double kBudget = 0x1p-26;
constexpr double kHuge = 0x1p1023;

/// One gain from its loss: power / loss, +inf when co-located.
double cell_gain(double power, double loss) { return loss == 0.0 ? kInf : power / loss; }

/// Element generator for one table side: the exact formula of the
/// historical eager build, evaluated per entry. Captures the shared
/// request/power stores (not the matrix), so an appended row or an
/// on-demand entry reads the same data — and a grown or moved store is
/// visible to later fills without rewiring anything.
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
    return cell_gain((*powers)[j], loss);
  };
}

/// The exact-policy member paths' gain readers. One reader serves one call
/// about one link (the candidate, or the link being added, removed or
/// moved) and reads by member position p: link_v(p) / link_u(p) is the
/// link's gain at member p's receiver / sender, member_v(p) / member_u(p)
/// is member p's gain at the link's receiver / sender, and signal(p) is
/// member p's signal. A member read against itself is 0, as on the
/// table's diagonal. read_gains picks the reader. EntryReader reads the
/// entries themselves (slack 0, so the filter's tests are the unwidened
/// ones); RecordReader reads a computed Euclidean matrix's pow-free
/// estimates, each within kGainEstimateSlack of its entry and bit for bit
/// the kernel's, from the member records and the link's points and power,
/// which it loads once.
struct EntryReader {
  static constexpr bool kEstimates = false;
  const GainMatrix* gains;
  const std::size_t* members;
  std::size_t link;
  [[nodiscard]] double signal(std::size_t p) const { return gains->signal(members[p]); }
  [[nodiscard]] double link_v(std::size_t p) const { return gains->at_v(link, members[p]); }
  [[nodiscard]] double link_u(std::size_t p) const { return gains->at_u(link, members[p]); }
  [[nodiscard]] double member_v(std::size_t p) const { return gains->at_v(members[p], link); }
  [[nodiscard]] double member_u(std::size_t p) const { return gains->at_u(members[p], link); }
};

struct RecordReader {
  static constexpr bool kEstimates = true;
  RecordReader(const EuclideanGainKernel& kernel, const MemberRecord* records,
               const std::size_t* members, std::size_t link)
      : kernel(kernel),
        records(records),
        members(members),
        link(link),
        sender(kernel.points[kernel.requests[link].u]),
        receiver(kernel.points[kernel.requests[link].v]),
        power(kernel.powers[link]) {}

  [[nodiscard]] double signal(std::size_t p) const { return records[p].signal; }
  [[nodiscard]] double link_v(std::size_t p) const { return link_at(p, records[p].v); }
  [[nodiscard]] double link_u(std::size_t p) const { return link_at(p, records[p].u); }
  [[nodiscard]] double member_v(std::size_t p) const { return member_at(p, receiver); }
  [[nodiscard]] double member_u(std::size_t p) const { return member_at(p, sender); }

  EuclideanGainKernel kernel;
  const MemberRecord* records;
  const std::size_t* members;
  std::size_t link;
  /// The link's endpoints and power.
  Point sender;
  Point receiver;
  double power;

 private:
  [[nodiscard]] double link_at(std::size_t p, const Point& target) const {
    if (members[p] == link) return 0.0;
    return kernel.estimate(sender, receiver, power, target);
  }
  [[nodiscard]] double member_at(std::size_t p, const Point& target) const {
    if (members[p] == link) return 0.0;
    const MemberRecord& member = records[p];
    return kernel.estimate(member.u, member.v, member.power, target);
  }
};

/// Calls body(reader) with the reader `gains` calls for, about `link`.
template <typename Body>
decltype(auto) read_gains(const GainMatrix& gains, const std::vector<std::size_t>& members,
                          const std::vector<MemberRecord>& records, std::size_t link,
                          Body&& body) {
  if (gains.gain_slack() > 0.0) {
    return body(RecordReader(*gains.euclidean_kernel(), records.data(), members.data(), link));
  }
  return body(EntryReader{&gains, members.data(), link});
}

/// Side of the square tiles the dense build walks: a tile's rows and the
/// transposed tile's rows, 64 cells each, stay cache-resident while both
/// are written.
constexpr std::size_t kPairTile = 64;

/// Doubles per 64-byte cache line.
constexpr std::size_t kLineDoubles = 8;

/// The dense row pitch for rows of `row` doubles: `row` rounded up to an
/// odd number of 64-byte lines. An odd line count shares no factor with
/// the L1's power-of-two set count, so a column read down the rows (one
/// load per row, as an own-slot sum reads it) steps through the sets
/// instead of landing in one, which it does whenever the row is a
/// multiple of 4 KiB (64 KiB at n = 4096 bidirectional, 16 KiB at
/// n = 1024). The padding, under two lines per row, is never read.
std::size_t dense_pitch(std::size_t row) {
  return ((row + kLineDoubles - 1) / kLineDoubles | 1) * kLineDoubles;
}

/// Fills the dense interleaved buffer (n rows of n cells of `width`
/// doubles, at_v then at_u, rows `pitch` doubles apart) with the filler's
/// values, bit for bit, writing every cell exactly once. It walks each
/// unordered pair {i, j} once, in square tiles of kPairTile links, and
/// writes cells (j, i) and (i, j) from one read of the endpoint
/// distances. That rests on the metric being symmetric bit for bit
/// (MetricSpace requires it): d(a, b) read as d(b, a) is the same double,
/// so each cell's loss is the filler's. Each min keeps the filler's
/// operand order (the interferer's sender first).
void fill_dense_pairs(double* table, const MetricSpace& metric,
                      std::span<const Request> requests, std::span<const double> powers,
                      double alpha, Variant variant, std::size_t width, std::size_t pitch) {
  const std::size_t n = requests.size();
  const bool sender_side = width == 2;
  for (std::size_t i = 0; i < n; ++i) std::fill_n(table + i * pitch + i * width, width, 0.0);
  for (std::size_t j0 = 0; j0 < n; j0 += kPairTile) {
    const std::size_t j1 = std::min(n, j0 + kPairTile);
    for (std::size_t i0 = 0; i0 <= j0; i0 += kPairTile) {
      for (std::size_t j = j0; j < j1; ++j) {
        const Request& rj = requests[j];
        const double pj = powers[j];
        const std::size_t i1 = std::min(j, i0 + kPairTile);
        for (std::size_t i = i0; i < i1; ++i) {
          const Request& ri = requests[i];
          const double pi = powers[i];
          double* const ji = table + j * pitch + i * width;  // cell (j, i)
          double* const ij = table + i * pitch + j * width;  // cell (i, j)
          if (variant == Variant::directed) {
            // at_v(j, i) reads d(u_j, v_i), at_v(i, j) reads d(u_i, v_j), and
            // both sender-side cells read d(u_i, u_j).
            ji[0] = cell_gain(pj, path_loss(metric.distance(ri.v, rj.u), alpha));
            ij[0] = cell_gain(pi, path_loss(metric.distance(ri.u, rj.v), alpha));
            if (sender_side) {
              const double loss = path_loss(metric.distance(ri.u, rj.u), alpha);
              ji[1] = cell_gain(pj, loss);
              ij[1] = cell_gain(pi, loss);
            }
            continue;
          }
          const double a = metric.distance(ri.u, rj.u);
          const double b = metric.distance(ri.u, rj.v);
          const double c = metric.distance(ri.v, rj.u);
          const double d = metric.distance(ri.v, rj.v);
          const double v_ji = std::min(c, d);  // d(u_j, v_i), d(v_j, v_i)
          const double u_ji = std::min(a, b);  // d(u_j, u_i), d(v_j, u_i)
          const double v_ij = std::min(b, d);  // d(u_i, v_j), d(v_i, v_j)
          const double u_ij = std::min(a, c);  // d(u_i, u_j), d(v_i, u_j)
          // One std::pow per distinct min. Each of a..d is in two of the
          // four mins, so the smallest is two of them: at most three are
          // distinct. u_ij and v_ij share no distance, and when they are
          // equal, u_ji or v_ji equals them too, so u_ij is never matched
          // against v_ij. An equal +0 and -0 may share a loss whose sign
          // differs from the filler's, but either is 0 and the cell is
          // +inf.
          const double l_v_ji = path_loss(v_ji, alpha);
          const double l_u_ji = u_ji == v_ji ? l_v_ji : path_loss(u_ji, alpha);
          const double l_v_ij = v_ij == v_ji   ? l_v_ji
                                : v_ij == u_ji ? l_u_ji
                                               : path_loss(v_ij, alpha);
          const double l_u_ij = u_ij == v_ji   ? l_v_ji
                                : u_ij == u_ji ? l_u_ji
                                               : path_loss(u_ij, alpha);
          ji[0] = cell_gain(pj, l_v_ji);
          ji[1] = cell_gain(pj, l_u_ji);
          ij[0] = cell_gain(pi, l_v_ij);
          ij[1] = cell_gain(pi, l_u_ij);
        }
      }
    }
  }
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
  width_ = build_at_u ? 2 : 1;
  if (backend_ == GainBackend::dense) {
    pitch_ = dense_pitch(n_ * width_);
    const std::shared_ptr<double[]> table =
        std::make_shared_for_overwrite<double[]>(n_ * pitch_);
    fill_dense_pairs(table.get(), metric, requests, powers, alpha_, variant_, width_, pitch_);
    dense_table_ = table;
    dense_ = table.get();
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
  const auto* euclidean = dynamic_cast<const EuclideanMetric*>(metric_);
  if (backend_ == GainBackend::computed && euclidean != nullptr) {
    kernel_.points = euclidean->points().data();
    kernel_.requests = requests_store_->data();
    kernel_.powers = powers_store_->data();
    kernel_.alpha = alpha_;
    kernel_.directed = variant_ == Variant::directed;
    if (alpha_ >= 1.0 && alpha_ <= 8.0 && alpha_ == std::floor(alpha_)) {
      kernel_.exponent = static_cast<int>(alpha_);
    }
  }
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

double GainMatrix::entry(std::size_t j, std::size_t i, bool sender_side) const {
  if (kernel_.points != nullptr) return kernel_.exact(j, i, sender_side);
  return sender_side ? at_u_->at(j, i) : at_v_->at(j, i);
}

void GainMatrix::add_row_to(std::size_t j, bool sender_side, std::size_t begin, std::size_t end,
                            double* acc) const {
  if (dense_ != nullptr) {
    const std::size_t width = width_;
    const double* row = dense_row(j).data() + (sender_side ? 1 : 0);
    for (std::size_t i = begin; i < end; ++i) acc[i] += row[i * width];
    return;
  }
  if (kernel_.points != nullptr) {
    const EuclideanGainKernel kernel = kernel_;
    for (std::size_t i = begin; i < end; ++i) acc[i] += kernel.exact(j, i, sender_side);
    return;
  }
  const GainStorage& table = sender_side ? *at_u_ : *at_v_;
  for (std::size_t i = begin; i < end; ++i) acc[i] += table.at(j, i);
}

void GainMatrix::prefetch_row(std::size_t j) const noexcept {
  const std::span<const double> row = dense_row(j);
  if (row.empty()) return;
  constexpr std::uintptr_t kLine = 64;
  const auto first = reinterpret_cast<std::uintptr_t>(row.data());
  const auto last = reinterpret_cast<std::uintptr_t>(row.data() + row.size());
  for (std::uintptr_t line = first & ~(kLine - 1); line < last; line += kLine) {
    __builtin_prefetch(reinterpret_cast<const void*>(line));
  }
}

std::size_t GainMatrix::resident_doubles() const noexcept {
  if (backend_ == GainBackend::dense) return signal_.size() + n_ * pitch_;
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
    // The newcomer's own slot is the one its accepting can_add already
    // summed, when that stash is still valid.
    Slot own_v;
    Slot own_u;
    if (stash_link_ == request_index) {
      own_v = stash_v_;
      own_u = stash_u_;
    } else {
      own_v = own_slot(request_index, /*sender_side=*/false);
      if (bidirectional) own_u = own_slot(request_index, /*sender_side=*/true);
    }
    stash_link_ = kNoExtra;
    members_.push_back(request_index);
    slots_v_.push_back(own_v);
    if (bidirectional) slots_u_.push_back(own_u);
    if (keeps_records()) records_.push_back(record_of(request_index));
    // A slot this leaves saturated is repaired by the next removal.
    (void)member_apply_row(request_index, members_.size() - 1, /*add_op=*/true,
                           /*settled=*/true);
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

MemberRecord IncrementalGainClass::record_of(std::size_t link) const {
  const EuclideanGainKernel& kernel = *gains_->euclidean_kernel();
  const Request& request = kernel.requests[link];
  return {kernel.points[request.u], kernel.points[request.v], kernel.powers[link],
          gains_->signal(link)};
}

IncrementalGainClass::Slot IncrementalGainClass::own_slot(std::size_t link,
                                                          bool sender_side) const {
  return read_gains(*gains_, members_, records_, link, [&](const auto& reader) {
    return own_slot_with(reader, sender_side);
  });
}

template <typename Reader>
IncrementalGainClass::Slot IncrementalGainClass::own_slot_with(Reader reader,
                                                               bool sender_side) const {
  const std::size_t link = reader.link;
  const std::size_t* members = members_.data();
  const std::size_t k = members_.size();
  double sum = 0.0;
  std::size_t count = 0;
  if (sender_side) {
    for (std::size_t p = 0; p < k; ++p) {
      if (members[p] == link) continue;
      sum += reader.member_u(p);
      ++count;
    }
  } else {
    for (std::size_t p = 0; p < k; ++p) {
      if (members[p] == link) continue;
      sum += reader.member_v(p);
      ++count;
    }
  }
  if (sum < kHuge) {
    double bound = static_cast<double>(count) * kSlack * sum;
    if constexpr (Reader::kEstimates) bound += 2.0 * kGainEstimateSlack * sum;
    return {sum, bound};
  }
  // Non-finite gains, or a sum that may have passed DBL_MAX: only the
  // exact sum knows whether the slot saturated.
  ++exact_fallbacks_;
  return anchored(own_slot_sum(link, sender_side));
}

IncrementalGainClass::Slot IncrementalGainClass::anchored(const ExactSum& exact) {
  if (exact.finite()) {
    const double value = exact.value();
    return {value, kSlack * std::abs(value)};
  }
  if (exact.saturated()) return {kInf, kInf};
  return {0.0, kInf};  // an infinite (or NaN) gain: no bound to keep
}

bool IncrementalGainClass::member_passes(std::size_t pos, bool sender_side, double signal,
                                         double extra_lo, double extra_hi,
                                         std::size_t candidate) const {
  const Slot& slot = sender_side ? slots_u_[pos] : slots_v_[pos];
  const double beta = params_.beta;
  const double noise = params_.noise;
  if (signal > beta * ((slot.sum + slot.bound) + extra_hi + noise)) return true;
  if (!(signal > beta * ((slot.sum - slot.bound) + extra_lo + noise))) return false;
  return member_passes_exactly(pos, sender_side, signal, candidate);
}

bool IncrementalGainClass::member_passes_exactly(std::size_t pos, bool sender_side,
                                                 double signal, std::size_t candidate) const {
  // The threshold lies inside the slot's interval or the candidate gain's
  // (or the slot has no bound): decide against the correctly rounded exact
  // sum and the exact gain entry.
  ++exact_fallbacks_;
  const std::size_t m = members_[pos];
  const double exact = own_slot_sum(m, sender_side).value();
  double extra = 0.0;
  if (candidate != kNoExtra) {
    extra = sender_side ? gains_->at_u(candidate, m) : gains_->at_v(candidate, m);
  }
  return signal > params_.beta * (exact + extra + params_.noise);
}

bool IncrementalGainClass::own_passes(std::size_t link, bool sender_side, double signal,
                                      Slot& own) const {
  const double beta = params_.beta;
  const double noise = params_.noise;
  if (signal > beta * ((own.sum + own.bound) + noise)) return true;
  if (!(signal > beta * ((own.sum - own.bound) + noise))) return false;
  return own_passes_exactly(link, sender_side, signal, own);
}

bool IncrementalGainClass::own_passes_exactly(std::size_t link, bool sender_side,
                                              double signal, Slot& own) const {
  ++exact_fallbacks_;
  const ExactSum exact = own_slot_sum(link, sender_side);
  own = anchored(exact);
  return signal > params_.beta * (exact.value() + params_.noise);
}

bool IncrementalGainClass::member_apply_row(std::size_t link, std::size_t skip, bool add_op,
                                            bool settled) {
  return read_gains(*gains_, members_, records_, link, [&](const auto& reader) {
    return member_apply_row_with(reader, skip, add_op, settled);
  });
}

template <typename Reader>
bool IncrementalGainClass::member_apply_row_with(Reader reader, std::size_t skip, bool add_op,
                                                 bool settled) {
  const std::size_t k = members_.size();
  bool saturated = false;
  const auto apply_side = [&](bool sender_side, std::vector<Slot>& slots) {
    for (std::size_t p = 0; p < k; ++p) {
      if (p == skip) continue;
      const double gain = sender_side ? reader.link_u(p) : reader.link_v(p);
      Slot& slot = slots[p];
      const double sum = add_op ? slot.sum + gain : slot.sum - gain;
      double bound = slot.bound + kSlack * std::abs(sum);
      if constexpr (Reader::kEstimates) bound += 2.0 * kGainEstimateSlack * gain;
      if (bound <= kBudget * std::abs(sum) && std::abs(sum) < kHuge) [[likely]] {
        slot = {sum, bound};
        continue;
      }
      if (slot.sum == kInf) {
        saturated = true;  // sticky until the class re-derives from scratch
      } else if (settled) {
        saturated |= member_rederive(p, sender_side);
      } else {
        slot = {0.0, kInf};
      }
    }
  };
  apply_side(/*sender_side=*/false, slots_v_);
  if (gains_->variant() == Variant::bidirectional) apply_side(/*sender_side=*/true, slots_u_);
  return saturated;
}

bool IncrementalGainClass::member_rederive(std::size_t pos, bool sender_side) {
  Slot& slot = sender_side ? slots_u_[pos] : slots_v_[pos];
  slot = own_slot(members_[pos], sender_side);
  return slot.sum == kInf;
}

void IncrementalGainClass::member_reset(std::size_t pos) {
  slots_v_[pos] = own_slot(members_[pos], /*sender_side=*/false);
  if (gains_->variant() == Variant::bidirectional) {
    slots_u_[pos] = own_slot(members_[pos], /*sender_side=*/true);
  }
}

bool IncrementalGainClass::member_can_add(std::size_t request_index) const {
  return read_gains(*gains_, members_, records_, request_index,
                    [&](const auto& reader) { return member_can_add_with(reader); });
}

template <typename Reader>
bool IncrementalGainClass::member_can_add_with(Reader reader) const {
  const std::size_t request_index = reader.link;
  const bool bidirectional = gains_->variant() == Variant::bidirectional;
  // The candidate's gain entry at a member lies in [lo, hi]. An estimate
  // of +inf (a co-located pair, where the estimate is the entry) makes lo
  // NaN, and the lower test then rejects — as the exact test does.
  const auto passes = [&](std::size_t p, bool sender_side, double signal, double extra) {
    if constexpr (Reader::kEstimates) {
      const double slack = kGainEstimateSlack * extra;
      return member_passes(p, sender_side, signal, extra - slack, extra + slack,
                           request_index);
    } else {
      return member_passes(p, sender_side, signal, extra, extra, request_index);
    }
  };
  // Existing members must tolerate the newcomer's extra interference —
  // tested first, because most rejections happen here and it needs no
  // own-slot sum.
  const std::size_t k = members_.size();
  for (std::size_t p = 0; p < k; ++p) {
    const double signal = reader.signal(p);
    if (!passes(p, /*sender_side=*/false, signal, reader.link_v(p))) return false;
    if (bidirectional && !passes(p, /*sender_side=*/true, signal, reader.link_u(p))) {
      return false;
    }
  }

  // The newcomer must decode against everyone already in the class.
  const double cand_signal = gains_->signal(request_index);
  Slot own_v = own_slot_with(reader, /*sender_side=*/false);
  if (!own_passes(request_index, /*sender_side=*/false, cand_signal, own_v)) return false;
  Slot own_u;
  if (bidirectional) {
    own_u = own_slot_with(reader, /*sender_side=*/true);
    if (!own_passes(request_index, /*sender_side=*/true, cand_signal, own_u)) return false;
  }
  stash_link_ = request_index;
  stash_v_ = own_v;
  stash_u_ = own_u;
  return true;
}

void IncrementalGainClass::member_remove(std::size_t request_index) {
  const std::size_t pos = position_of(request_index);
  require(pos != kNoExtra, "IncrementalGainClass: remove of a non-member");
  stash_link_ = kNoExtra;
  const auto at = static_cast<std::ptrdiff_t>(pos);
  members_.erase(members_.begin() + at);
  slots_v_.erase(slots_v_.begin() + at);
  if (gains_->variant() == Variant::bidirectional) slots_u_.erase(slots_u_.begin() + at);
  if (keeps_records()) records_.erase(records_.begin() + at);
  if (member_apply_row(request_index, kNoExtra, /*add_op=*/false, /*settled=*/true)) {
    // A member slot's true interference sum once exceeded the double
    // range: saturation is sticky, so subtraction alone cannot bring the
    // finite state back even though the survivors' sum may be
    // representable again. Re-derive from scratch — the only removal that
    // ever pays a replay under this policy, and only in this
    // beyond-DBL_MAX regime.
    ++removal_rebuilds_;
    member_rebuild();
  }
}

void IncrementalGainClass::member_rebuild() {
  for (std::size_t pos = 0; pos < members_.size(); ++pos) member_reset(pos);
}

double IncrementalGainClass::member_drift() const {
  // How far a slot's certified interval [fl(s - e), fl(s + e)] misses the
  // correctly rounded exact sum; 0.0 when it covers it.
  const auto miss = [](const Slot& slot, double exact) {
    if (slot.sum == kInf) return exact == kInf ? 0.0 : kInf;
    if (slot.bound == kInf) return 0.0;
    const double lo = slot.sum - slot.bound;
    const double hi = slot.sum + slot.bound;
    if (exact < lo) return lo - exact;
    if (exact > hi) return exact - hi;
    return 0.0;
  };
  double drift = 0.0;
  for (std::size_t p = 0; p < members_.size(); ++p) {
    drift = std::max(drift, miss(slots_v_[p], member_accumulator_v(p)));
    if (gains_->variant() == Variant::bidirectional) {
      drift = std::max(drift, miss(slots_u_[p], member_accumulator_u(p)));
    }
  }
  return drift;
}

double IncrementalGainClass::accumulator_v(std::size_t i) const {
  if (!member_mode()) return acc_v_[i];
  return own_slot_sum(i, /*sender_side=*/false).value();
}

double IncrementalGainClass::accumulator_u(std::size_t i) const {
  if (gains_->variant() != Variant::bidirectional) return 0.0;
  if (!member_mode()) return acc_u_[i];
  return own_slot_sum(i, /*sender_side=*/true).value();
}

double IncrementalGainClass::member_accumulator_v(std::size_t pos) const {
  return member_mode() ? accumulator_v(members_[pos]) : acc_v_[members_[pos]];
}

double IncrementalGainClass::member_accumulator_u(std::size_t pos) const {
  if (gains_->variant() != Variant::bidirectional) return 0.0;
  return member_mode() ? accumulator_u(members_[pos]) : acc_u_[members_[pos]];
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
    // The stash may hold the moving link's own slot. A member withdraws
    // its stale row from the other slots; a slot that loses its bound on
    // the way waits for finish_link_update, where the moved gains are in.
    stash_link_ = kNoExtra;
    const std::size_t pos = position_of(link);
    if (pos != kNoExtra) {
      (void)member_apply_row(link, pos, /*add_op=*/false, /*settled=*/false);
    }
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
    // column, so only a member class has work: re-add the row (which
    // re-derives the slots phase 1 left unbounded), then re-derive the
    // link's own slot from the refreshed column.
    const std::size_t pos = position_of(link);
    if (pos == kNoExtra) return;
    if (keeps_records()) records_[pos] = record_of(link);
    if (member_apply_row(link, pos, /*add_op=*/true, /*settled=*/true)) {
      // Same escape hatch as remove(): only a replay restores the finite
      // state of a saturated slot.
      ++removal_rebuilds_;
      member_rebuild();
      return;
    }
    member_reset(pos);
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
      if (!member_passes(p, /*sender_side=*/false, signal, 0.0, 0.0, kNoExtra)) return false;
      if (bidirectional &&
          !member_passes(p, /*sender_side=*/true, signal, 0.0, 0.0, kNoExtra)) {
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
  for (std::size_t j = 0; j < n_; ++j) {
    const Request& rj = requests[j];
    for (std::size_t i = 0; i < n_; ++i) {
      loss_uv_[j * n_ + i] = path_loss(metric.distance(rj.u, requests[i].v), alpha);
    }
  }
  if (variant == Variant::bidirectional) {
    // l(v_j, u_i) = l(u_i, v_j): the metric is symmetric bit for bit, so
    // the sender-phase table is the transpose of loss_uv.
    loss_vu_.assign(n_ * n_, 0.0);
    for (std::size_t j = 0; j < n_; ++j) {
      for (std::size_t i = 0; i < n_; ++i) loss_vu_[j * n_ + i] = loss_uv_[i * n_ + j];
    }
  }
}

}  // namespace oisched
