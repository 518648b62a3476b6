#include "sinr/gain_storage.h"

#include <utility>

#include "util/error.h"

namespace oisched {

const char* to_string(GainBackend backend) {
  switch (backend) {
    case GainBackend::dense:
      return "dense";
    case GainBackend::appendable:
      return "appendable";
    case GainBackend::computed:
      return "computed";
  }
  return "unknown";
}

bool parse_gain_backend(const std::string& word, GainBackend& backend) {
  if (word == "dense") {
    backend = GainBackend::dense;
  } else if (word == "appendable") {
    backend = GainBackend::appendable;
  } else if (word == "computed") {
    backend = GainBackend::computed;
  } else {
    return false;
  }
  return true;
}

AppendableGainStorage::AppendableGainStorage(std::size_t n, GainFiller fill)
    : fill_(std::move(fill)), rows_(n) {
  require(static_cast<bool>(fill_), "AppendableGainStorage: filler must be callable");
  for (std::size_t j = 0; j < n; ++j) {
    rows_[j].assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (i == j) continue;
      rows_[j][i] = fill_(j, i);
    }
  }
}

std::size_t AppendableGainStorage::resident_doubles() const noexcept {
  std::size_t total = 0;
  for (const std::vector<double>& row : rows_) total += row.size();
  return total;
}

void AppendableGainStorage::refresh_link(std::size_t link) {
  require(link < rows_.size(),
          "AppendableGainStorage: refresh of an out-of-range link");
  const std::size_t n = rows_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i == link) continue;
    rows_[link][i] = fill_(link, i);
    rows_[i][link] = fill_(i, link);
  }
}

void AppendableGainStorage::grow_to(std::size_t new_n) {
  const std::size_t old_n = rows_.size();
  require(new_n >= old_n, "AppendableGainStorage: tables never shrink");
  // New columns of the existing rows, then the fresh rows in full.
  for (std::size_t j = 0; j < old_n; ++j) {
    for (std::size_t i = old_n; i < new_n; ++i) {
      rows_[j].push_back(fill_(j, i));
    }
  }
  rows_.resize(new_n);
  for (std::size_t j = old_n; j < new_n; ++j) {
    rows_[j].assign(new_n, 0.0);
    for (std::size_t i = 0; i < new_n; ++i) {
      if (i == j) continue;
      rows_[j][i] = fill_(j, i);
    }
  }
}

ComputedGainStorage::ComputedGainStorage(std::size_t n, GainFiller fill)
    : n_(n), fill_(std::move(fill)) {
  require(static_cast<bool>(fill_), "ComputedGainStorage: filler must be callable");
}

std::unique_ptr<GainStorage> make_gain_storage(GainBackend backend, std::size_t n,
                                               GainFiller fill) {
  switch (backend) {
    case GainBackend::dense:
      break;
    case GainBackend::appendable:
      return std::make_unique<AppendableGainStorage>(n, std::move(fill));
    case GainBackend::computed:
      return std::make_unique<ComputedGainStorage>(n, std::move(fill));
  }
  throw PreconditionError("make_gain_storage: dense tables are built by GainMatrix");
}

}  // namespace oisched
