// Shared command-line option parsing for the CLI front-ends.
//
// Every schedule_tool subcommand used to hand-roll its own argv walk, so
// the same flag parsed subtly differently per subcommand (and an unknown
// flag could fall through to "print usage" with no hint which word was
// wrong). OptionParser centralizes the walk: a subcommand registers the
// flags it takes — including the domain flags (--storage,
// --remove-policy, --shards, --trace) through the typed helpers below, so
// they parse IDENTICALLY everywhere — and parse() returns either the
// positional arguments or a structured message naming exactly what was
// rejected. Errors come back as Expected (util/expected.h), the same
// value-or-message shape the scheduling service API uses, so the CLI
// surfaces one consistent error channel.
#ifndef OISCHED_UTIL_OPTIONS_H
#define OISCHED_UTIL_OPTIONS_H

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sinr/gain_matrix.h"
#include "sinr/gain_storage.h"
#include "util/expected.h"

namespace oisched {

class OptionParser {
 public:
  /// A flag handler consumes the flag's single value word.
  using Handler = std::function<Expected<void>(const std::string&)>;

  /// Registers "--name VALUE"; the handler validates and stores the value.
  void add_flag(const std::string& name, Handler handler);
  /// Registers "--name" with no value word; invoked with "" when present.
  void add_switch(const std::string& name, std::function<void()> handler);

  /// Typed single-value flags.
  void add_string(const std::string& name, std::string& out);
  /// Rejects zero when `positive`; rejects non-numeric words always.
  void add_size(const std::string& name, std::size_t& out, bool positive = true);
  void add_double(const std::string& name, double& out);

  /// The domain flags, registered identically by every subcommand that
  /// takes them (one definition — one behavior):
  ///   --storage dense|computed[|appendable]   (appendable only when allowed:
  ///   an appendable table has a single owner and is normally chosen
  ///   automatically by the replay path)
  void add_storage(GainBackend& out, bool allow_appendable = false);
  ///   --remove-policy rebuild|exact
  void add_remove_policy(RemovePolicy& out);
  ///   --shards N (N >= 1): the scheduling-service shard count
  void add_shards(std::size_t& out);
  ///   --trace PATH: a churn-trace file
  void add_trace(std::string& out);

  /// Walks argv[begin..argc): "--flag value" pairs dispatch to handlers,
  /// everything else lands in the returned positionals in order. Unknown
  /// flags, missing values and handler rejections fail loudly with a
  /// message naming the offending word.
  [[nodiscard]] Expected<std::vector<std::string>> parse(int argc, char** argv,
                                                         int begin) const;

 private:
  struct Flag {
    std::string name;
    bool takes_value = true;
    Handler handler;
  };
  const Flag* find(const std::string& name) const;

  std::vector<Flag> flags_;
};

}  // namespace oisched

#endif  // OISCHED_UTIL_OPTIONS_H
