#include "util/options.h"

#include <cstdlib>

namespace oisched {
namespace {

/// Strict full-word number parses — strtoull would happily accept "12abc".
Expected<std::size_t> parse_size_word(const std::string& flag, const std::string& word) {
  if (word.empty()) return fail(flag + " needs a number");
  char* end = nullptr;
  const unsigned long long value = std::strtoull(word.c_str(), &end, 10);
  if (end != word.c_str() + word.size() || word.front() == '-') {
    return fail(flag + ": '" + word + "' is not a non-negative integer");
  }
  return static_cast<std::size_t>(value);
}

Expected<double> parse_double_word(const std::string& flag, const std::string& word) {
  if (word.empty()) return fail(flag + " needs a number");
  char* end = nullptr;
  const double value = std::strtod(word.c_str(), &end);
  if (end != word.c_str() + word.size()) {
    return fail(flag + ": '" + word + "' is not a number");
  }
  return value;
}

}  // namespace

void OptionParser::add_flag(const std::string& name, Handler handler) {
  flags_.push_back(Flag{name, /*takes_value=*/true, std::move(handler)});
}

void OptionParser::add_switch(const std::string& name, std::function<void()> handler) {
  flags_.push_back(Flag{name, /*takes_value=*/false,
                        [handler = std::move(handler)](const std::string&) {
                          handler();
                          return Expected<void>();
                        }});
}

void OptionParser::add_string(const std::string& name, std::string& out) {
  add_flag(name, [&out](const std::string& word) {
    out = word;
    return Expected<void>();
  });
}

void OptionParser::add_size(const std::string& name, std::size_t& out, bool positive) {
  add_flag(name, [name, &out, positive](const std::string& word) -> Expected<void> {
    Expected<std::size_t> parsed = parse_size_word(name, word);
    if (!parsed.ok()) return fail(parsed.error());
    if (positive && parsed.value() == 0) return fail(name + " must be positive");
    out = parsed.value();
    return Expected<void>();
  });
}

void OptionParser::add_double(const std::string& name, double& out) {
  add_flag(name, [name, &out](const std::string& word) -> Expected<void> {
    Expected<double> parsed = parse_double_word(name, word);
    if (!parsed.ok()) return fail(parsed.error());
    out = parsed.value();
    return Expected<void>();
  });
}

void OptionParser::add_storage(GainBackend& out, bool allow_appendable) {
  add_flag("--storage", [&out, allow_appendable](const std::string& word) -> Expected<void> {
    GainBackend parsed = GainBackend::dense;
    if (!parse_gain_backend(word, parsed)) {
      return fail("--storage: unknown backend '" + word +
                  "' (expected dense|appendable|computed)");
    }
    if (parsed == GainBackend::appendable && !allow_appendable) {
      return fail("--storage: appendable is chosen automatically when the trace "
                  "grows the universe; pick dense or computed");
    }
    out = parsed;
    return Expected<void>();
  });
}

void OptionParser::add_remove_policy(RemovePolicy& out) {
  add_flag("--remove-policy", [&out](const std::string& word) -> Expected<void> {
    RemovePolicy parsed = RemovePolicy::exact;
    if (!parse_remove_policy(word, parsed)) {
      return fail("--remove-policy: unknown policy '" + word + "' (expected rebuild|exact)");
    }
    out = parsed;
    return Expected<void>();
  });
}

void OptionParser::add_shards(std::size_t& out) { add_size("--shards", out); }

void OptionParser::add_trace(std::string& out) { add_string("--trace", out); }

const OptionParser::Flag* OptionParser::find(const std::string& name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

Expected<std::vector<std::string>> OptionParser::parse(int argc, char** argv,
                                                       int begin) const {
  std::vector<std::string> positionals;
  for (int i = begin; i < argc; ++i) {
    const std::string word = argv[i];
    if (word.rfind("--", 0) != 0) {
      positionals.push_back(word);
      continue;
    }
    const Flag* flag = find(word);
    if (flag == nullptr) return fail("unknown flag '" + word + "'");
    std::string value;
    if (flag->takes_value) {
      if (i + 1 >= argc) return fail(word + " needs a value");
      value = argv[++i];
    }
    Expected<void> handled = flag->handler(value);
    if (!handled.ok()) return fail(handled.error());
  }
  return positionals;
}

}  // namespace oisched
