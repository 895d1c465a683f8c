#include "cli/args.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace bb::cli {

Args Args::Parse(int argc, const char* const* argv,
                 const std::set<std::string>& boolean_flags) {
  Args args;
  int i = 1;
  if (i < argc && argv[i][0] != '-') {
    args.command_ = argv[i];
    ++i;
  }
  for (; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0 || token.size() <= 2 || token[2] == '-') {
      args.errors_.push_back("malformed argument: " + token);
      continue;
    }
    token = token.substr(2);
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      const std::string key = token.substr(0, eq);
      if (boolean_flags.count(key)) {
        args.errors_.push_back("flag --" + key + " does not take a value");
        continue;
      }
      args.values_[key] = token.substr(eq + 1);
      continue;
    }
    if (boolean_flags.count(token)) {
      // Declared switches never swallow the next token.
      args.values_[token] = "";
      continue;
    }
    // "--key value" unless the next token is another flag (then boolean).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.values_[token] = argv[i + 1];
      ++i;
    } else {
      args.values_[token] = "";
    }
  }
  return args;
}

std::string Args::Get(const std::string& key,
                      const std::string& fallback) const {
  consumed_[key] = true;
  const auto it = values_.find(key);
  return it != values_.end() ? it->second : fallback;
}

std::optional<std::string> Args::Get(const std::string& key) const {
  consumed_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

void Args::RecordMalformed(const std::string& key, const char* what) const {
  std::string error =
      "--" + key + " expects " + what + ", got '" + values_.at(key) + "'";
  if (std::find(errors_.begin(), errors_.end(), error) == errors_.end()) {
    errors_.push_back(std::move(error));
  }
}

std::optional<long> Args::GetInt(const std::string& key) const {
  const auto s = Get(key);
  if (!s) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s->c_str(), &end, 10);
  if (end == s->c_str() || *end != '\0' || errno == ERANGE) {
    RecordMalformed(key, "an integer");
    return std::nullopt;
  }
  return v;
}

std::optional<double> Args::GetDouble(const std::string& key) const {
  const auto s = Get(key);
  if (!s) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(s->c_str(), &end);
  if (end == s->c_str() || *end != '\0') {
    RecordMalformed(key, "a number");
    return std::nullopt;
  }
  return v;
}

long Args::GetInt(const std::string& key, long fallback) const {
  return GetInt(key).value_or(fallback);
}

double Args::GetDouble(const std::string& key, double fallback) const {
  return GetDouble(key).value_or(fallback);
}

int Args::RejectBadOptions() const {
  for (const auto& err : errors_) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
  }
  const std::vector<std::string> unknown = UnconsumedKeys();
  for (const auto& key : unknown) {
    std::fprintf(stderr, "error: unknown option --%s\n", key.c_str());
  }
  return errors_.empty() && unknown.empty() ? 0 : 2;
}

std::vector<std::string> Args::UnconsumedKeys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    if (!consumed_.count(key)) out.push_back(key);
  }
  return out;
}

}  // namespace bb::cli
