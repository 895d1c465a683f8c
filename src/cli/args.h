// Minimal command-line argument parsing for the backbuster CLI.
//
// Grammar: <command> [--flag] [--key value] ... Flags may be given as
// --key=value or --key value; unknown keys are collected so the caller can
// reject them with a helpful message.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace bb::cli {

class Args {
 public:
  // Parses argv[1..); argv[1] is the command unless it starts with "--".
  // Keys listed in `boolean_flags` are switches: they never consume the
  // following token as a value (so `--verbose out.bbv` leaves `out.bbv`
  // alone) and reject the `--flag=value` spelling. Undeclared keys keep
  // the permissive "--key value" grammar.
  static Args Parse(int argc, const char* const* argv,
                    const std::set<std::string>& boolean_flags = {});

  const std::string& command() const { return command_; }

  // Presence test; marks the key consumed (see UnconsumedKeys).
  bool Has(const std::string& key) const {
    consumed_[key] = true;
    return values_.count(key) > 0;
  }

  // Presence of a boolean switch; marks it consumed. Identical to Has()
  // today, spelled separately so call sites read as flag lookups.
  bool GetFlag(const std::string& key) const { return Has(key); }

  // String value; `fallback` when absent.
  std::string Get(const std::string& key, const std::string& fallback) const;

  // Typed accessors: nullopt when absent. A value that is present but
  // malformed (`--phi abc`, `--shards 3x`) is recorded in errors() and
  // also reads as nullopt, or as `fallback` in the two-argument forms.
  std::optional<std::string> Get(const std::string& key) const;
  std::optional<long> GetInt(const std::string& key) const;
  std::optional<double> GetDouble(const std::string& key) const;
  long GetInt(const std::string& key, long fallback) const;
  double GetDouble(const std::string& key, double fallback) const;

  // Keys the caller never consumed; call after all Get()s to reject typos.
  // (Every Get/Has marks its key as consumed.)
  std::vector<std::string> UnconsumedKeys() const;

  // Parse-phase problems (e.g. "--key" at end expecting a value is fine -
  // it becomes a boolean flag - but "---x" is malformed), then malformed
  // typed values in the order they were read.
  const std::vector<std::string>& errors() const { return errors_; }

  // Once a command has read all of its options: prints every errors()
  // entry and unknown option to stderr and returns 2 (a usage error), or
  // returns 0 when there are none.
  int RejectBadOptions() const;

 private:
  // Records that `--key`'s value is not a well-formed `what`.
  void RecordMalformed(const std::string& key, const char* what) const;

  std::string command_;
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> consumed_;
  mutable std::vector<std::string> errors_;
};

}  // namespace bb::cli
