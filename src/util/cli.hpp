// Minimal command-line flag parser for benches and examples.
//
// Supports "--name value" and "--name=value"; unknown flags are an error
// so typos don't silently run the default experiment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dmra {

class Cli {
 public:
  /// Declare a flag with a default value and help text. Call before parse().
  void add_flag(const std::string& name, const std::string& default_value,
                const std::string& help);

  /// Parse argv. Returns false (and fills `error`) on unknown flags,
  /// missing values, or malformed input. "--help" sets help_requested().
  bool parse(int argc, const char* const* argv, std::string* error = nullptr);

  bool help_requested() const { return help_requested_; }
  std::string help_text(const std::string& program) const;

  std::string get_string(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  /// A non-negative int (sizes, counts, horizons); a negative value is a
  /// ContractViolation naming the flag.
  std::size_t get_count(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// Comma-separated list of doubles, e.g. "--rho=0,100,200".
  std::vector<double> get_double_list(const std::string& name) const;

  /// Every declared flag with its effective (parsed-or-default) value, in
  /// name order — the provenance snapshot a run manifest records.
  std::map<std::string, std::string> values() const;

  /// True iff the flag was set on the command line (differs from knowing
  /// its value: an explicit "--jobs=0" counts as set).
  bool is_set(const std::string& name) const;

 private:
  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
    bool set = false;  ///< appeared on the command line
  };
  std::map<std::string, Flag> flags_;
  bool help_requested_ = false;
  const Flag& lookup(const std::string& name) const;
};

}  // namespace dmra
