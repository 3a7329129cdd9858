// Tiny command-line flag parser for bench and example binaries.
//
// Supports `--name=value` and `--name value`. Unknown flags are an error so
// typos surface immediately. Every experiment binary documents its flags via
// the help strings of its get_* calls; `--help` prints them (check_unknown).
#pragma once

#include <map>
#include <string>
#include <vector>

namespace fedsparse::util {

class Flags {
 public:
  /// Parses argv; throws std::invalid_argument on malformed input.
  Flags(int argc, char** argv);

  /// Declares a flag with a default, returning its parsed (or default) value.
  /// Declaration also whitelists the flag for `check_unknown()`.
  std::string get_string(const std::string& name, const std::string& default_value,
                         const std::string& help = {});
  double get_double(const std::string& name, double default_value, const std::string& help = {});
  long get_int(const std::string& name, long default_value, const std::string& help = {});
  bool get_bool(const std::string& name, bool default_value, const std::string& help = {});

  bool has(const std::string& name) const { return values_.count(name) > 0; }

  /// Call after the last get_*: with `--help` on the command line, prints
  /// usage() to stdout and exits 0; otherwise throws if the command line
  /// contained flags never declared via get_*.
  void check_unknown() const;

  /// Human-readable flag summary collected from get_* calls.
  std::string usage() const;

 private:
  std::string program_;  // argv[0]
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, std::string> declared_;  // name -> "default | help"
};

}  // namespace fedsparse::util
