#include "util/flags.h"

#include <cstdlib>
#include <iostream>
#include <stdexcept>

namespace fedsparse::util {

Flags::Flags(int argc, char** argv) : program_(argc > 0 ? argv[0] : "program") {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare flag => boolean
    }
  }
}

std::string Flags::get_string(const std::string& name, const std::string& default_value,
                              const std::string& help) {
  declared_[name] = default_value + (help.empty() ? "" : "  # " + help);
  const auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

double Flags::get_double(const std::string& name, double default_value, const std::string& help) {
  const std::string s = get_string(name, std::to_string(default_value), help);
  // Trailing characters are an error too: --lr=0.1x must not read as 0.1.
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    if (used == s.size()) return v;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("flag --" + name + " expects a number, got '" + s + "'");
}

long Flags::get_int(const std::string& name, long default_value, const std::string& help) {
  const std::string s = get_string(name, std::to_string(default_value), help);
  try {
    std::size_t used = 0;
    const long v = std::stol(s, &used);
    if (used == s.size()) return v;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("flag --" + name + " expects an integer, got '" + s + "'");
}

bool Flags::get_bool(const std::string& name, bool default_value, const std::string& help) {
  const std::string s = get_string(name, default_value ? "true" : "false", help);
  if (s == "true" || s == "1" || s == "yes") return true;
  if (s == "false" || s == "0" || s == "no") return false;
  throw std::invalid_argument("flag --" + name + " expects a boolean, got '" + s + "'");
}

void Flags::check_unknown() const {
  if (values_.count("help") > 0) {
    std::cout << usage() << std::flush;
    std::exit(0);
  }
  for (const auto& [name, value] : values_) {
    (void)value;
    if (declared_.find(name) == declared_.end()) {
      throw std::invalid_argument("unknown flag --" + name);
    }
  }
}

std::string Flags::usage() const {
  std::string out = "usage: " + program_ + " [flags]\n";
  for (const auto& [name, info] : declared_) {
    out += "  --" + name + " (default: " + info + ")\n";
  }
  return out;
}

}  // namespace fedsparse::util
