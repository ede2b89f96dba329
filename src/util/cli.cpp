#include "util/cli.hpp"

#include <cstdlib>
#include <sstream>

#include "util/require.hpp"

namespace dmra {

void Cli::add_flag(const std::string& name, const std::string& default_value,
                   const std::string& help) {
  DMRA_REQUIRE_MSG(!flags_.count(name), "duplicate flag: " + name);
  flags_[name] = Flag{default_value, default_value, help};
}

bool Cli::parse(int argc, const char* const* argv, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) return fail("unexpected positional argument: " + arg);
    arg = arg.substr(2);
    std::string name, value;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      if (i + 1 >= argc) return fail("flag --" + name + " is missing a value");
      value = argv[++i];
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) return fail("unknown flag: --" + name);
    it->second.value = value;
    it->second.set = true;
  }
  return true;
}

std::string Cli::help_text(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [--flag value | --flag=value]...\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name << " (default: " << flag.default_value << ")\n      " << flag.help
       << '\n';
  }
  return os.str();
}

const Cli::Flag& Cli::lookup(const std::string& name) const {
  auto it = flags_.find(name);
  DMRA_REQUIRE_MSG(it != flags_.end(), "flag not declared: " + name);
  return it->second;
}

std::string Cli::get_string(const std::string& name) const { return lookup(name).value; }

std::int64_t Cli::get_int(const std::string& name) const {
  const std::string& v = lookup(name).value;
  char* end = nullptr;
  const long long r = std::strtoll(v.c_str(), &end, 10);
  DMRA_REQUIRE_MSG(end && *end == '\0' && !v.empty(), "flag --" + name + " is not an int: " + v);
  return r;
}

std::size_t Cli::get_count(const std::string& name) const {
  const std::int64_t r = get_int(name);
  DMRA_REQUIRE_MSG(r >= 0, "flag --" + name + " must not be negative: " + lookup(name).value);
  return static_cast<std::size_t>(r);
}

double Cli::get_double(const std::string& name) const {
  const std::string& v = lookup(name).value;
  char* end = nullptr;
  const double r = std::strtod(v.c_str(), &end);
  DMRA_REQUIRE_MSG(end && *end == '\0' && !v.empty(),
                   "flag --" + name + " is not a number: " + v);
  return r;
}

bool Cli::get_bool(const std::string& name) const {
  const std::string& v = lookup(name).value;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  DMRA_REQUIRE_MSG(false, "flag --" + name + " is not a bool: " + v);
  return false;
}

std::map<std::string, std::string> Cli::values() const {
  std::map<std::string, std::string> out;
  for (const auto& [name, flag] : flags_) out[name] = flag.value;
  return out;
}

bool Cli::is_set(const std::string& name) const { return lookup(name).set; }

std::vector<double> Cli::get_double_list(const std::string& name) const {
  const std::string& v = lookup(name).value;
  std::vector<double> out;
  std::stringstream ss(v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    char* end = nullptr;
    const double r = std::strtod(item.c_str(), &end);
    DMRA_REQUIRE_MSG(end && *end == '\0', "flag --" + name + " has a bad element: " + item);
    out.push_back(r);
  }
  return out;
}

}  // namespace dmra
