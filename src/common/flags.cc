#include "common/flags.h"

#include <cerrno>
#include <climits>
#include <cstdlib>

#include "common/check.h"

namespace calibre::flags {

int parse_int(const std::string& text, const std::string& flag) {
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(text.c_str(), &end, 10);
  CALIBRE_CHECK_MSG(end != text.c_str() && *end == '\0',
                    "--" << flag << "='" << text << "' is not an integer");
  CALIBRE_CHECK_MSG(errno != ERANGE && parsed >= INT_MIN && parsed <= INT_MAX,
                    "--" << flag << "='" << text << "' is out of int range");
  return static_cast<int>(parsed);
}

Parser::Parser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";  // bare switch
      switches_.insert(body);
    }
  }
}

const std::string* Parser::value(const std::string& name) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return nullptr;
  CALIBRE_CHECK_MSG(!switches_.count(name), "--" << name << " needs a value");
  return &it->second;
}

std::string Parser::get(const std::string& name,
                        const std::string& fallback) const {
  const std::string* text = value(name);
  return text == nullptr ? fallback : *text;
}

int Parser::get_int(const std::string& name, int fallback) const {
  const std::string* text = value(name);
  return text == nullptr ? fallback : parse_int(*text, name);
}

double Parser::get_double(const std::string& name, double fallback) const {
  const std::string* given = value(name);
  if (given == nullptr) return fallback;
  const char* text = given->c_str();
  char* end = nullptr;
  const double parsed = std::strtod(text, &end);
  CALIBRE_CHECK_MSG(end != text && *end == '\0',
                    "--" << name << "='" << text << "' is not a number");
  return parsed;
}

bool Parser::has(const std::string& name) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return false;
  CALIBRE_CHECK_MSG(switches_.count(name),
                    "--" << name << " is a switch and takes no value, got '"
                         << it->second << "'");
  return true;
}

std::vector<std::string> Parser::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) {
    if (!queried_.count(name)) out.push_back(name);
  }
  return out;
}

std::vector<std::string> Parser::unexpected() const {
  std::vector<std::string> out;
  for (const std::string& name : unused()) {
    out.push_back("unknown flag --" + name);
  }
  for (const std::string& arg : positional_) {
    out.push_back("unexpected argument " + arg);
  }
  return out;
}

}  // namespace calibre::flags
