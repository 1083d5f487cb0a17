// Minimal command-line flag parsing for the CLI tools:
//   --key=value   --key value   --switch
// Unrecognised positional arguments are collected separately.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace calibre::flags {

// `text` as an int. Text that does not parse or does not fit an int throws
// CheckError naming --`flag`.
int parse_int(const std::string& text, const std::string& flag);

class Parser {
 public:
  Parser(int argc, const char* const* argv);

  // Value of --name, or `fallback` when absent. A bare --name (a switch,
  // with no value to read) throws CheckError naming the flag.
  std::string get(const std::string& name, const std::string& fallback) const;
  // Numeric values, or `fallback` when absent. Text that does not parse as
  // the type, or for get_int does not fit an int, throws CheckError naming
  // the flag; so does a bare --name.
  int get_int(const std::string& name, int fallback) const;
  double get_double(const std::string& name, double fallback) const;
  // True when --name was passed (with any value or as a bare switch).
  bool has(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Flags that were provided but never queried — typo detection.
  std::vector<std::string> unused() const;

 private:
  // The text given for --name, or null when absent; marks --name queried.
  const std::string* value(const std::string& name) const;

  std::map<std::string, std::string> values_;
  std::set<std::string> switches_;  // flags passed bare, with no value
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

}  // namespace calibre::flags
