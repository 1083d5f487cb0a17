// Minimal command-line flag parsing for the CLI tools:
//   --key=value   --key value   --switch
// Positional arguments are collected separately; no tool takes any, so
// unexpected() reports them beside the flags nothing read.
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
  // A boolean switch: true when --name was passed bare. A switch given a
  // value throws CheckError naming the flag and the value: in
  // `--list-methods foo` or `--async 3` the parser took the next token as
  // the switch's value, and it is a stray argument, not one to swallow.
  bool has(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Flags that were provided but never queried — typo detection.
  std::vector<std::string> unused() const;

  // One message per flag that was provided but never queried ("unknown
  // flag --name") and per positional argument ("unexpected argument x").
  // Empty when every argument was read.
  std::vector<std::string> unexpected() const;

 private:
  // The text given for --name, or null when absent; marks --name queried.
  const std::string* value(const std::string& name) const;

  std::map<std::string, std::string> values_;
  std::set<std::string> switches_;  // flags passed bare, with no value
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

}  // namespace calibre::flags
