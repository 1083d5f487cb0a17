// A small JSON reader for the files bench_e2e reads back: BENCHMARK.json
// (metric names, units, directions and bounds) and saved result sets
// (--out / --compare). Reads standard JSON; numbers become doubles.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace calibre::bench {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // in file order

  // Member `key` of an object, or nullptr (also for non-objects).
  const JsonValue* find(const std::string& key) const;
};

// Parses `text` into `*out`. Returns false with a message in `*error` on
// malformed input or trailing garbage.
bool parse_json(const std::string& text, JsonValue* out, std::string* error);

// Reads and parses a whole file; false with a message on I/O or parse error.
bool read_json_file(const std::string& path, JsonValue* out,
                    std::string* error);

}  // namespace calibre::bench
