// String and table-formatting helpers used by the bench binaries so every
// reproduced table prints with consistent layout (and a trailing CSV block
// for machine consumption).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace repro::util {

std::string trim(std::string_view s);
std::string to_lower(std::string_view s);
std::vector<std::string> split(std::string_view s, char delim);

// printf-style double formatting helpers.
std::string fmt_double(double v, int precision);
std::string fmt_percent(double fraction, int precision);  // 0.0123 -> "1.23"

// Strict full-string numeric parsing for environment overrides.  The entire
// string must be one number — trailing garbage ("8x"), embedded lists
// ("4,8"), empty strings, and (for the unsigned form) negative values all
// return nullopt so the caller falls back to its default instead of silently
// honoring half of what the user typed.  Leading/trailing whitespace is not
// accepted either: an override is machine-written, not prose.
std::optional<unsigned long> parse_ulong_strict(std::string_view s);
std::optional<double> parse_double_strict(std::string_view s);

// Minimal fixed-width text table.  Columns are sized to their widest cell.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);
  void add_row(std::vector<std::string> row);
  std::string render() const;       // human-readable aligned table
  std::string render_csv() const;   // header + rows, comma separated

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Reads an environment scale mode shared by all bench binaries:
//   REPRO_FAST=1 -> 0 (shrunk pools), default -> 1, REPRO_FULL=1 -> 2.
int repro_scale_mode();

}  // namespace repro::util
