#include "util/text.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace repro::util {

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::optional<unsigned long> parse_ulong_strict(std::string_view s) {
  if (s.empty() || s.size() > 20) return std::nullopt;
  // strtoul skips whitespace and accepts a sign; forbid both up front so the
  // accepted language is exactly [0-9]+.
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
  }
  const std::string buf(s);
  char* end = nullptr;
  errno = 0;
  const unsigned long v = std::strtoul(buf.c_str(), &end, 10);
  if (errno == ERANGE || end != buf.c_str() + buf.size()) return std::nullopt;
  return v;
}

std::optional<double> parse_double_strict(std::string_view s) {
  if (s.empty() || s.size() > 64) return std::nullopt;
  const unsigned char first = static_cast<unsigned char>(s.front());
  // Reject the leading whitespace strtod would skip, plus hex floats, nan,
  // and inf: an override is a plain decimal number or it is nothing.
  if (std::isspace(first)) return std::nullopt;
  for (char c : s) {
    if (c != '+' && c != '-' && c != '.' && c != 'e' && c != 'E' &&
        (c < '0' || c > '9')) {
      return std::nullopt;
    }
  }
  const std::string buf(s);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE || end != buf.c_str() + buf.size()) return std::nullopt;
  return v;
}

std::string fmt_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string fmt_percent(double fraction, int precision) {
  return fmt_double(fraction * 100.0, precision);
}

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> row) {
  row.resize(header_.size());
  rows_.push_back(std::move(row));
}

std::string TextTable::render() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " ");
      os << row[c] << std::string(width[c] - row[c].size(), ' ') << " |";
    }
    os << '\n';
  };
  emit_row(header_);
  os << '|';
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << std::string(width[c] + 2, '-') << '|';
  }
  os << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string TextTable::render_csv() const {
  std::ostringstream os;
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << header_[c] << (c + 1 < header_.size() ? "," : "\n");
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << row[c] << (c + 1 < row.size() ? "," : "\n");
    }
  }
  return os.str();
}

int repro_scale_mode() {
  if (const char* f = std::getenv("REPRO_FULL"); f && f[0] == '1') return 2;
  if (const char* f = std::getenv("REPRO_FAST"); f && f[0] == '1') return 0;
  return 1;
}

}  // namespace repro::util
