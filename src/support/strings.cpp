#include "support/strings.hpp"

#include <cerrno>
#include <climits>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cctype>

#include "support/error.hpp"

namespace ac {

std::vector<std::string_view> split_view(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  for (auto piece : split_view(s, sep)) {
    if (!piece.empty()) out.emplace_back(piece);
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string strf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  va_end(ap2);
  return out;
}

void appendf(std::string& out, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  char stack[256];  // trace lines are short; the slow path is for safety only
  const int n = std::vsnprintf(stack, sizeof stack, fmt, ap);
  va_end(ap);
  if (n > 0) {
    if (static_cast<std::size_t>(n) < sizeof stack) {
      out.append(stack, static_cast<std::size_t>(n));
    } else {
      const std::size_t old = out.size();
      out.resize(old + static_cast<std::size_t>(n));
      std::vsnprintf(out.data() + old, static_cast<std::size_t>(n) + 1, fmt, ap2);
    }
  }
  va_end(ap2);
}

std::int64_t parse_i64(std::string_view s) {
  s = trim(s);
  if (s.empty()) throw Error("parse_i64: empty field");
  char buf[32];
  if (s.size() >= sizeof(buf)) throw Error("parse_i64: field too long");
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  long long v = std::strtoll(buf, &end, 10);
  if (end != buf + s.size()) throw Error("parse_i64: bad integer '" + std::string(s) + "'");
  return v;
}

double parse_f64(std::string_view s) {
  s = trim(s);
  if (s.empty()) throw Error("parse_f64: empty field");
  char buf[64];
  if (s.size() >= sizeof(buf)) throw Error("parse_f64: field too long");
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  double v = std::strtod(buf, &end);
  if (end != buf + s.size()) throw Error("parse_f64: bad float '" + std::string(s) + "'");
  return v;
}

std::uint64_t parse_hex(std::string_view s) {
  s = trim(s);
  if (!starts_with(s, "0x")) throw Error("parse_hex: missing 0x in '" + std::string(s) + "'");
  char buf[32];
  std::string_view digits = s.substr(2);
  if (digits.empty() || digits.size() >= sizeof(buf)) throw Error("parse_hex: bad length");
  std::memcpy(buf, digits.data(), digits.size());
  buf[digits.size()] = '\0';
  char* end = nullptr;
  unsigned long long v = std::strtoull(buf, &end, 16);
  if (end != buf + digits.size()) throw Error("parse_hex: bad hex '" + std::string(s) + "'");
  return v;
}

int parse_int_arg(std::string_view flag, const char* text, int min_value) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < min_value || v > INT_MAX) {
    throw Error(strf("%.*s expects an integer >= %d, got '%s'", static_cast<int>(flag.size()),
                     flag.data(), min_value, text));
  }
  return static_cast<int>(v);
}

std::string substitute(std::string text,
                       const std::vector<std::pair<std::string, std::string>>& vars) {
  for (const auto& [key, value] : vars) {
    const std::string needle = "${" + key + "}";
    std::size_t pos = 0;
    while ((pos = text.find(needle, pos)) != std::string::npos) {
      text.replace(pos, needle.size(), value);
      pos += value.size();
    }
  }
  return text;
}

std::string human_bytes(std::uint64_t bytes) {
  const double b = static_cast<double>(bytes);
  if (bytes >= 1024ull * 1024 * 1024) return strf("%.1fG", b / (1024.0 * 1024 * 1024));
  if (bytes >= 1024ull * 1024) return strf("%.1fM", b / (1024.0 * 1024));
  if (bytes >= 1024ull) return strf("%.1fK", b / 1024.0);
  return strf("%lluB", static_cast<unsigned long long>(bytes));
}

}  // namespace ac
