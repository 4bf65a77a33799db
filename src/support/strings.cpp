#include "support/strings.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
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

namespace {

/// Value of `digits` in `base` (10 or 16; no sign, no prefix). Throws
/// ac::Error naming `fn` on an empty field, a non-digit, or a value above
/// `max` — a field never saturates or wraps into range.
std::uint64_t parse_digits(std::string_view digits, unsigned base, std::uint64_t max,
                           const char* fn, std::string_view field) {
  if (digits.empty()) throw Error(strf("%s: empty field", fn));
  const char* const end = digits.data() + digits.size();
  const DigitScan d = scan_digits(digits.data(), end, base, max);
  if (d.overflow) {
    throw Error(strf("%s: '%.*s' out of range", fn, static_cast<int>(field.size()),
                     field.data()));
  }
  if (d.ptr != end) {
    throw Error(strf("%s: bad %s '%.*s'", fn, base == 16 ? "hex" : "integer",
                     static_cast<int>(field.size()), field.data()));
  }
  return d.value;
}

/// For a significand at [p, end) (no sign, no 0x) that from_chars found out
/// of range: true when its value lies above DBL_MAX, false when below the
/// smallest subnormal. Such a value is hundreds of orders of magnitude from
/// 1, so the place of its leading nonzero digit plus its exponent decides.
bool above_double_range(const char* p, const char* end, bool hex) {
  const unsigned base = hex ? 16 : 10;
  constexpr long long kCap = 1ll << 40;  // keeps the sums from overflowing
  long long place = -1;  // of the leading nonzero digit: 0 for units, -1 for tenths
  bool point = false, nonzero = false;
  for (; p != end; ++p) {
    if (*p == '.' && !point) {
      point = true;
      continue;
    }
    if (kDigitValue[static_cast<unsigned char>(*p)] >= base) break;
    nonzero = nonzero || *p != '0';
    if (!point && nonzero) place = std::min(place + 1, kCap);
    if (point && !nonzero) place = std::max(place - 1, -kCap);
  }
  long long exp = 0;
  if (p != end && (*p | 0x20) == (hex ? 'p' : 'e')) {
    ++p;
    const bool neg = p != end && *p == '-';
    if (p != end && (*p == '-' || *p == '+')) ++p;
    for (; p != end && *p >= '0' && *p <= '9'; ++p) exp = std::min(exp * 10 + (*p - '0'), kCap);
    if (neg) exp = -exp;
  }
  return (hex ? 4 * place : place) + exp >= 0;
}

}  // namespace

std::int64_t parse_i64(std::string_view s) {
  s = trim(s);
  const bool neg = !s.empty() && s[0] == '-';
  const bool sign = neg || (!s.empty() && s[0] == '+');
  const std::uint64_t mag =
      parse_digits(s.substr(sign ? 1 : 0), 10,
                   neg ? std::uint64_t{1} << 63 : std::uint64_t{INT64_MAX}, "parse_i64", s);
  return neg ? static_cast<std::int64_t>(0 - mag) : static_cast<std::int64_t>(mag);
}

std::uint64_t parse_u64(std::string_view s) {
  s = trim(s);
  return parse_digits(s, 10, UINT64_MAX, "parse_u64", s);
}

double parse_f64(std::string_view s) {
  s = trim(s);
  if (s.empty()) throw Error("parse_f64: empty field");
  const char* p = s.data();
  const char* const end = p + s.size();
  const bool neg = *p == '-';
  if (*p == '-' || *p == '+') ++p;
  const bool hex = end - p > 1 && p[0] == '0' && (p[1] | 0x20) == 'x';
  if (hex) p += 2;
  double v = 0;
  // from_chars takes a '-' of its own, so a second sign must fail here.
  const auto [ptr, ec] =
      p == end || *p == '-' || *p == '+'
          ? std::from_chars_result{p, std::errc::invalid_argument}
          : std::from_chars(p, end, v, hex ? std::chars_format::hex : std::chars_format::general);
  // strtod keeps a nan(chars) payload in the bits; from_chars drops it.
  const bool nan_payload =
      ec == std::errc{} && std::isnan(v) && s.back() == ')' && s[s.size() - 2] != '(';
  if (ptr != end || nan_payload || (ec != std::errc{} && ec != std::errc::result_out_of_range)) {
    throw Error("parse_f64: bad float '" + std::string(s) + "'");
  }
  if (ec == std::errc::result_out_of_range) {
    v = above_double_range(p, end, hex) ? std::numeric_limits<double>::infinity() : 0.0;
  }
  return neg ? -v : v;
}

std::uint64_t parse_hex(std::string_view s) {
  s = trim(s);
  if (!starts_with(s, "0x")) throw Error("parse_hex: missing 0x in '" + std::string(s) + "'");
  return parse_digits(s.substr(2), 16, UINT64_MAX, "parse_hex", s);
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
