// Small string utilities shared by the trace parser and writer, MiniC lexer
// and report printers. Kept allocation-light: the trace hot paths use the
// string_view based splitters and append_int.
#pragma once

#include <array>
#include <charconv>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace ac {

/// Split `s` on `sep`, keeping empty fields (CSV semantics).
std::vector<std::string_view> split_view(std::string_view s, char sep);

/// Split `s` on `sep`, dropping empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Strip ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);

/// Join `parts` with `sep` between elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// printf-style formatting into a std::string (libstdc++ 12 lacks std::format).
std::string strf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// printf-style formatting appended to `out`, with no temporary string.
void appendf(std::string& out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

/// Append integer `v` in `base` (lowercase digits past 9) to `out`.
/// std::to_chars: no format string, no locale, no temporary.
template <class Int>
void append_int(std::string& out, Int v, int base = 10) {
  char buf[std::numeric_limits<Int>::digits + 2];  // base 2 plus a sign
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v, base).ptr);
}

/// Where scan_digits stopped, and the value of the digits before that.
struct DigitScan {
  std::uint64_t value = 0;
  const char* ptr = nullptr;  ///< the first byte not consumed
  bool overflow = false;      ///< ptr is a digit that would take value past max
};

/// Each byte's digit value (0-9, a-f and A-F as 10-15), or 0xFF for a
/// byte that is no digit.
inline constexpr auto kDigitValue = [] {
  std::array<std::uint8_t, 256> t{};
  t.fill(0xFF);
  for (int c = 0; c < 10; ++c) t['0' + c] = static_cast<std::uint8_t>(c);
  for (int c = 0; c < 6; ++c) {
    t['a' + c] = static_cast<std::uint8_t>(10 + c);
    t['A' + c] = static_cast<std::uint8_t>(10 + c);
  }
  return t;
}();

/// The digit kernel under every integer parse (parse_i64, parse_u64,
/// parse_hex and the trace scan): folds the base-10 or base-16 digits at
/// [p, end) into a value, stopping at the first non-digit or at the first
/// digit that would take the value past `max`. A table lookup per digit and
/// no division; the digits no u64 can overflow on (19 decimal, 15 hex) go
/// unchecked, and every later one is multiplied and added with overflow
/// flags.
inline DigitScan scan_digits(const char* p, const char* end, unsigned base,
                             std::uint64_t max) {
  DigitScan r{0, p, false};
  const std::size_t safe = base == 16 ? 15 : 19;
  for (std::size_t k = 0; r.ptr != end; ++r.ptr, ++k) {
    const unsigned d = kDigitValue[static_cast<unsigned char>(*r.ptr)];
    if (d >= base) break;
    if (k < safe) {
      r.value = r.value * base + d;
    } else if (__builtin_mul_overflow(r.value, base, &r.value) ||
               __builtin_add_overflow(r.value, d, &r.value)) {
      r.overflow = true;
      return r;
    }
    if (r.value > max) {
      r.overflow = true;
      return r;
    }
  }
  return r;
}

/// Parse a signed decimal int64; throws ac::Error on garbage or a value
/// outside int64 (it never saturates).
std::int64_t parse_i64(std::string_view s);

/// Parse an unsigned decimal u64 (digits only, no sign); throws ac::Error on
/// garbage or a value outside u64.
std::uint64_t parse_u64(std::string_view s);

/// Parse a double: the one float reader. strtod's syntax in the C locale,
/// any length (a %.6f field of -DBL_MAX is 317 bytes): an optional sign,
/// then a decimal or 0x-prefixed hexadecimal significand with an optional
/// exponent, or inf, infinity, nan or nan(). Read by std::from_chars, so
/// no locale applies and the bits are strtod's; a value past the double
/// range reads as strtod reads it (+-inf above, +-0 below). Throws ac::Error
/// on garbage, and on a nan(chars) payload, which from_chars would drop.
double parse_f64(std::string_view s);

/// Parse a 0x-prefixed hexadecimal address; throws ac::Error on garbage or
/// a value outside u64.
std::uint64_t parse_hex(std::string_view s);

/// Checked command-line integer for option `flag`: rejects garbage, trailing
/// junk and values outside [min_value, INT_MAX] with an ac::Error that names
/// the flag ("--threads expects an integer >= 1, got '4abc'").
int parse_int_arg(std::string_view flag, const char* text, int min_value);

/// Replace all occurrences of `${key}` in `text` for each (key,value) pair.
/// Used to instantiate MiniC app sources with size knobs.
std::string substitute(std::string text,
                       const std::vector<std::pair<std::string, std::string>>& vars);

/// Human-readable byte count ("12.7G", "2.6M", "52K", "431B").
std::string human_bytes(std::uint64_t bytes);

}  // namespace ac
