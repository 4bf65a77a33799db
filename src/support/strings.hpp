// Small string utilities shared by the trace parser, MiniC lexer and report
// printers. Kept allocation-light: the trace hot path uses the string_view
// based splitters.
#pragma once

#include <cstdint>
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

/// printf-style formatting appended to `out` — no temporary string, so the
/// per-record trace writers format straight into their batch buffer.
void appendf(std::string& out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

/// Parse a signed decimal int64; throws ac::Error on garbage or a value
/// outside int64 (it never saturates).
std::int64_t parse_i64(std::string_view s);

/// Parse an unsigned decimal u64 (digits only, no sign); throws ac::Error on
/// garbage or a value outside u64.
std::uint64_t parse_u64(std::string_view s);

/// Parse a double; throws ac::Error on garbage.
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
