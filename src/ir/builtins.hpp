// The MiniC builtin functions, declared once as an X-macro list: codegen
// derives its signature table from it and the VM its dispatch switch, so
// adding a builtin touches one line here plus its VM case.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace ac::ir {

// V(Id, source name, return type, parameter types...). Types are MiniC's
// Void / Int / Double; codegen spells them as minic::Ty.
#define AC_BUILTINS_LIST(V)                \
  V(PrintInt, print_int, Void, Int)        \
  V(PrintFloat, print_float, Void, Double) \
  V(Sqrt, sqrt, Double, Double)            \
  V(Fabs, fabs, Double, Double)            \
  V(Pow, pow, Double, Double, Double)      \
  V(Exp, exp, Double, Double)              \
  V(Log, log, Double, Double)              \
  V(Sin, sin, Double, Double)              \
  V(Cos, cos, Double, Double)              \
  V(Floor, floor, Double, Double)          \
  V(Timer, timer, Double)

enum class Builtin : std::uint8_t {
#define AC_BUILTIN_ENUM(Id, ...) Id,
  AC_BUILTINS_LIST(AC_BUILTIN_ENUM)
#undef AC_BUILTIN_ENUM
};

#define AC_BUILTIN_COUNT(...) +1
inline constexpr std::size_t kNumBuiltins = 0 AC_BUILTINS_LIST(AC_BUILTIN_COUNT);
#undef AC_BUILTIN_COUNT

/// Source name of a builtin ("print_int", ...); "" for an out-of-range id.
inline std::string_view builtin_name(Builtin b) {
  static constexpr std::string_view kNames[] = {
#define AC_BUILTIN_NAME(Id, name, ...) #name,
      AC_BUILTINS_LIST(AC_BUILTIN_NAME)
#undef AC_BUILTIN_NAME
  };
  const auto i = static_cast<std::size_t>(b);
  return i < kNumBuiltins ? kNames[i] : std::string_view();
}

/// The builtin called `name`, or nullopt.
inline std::optional<Builtin> find_builtin(std::string_view name) {
  for (std::size_t i = 0; i < kNumBuiltins; ++i) {
    if (builtin_name(static_cast<Builtin>(i)) == name) return static_cast<Builtin>(i);
  }
  return std::nullopt;
}

}  // namespace ac::ir
