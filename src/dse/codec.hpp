// Scalar text codec shared by every format that carries simulated results
// across processes: checkpoint files (dse/checkpoint), the coordinator/
// worker wire (dist/protocol) and trajectory CSV (dse/trajectory_io).
//
// Integers are plain decimal; doubles are C99 hexfloats, so every value —
// ±inf and nan included — round-trips bit-exactly. The parsers are strict:
// a token is a number only if all of it is the number (no surrounding
// space, no trailing junk, no embedded NUL), an unsigned token carries no
// sign, and an out-of-range value is rejected rather than wrapped. Every
// failure reaches the caller as a typed PayloadError, never as UB or an
// allocation sized from untrusted input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "dse/fault.hpp"

namespace ace::dse {

// Counts (std::size_t) and wire ids (std::uint64_t) share one parser.
static_assert(sizeof(std::size_t) == sizeof(std::uint64_t));

/// The hexfloat token for `v`, as printf's %a writes it: 0x1.8p+2, -inf, nan.
std::string hexfloat(double v);

/// The token for one value: hexfloat for a double, decimal for an integer
/// (a bool writes as 0 or 1).
template <class T>
std::string to_token(T v) {
  if constexpr (std::is_floating_point_v<T>)
    return hexfloat(v);
  else
    return std::to_string(v);
}

/// Strict whole-token parsers; std::nullopt when `token` is not exactly one
/// number of the type.
std::optional<std::uint64_t> parse_unsigned(std::string_view token);
std::optional<int> parse_int(std::string_view token);
std::optional<double> parse_double(std::string_view token);

/// Whitespace-separated tokens over one payload, with typed failures: a
/// token that does not parse throws PayloadError(kCorruptPayload) and
/// running out of tokens throws PayloadError(exhausted). Messages start
/// with `prefix` and name the field being read. The text must outlive the
/// reader.
class TokenReader {
 public:
  /// `exhausted` is kTruncatedPayload where running dry means the payload
  /// was cut off (a file), kCorruptPayload where framing has already shown
  /// it complete (a checksummed wire line).
  TokenReader(std::string_view text, std::string prefix, FaultCode exhausted);

  std::string_view next(const char* what);
  /// Consumes the next token; it must equal `keyword`.
  void expect(std::string_view keyword);
  std::uint64_t unsigned_integer(const char* what);
  int integer(const char* what);
  double real(const char* what);
  /// The rest of the current line, without the one space that separates it
  /// from the last token.
  std::string rest();
  /// Throws unless only whitespace remains.
  void done(const char* what);

  [[noreturn]] void corrupt(const std::string& detail) const;

 private:
  template <class T>
  T number(const char* what, std::optional<T> (*parse)(std::string_view));

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string prefix_;
  FaultCode exhausted_;
};

}  // namespace ace::dse
