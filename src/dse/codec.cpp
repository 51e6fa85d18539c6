#include "dse/codec.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace ace::dse {

namespace {

// The C locale's isspace set, which is what the writers separate with.
constexpr std::string_view kSpace = " \t\n\v\f\r";

template <class T>
std::optional<T> parse_integer(std::string_view token) {
  // from_chars accepts no whitespace and no '+', and a '-' only for signed
  // T; it reports overflow instead of wrapping.
  T value{};
  const char* const last = token.data() + token.size();
  const auto [end, error] = std::from_chars(token.data(), last, value);
  if (error != std::errc{} || end != last) return std::nullopt;
  return value;
}

}  // namespace

std::string hexfloat(double v) {
  // glibc prints inf/-inf/nan/-nan here, which strtod parses back.
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", v);
  return buffer;
}

std::optional<std::uint64_t> parse_unsigned(std::string_view token) {
  return parse_integer<std::uint64_t>(token);
}

std::optional<int> parse_int(std::string_view token) {
  return parse_integer<int>(token);
}

std::optional<double> parse_double(std::string_view token) {
  // strtod skips leading space, so refuse it here; it also stops at an
  // embedded NUL, which then leaves `end` short of the token's end.
  if (token.empty() || kSpace.find(token.front()) != std::string_view::npos)
    return std::nullopt;
  const std::string text(token);
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return std::nullopt;
  // Finite text that overflowed; "inf" itself parses without ERANGE.
  if (errno == ERANGE && std::isinf(value)) return std::nullopt;
  return value;
}

TokenReader::TokenReader(std::string_view text, std::string prefix,
                         FaultCode exhausted)
    : text_(text), prefix_(std::move(prefix)), exhausted_(exhausted) {}

std::string_view TokenReader::next(const char* what) {
  const std::size_t first = text_.find_first_not_of(kSpace, pos_);
  if (first == std::string_view::npos)
    throw PayloadError(exhausted_,
                       prefix_ + ": payload ended before " + what);
  pos_ = std::min(text_.find_first_of(kSpace, first), text_.size());
  return text_.substr(first, pos_ - first);
}

void TokenReader::expect(std::string_view keyword) {
  const std::string name(keyword);
  const std::string_view token = next(name.c_str());
  if (token != keyword)
    corrupt("expected '" + name + "', got '" + std::string(token) + "'");
}

template <class T>
T TokenReader::number(const char* what,
                      std::optional<T> (*parse)(std::string_view)) {
  const std::string_view token = next(what);
  const std::optional<T> value = parse(token);
  if (!value)
    corrupt(std::string("bad number for ") + what + ": '" +
            std::string(token) + "'");
  return *value;
}

std::uint64_t TokenReader::unsigned_integer(const char* what) {
  return number(what, parse_unsigned);
}

int TokenReader::integer(const char* what) { return number(what, parse_int); }

double TokenReader::real(const char* what) {
  return number(what, parse_double);
}

std::string TokenReader::rest() {
  std::string_view line = text_.substr(pos_);
  line = line.substr(0, line.find('\n'));
  pos_ += line.size();
  if (!line.empty() && line.front() == ' ') line.remove_prefix(1);
  return std::string(line);
}

void TokenReader::done(const char* what) {
  if (text_.find_first_not_of(kSpace, pos_) != std::string_view::npos)
    corrupt(std::string("trailing token after ") + what + ": '" +
            std::string(next(what)) + "'");
}

void TokenReader::corrupt(const std::string& detail) const {
  throw PayloadError(FaultCode::kCorruptPayload, prefix_ + ": " + detail);
}

}  // namespace ace::dse
