#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

#include "core/types.hpp"

/// \file jsonl.hpp
/// Key-based field scanning for the flat single-line JSON objects this
/// project exports (campaign rows, telemetry rows, serve-mode wire
/// messages). Shared by campaign/export.cpp and src/serve/.
///
/// These are deliberately not a JSON parser: every producer in this codebase
/// emits one flat object per line with a fixed key order, unquoted numeric
/// values, and scenario names restricted to a quote-free charset
/// (registry.hpp). The scanners exploit that, and require_flat_object rejects
/// anything that violates it — in particular lines produced by two writers
/// whose torn output interleaved — so a corrupt file fails loudly instead of
/// parsing as plausible garbage.

namespace dualrad::campaign::jsonl {

/// Value of `"key":` in `line`, or nullopt if the key is absent. String
/// values are returned without quotes; other values end at the next ',' or
/// '}'. Throws std::invalid_argument on an unterminated value.
[[nodiscard]] inline std::optional<std::string_view> field_opt(
    std::string_view line, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  std::size_t begin = at + needle.size();
  std::size_t end = begin;
  if (begin < line.size() && line[begin] == '"') {
    ++begin;
    end = line.find('"', begin);
    DUALRAD_REQUIRE(end != std::string_view::npos,
                    "unterminated string in JSONL line");
  } else {
    end = line.find_first_of(",}", begin);
    DUALRAD_REQUIRE(end != std::string_view::npos, "malformed JSONL line");
  }
  return line.substr(begin, end - begin);
}

/// Like field_opt but the key must be present.
[[nodiscard]] inline std::string_view field(std::string_view line,
                                            std::string_view key) {
  const std::optional<std::string_view> value = field_opt(line, key);
  DUALRAD_REQUIRE(value.has_value(),
                  "JSONL line missing key '" + std::string(key) + "'");
  return *value;
}

/// The whole of `s` as a T, parsed by std::from_chars: no whitespace, no
/// trailing junk, no sign on an unsigned T, and the value in T's range;
/// nullopt otherwise.
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view s) {
  T value{};
  const char* const end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

/// parse_number into `out` for a command-line flag: returns whether `s`
/// parsed, and leaves `out` untouched when it did not.
template <typename T>
[[nodiscard]] bool parse_into(std::string_view s, T& out) {
  const std::optional<T> value = parse_number<T>(s);
  if (value.has_value()) out = *value;
  return value.has_value();
}

/// parse_number for a field that must hold a T: anything else throws
/// std::invalid_argument, so a malformed or out-of-range field never
/// parses as a plausible value.
template <typename T>
[[nodiscard]] T to_int(std::string_view s) {
  const std::optional<T> value = parse_number<T>(s);
  DUALRAD_REQUIRE(value.has_value(),
                  "malformed or out-of-range numeric field: " + std::string(s));
  return *value;
}

[[nodiscard]] inline long long to_ll(std::string_view s) {
  return to_int<long long>(s);
}

[[nodiscard]] inline std::uint64_t to_u64(std::string_view s) {
  return to_int<std::uint64_t>(s);
}

/// Reject lines that are not exactly one flat object: must start with '{',
/// end with '}', and contain no second '{'. A second '{' is the signature of
/// two torn writes interleaving on one line — key-based scanning would
/// happily pick fields from either object, so such lines must fail loudly.
inline void require_flat_object(std::string_view line) {
  DUALRAD_REQUIRE(!line.empty() && line.front() == '{',
                  "JSONL line does not start an object: " + std::string(line));
  DUALRAD_REQUIRE(line.back() == '}',
                  "truncated JSONL line: " + std::string(line));
  DUALRAD_REQUIRE(line.find('{', 1) == std::string_view::npos,
                  "interleaved JSONL line: " + std::string(line));
}

}  // namespace dualrad::campaign::jsonl
