// Fixture: lenient number parsing of command-line flags under tools/.
// `--trials=-1` through std::stoul wraps to 2^64-1; a flag must be parsed
// whole (std::from_chars) so a sign or trailing junk is a usage error.
#include <charconv>
#include <cstddef>
#include <optional>
#include <string>

std::size_t trials_of(const std::string& flag) {
  return std::stoul(flag);  // finding
}

unsigned threads_of(const char* flag) {
  return static_cast<unsigned>(strtoul(flag, nullptr, 10));  // finding
}

std::optional<unsigned> strict(const std::string& flag) {
  unsigned value = 0;
  const char* end = flag.data() + flag.size();
  const auto [ptr, ec] = std::from_chars(flag.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}
