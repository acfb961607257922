// Fixture: lenient number parsing under src/. std::sto*, ato* and strto*
// skip whitespace, wrap a sign on unsigned types and stop at trailing junk;
// a field read from disk must be parsed whole (std::from_chars).
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <string>

std::uint64_t seed_of(const std::string& field) {
  return std::stoull(field);  // finding: "-1" wraps to 2^64-1
}

int trial_of(const char* field) { return atoi(field); }  // finding

double share_of(const char* field) {
  return std::strtod(field, nullptr);  // finding
}

long annotated(const std::string& flag) {
  // Command-line convenience parse, never a file field. lint: parse-ok
  return std::stol(flag);
}

std::uint64_t strict(const std::string& field) {
  std::uint64_t value = 0;
  std::from_chars(field.data(), field.data() + field.size(), value);
  return value;
}

// Names that merely contain the banned ones, and mentions in strings, are
// not calls: "std::stoi(x)" never parses anything.
int stoi_calls = 0;
const char* kHelp = "use atoi(s) nowhere";
int restore(int stold_value) { return stold_value + stoi_calls; }
