#pragma once
// Small string helpers (no locale surprises, ASCII-only semantics).

#include <string>
#include <string_view>
#include <vector>

namespace nbtinoc::util {

std::vector<std::string> split(std::string_view text, char sep);
std::string_view trim(std::string_view text);
std::string to_lower(std::string_view text);
bool starts_with(std::string_view text, std::string_view prefix);
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Exact decimal spelling of a double ("%.17g"): it reads back bit for bit.
std::string exact_double(double v);
/// Configuration-digest spelling of a double: std::to_string's six
/// decimals, followed by "[exact_double(v)]" only when those decimals do
/// not read back as v. Values that round-trip keep their six-decimal bytes;
/// values closer than 1e-6 still spell differently.
std::string digest_double(double v);

}  // namespace nbtinoc::util
