#include "nbtinoc/util/strings.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace nbtinoc::util {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const auto pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      return parts;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

std::string to_lower(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    out += parts[i];
    if (i + 1 < parts.size()) out += sep;
  }
  return out;
}

std::string exact_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string digest_double(double v) {
  std::string text = std::to_string(v);
  if (std::strtod(text.c_str(), nullptr) != v) {
    text += '[';
    text += exact_double(v);
    text += ']';
  }
  return text;
}

}  // namespace nbtinoc::util
