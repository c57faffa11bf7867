#include "common/strings.h"

#include <cctype>
#include <cstdio>

namespace digest {

std::string_view StripWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::vector<std::string> SplitAndTrim(std::string_view s, char delim) {
  std::vector<std::string> pieces;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    std::string_view piece = (pos == std::string_view::npos)
                                 ? s.substr(start)
                                 : s.substr(start, pos - start);
    pieces.emplace_back(StripWhitespace(piece));
    if (pos == std::string_view::npos) break;
    start = pos + 1;
  }
  return pieces;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(a[i])) !=
        std::toupper(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string ToUpperAscii(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(&out, s);
  return out;
}

void AppendDouble(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

std::string FormatDouble(double v) {
  std::string out;
  AppendDouble(&out, v);
  return out;
}

}  // namespace digest
