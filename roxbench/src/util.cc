#include "util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace roxbench {

void RunOutput::Mismatch(const std::string& what) {
  if (correct || notes.size() < 20) notes.push_back("MISMATCH: " + what);
  correct = false;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double s = 0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

const Json* Json::Find(std::string_view key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class JsonReader {
 public:
  explicit JsonReader(std::string_view s) : s_(s) {}

  bool Parse(Json* out, std::string* error) {
    if (!Value(out, 0)) {
      *error = error_ + " at offset " + std::to_string(pos_);
      return false;
    }
    SkipWs();
    if (pos_ != s_.size()) {
      *error = "trailing bytes at offset " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool Fail(const char* what) {
    error_ = what;
    return false;
  }
  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return Fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool Value(Json* out, int depth) {
    if (depth > 64) return Fail("nesting too deep");
    SkipWs();
    if (pos_ >= s_.size()) return Fail("unexpected end");
    char c = s_[pos_];
    if (c == '{') return Object(out, depth);
    if (c == '[') return Array(out, depth);
    if (c == '"') {
      out->type = Json::Type::kString;
      return String(&out->str);
    }
    if (c == 't') {
      out->type = Json::Type::kBool;
      out->boolean = true;
      return Literal("true");
    }
    if (c == 'f') {
      out->type = Json::Type::kBool;
      return Literal("false");
    }
    if (c == 'n') return Literal("null");
    return Number(out);
  }

  bool Number(Json* out) {
    size_t start = pos_;
    while (pos_ < s_.size() &&
           std::strchr("+-0123456789.eE", s_[pos_]) != nullptr) {
      ++pos_;
    }
    if (pos_ == start) return Fail("unexpected character");
    std::string text(s_.substr(start, pos_ - start));
    char* end = nullptr;
    out->type = Json::Type::kNumber;
    out->number = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size()) return Fail("bad number");
    return true;
  }

  static void AppendUtf8(std::string* out, uint32_t cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool Hex4(uint32_t* cp) {
    if (pos_ + 4 > s_.size()) return Fail("short \\u escape");
    *cp = 0;
    for (int i = 0; i < 4; ++i) {
      char h = s_[pos_++];
      *cp <<= 4;
      if (h >= '0' && h <= '9') {
        *cp |= static_cast<uint32_t>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        *cp |= static_cast<uint32_t>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        *cp |= static_cast<uint32_t>(h - 'A' + 10);
      } else {
        return Fail("bad \\u escape");
      }
    }
    return true;
  }

  bool String(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < s_.size()) {
      size_t run = pos_;
      while (run < s_.size() && s_[run] != '"' && s_[run] != '\\') ++run;
      out->append(s_.data() + pos_, run - pos_);
      pos_ = run;
      if (pos_ >= s_.size()) break;
      if (s_[pos_] == '"') {
        ++pos_;
        return true;
      }
      if (++pos_ >= s_.size()) break;  // backslash
      char e = s_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t cp = 0;
          if (!Hex4(&cp)) return false;
          if (cp >= 0xD800 && cp < 0xDC00 && pos_ + 1 < s_.size() &&
              s_[pos_] == '\\' && s_[pos_ + 1] == 'u') {
            pos_ += 2;
            uint32_t lo = 0;
            if (!Hex4(&lo)) return false;
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          }
          AppendUtf8(out, cp);
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool Array(Json* out, int depth) {
    ++pos_;
    out->type = Json::Type::kArray;
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      out->items.emplace_back();
      if (!Value(&out->items.back(), depth + 1)) return false;
      SkipWs();
      if (pos_ >= s_.size()) return Fail("unterminated array");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected , or ]");
    }
  }

  bool Object(Json* out, int depth) {
    ++pos_;
    out->type = Json::Type::kObject;
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != '"') return Fail("expected key");
      std::string key;
      if (!String(&key)) return false;
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != ':') return Fail("expected :");
      ++pos_;
      out->members.emplace_back(std::move(key), Json{});
      if (!Value(&out->members.back().second, depth + 1)) return false;
      SkipWs();
      if (pos_ >= s_.size()) return Fail("unterminated object");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected , or }");
    }
  }

  std::string_view s_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool ParseJson(std::string_view text, Json* out, std::string* error) {
  *out = Json{};
  return JsonReader(text).Parse(out, error);
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace roxbench
