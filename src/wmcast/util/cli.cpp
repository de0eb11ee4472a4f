#include "wmcast/util/cli.hpp"

#include <algorithm>
#include <stdexcept>

#include "wmcast/util/assert.hpp"
#include "wmcast/util/simd.hpp"
#include "wmcast/util/thread_pool.hpp"

namespace wmcast::util {

namespace {

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const char* type, const char* why) {
  throw std::invalid_argument("--" + key + "=" + value + ": " + why + " (expected " +
                              type + ")");
}

// stoi/stod/stoull accept a valid prefix and stop; a CLI value must parse in
// full, so "12x" and "" are errors, annotated with the flag they came from.
template <typename T, typename Fn>
T parse_full(const std::string& key, const std::string& value, const char* type,
             Fn parse) {
  size_t pos = 0;
  T out;
  try {
    out = parse(value, &pos);
  } catch (const std::invalid_argument&) {
    bad_value(key, value, type, "not a number");
  } catch (const std::out_of_range&) {
    bad_value(key, value, type, "out of range");
  }
  if (pos != value.size()) bad_value(key, value, type, "trailing characters");
  return out;
}

}  // namespace

Args::Args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unrecognized argument (expected --key=value): " + arg);
    }
    const auto eq = arg.find('=');
    const std::string key =
        eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
    if (key.empty()) {
      throw std::invalid_argument("empty flag name: " + arg);
    }
    kv_[key] = eq == std::string::npos ? "true" : arg.substr(eq + 1);
  }
}

bool Args::has(const std::string& key) const { return kv_.count(key) > 0; }

std::string Args::get(const std::string& key, const std::string& def) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

int Args::get_int(const std::string& key, int def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  return parse_full<int>(key, it->second, "an integer",
                         [](const std::string& v, size_t* p) { return std::stoi(v, p); });
}

double Args::get_double(const std::string& key, double def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  return parse_full<double>(key, it->second, "a number",
                            [](const std::string& v, size_t* p) { return std::stod(v, p); });
}

uint64_t Args::get_u64(const std::string& key, uint64_t def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  // stoull happily wraps "-1" to 2^64-1; reject any sign explicitly.
  if (!it->second.empty() && (it->second[0] == '-' || it->second[0] == '+')) {
    bad_value(key, it->second, "an unsigned integer", "sign not allowed");
  }
  return parse_full<uint64_t>(
      key, it->second, "an unsigned integer",
      [](const std::string& v, size_t* p) { return std::stoull(v, p); });
}

bool Args::get_bool(const std::string& key, bool def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  bad_value(key, v, "true/1/yes or false/0/no", "not a boolean");
}

void Args::reject_unknown(std::initializer_list<std::string_view> known) const {
  std::string bad;
  for (const auto& [key, value] : kv_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      if (!bad.empty()) bad += ", ";
      bad += "--" + key;
    }
  }
  if (!bad.empty()) {
    throw std::invalid_argument("unknown flag(s): " + bad);
  }
}

int resolve_threads(const Args& args) {
  return ThreadPool::resolve_threads(args.get_int("threads", 0));
}

void resolve_simd(const Args& args) {
  simd::set_mode(simd::mode_from_name(args.get("simd", "auto")));
}

}  // namespace wmcast::util
