// Minimal command-line parsing for bench and example binaries.
// Supported forms: --key=value and --flag (boolean true).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>

namespace wmcast::util {

/// Parses "--key=value" / "--flag" arguments; anything else is rejected with
/// std::invalid_argument so typos fail loudly in scripted runs. An empty flag
/// name ("--" or "--=x") is rejected the same way. Numeric getters require
/// the whole value to parse — "--n=12x" or "--rate=" throw with the offending
/// key and value in the message, and get_u64 rejects negative values instead
/// of wrapping them. get_bool takes the bare flag or true/1/yes/false/0/no
/// and throws on any other value, so "--json=out.json" is never a silent
/// false.
class Args {
 public:
  Args(int argc, char** argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& def) const;
  int get_int(const std::string& key, int def) const;
  double get_double(const std::string& key, double def) const;
  uint64_t get_u64(const std::string& key, uint64_t def) const;
  bool get_bool(const std::string& key, bool def) const;

  /// Throws std::invalid_argument listing every parsed flag not in `known`.
  /// Binaries call this once, after deciding their flag set, so a typo like
  /// --theads=8 aborts the run instead of silently using the default.
  void reject_unknown(std::initializer_list<std::string_view> known) const;

 private:
  std::map<std::string, std::string> kv_;
};

/// The one `--threads` convention shared by every binary: an explicit
/// `--threads=N` (N >= 1) wins, else the WMCAST_THREADS environment variable,
/// else 1 (serial reference execution). See util/thread_pool.hpp.
int resolve_threads(const Args& args);

/// The one `--simd=auto|scalar|avx2` convention: applies the requested kernel
/// dispatch mode process-wide (simd::set_mode) and returns it. Unknown names
/// and --simd=avx2 on a CPU without AVX2 throw std::invalid_argument, so
/// scripted byte-diff legs fail loudly instead of silently comparing the
/// dispatched path against itself. Default: auto.
void resolve_simd(const Args& args);

}  // namespace wmcast::util
