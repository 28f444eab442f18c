// Minimal JSON emission helpers shared by the service layer's per-job
// lines (service::print_job_json) and the BENCH document writers. Only
// writing is supported — parsing lives in util/json_parse.h.
#pragma once

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

namespace wmatch::util {

/// Formats a number for JSON emission, losslessly for exact integers:
/// integral values (counters, optima, weights carried as doubles) print
/// as plain integers — the default 6-significant-digit format would
/// round e.g. a Blossom optimum of 2124337 to 2.12434e+06 in a BENCH
/// artifact — while non-integral values (ratios, wall ms) keep the
/// compact default format. Shared by every JSON writer (CLI, sweep,
/// service, net) so their documents stay byte-compatible.
inline std::string json_number(double x) {
  if (std::floor(x) == x && std::abs(x) < 1e15) {
    return std::to_string(static_cast<long long>(x));
  }
  std::ostringstream ss;
  ss << x;
  return ss.str();
}

/// Writes `s` as a JSON string literal, escaping quotes, backslashes, and
/// every control character (RFC 8259 requires \u00XX for bytes < 0x20).
inline void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// The one write path for BENCH documents (wmatch_cli bench / batch /
/// loadgen and bench_micro_kernels): streams `write(os)` into `path`, or
/// BENCH_<id>.json when `path` is empty, then reports "wrote PATH" on
/// `log`. A failed write reports "error: could not write PATH" on `err`
/// and returns false, so the caller can exit non-zero.
template <typename Write>
bool write_bench_json(const std::string& path, const std::string& id,
                      Write&& write, std::ostream& log, std::ostream& err) {
  const std::string out = path.empty() ? "BENCH_" + id + ".json" : path;
  std::ofstream os(out);
  write(os);
  os.flush();
  if (!os.good()) {
    err << "error: could not write " << out << "\n";
    return false;
  }
  log << "wrote " << out << "\n";
  return true;
}

}  // namespace wmatch::util
