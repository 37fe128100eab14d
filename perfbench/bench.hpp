// Shared pieces of the perfbench driver: clocks, the request record, seeded
// RNG, percentiles, result fingerprints, memory sampling, client-side spans
// and the metric table.
//
// Everything here lives outside the library: the benchmark only calls the
// public C API (capi/lagraph_c.h) and the public C++ headers, and times
// those calls from the caller's side.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graphblas/graphblas.hpp"
#include "platform/memory.hpp"
#include "platform/workspace.hpp"

#include <unistd.h>

namespace perfbench {

using gb::Index;
using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

inline Clock::duration from_ms(double ms) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double, std::milli>(ms));
}

/// The algorithms the workloads run. Order fixes metric order.
enum Algo : int { kPagerank = 0, kBfs, kSssp, kCc, kTc, kNumAlgos };
inline const char* algo_name(int a) {
  static const char* names[] = {"pagerank", "bfs", "sssp", "cc", "tc"};
  return names[a];
}

/// Traversal sources drawn per workload (out-degree >= 1).
inline constexpr std::size_t kSourcePool = 64;
/// Window of the memory sampler.
inline constexpr double kMemWindowMs = 500.0;

/// One attempted request as the caller saw it.
struct Request {
  int algo = 0;
  Index src = 0;             ///< bfs / sssp source; 0 otherwise
  int version = -1;          ///< graph version served; -1 = not attributable
  std::uint64_t hash = 0;    ///< fingerprint of the result (tc: the count)
  double ms = 0;             ///< latency: submit + wait, or the driver call
  int info = 0;              ///< first non-success GrB_Info, 0 = ok
  bool ok() const { return info == 0; }
};

// --- seeded randomness -------------------------------------------------------

inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// splitmix64 stream; `stream` separates independent draws from one seed.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream)
      : s_(mix64(seed) ^ mix64(stream * 0x632be59bd9b4e019ULL + 1)) {}
  std::uint64_t next() { return mix64(s_++); }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

template <class T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

// --- statistics --------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 if empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t k = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(k, v.size() - 1)];
}

inline double median(const std::vector<double>& v) { return percentile(v, 0.5); }

/// p99 needs at least ten samples beyond it.
inline bool p99_supported(std::size_t n) { return n >= 1000; }

// --- result fingerprints -----------------------------------------------------

/// Order-sensitive 64-bit fingerprint of a sparse result (n, indices, value
/// bits). Two results hash equal iff they are bit-identical (up to a 2^-64
/// collision chance).
inline std::uint64_t hash_result(Index n, const Index* idx, const double* vals,
                                 std::size_t nvals) {
  std::uint64_t h = mix64(n) ^ mix64(nvals + 0x51);
  for (std::size_t k = 0; k < nvals; ++k) {
    std::uint64_t bits;
    std::memcpy(&bits, &vals[k], sizeof bits);
    h = mix64(h ^ idx[k]) + bits * 0x9e3779b97f4a7c15ULL;
  }
  return mix64(h);
}

/// Fingerprint of a typed library vector, values widened to double exactly
/// as the serving layer widens them.
template <class T>
std::uint64_t hash_vector(const gb::Vector<T>& v) {
  std::vector<Index> idx;
  std::vector<T> raw;
  v.extract_tuples(idx, raw);
  std::vector<double> vals(raw.begin(), raw.end());
  return hash_result(v.size(), idx.data(), vals.data(), idx.size());
}

// --- memory -------------------------------------------------------------------

/// Resident set size of this process (bytes), from /proc/self/statm.
inline double resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  return got == 2 ? static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE))
                  : 0;
}

/// Samples memory in fixed windows on its own thread: the process resident
/// set (polled every 10 ms, window maximum) and the library's own meter
/// (MemoryMeter peak, reset to the live footprint at each window start).
/// The median window peak is the steady working set; a spike moves only
/// the maximum.
class MemSampler {
 public:
  struct Windows {
    std::vector<double> rss_mb, meter_mb;  ///< per-window peaks, MiB
  };

  explicit MemSampler(double window_ms) {
    gb::platform::MemoryMeter::reset_peak();
    thread_ = std::thread([this, window_ms] {
      std::unique_lock<std::mutex> lk(m_);
      auto window_end = Clock::now() + from_ms(window_ms);
      double rss = 0;
      for (;;) {
        const bool stopping = cv_.wait_for(lk, from_ms(10), [this] { return stop_; });
        rss = std::max(rss, resident_bytes());
        if (stopping || Clock::now() >= window_end) {
          w_.rss_mb.push_back(rss / (1 << 20));
          w_.meter_mb.push_back(
              static_cast<double>(gb::platform::MemoryMeter::peak_bytes()) / (1 << 20));
          gb::platform::MemoryMeter::reset_peak();
          rss = 0;
          window_end += from_ms(window_ms);
        }
        if (stopping) break;
      }
    });
  }
  MemSampler(const MemSampler&) = delete;
  MemSampler& operator=(const MemSampler&) = delete;
  ~MemSampler() { finish(); }

  /// Stop sampling; the last (partial) window is included.
  Windows finish() {
    {
      std::lock_guard<std::mutex> lk(m_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return w_;
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool stop_ = false;
  Windows w_;
  std::thread thread_;  // last: started after the members it uses
};

/// Workspace reuses / checkouts on the calling thread between two snapshots.
inline double reuse_ratio(const gb::platform::WorkspaceStats& before,
                          const gb::platform::WorkspaceStats& after) {
  const auto checkouts = after.checkouts - before.checkouts;
  return checkouts == 0 ? 0.0
                        : static_cast<double>(after.reuses - before.reuses) /
                              static_cast<double>(checkouts);
}

// --- client-side spans -------------------------------------------------------

struct Span {
  const char* name;
  double start_us;  ///< since the run's time origin
  double end_us;
  std::int64_t parent;  ///< index of the parent span in the same log, or -1
  std::uint64_t request;
};

/// One thread's span log, kept in memory and written out after the run.
class SpanLog {
 public:
  SpanLog(bool on, Clock::time_point origin) : on_(on), origin_(origin) {}
  bool on() const { return on_; }
  std::int64_t add(const char* name, Clock::time_point a, Clock::time_point b,
                   std::int64_t parent, std::uint64_t request) {
    if (!on_) return -1;
    spans_.push_back({name, us(a), us(b), parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Durations (ms) of every span with this name.
  std::vector<double> durations_ms(const char* name) const {
    std::vector<double> out;
    for (const auto& s : spans_) {
      if (std::strcmp(s.name, name) == 0) out.push_back((s.end_us - s.start_us) / 1e3);
    }
    return out;
  }

 private:
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --- metric table ------------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
  std::string note;  ///< sample count or provenance, for the report
};

/// Ordered name -> metric map; insertion order is print order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    if (data_.count(name) == 0) order_.push_back(name);
    data_[name] = {value, unit, note};
  }
  const std::vector<std::string>& names() const { return order_; }
  const Metric& at(const std::string& name) const { return data_.at(name); }

 private:
  std::vector<std::string> order_;
  std::map<std::string, Metric> data_;
};

inline std::string count_note(std::size_t n) { return "n=" + std::to_string(n); }

/// JSON number with every digit the double carries.
inline std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace perfbench
