#pragma once
// Helpers of the end-to-end benchmark that carry no simulator state:
// command-line parsing, order statistics, the output digest, the roll-up
// of profiler event kinds into the repository's layers and the host-speed
// probe. Kept header-only so the benchmark and its self-test compile the
// same code.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/profiler.hpp"

namespace e2ebench {

// --- command line -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Directory for span dumps and the observed workload's temporary
  /// artifact files ("" = the working directory).
  std::string scratch;
};

/// Unsigned decimal, no sign, no spaces, no overflow.
inline std::optional<std::uint64_t> parse_u64(std::string_view s) {
  if (s.empty() || s.size() > 20) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - d) / 10) return std::nullopt;
    v = v * 10 + d;
  }
  return v;
}

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--scratch DIR]`
/// (`--flag=value` is accepted too). Every flag but --scratch is required;
/// a repeated, unknown or malformed flag is an error.
inline std::optional<Args> parse_args(const std::vector<std::string>& argv,
                                      std::string* error) {
  const auto fail = [error](std::string msg) -> std::optional<Args> {
    if (error != nullptr) *error = std::move(msg);
    return std::nullopt;
  };
  Args args;
  std::map<std::string, std::string> seen;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    std::string flag = argv[i];
    std::string value;
    if (flag.rfind("--", 0) != 0) return fail("unexpected argument: " + flag);
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else {
      if (i + 1 >= argv.size()) return fail(flag + " needs a value");
      value = argv[++i];
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--scratch") {
      return fail("unknown flag: " + flag);
    }
    if (!seen.emplace(flag, value).second) return fail("repeated flag: " + flag);
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (seen.find(required) == seen.end()) {
      return fail(std::string("missing ") + required);
    }
  }
  args.workload = seen["--workload"];
  if (args.workload.empty()) return fail("empty --workload");
  const auto seed = parse_u64(seen["--seed"]);
  if (!seed) return fail("--seed must be an unsigned integer");
  args.seed = *seed;
  const auto seconds = parse_u64(seen["--seconds"]);
  if (!seconds || *seconds < 1 || *seconds > 3600) {
    return fail("--seconds must be a whole number from 1 to 3600");
  }
  args.seconds = static_cast<double>(*seconds);
  const std::string& trace = seen["--trace"];
  if (trace != "0" && trace != "1") return fail("--trace must be 0 or 1");
  args.trace = trace == "1";
  if (auto it = seen.find("--scratch"); it != seen.end()) args.scratch = it->second;
  return args;
}

// --- order statistics ---------------------------------------------------------

/// Quantile `q` in [0, 1] by linear interpolation between the closest ranks
/// (NaN for an empty sample).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// A timing sample summarised as median and p90 with its sample count; the
/// p90 has at least ten samples beyond it only from 100 samples on.
struct Summary {
  double p50 = 0.0;
  double p90 = 0.0;
  std::size_t samples = 0;
};

inline Summary summarize(const std::vector<double>& v) {
  return Summary{quantile(v, 0.5), quantile(v, 0.9), v.size()};
}

// --- simulated-output digest ----------------------------------------------------

/// FNV-1a over 64-bit words: equal simulated outputs give equal digests.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  /// Exact bits, so a change in the last ulp shows.
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// --- layer roll-up --------------------------------------------------------------

/// Every layer a profiler kind can roll up into. The untagged "event" pool
/// is counted but never timed by the profiler, so its host time stays in
/// the scheduler's self time and it belongs to "sim".
inline constexpr const char* kLayers[] = {"sim", "net", "transport",
                                          "workload", "rl", "exp"};

/// The layer of a profiler kind ("net.tx" -> "net"), by the prefix before
/// the first dot; nullopt when the prefix maps to no layer.
inline std::optional<std::string> layer_of(std::string_view kind) {
  const std::string_view prefix = kind.substr(0, kind.find('.'));
  if (kind == "event") return "sim";
  if (prefix == "net" || prefix == "fault") return "net";
  if (prefix == "transport") return "transport";
  if (prefix == "workload") return "workload";
  if (prefix == "rl") return "rl";
  if (prefix == "telemetry") return "exp";
  return std::nullopt;
}

/// Host ms per layer and calls per kind, accumulated over profiler-section
/// diffs.
struct LayerTimes {
  std::map<std::string, double> wall_ms;
  std::map<std::string, std::uint64_t> kind_calls;
};

/// Adds the difference between two snapshots of Profiler::sections() to
/// `out`, by layer. Fails, naming the kind through `unknown`, when a kind
/// with calls in the interval maps to no layer: the roll-up must stay
/// closed so the layer shares keep adding up to the chunk wall.
inline bool rollup(const std::vector<pet::sim::Profiler::Section>& before,
                   const std::vector<pet::sim::Profiler::Section>& after,
                   LayerTimes& out, std::string* unknown) {
  for (const auto& s : after) {
    std::uint64_t calls = s.calls;
    double wall = s.wall_ms;
    for (const auto& b : before) {
      if (b.name == s.name) {
        calls -= b.calls;
        wall -= b.wall_ms;
        break;
      }
    }
    if (calls == 0 && wall == 0.0) continue;
    const auto layer = layer_of(s.name);
    if (!layer) {
      if (unknown != nullptr) *unknown = s.name;
      return false;
    }
    out.wall_ms[*layer] += wall;
    out.kind_calls[s.name] += calls;
  }
  return true;
}

// --- host-speed probe -----------------------------------------------------------

/// A fixed CPU kernel that shares no code with the simulator, timed between
/// simulation chunks to follow how fast the host runs the benchmark at that
/// moment. On a shared host the speed of one core drifts by tens of percent
/// over seconds to minutes as its neighbours load it, and the simulator slows
/// with it. The kernel has two halves: a dependent walk over an L2-resident
/// random cycle (latency-bound, like the simulator's pointer chasing) and
/// four independent xorshift chains (throughput-bound, the part a busy
/// sibling hyperthread takes away). A warm-up pass before the timed walk
/// refills the cycle into the cache, so what the simulator left in the cache
/// does not change the probe's time.
class SpeedProbe {
 public:
  SpeedProbe() : next_(ring(kRingSlots, 1)) {}

  /// Runs the kernel once and returns its host time in ms.
  template <typename Clock>
  double run_ms() {
    std::uint32_t a = static_cast<std::uint32_t>(sum_ % kRingSlots);
    for (std::size_t i = 0; i < kRingSlots; ++i) a = next_[a];
    const auto t0 = Clock::now();
    for (int i = 0; i < kSteps; ++i) a = next_[a];
    std::uint64_t x[4] = {sum_ | 1, a | 2ULL, sum_ + 3, a + 4ULL};
    for (int i = 0; i < kSteps; ++i) {
      for (std::uint64_t& v : x) {
        v ^= v << 13;
        v ^= v >> 7;
        v ^= v << 17;
      }
    }
    const auto t1 = Clock::now();
    sum_ += a + (x[0] ^ x[1] ^ x[2] ^ x[3]);
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  }
  /// Depends on every value the kernel computed, so none of it is elided.
  [[nodiscard]] std::uint64_t checksum() const { return sum_; }

  /// One random cycle through all `n` slots (Sattolo's shuffle): a walk
  /// from any slot visits every slot once before it returns.
  static std::vector<std::uint32_t> ring(std::size_t n, std::uint64_t seed) {
    std::vector<std::uint32_t> next(n);
    for (std::size_t i = 0; i < n; ++i) next[i] = static_cast<std::uint32_t>(i);
    std::uint64_t s = (seed + 1) * 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = n - 1; i > 0; --i) {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      std::swap(next[i], next[s % i]);
    }
    return next;
  }

 private:
  static constexpr std::size_t kRingSlots = 32 * 1024;  // 128 KiB
  static constexpr int kSteps = 100000;

  std::vector<std::uint32_t> next_;
  std::uint64_t sum_ = 0;
};

}  // namespace e2ebench
