// Self-test of the benchmark's helpers: order statistics with their sample
// counts, layer roll-up closure, digest stability, argument handling and the
// host-speed probe.
// Exits non-zero on the first failed check; run.py runs it after each build.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "selftest line %d: %s\n", line, what);
}

#define CHECK(expr) check((expr), #expr, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

using e2ebench::parse_args;
using Section = pet::sim::Profiler::Section;

void test_order_statistics() {
  CHECK(std::isnan(e2ebench::median({})));
  CHECK(near(e2ebench::median({3.0}), 3.0));
  CHECK(near(e2ebench::median({5.0, 1.0, 3.0}), 3.0));
  CHECK(near(e2ebench::median({4.0, 1.0, 3.0, 2.0}), 2.5));
  std::vector<double> v;
  for (int i = 1; i <= 11; ++i) v.push_back(static_cast<double>(12 - i));
  CHECK(near(e2ebench::quantile(v, 0.9), 10.0));
  CHECK(near(e2ebench::quantile(v, 0.0), 1.0));
  CHECK(near(e2ebench::quantile(v, 1.0), 11.0));
  CHECK(near(e2ebench::quantile({0.0, 10.0}, 0.25), 2.5));
  const e2ebench::Summary s = e2ebench::summarize(v);
  CHECK(s.samples == 11);
  CHECK(near(s.p50, 6.0));
  CHECK(near(s.p90, 10.0));
  CHECK(e2ebench::summarize({}).samples == 0);
}

void test_rollup() {
  const std::vector<Section> before = {{"net.tx", 10, 1.0},
                                       {"event", 4, 0.0},
                                       {"rl.pet-tick", 1, 2.0}};
  const std::vector<Section> after = {{"net.tx", 30, 4.0},
                                      {"event", 9, 0.0},
                                      {"rl.pet-tick", 3, 5.0},
                                      {"net.prop", 20, 0.5},
                                      {"telemetry.sample", 2, 0.25},
                                      {"transport.alpha", 0, 0.0}};
  e2ebench::LayerTimes lt;
  std::string unknown;
  CHECK(e2ebench::rollup(before, after, lt, &unknown));
  CHECK(near(lt.wall_ms["net"], 3.5));
  CHECK(lt.kind_calls["net.tx"] == 20);
  CHECK(lt.kind_calls["net.prop"] == 20);  // new since the first snapshot
  CHECK(near(lt.wall_ms["rl"], 3.0));
  CHECK(near(lt.wall_ms["exp"], 0.25));
  CHECK(near(lt.wall_ms["sim"], 0.0));
  CHECK(lt.kind_calls["event"] == 5);
  CHECK(lt.kind_calls["rl.pet-tick"] == 2);
  CHECK(lt.wall_ms.find("transport") == lt.wall_ms.end());  // idle kind skipped

  // A kind whose prefix maps to no layer fails instead of being dropped.
  const std::vector<Section> stray = {{"net.tx", 30, 4.0},
                                      {"cache.refill", 1, 0.1}};
  e2ebench::LayerTimes lt2;
  CHECK(!e2ebench::rollup(before, stray, lt2, &unknown));
  CHECK(unknown == "cache.refill");
  CHECK(!e2ebench::layer_of("netx.tx").has_value());
  CHECK(e2ebench::layer_of("workload.arrival") == "workload");
  CHECK(e2ebench::layer_of("fault.inject") == "net");
  for (const char* layer : e2ebench::kLayers) {
    CHECK(std::string(layer) != "core");  // core work runs inside rl ticks
  }
}

void test_digest() {
  const auto digest = [](double avg, std::int64_t flows) {
    e2ebench::Digest d;
    d.add(flows);
    d.add(avg);
    return d.value();
  };
  CHECK(digest(812.5, 570) == digest(812.5, 570));
  CHECK(digest(812.5, 570) != digest(812.5, 571));
  CHECK(digest(812.5, 570) != digest(std::nextafter(812.5, 1e9), 570));
  CHECK(digest(0.0, 1) != digest(-0.0, 1));
  // Pinned value: FNV-1a 64 of nothing is the offset basis.
  CHECK(e2ebench::Digest{}.value() == 0xcbf29ce484222325ULL);
}

void test_args() {
  std::string err;
  auto a = parse_args({"--workload", "leafspine-pet", "--seed", "42",
                       "--seconds", "10", "--trace", "1"},
                      &err);
  CHECK(a.has_value());
  if (a) {
    CHECK(a->workload == "leafspine-pet");
    CHECK(a->seed == 42);
    CHECK(near(a->seconds, 10.0));
    CHECK(a->trace);
    CHECK(a->scratch.empty());
  }
  a = parse_args({"--workload=x", "--seed=18446744073709551615", "--seconds=1",
                  "--trace=0", "--scratch", "out"},
                 &err);
  CHECK(a.has_value() && a->seed == 18446744073709551615ULL && !a->trace &&
        a->scratch == "out");
  const std::vector<std::vector<std::string>> bad = {
      {"--workload", "x", "--seconds", "10", "--trace", "0"},           // no seed
      {"--workload", "x", "--seed", "-1", "--seconds", "10", "--trace", "0"},
      {"--workload", "x", "--seed", "18446744073709551616", "--seconds", "1",
       "--trace", "0"},                                                 // overflow
      {"--workload", "x", "--seed", "1x", "--seconds", "1", "--trace", "0"},
      {"--workload", "x", "--seed", "1", "--seconds", "0", "--trace", "0"},
      {"--workload", "x", "--seed", "1", "--seconds", "1", "--trace", "2"},
      {"--workload", "x", "--seed", "1", "--seed", "2", "--seconds", "1",
       "--trace", "0"},                                                 // repeated
      {"--workload", "x", "--seed", "1", "--seconds", "1", "--trace", "0",
       "--colour", "red"},                                              // unknown
      {"--workload", "x", "--seed", "1", "--seconds", "1", "--trace"},  // no value
  };
  for (const auto& argv : bad) {
    err.clear();
    CHECK(!parse_args(argv, &err).has_value());
    CHECK(!err.empty());
  }
}

void test_speed_probe() {
  using e2ebench::SpeedProbe;
  // The probe's ring is one cycle through every slot, the same for a seed.
  const std::vector<std::uint32_t> next = SpeedProbe::ring(1000, 7);
  std::vector<bool> seen(next.size(), false);
  std::uint32_t at = 0;
  bool one_cycle = true;
  for (std::size_t i = 0; i < next.size(); ++i) {
    one_cycle = one_cycle && !seen[at];
    seen[at] = true;
    at = next[at];
  }
  CHECK(one_cycle && at == 0);
  CHECK(SpeedProbe::ring(1000, 7) == next);
  CHECK(SpeedProbe::ring(1000, 8) != next);

  // Each run does the same work: equal checksums, a positive finite time.
  SpeedProbe a;
  SpeedProbe b;
  const double ms = a.run_ms<std::chrono::steady_clock>();
  CHECK(std::isfinite(ms) && ms > 0.0);
  (void)b.run_ms<std::chrono::steady_clock>();
  CHECK(a.checksum() == b.checksum());
  CHECK(a.checksum() != 0);
}

}  // namespace

int main() {
  test_order_statistics();
  test_rollup();
  test_digest();
  test_args();
  test_speed_probe();
  if (g_failures != 0) {
    std::fprintf(stderr, "e2ebench selftest: %d check(s) failed\n", g_failures);
    return EXIT_FAILURE;
  }
  std::fprintf(stderr, "e2ebench selftest: ok\n");
  return EXIT_SUCCESS;
}
