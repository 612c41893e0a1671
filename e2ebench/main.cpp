// pet_e2ebench: end-to-end benchmark of the PET simulator.
//
//   pet_e2ebench --workload NAME --seed N --seconds S --trace 0|1
//                [--scratch DIR]
//
// Runs one workload (one single-threaded simulation at a time) repeatedly
// for S host seconds with the workload seed N, checks the simulated outputs
// and prints, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones, measured with the profiler off (except where the
// workload itself turns the observability path on); with --trace 1 they are
// the per-layer ones, from untraced repeats for counts and from traced
// repeats (profiler attached, per-chunk section diffs) for the layer shares.
// End-to-end times are scaled to a reference host speed, measured by a probe
// kernel timed between chunks, because a shared host's speed drifts.
// The benchmark drives the simulator only through its public API.

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/controller.hpp"
#include "core/pet_agent.hpp"
#include "exp/experiment.hpp"
#include "exp/experiment_builder.hpp"
#include "exp/json.hpp"
#include "exp/pretrain.hpp"
#include "exp/run_artifact.hpp"
#include "exp/telemetry.hpp"
#include "exp/trace_export.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "net/port.hpp"
#include "net/switch.hpp"
#include "net/topology.hpp"
#include "net/topology_spec.hpp"
#include "sim/profiler.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "transport/dcqcn.hpp"
#include "workload/traffic_gen.hpp"

namespace {

using namespace pet;
using e2ebench::Digest;
using e2ebench::LayerTimes;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Committed offline-pretrained PET model: the pretrain seed is fixed and
/// independent of the workload seed, so every run installs the same model.
constexpr std::uint64_t kPretrainSeed = 1;
constexpr const char* kPretrainCacheDir = "pretrain_cache";
/// Setup-only builds before each repeat, so setup_s is a median of many,
/// spread over the whole run: a build takes microseconds to milliseconds,
/// and builds made all at once would see the host in only one state.
constexpr int kSetupsPerRepeat = 20;
/// Host-speed probe time (ms) that defines the reference host: end-to-end
/// times are scaled by kReferenceProbeMs / (probe median of their repeat),
/// so they read as on a host whose probe takes this long. It is the probe's
/// typical time on a 4-vCPU 2.1 GHz Xeon VM; it only fixes the unit.
constexpr double kReferenceProbeMs = 0.8;

struct Workload {
  const char* name;
  exp::Scheme scheme;
  bool observed;
  std::int64_t warmup_ms;
  std::int64_t window_ms;
};

// WebSearch at load 0.6, flow sizes capped at 8 MB, 8:1 incast every 1 ms,
// tuned DCQCN — the settings of pet_sim_cli.
// All on the 2 spines x 4 leaves x 8 hosts leaf-spine with 10G links.
constexpr Workload kWorkloads[] = {
    {"leafspine-secn1", exp::Scheme::kSecn1, false, 10, 160},
    {"leafspine-pet", exp::Scheme::kPet, false, 10, 80},
    {"leafspine-pet-observed", exp::Scheme::kPet, true, 10, 80},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

bool is_pet(const Workload& w) { return w.scheme == exp::Scheme::kPet; }

exp::ExperimentBuilder builder_for(const Workload& w, std::uint64_t seed,
                                   bool profiling) {
  const net::TopologySpec topo{net::LeafSpineConfig{}};
  exp::ExperimentBuilder b;
  b.scheme(w.scheme)
      .workload(workload::WorkloadKind::kWebSearch)
      .load(0.6)
      .topology(topo)
      .flow_size_cap(8e6)
      .phases(sim::milliseconds(w.warmup_ms), sim::milliseconds(w.window_ms))
      .incast(true)
      .seed(seed)
      .profiling(profiling)
      .tuned_dcqcn();
  if (is_pet(w)) b.expects_pretrained(true).pretrain_lr_boost(1.0);
  return b;
}

struct Failure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// --- spans ----------------------------------------------------------------------

/// Benchmark-side span around one call into the simulator. Spans of one
/// repeat share `run`; `parent` names the enclosing span ("" for the root).
struct Span {
  int run = 0;
  std::string name;
  std::string parent;
  double start_ms = 0.0;  // since process start
  double dur_ms = 0.0;
  exp::JsonValue args = exp::JsonValue::object();
};

class SpanLog {
 public:
  SpanLog(Clock::time_point origin, bool enabled)
      : origin_(origin), enabled_(enabled) {}
  void add(int run, std::string name, std::string parent,
           Clock::time_point t0, Clock::time_point t1,
           exp::JsonValue args = exp::JsonValue::object()) {
    if (!enabled_) return;
    spans_.push_back(Span{run, std::move(name), std::move(parent),
                          ms_between(origin_, t0), ms_between(t0, t1),
                          std::move(args)});
  }
  /// chrome://tracing document: one "X" event per span, one thread per run.
  [[nodiscard]] bool write(const std::string& path) const {
    exp::JsonValue events = exp::JsonValue::array();
    for (const Span& s : spans_) {
      exp::JsonValue ev = exp::JsonValue::object();
      ev.set("name", s.name);
      ev.set("ph", "X");
      ev.set("ts", s.start_ms * 1e3);
      ev.set("dur", s.dur_ms * 1e3);
      ev.set("pid", 1);
      ev.set("tid", s.run);
      exp::JsonValue args = s.args;
      args.set("parent", s.parent);
      ev.set("args", std::move(args));
      events.push_back(std::move(ev));
    }
    exp::JsonValue doc = exp::JsonValue::object();
    doc.set("traceEvents", std::move(events));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << doc.dump(0) << '\n';
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point origin_;
  bool enabled_;
  std::vector<Span> spans_;
};

// --- counters -------------------------------------------------------------------

struct Counters {
  std::uint64_t events = 0;
  std::int64_t packet_hops = 0;
  std::int64_t marked_hops = 0;
  std::int64_t host_packets = 0;
  std::int64_t pfc_pauses = 0;
  std::int64_t drops = 0;
  std::int64_t flows_started = 0;
  std::int64_t flows_completed = 0;
  std::int64_t cnps_sent = 0;
  std::int64_t flows_generated = 0;
  std::int64_t incast_epochs = 0;
  std::int64_t decisions = 0;
  std::int64_t updates = 0;
  std::int64_t ecn_installs = 0;
};

void add_ports(const net::Device& dev, Counters& c) {
  for (std::int32_t p = 0; p < dev.num_ports(); ++p) {
    c.packet_hops += dev.port(p).tx_packets();
    c.marked_hops += dev.port(p).tx_marked_packets();
  }
}

Counters snapshot(exp::Experiment& ex) {
  Counters c;
  c.events = ex.scheduler().executed();
  net::Network& net = ex.network();
  for (net::HostId h = 0; h < net.num_hosts(); ++h) {
    add_ports(net.host(h), c);
    c.host_packets += net.host(h).emitted_packets();
  }
  for (const net::SwitchDevice* sw : net.switches()) {
    add_ports(*sw, c);
    c.pfc_pauses += sw->pfc_pauses_sent();
    c.ecn_installs += sw->ecn_installs();
  }
  c.drops = net.total_switch_drops();
  c.flows_started = ex.transport().flows_started();
  c.flows_completed = ex.transport().flows_completed();
  c.cnps_sent = ex.transport().cnps_sent();
  c.flows_generated = ex.background().flows_generated();
  if (ex.incast() != nullptr) c.incast_epochs = ex.incast()->epochs();
  if (core::PetController* pet = ex.pet()) {
    for (std::size_t i = 0; i < pet->num_agents(); ++i) {
      c.decisions += pet->agent(i).steps();
      c.updates += pet->agent(i).updates();
    }
  }
  return c;
}

Counters operator-(const Counters& a, const Counters& b) {
  Counters d;
  d.events = a.events - b.events;
  d.packet_hops = a.packet_hops - b.packet_hops;
  d.marked_hops = a.marked_hops - b.marked_hops;
  d.host_packets = a.host_packets - b.host_packets;
  d.pfc_pauses = a.pfc_pauses - b.pfc_pauses;
  d.drops = a.drops - b.drops;
  d.flows_started = a.flows_started - b.flows_started;
  d.flows_completed = a.flows_completed - b.flows_completed;
  d.cnps_sent = a.cnps_sent - b.cnps_sent;
  d.flows_generated = a.flows_generated - b.flows_generated;
  d.incast_epochs = a.incast_epochs - b.incast_epochs;
  d.decisions = a.decisions - b.decisions;
  d.updates = a.updates - b.updates;
  d.ecn_installs = a.ecn_installs - b.ecn_installs;
  return d;
}

// --- one repeat -----------------------------------------------------------------

struct Setup {
  std::unique_ptr<exp::Experiment> ex;
  double build_ms = 0.0;
  double weights_ms = 0.0;
  Clock::time_point t0, t_built, t_end;
};

/// Builds the experiment and, for PET, loads and installs the committed
/// pretrained model. A cache miss or a rejected model is a failure: the
/// benchmark never trains inline.
Setup set_up(const Workload& w, std::uint64_t seed, bool profiling) {
  Setup s;
  const exp::ExperimentBuilder b = builder_for(w, seed, profiling);
  s.t0 = Clock::now();
  s.ex = b.build();
  s.t_built = Clock::now();
  if (is_pet(w)) {
    exp::ScenarioConfig key_cfg = b.config();
    key_cfg.seed = kPretrainSeed;
    const std::string key =
        exp::pretrain_cache_key(key_cfg, exp::PretrainOptions{});
    const std::uint64_t expected = s.ex->learned_weights().size();
    const auto weights =
        exp::WeightCache(kPretrainCacheDir).load(key, expected);
    if (!weights) {
      throw Failure("pretrained model " + key + " missing or unusable in " +
                    kPretrainCacheDir);
    }
    if (!s.ex->install_learned_weights(*weights)) {
      throw Failure("pretrained model " + key + " rejected on install");
    }
  }
  s.t_end = Clock::now();
  s.build_ms = ms_between(s.t0, s.t_built);
  s.weights_ms = ms_between(s.t_built, s.t_end);
  return s;
}

struct Repeat {
  double setup_s = 0.0;
  double build_ms = 0.0;
  double weights_ms = 0.0;
  double run_s = 0.0;
  double window_ms = 0.0;  // host ms over the measured window
  double collect_ms = 0.0;
  double artifact_ms = 0.0;
  double trace_ms = 0.0;
  Counters window;
  Counters total;
  std::vector<double> chunk_ms;
  std::size_t pending_max = 0;
  std::size_t telemetry_samples = 0;
  std::int64_t flows_measured = 0;
  double avg_fct_us = 0.0;
  std::uint64_t digest = 0;
  // Traced repeats only: layer wall over the window's chunks.
  LayerTimes layers;
  double traced_chunk_ms = 0.0;
  // Host-speed probe after every chunk; its own time is in no wall above.
  std::vector<double> probe_ms;
  double probe_wall_ms = 0.0;
  /// kReferenceProbeMs over the median probe: multiplies a host time of this
  /// repeat into reference-host time.
  double speed = 1.0;
};

/// Digest of the simulated results. Observer events (telemetry samples) are
/// left out of the event count so observed and unobserved runs compare.
std::uint64_t digest_of(const exp::Metrics& m, const Counters& total,
                        std::uint64_t observer_events) {
  Digest d;
  d.add(m.flows_measured);
  d.add(m.overall.avg_us);
  d.add(m.overall.p99_us);
  d.add(total.events - observer_events);
  d.add(total.packet_hops);
  d.add(total.decisions);
  d.add(total.updates);
  d.add(total.ecn_installs);
  return d.value();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Failure("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Re-parses the observed run's artifact and trace and checks they explain
/// the run: schema, profiler sections, the measured metrics, and at least
/// one telemetry sample per switch.
void check_observed_outputs(const std::string& artifact_path,
                            const std::string& trace_path,
                            const exp::Metrics& m,
                            const exp::TelemetryRecorder& tel,
                            const std::vector<net::SwitchDevice*>& switches) {
  std::string error;
  const auto doc = exp::JsonValue::parse(read_file(artifact_path), &error);
  if (!doc || !doc->is_object()) throw Failure("artifact: " + error);
  const exp::JsonValue* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != exp::RunArtifact::kSchemaVersion) {
    throw Failure("artifact: wrong or missing schema");
  }
  const exp::JsonValue* prof = doc->find("profiler");
  const exp::JsonValue* sections =
      prof != nullptr ? prof->find("sections") : nullptr;
  if (sections == nullptr || !sections->is_array()) {
    throw Failure("artifact: no profiler sections");
  }
  bool has_tx = false;
  for (const exp::JsonValue& row : sections->items()) {
    const exp::JsonValue* name = row.find("name");
    const exp::JsonValue* calls = row.find("calls");
    if (name != nullptr && name->is_string() && name->as_string() == "net.tx" &&
        calls != nullptr && calls->is_number() && calls->as_number() > 0) {
      has_tx = true;
    }
  }
  if (!has_tx) throw Failure("artifact: profiler section net.tx missing");
  const exp::JsonValue* metrics = doc->find("metrics");
  const auto metric = [metrics](const char* key) {
    const exp::JsonValue* v = metrics != nullptr ? metrics->find(key) : nullptr;
    if (v == nullptr || !v->is_number()) {
      throw Failure(std::string("artifact: metric ") + key + " missing");
    }
    return v->as_number();
  };
  if (metric("overall.flows") != static_cast<double>(m.overall.count) ||
      metric("overall.avg_fct_us") != m.overall.avg_us ||
      metric("overall.p99_fct_us") != m.overall.p99_us) {
    throw Failure("artifact: metrics differ from the measured ones");
  }
  for (const net::SwitchDevice* sw : switches) {
    bool sampled = false;
    for (const exp::TelemetrySample& s : tel.samples()) {
      if (s.switch_id == sw->id()) {
        sampled = true;
        break;
      }
    }
    if (!sampled) throw Failure("telemetry: no sample for " + sw->name());
  }
  const auto trace = exp::JsonValue::parse(read_file(trace_path), &error);
  const exp::JsonValue* events =
      trace ? trace->find("traceEvents") : nullptr;
  if (events == nullptr || !events->is_array() || events->size() == 0) {
    throw Failure("trace: no traceEvents");
  }
}

struct RunContext {
  std::uint64_t seed;
  std::string scratch;
  SpanLog& spans;
  e2ebench::SpeedProbe& probe;
};

/// One full simulation: set up, warm up, measure the window in 1 ms chunks,
/// collect and (observed workload) export. `traced` attaches the profiler
/// and rolls the per-chunk section diffs up into layers.
Repeat run_once(const RunContext& ctx, const Workload& w, bool traced,
                int run_id) {
  Repeat r;
  const bool profiling = traced || w.observed;
  Setup s = set_up(w, ctx.seed, profiling);
  exp::Experiment& ex = *s.ex;
  r.build_ms = s.build_ms;
  r.weights_ms = s.weights_ms;
  r.setup_s = (s.build_ms + s.weights_ms) / 1e3;
  ctx.spans.add(run_id, "build", "run", s.t0, s.t_built);
  if (is_pet(w)) ctx.spans.add(run_id, "weights", "run", s.t_built, s.t_end);

  std::unique_ptr<exp::TelemetryRecorder> tel;
  if (w.observed) {
    tel = std::make_unique<exp::TelemetryRecorder>(ex.scheduler(),
                                                   ex.network().switches());
    tel->start();
  }

  const sim::Time chunk = sim::milliseconds(1);
  const sim::Time warmup_end = sim::milliseconds(w.warmup_ms);
  const sim::Time end = warmup_end + sim::milliseconds(w.window_ms);
  const sim::Profiler& prof = ex.profiler();
  std::vector<sim::Profiler::Section> before;
  const auto probe = [&ctx, &r] {
    const Clock::time_point p0 = Clock::now();
    r.probe_ms.push_back(ctx.probe.run_ms<Clock>());
    r.probe_wall_ms += ms_between(p0, Clock::now());
  };

  const Clock::time_point t_run = Clock::now();
  for (sim::Time t = chunk; t <= warmup_end; t += chunk) {
    const Clock::time_point c0 = Clock::now();
    ex.run_until(t);
    ctx.spans.add(run_id, "warmup_chunk", "run", c0, Clock::now());
    probe();
  }
  ex.mark_measurement_start();
  const Counters c0 = snapshot(ex);
  if (traced) before = prof.sections();
  const double probe_before_window_ms = r.probe_wall_ms;
  const Clock::time_point t_window = Clock::now();
  for (sim::Time t = warmup_end + chunk; t <= end; t += chunk) {
    const Clock::time_point a = Clock::now();
    ex.run_until(t);
    const Clock::time_point b = Clock::now();
    const double wall = ms_between(a, b);
    r.chunk_ms.push_back(wall);
    r.pending_max = std::max(r.pending_max, ex.scheduler().pending());
    exp::JsonValue args = exp::JsonValue::object();
    if (traced) {
      const std::vector<sim::Profiler::Section> after = prof.sections();
      LayerTimes chunk_layers;
      std::string unknown;
      if (!e2ebench::rollup(before, after, chunk_layers, &unknown)) {
        throw Failure("profiler kind '" + unknown + "' maps to no layer");
      }
      double children = 0.0;
      for (const auto& [layer, ms] : chunk_layers.wall_ms) {
        if (layer == "sim") continue;  // untimed pool: inside self time
        children += ms;
        args.set(layer, ms);
        r.layers.wall_ms[layer] += ms;
      }
      for (const auto& [kind, n] : chunk_layers.kind_calls) {
        r.layers.kind_calls[kind] += n;
      }
      const double self = wall - children;
      // Children are timed inside the chunk; a self time below zero beyond
      // clock granularity means the roll-up double counts.
      if (self < -1e-3) throw Failure("layer roll-up exceeds the chunk wall");
      args.set("self", self);
      r.layers.wall_ms["sim"] += self;
      r.traced_chunk_ms += wall;
      before = after;
    }
    ctx.spans.add(run_id, "chunk", "run", a, b, std::move(args));
    probe();
  }
  const Clock::time_point t_window_end = Clock::now();
  r.window_ms = ms_between(t_window, t_window_end) -
                (r.probe_wall_ms - probe_before_window_ms);

  const exp::Metrics m =
      ex.collect(sim::milliseconds(w.warmup_ms), ex.scheduler().now());
  const Clock::time_point t_collected = Clock::now();
  r.collect_ms = ms_between(t_window_end, t_collected);
  ctx.spans.add(run_id, "collect", "run", t_window_end, t_collected);
  r.total = snapshot(ex);
  r.window = r.total - c0;
  if (tel != nullptr) tel->stop();

  if (w.observed) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(ctx.scratch.empty() ? "." : ctx.scratch) /
                         ("observed-" + std::to_string(::getpid()) + "-" +
                          std::to_string(run_id));
    fs::create_directories(dir);
    const std::string artifact_path = (dir / "run.json").string();
    const std::string trace_path = (dir / "trace.json").string();
    const Clock::time_point a0 = Clock::now();
    exp::RunArtifact art(std::string("e2ebench_") + w.name);
    art.set_mode("e2ebench");
    art.set_seed(ctx.seed);
    art.set_scenario(ex.config());
    art.add_metrics("", m);
    art.add_switch_summaries(ex.network().switches());
    art.add_tier_summaries(ex.topology(), ex.network());
    art.add_event_counts(ex.event_log());
    art.set_profiler(ex.profiler());
    const bool art_ok = art.write(artifact_path);
    const Clock::time_point a1 = Clock::now();
    const bool trace_ok = exp::write_chrome_trace(
        trace_path, &ex.event_log(), &ex.profiler(), tel.get());
    const Clock::time_point a2 = Clock::now();
    r.artifact_ms = ms_between(a0, a1);
    r.trace_ms = ms_between(a1, a2);
    ctx.spans.add(run_id, "artifact_write", "run", a0, a1);
    ctx.spans.add(run_id, "trace_write", "run", a1, a2);
    try {
      if (!art_ok || !trace_ok) throw Failure("artifact or trace not written");
      check_observed_outputs(artifact_path, trace_path, m, *tel,
                             ex.network().switches());
    } catch (...) {
      fs::remove_all(dir);
      throw;
    }
    fs::remove_all(dir);
    r.telemetry_samples = tel->samples().size();
  }
  const Clock::time_point t_done = Clock::now();
  r.run_s = (ms_between(t_run, t_done) - r.probe_wall_ms) / 1e3;
  r.speed = kReferenceProbeMs / e2ebench::median(r.probe_ms);
  ctx.spans.add(run_id, "run", "", s.t0, t_done);

  r.flows_measured = m.flows_measured;
  r.avg_fct_us = m.overall.avg_us;
  if (m.flows_measured <= 0) throw Failure("no flows measured");
  if (!std::isfinite(m.overall.avg_us) || !std::isfinite(m.overall.p99_us)) {
    throw Failure("non-finite FCT");
  }
  if (r.window.packet_hops <= 0) throw Failure("no packets forwarded");
  if (is_pet(w) && r.window.decisions <= 0) throw Failure("no PET decisions");
  const std::uint64_t observer_events =
      tel != nullptr && tel->num_switches() > 0
          ? tel->samples().size() / tel->num_switches()
          : 0;
  r.digest = digest_of(m, r.total, observer_events);
  return r;
}

// --- reporting ------------------------------------------------------------------

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

template <typename F>
double median_of(const std::vector<Repeat>& rs, F f) {
  std::vector<double> v;
  v.reserve(rs.size());
  for (const Repeat& r : rs) v.push_back(f(r));
  return e2ebench::median(v);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double per_s(double count, double ms) { return ratio(count, ms / 1e3); }

double count(std::int64_t v) { return static_cast<double>(v); }

/// Host ms of a repeat's window at reference host speed.
double ref_window_ms(const Repeat& r) { return r.window_ms * r.speed; }

/// Medians over the untraced repeats, in reference-host time; setup_s over
/// every setup made.
std::vector<Metric> end_to_end_metrics(const Workload& w,
                                       const std::vector<Repeat>& plain,
                                       const std::vector<double>& setup_s) {
  const double window_sim_ms = static_cast<double>(w.window_ms);
  return {
      {"wall_ms_per_sim_ms",
       median_of(plain,
                 [&](const Repeat& r) { return ref_window_ms(r) / window_sim_ms; }),
       "ms"},
      {"run_s", median_of(plain, [](const Repeat& r) { return r.run_s * r.speed; }),
       "s"},
      {"setup_s", e2ebench::median(setup_s), "s"},
      {"packet_hops_per_s",
       median_of(plain,
                 [](const Repeat& r) {
                   return per_s(count(r.window.packet_hops), ref_window_ms(r));
                 }),
       "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

/// Per-layer counts (equal in every repeat, the digest checks that) and
/// host-time medians as measured, from the untraced repeats.
std::vector<Metric> layer_metrics(const Workload& w,
                                  const std::vector<Repeat>& plain) {
  std::vector<double> chunks;
  for (const Repeat& r : plain) {
    chunks.insert(chunks.end(), r.chunk_ms.begin(), r.chunk_ms.end());
  }
  const e2ebench::Summary chunk = e2ebench::summarize(chunks);
  const Repeat& first = plain.front();
  const Counters& c = first.window;
  const auto median_ms = [&plain](double Repeat::*field) {
    return median_of(plain, [field](const Repeat& r) { return r.*field; });
  };
  return {
      {"sim.events", static_cast<double>(c.events), "count"},
      {"sim.events_per_s",
       median_of(plain,
                 [](const Repeat& r) {
                   return per_s(static_cast<double>(r.window.events), r.window_ms);
                 }),
       "1/s"},
      {"sim.pending_max", static_cast<double>(first.pending_max), "count"},
      {"sim.chunk_ms.p50", chunk.p50, "ms"},
      {"sim.chunk_ms.p90", chunk.p90, "ms"},
      {"sim.chunk_samples", static_cast<double>(chunk.samples), "count"},
      {"net.packet_hops", count(c.packet_hops), "count"},
      {"net.host_packets", count(c.host_packets), "count"},
      {"net.marked_share", ratio(count(c.marked_hops), count(c.packet_hops)), "share"},
      {"net.pfc_pauses", count(c.pfc_pauses), "count"},
      {"net.drops", count(c.drops), "count"},
      {"transport.flows_started", count(c.flows_started), "count"},
      {"transport.flows_completed", count(c.flows_completed), "count"},
      {"transport.completed_share",
       ratio(count(first.total.flows_completed), count(first.total.flows_started)),
       "share"},
      {"transport.cnps_sent", count(c.cnps_sent), "count"},
      {"workload.flows_generated", count(c.flows_generated), "count"},
      {"workload.incast_epochs", count(c.incast_epochs), "count"},
      {"core.decisions", count(c.decisions), "count"},
      {"core.decisions_per_s",
       median_of(plain,
                 [](const Repeat& r) {
                   return per_s(count(r.window.decisions), r.window_ms);
                 }),
       "1/s"},
      {"core.ecn_installs", count(c.ecn_installs), "count"},
      {"core.installs_per_decision",
       ratio(count(c.ecn_installs), count(c.decisions)), "ratio"},
      {"rl.updates", count(c.updates), "count"},
      {"exp.build_ms", median_ms(&Repeat::build_ms), "ms"},
      {"exp.weights_load_ms", median_ms(&Repeat::weights_ms), "ms"},
      {"exp.collect_ms", median_ms(&Repeat::collect_ms), "ms"},
      {"exp.artifact_write_ms", median_ms(&Repeat::artifact_ms), "ms"},
      {"exp.trace_write_ms", median_ms(&Repeat::trace_ms), "ms"},
      {"exp.telemetry_samples", static_cast<double>(first.telemetry_samples),
       "count"},
      {"bench.probe_ms",
       median_of(plain,
                 [](const Repeat& r) { return e2ebench::median(r.probe_ms); }),
       "ms"},
      {"bench.raw_wall_ms_per_sim_ms",
       median_of(plain,
                 [&w](const Repeat& r) {
                   return r.window_ms / static_cast<double>(w.window_ms);
                 }),
       "ms"},
  };
}

/// Layer shares of the chunk wall, pooled over the traced repeats so they
/// add up to exactly the pooled wall; fails when they do not.
std::vector<Metric> traced_metrics(const std::vector<Repeat>& plain,
                                   const std::vector<Repeat>& traced) {
  LayerTimes pooled;
  double wall_ms = 0.0;
  double hops = 0.0;
  for (const Repeat& r : traced) {
    for (const auto& [layer, ms] : r.layers.wall_ms) pooled.wall_ms[layer] += ms;
    for (const auto& [kind, n] : r.layers.kind_calls) pooled.kind_calls[kind] += n;
    wall_ms += r.traced_chunk_ms;
    hops += count(r.window.packet_hops);
  }
  const auto ms_of = [&pooled](const char* layer) {
    const auto it = pooled.wall_ms.find(layer);
    return it == pooled.wall_ms.end() ? 0.0 : it->second;
  };
  double share_sum = 0.0;
  for (const char* layer : e2ebench::kLayers) share_sum += ratio(ms_of(layer), wall_ms);
  std::printf("layer shares of the traced chunk wall add up to %.12f\n",
              share_sum);
  if (std::fabs(share_sum - 1.0) > 1e-9) {
    throw Failure("layer shares do not add up to the chunk wall");
  }
  const auto ticks = static_cast<double>(pooled.kind_calls["rl.pet-tick"]);
  return {
      {"sim.self_share", ratio(ms_of("sim"), wall_ms), "share"},
      {"net.wall_share", ratio(ms_of("net"), wall_ms), "share"},
      {"net.ns_per_hop", ratio(ms_of("net") * 1e6, hops), "ns"},
      {"transport.wall_share", ratio(ms_of("transport"), wall_ms), "share"},
      {"workload.wall_share", ratio(ms_of("workload"), wall_ms), "share"},
      {"rl.wall_share", ratio(ms_of("rl"), wall_ms), "share"},
      {"rl.ms_per_tick", ratio(ms_of("rl"), ticks), "ms"},
      {"exp.telemetry_wall_share", ratio(ms_of("exp"), wall_ms), "share"},
      {"trace.overhead_ratio",
       ratio(median_of(traced, ref_window_ms), median_of(plain, ref_window_ms)),
       "ratio"},
  };
}

void usage() {
  std::fprintf(stderr,
               "usage: pet_e2ebench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scratch DIR]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const auto args = e2ebench::parse_args(
      std::vector<std::string>(argv + 1, argv + argc), &error);
  if (!args) {
    std::fprintf(stderr, "pet_e2ebench: %s\n", error.c_str());
    usage();
    return 2;
  }
  const Workload* w = find_workload(args->workload);
  if (w == nullptr) {
    std::fprintf(stderr, "pet_e2ebench: unknown workload %s\n",
                 args->workload.c_str());
    usage();
    return 2;
  }

  const Clock::time_point origin = Clock::now();
  SpanLog spans(origin, args->trace);
  e2ebench::SpeedProbe probe;
  const RunContext ctx{args->seed, args->scratch, spans, probe};
  const double budget_ms = args->seconds * 1e3;
  int attempted = 0;
  int failed = 0;
  const auto fail = [&](const char* what, const std::string& why) {
    ++failed;
    std::printf("FAILED %s: %s\n", what, why.c_str());
  };

  std::printf("e2ebench %s seed %" PRIu64 " for %.0f s%s\n", w->name,
              args->seed, args->seconds, args->trace ? " (traced)" : "");

  // setup_s is the median over the setup-only builds and every repeat's
  // build, each at reference host speed: the probe follows every
  // setup-only build and scales it.
  std::vector<double> setup_s;
  const auto setups_only = [&] {
    for (int i = 0; i < kSetupsPerRepeat && failed == 0; ++i) {
      try {
        const Setup s = set_up(*w, args->seed, w->observed);
        const double speed = kReferenceProbeMs / probe.run_ms<Clock>();
        setup_s.push_back((s.build_ms + s.weights_ms) / 1e3 * speed);
      } catch (const std::exception& e) {
        ++attempted;
        fail("setup", e.what());
      }
    }
  };

  // The observed workload must simulate exactly what leafspine-pet does:
  // the profiler and telemetry are pure observers.
  std::uint64_t reference = 0;
  bool have_reference = false;
  int run_id = 0;
  if (w->observed && failed == 0) {
    const Workload& plain = *find_workload("leafspine-pet");
    ++attempted;
    try {
      const Repeat r = run_once(ctx, plain, false, run_id++);
      reference = r.digest;
      have_reference = true;
      std::printf("reference leafspine-pet digest %s\n", hex(reference).c_str());
    } catch (const std::exception& e) {
      fail("reference run", e.what());
    }
  }

  std::vector<Repeat> plain;
  std::vector<Repeat> traced;
  double last_repeat_ms = 0.0;
  while (failed == 0) {
    const double elapsed = ms_between(origin, Clock::now());
    const bool have_min = !plain.empty() && (!args->trace || !traced.empty());
    if (have_min && elapsed + last_repeat_ms > budget_ms) break;
    const Clock::time_point t0 = Clock::now();
    setups_only();
    for (const bool trace_this : {false, true}) {
      if (failed != 0) break;
      if (trace_this && !args->trace) continue;
      ++attempted;
      try {
        Repeat r = run_once(ctx, *w, trace_this, run_id++);
        if (have_reference && r.digest != reference) {
          throw Failure("digest " + hex(r.digest) +
                        " differs from leafspine-pet " + hex(reference));
        }
        if (!plain.empty() && r.digest != plain.front().digest) {
          throw Failure("digest " + hex(r.digest) + " differs from repeat 0 " +
                        hex(plain.front().digest));
        }
        std::printf(
            "%s repeat: setup %.2f ms, window %.1f ms host (%.1f ms at "
            "reference speed, probe %.4f ms) / %" PRId64 " ms sim, %" PRId64
            " flows, avg FCT %.1f us, digest %s\n",
            trace_this ? "traced" : "plain", r.setup_s * 1e3, r.window_ms,
            ref_window_ms(r), e2ebench::median(r.probe_ms), w->window_ms,
            r.flows_measured, r.avg_fct_us, hex(r.digest).c_str());
        setup_s.push_back(r.setup_s * r.speed);
        (trace_this ? traced : plain).push_back(std::move(r));
      } catch (const std::exception& e) {
        fail(trace_this ? "traced repeat" : "repeat", e.what());
        break;
      }
    }
    last_repeat_ms = ms_between(t0, Clock::now());
  }

  bool correct = failed == 0 && !plain.empty() &&
                 (!args->trace || !traced.empty());
  std::vector<Metric> metrics;
  if (correct) {
    std::printf("digest %s: all %zu repeats%s match\n",
                hex(plain.front().digest).c_str(), plain.size() + traced.size(),
                have_reference ? " and leafspine-pet" : "");
    const std::vector<Metric> e2e = end_to_end_metrics(*w, plain, setup_s);
    std::vector<Metric> layer = layer_metrics(*w, plain);
    if (args->trace) {
      try {
        const std::vector<Metric> shares = traced_metrics(plain, traced);
        layer.insert(layer.end(), shares.begin(), shares.end());
      } catch (const std::exception& e) {
        fail("layer roll-up", e.what());
        correct = false;
      }
    }
    for (const std::vector<Metric>* list : {&e2e, &std::as_const(layer)}) {
      for (const Metric& m : *list) {
        std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      }
    }
    std::printf("repeats: %zu plain, %zu traced\n", plain.size(), traced.size());
    if (correct) metrics = args->trace ? layer : e2e;
    if (args->trace) {
      const std::string path =
          (std::filesystem::path(args->scratch.empty() ? "." : args->scratch) /
           (std::string("spans-") + w->name + "-seed" +
            std::to_string(args->seed) + ".json"))
              .string();
      if (spans.write(path)) std::printf("spans: %s\n", path.c_str());
    }
  }

  exp::JsonValue out_metrics = exp::JsonValue::object();
  for (const Metric& m : metrics) {
    exp::JsonValue v = exp::JsonValue::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    out_metrics.set(m.name, std::move(v));
  }
  exp::JsonValue result = exp::JsonValue::object();
  result.set("correct", correct);
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("metrics", std::move(out_metrics));
  std::printf("%s\n", result.dump(0).c_str());
  return correct ? 0 : 1;
}
