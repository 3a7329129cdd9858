// perfbench: runs one workload in this (fresh) process for about
// --seconds seconds and prints one JSON result as its last stdout line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --scratch <dir>
//
// A run first times set-up (dataset + Simulation construction) several
// times, then repeats the workload: each repetition runs a fixed number of
// rounds on a fresh Simulation and checks the outputs. --trace 0 times
// untraced repetitions and adds one traced repetition that must reproduce
// their outputs exactly; it reports the end-to-end metrics. --trace 1
// alternates untraced and traced repetitions and reports the per-layer
// metrics. perfbench/README.md defines every metric.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "fl/metrics.h"
#include "probes.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kSetupSamples = 9;
// Two untraced cycles: each trajectory must repeat for the exact-output
// check and the per-period medians. A traced cycle already pairs each
// trajectory's untraced and traced repetitions.
constexpr std::size_t kMinUntracedCycles = 2;
constexpr std::size_t kMinTracedCycles = 1;
constexpr std::size_t kCheckedClients = 8;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string scratch = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value);
    } else if (key == "--scratch") {
      a.scratch = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return ns_between(a, b) * 1e-9;
}

/// The process's peak resident set so far, in MB (10^6 bytes).
double max_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

double timeval_s(const timeval& t) {
  return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
}

// ------------------------------------------------------- stage spans ---

/// Per-round span totals (µs) by track, from the Simulation's metrics JSONL.
using RoundStages = std::map<std::size_t, std::map<std::string, double>>;

RoundStages read_stage_totals(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read telemetry file " + path);
  RoundStages out;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t r = line.find("\"round\":");
    const std::size_t st = line.find("\"stages_us\":{");
    if (r == std::string::npos || st == std::string::npos) continue;
    auto& stages = out[std::strtoull(line.c_str() + r + 8, nullptr, 10)];
    const char* p = line.c_str() + st + 13;
    while (*p == '"') {
      const char* end = std::strchr(p + 1, '"');
      if (end == nullptr || end[1] != ':') break;
      const std::string track(p + 1, end);
      char* num_end = nullptr;
      stages[track] += std::strtod(end + 2, &num_end);
      p = num_end;
      if (*p == ',') ++p;
    }
  }
  return out;
}

// -------------------------------------------------------- repetitions ---

/// The outputs a fixed seed must reproduce bit for bit.
struct Outputs {
  std::size_t rounds_run = 0;
  double final_loss = 0.0;
  double sim_time = 0.0;
  double uplink_mb = 0.0;

  bool operator==(const Outputs& o) const {
    return rounds_run == o.rounds_run &&
           std::memcmp(&final_loss, &o.final_loss, sizeof(double)) == 0 &&
           std::memcmp(&sim_time, &o.sim_time, sizeof(double)) == 0 &&
           std::memcmp(&uplink_mb, &o.uplink_mb, sizeof(double)) == 0;
  }
};

struct Snapshot {
  NnTally nn;
  MethodTally sparsify;
  double controller_ns = 0.0;
  rusage usage{};
};

struct Rep {
  std::size_t trajectory = 0;
  bool traced = false;
  std::vector<double> period_s;  // wall time of each evaluation period in the window
  std::vector<double> round_ms;   // per-round wall time inside the timed window
  Outputs out;
  std::vector<std::string> failures;
  std::map<std::string, double> layer;  // per-layer metrics of this repetition
};

void check_outputs(const Workload& w, const Seeds& seeds, const fl::Simulation& sim,
                   const fl::SimulationResult& res, const RoundClock& clock, Rep& rep) {
  char msg[256];
  if (res.rounds_run != w.rounds || clock.stamps.size() != w.rounds) {
    std::snprintf(msg, sizeof msg, "ran %zu rounds with %zu observe() calls, expected %zu",
                  res.rounds_run, clock.stamps.size(), w.rounds);
    rep.failures.push_back(msg);
  }
  double first_loss = std::nan("");
  for (const auto& r : res.records) {
    if (!std::isnan(r.global_loss)) {
      first_loss = r.global_loss;
      break;
    }
  }
  if (!std::isfinite(res.final_loss) || !(res.final_loss < first_loss)) {
    std::snprintf(msg, sizeof msg, "final loss %.6g is not finite and below the first %.6g",
                  res.final_loss, first_loss);
    rep.failures.push_back(msg);
  }
  if (w.synchronous) {
    // Algorithm 1 keeps every client at the global weights after each round.
    const auto ref = sim.client_weights(0);
    fedsparse::util::Rng pick(seeds.check);
    for (std::size_t j = 0; j < kCheckedClients; ++j) {
      const std::size_t i = pick.uniform_u64(sim.num_clients());
      const auto wi = sim.client_weights(i);
      if (wi.size() != ref.size() ||
          std::memcmp(wi.data(), ref.data(), ref.size_bytes()) != 0) {
        std::snprintf(msg, sizeof msg, "client %zu weights differ from client 0", i);
        rep.failures.push_back(msg);
      }
    }
  }
}

/// Per-layer metrics of a traced repetition over its timed window.
void layer_metrics(const Workload& w, const fl::SimulationResult& res, const RoundClock& clock,
                   const std::array<Snapshot, 2>& snap, const RoundStages& stages, Rep& rep) {
  const double n = static_cast<double>(w.rounds - w.warmup);
  auto& m = rep.layer;
  const double wall_ms = ns_between(clock.stamps[w.warmup - 1], clock.stamps[w.rounds - 1]) / 1e6 / n;

  // The window runs from observe() of round W (inside stage_account) to
  // observe() of round R, so it holds stage_record of rounds W..R-1 and every
  // other stage of rounds W+1..R.
  static const char* kStages[] = {"begin", "schedule", "compute", "server_round",
                                  "probe", "apply",    "account", "record"};
  std::map<std::string, double> sum_us;
  for (const auto& [round, tracks] : stages) {
    for (const auto& [track, us] : tracks) {
      const bool record = track == "stage_record";
      const std::size_t lo = record ? w.warmup : w.warmup + 1;
      const std::size_t hi = record ? w.rounds - 1 : w.rounds;
      if (round >= lo && round <= hi) sum_us[track] += us;
    }
  }
  double attributed = 0.0;
  for (const char* s : kStages) {
    const double ms = sum_us["stage_" + std::string(s)] / 1e3 / n;
    m["fl.stage_" + std::string(s) + "_ms"] = ms;
    attributed += ms;
  }
  m["fl.traced_round_ms"] = wall_ms;
  m["fl.unattributed_ms"] = wall_ms - attributed;
  for (const char* p : {"select", "aggregate", "resets", "emit"}) {
    m["sparsify." + std::string(p) + "_ms"] = sum_us["pipeline_" + std::string(p)] / 1e3 / n;
  }

  const NnTally nn = snap[1].nn - snap[0].nn;
  const auto kind_ms = [&](LayerKind k) {
    const auto i = static_cast<std::size_t>(k);
    return (nn.fwd_ns[i] + nn.bwd_ns[i]) / 1e6 / n;
  };
  m["nn.fwd_ms"] = nn.total_fwd_ns() / 1e6 / n;
  m["nn.bwd_ms"] = nn.total_bwd_ns() / 1e6 / n;
  m["nn.linear_ms"] = kind_ms(LayerKind::kLinear);
  m["nn.relu_ms"] = kind_ms(LayerKind::kReLU);
  m["nn.calls_per_round"] = static_cast<double>(nn.model_forwards) / n;
  m["nn.us_per_call"] = nn.model_forwards == 0 ? 0.0
                                               : (nn.total_fwd_ns() + nn.total_bwd_ns()) / 1e3 /
                                                     static_cast<double>(nn.model_forwards);
  m["fl.client_steps_per_round"] = static_cast<double>(nn.model_backwards) / n;
  const double compute_ns = sum_us["stage_compute"] * 1e3;
  m["pool.compute_busy_share"] =
      compute_ns > 0.0 ? nn.compute_stage_ns / (static_cast<double>(kThreads + 1) * compute_ns)
                       : 0.0;

  const MethodTally& a = snap[0].sparsify;
  const MethodTally& b = snap[1].sparsify;
  const double uplink = b.uplink_entries - a.uplink_entries;
  m["sparsify.round_ms"] = (b.round_ns - a.round_ns) / 1e6 / n;
  m["sparsify.probe_ms"] = (b.probe_ns - a.probe_ns) / 1e6 / n;
  m["sparsify.uplink_entries_per_round"] = uplink / n;
  m["sparsify.downlink_entries_per_round"] = (b.downlink_entries - a.downlink_entries) / n;
  m["sparsify.ns_per_uplink_entry"] = uplink > 0.0 ? (b.round_ns - a.round_ns) / uplink : 0.0;
  m["online.us_per_round"] = (snap[1].controller_ns - snap[0].controller_ns) / 1e3 / n;

  double participants = 0.0, staleness = 0.0;
  for (std::size_t r = w.warmup; r < w.rounds; ++r) {
    participants += static_cast<double>(res.records[r].participants);
    staleness += res.records[r].mean_staleness;
  }
  m["fl.participants_per_round"] = participants / n;
  m["fl.mean_staleness"] = staleness / n;
}

/// Process counters over an untraced repetition's timed window.
void process_metrics(const Workload& w, const RoundClock& clock,
                     const std::array<Snapshot, 2>& snap, Rep& rep) {
  const double n = static_cast<double>(w.rounds - w.warmup);
  const rusage& a = snap[0].usage;
  const rusage& b = snap[1].usage;
  const double user = timeval_s(b.ru_utime) - timeval_s(a.ru_utime);
  const double sys = timeval_s(b.ru_stime) - timeval_s(a.ru_stime);
  const double wall = seconds_between(clock.stamps[w.warmup - 1], clock.stamps[w.rounds - 1]);
  rep.layer["proc.cpu_util"] = (user + sys) / wall;
  rep.layer["proc.sys_share"] = user + sys > 0.0 ? sys / (user + sys) : 0.0;
  rep.layer["proc.minflt_per_round"] = static_cast<double>(b.ru_minflt - a.ru_minflt) / n;
  rep.layer["proc.vcsw_per_round"] = static_cast<double>(b.ru_nvcsw - a.ru_nvcsw) / n;
}

Rep run_rep(const Workload& w, const Seeds& seeds, std::size_t trajectory, std::size_t dim,
            bool traced, const std::string& jsonl_path) {
  Rep rep;
  rep.trajectory = trajectory;
  rep.traced = traced;

  fl::SimulationConfig cfg = w.sim(w, seeds);
  check_config(w, cfg);
  if (traced) {
    cfg.telemetry.enabled = true;
    cfg.telemetry.metrics_jsonl_path = jsonl_path;
  }

  RoundClock clock;
  clock.warmup = w.warmup;
  clock.rounds = w.rounds;
  clock.stamps.reserve(w.rounds + 1);
  std::array<Snapshot, 2> snap{};
  TimedMethod* timed_method = nullptr;
  clock.on_window_edge = [&](int edge) {
    Snapshot& s = snap[static_cast<std::size_t>(edge)];
    getrusage(RUSAGE_SELF, &s.usage);
    s.controller_ns = clock.controller_ns;
    if (traced) s.nn = sum_tallies();
    if (timed_method != nullptr) s.sparsify = timed_method->tally();
  };

  std::unique_ptr<sparsify::Method> method = w.method(dim, seeds);
  if (traced) {
    auto timed = std::make_unique<TimedMethod>(std::move(method));
    timed_method = timed.get();
    method = std::move(timed);
  }
  auto controller = std::make_unique<StampedController>(w.controller(dim, seeds), &clock, traced);
  nn::ModelFactory factory = traced ? w.timed_model() : w.library_model();

  fl::Simulation sim(cfg, data::make_synthetic(w.data(seeds)), std::move(factory),
                     std::move(method), std::move(controller));
  const fl::SimulationResult res = sim.run();
  g_in_compute_stage.store(false, std::memory_order_relaxed);

  rep.out.rounds_run = res.rounds_run;
  rep.out.final_loss = res.final_loss;
  rep.out.sim_time = res.total_time;
  for (double v : res.client_uplink_values) rep.out.uplink_mb += fl::values_to_bytes(v) / 1e6;
  check_outputs(w, seeds, sim, res, clock, rep);

  if (rep.failures.empty()) {
    const auto& st = clock.stamps;
    for (std::size_t b = w.warmup; b < w.rounds; b += cfg.eval_every) {
      rep.period_s.push_back(seconds_between(st[b - 1], st[b + cfg.eval_every - 1]));
    }
    for (std::size_t i = w.warmup; i < w.rounds; ++i) {
      rep.round_ms.push_back(ns_between(st[i - 1], st[i]) / 1e6);
    }
    if (traced) {
      layer_metrics(w, res, clock, snap, read_stage_totals(jsonl_path), rep);
    } else {
      process_metrics(w, clock, snap, rep);
    }
  }
  if (traced) std::remove(jsonl_path.c_str());
  return rep;
}

/// Set-up as a user pays it: generate the dataset, construct the Simulation.
/// Timed kSetupSamples times up front, before any round has run.
void time_setups(const Workload& w, const std::vector<Seeds>& trajectories, std::size_t dim,
                 std::vector<double>& gen_s, std::vector<double>& ctor_s) {
  for (std::size_t i = 0; i < kSetupSamples; ++i) {
    const Seeds& seeds = trajectories[i % trajectories.size()];
    const fl::SimulationConfig cfg = w.sim(w, seeds);
    check_config(w, cfg);
    auto method = w.method(dim, seeds);
    auto controller = w.controller(dim, seeds);
    const auto t0 = Clock::now();
    data::FederatedDataset dataset = data::make_synthetic(w.data(seeds));
    const auto t1 = Clock::now();
    const fl::Simulation sim(cfg, std::move(dataset), w.library_model(), std::move(method),
                             std::move(controller));
    const auto t2 = Clock::now();
    gen_s.push_back(seconds_between(t0, t1));
    ctor_s.push_back(seconds_between(t1, t2));
  }
}

/// Timed rounds ÷ their wall time. Every cycle repeats a trajectory's exact
/// work, so each evaluation period's wall time is taken as its median over
/// the cycles, which drops a period that a burst of machine noise slowed.
double rounds_per_s(const std::vector<Rep>& reps, bool traced, std::size_t period) {
  std::map<std::pair<std::size_t, std::size_t>, std::vector<double>> times;
  for (const Rep& r : reps) {
    if (r.traced != traced) continue;
    for (std::size_t b = 0; b < r.period_s.size(); ++b) {
      times[{r.trajectory, b}].push_back(r.period_s[b]);
    }
  }
  double total_s = 0.0;
  for (const auto& [key, v] : times) total_s += median(v);
  return total_s > 0.0 ? static_cast<double>(period * times.size()) / total_s : 0.0;
}

// ------------------------------------------------------------- output ---

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name, v, metrics[i].unit);
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  const auto& all = workloads();
  const auto it = std::find_if(all.begin(), all.end(),
                               [&](const Workload& w) { return w.name == args.workload; });
  if (it == all.end()) throw std::invalid_argument("unknown workload '" + args.workload + "'");
  const Workload& w = *it;
  std::vector<Seeds> seeds;
  for (std::size_t t = 0; t < w.trajectories; ++t) seeds.push_back(Seeds::derive(args.seed, t));
  fedsparse::util::Rng dim_rng(seeds[0].sim);
  const std::size_t dim = w.library_model()(dim_rng)->dim();

  std::vector<std::string> failures;
  bool mirror_ok = true;
  try {
    verify_timed_model(w);
  } catch (const std::exception& e) {
    failures.push_back(e.what());
    mirror_ok = false;
  }

  std::vector<double> gen_s, ctor_s;
  time_setups(w, seeds, dim, gen_s, ctor_s);
  std::vector<double> setup_s(gen_s.size());
  for (std::size_t i = 0; i < setup_s.size(); ++i) setup_s[i] = gen_s[i] + ctor_s[i];

  const std::string jsonl =
      args.scratch + "/telemetry-" + std::to_string(::getpid()) + ".jsonl";
  const auto start = Clock::now();
  std::vector<Rep> reps;
  std::size_t cycles = 0;
  double peak_rss_mb = 0.0;
  // One cycle runs every trajectory once (untraced, then traced when
  // tracing). Cycles repeat while another still fits in the time budget.
  const std::size_t min_cycles = args.trace == 0 ? kMinUntracedCycles : kMinTracedCycles;
  double last_cycle_s = 0.0;
  while (cycles < min_cycles ||
         seconds_between(start, Clock::now()) + last_cycle_s <= args.seconds) {
    const auto cycle_start = Clock::now();
    for (std::size_t t = 0; t < w.trajectories; ++t) {
      reps.push_back(run_rep(w, seeds[t], t, dim, false, jsonl));
      if (args.trace == 1 && mirror_ok) reps.push_back(run_rep(w, seeds[t], t, dim, true, jsonl));
    }
    ++cycles;
    last_cycle_s = seconds_between(cycle_start, Clock::now());
    // Peak RSS over a fixed amount of work: the set-ups plus one cycle.
    if (cycles == 1) peak_rss_mb = max_rss_mb();
  }
  // The untraced run proves the traced one reproduces its outputs.
  if (args.trace == 0 && mirror_ok) reps.push_back(run_rep(w, seeds[0], 0, dim, true, jsonl));

  // Per trajectory, every repetition must reproduce the first one's outputs.
  std::vector<const Outputs*> outputs(w.trajectories, nullptr);
  std::size_t attempted = 0;
  for (const Rep& r : reps) {
    attempted += r.out.rounds_run;
    const std::string kind = r.traced ? "traced" : "untraced";
    for (const std::string& f : r.failures) failures.push_back(kind + " repetition: " + f);
    if (outputs[r.trajectory] == nullptr) outputs[r.trajectory] = &r.out;
    if (!(r.out == *outputs[r.trajectory])) {
      failures.push_back(kind + " repetition of trajectory " + std::to_string(r.trajectory) +
                         " did not reproduce the first repetition's outputs");
    }
  }
  attempted = std::max<std::size_t>(attempted, 1);
  for (const std::string& f : failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  const bool correct = failures.empty();

  std::vector<double> round_ms;
  std::map<std::string, std::vector<double>> layer;
  for (const Rep& r : reps) {
    for (const auto& [k, v] : r.layer) layer[k].push_back(v);
    if (!r.traced) round_ms.insert(round_ms.end(), r.round_ms.begin(), r.round_ms.end());
  }
  const std::size_t period = w.sim(w, seeds[0]).eval_every;
  const double rps_untraced = rounds_per_s(reps, false, period);
  const std::size_t traced = static_cast<std::size_t>(
      std::count_if(reps.begin(), reps.end(), [](const Rep& r) { return r.traced; }));
  std::fprintf(stderr,
               "%s seed %llu: %zu trajectories x %zu cycles; %zu untraced + %zu traced "
               "repetitions of %zu rounds (%zu timed after %zu warm-up), %.1f s\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed), w.trajectories,
               cycles, reps.size() - traced, traced, w.rounds, w.rounds - w.warmup, w.warmup,
               seconds_between(start, Clock::now()));

  // Sweep totals over the trajectories: mean final loss, summed simulated
  // time and uplink.
  Outputs out;
  for (const Outputs* o : outputs) {
    out.final_loss += o->final_loss / static_cast<double>(w.trajectories);
    out.sim_time += o->sim_time;
    out.uplink_mb += o->uplink_mb;
  }
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"setup_s", "s", median(setup_s)},
        {"rounds_per_s", "1/s", rps_untraced},
        {"peak_rss_mb", "MB", peak_rss_mb},
        {"final_loss", "nats", out.final_loss},
        {"sim_time", "tau", out.sim_time},
        {"uplink_mb", "MB", out.uplink_mb},
    };
  } else {
    static const std::vector<std::pair<const char*, const char*>> kLayerUnits = {
        {"fl.stage_begin_ms", "ms"},
        {"fl.stage_schedule_ms", "ms"},
        {"fl.stage_compute_ms", "ms"},
        {"fl.stage_server_round_ms", "ms"},
        {"fl.stage_probe_ms", "ms"},
        {"fl.stage_apply_ms", "ms"},
        {"fl.stage_account_ms", "ms"},
        {"fl.stage_record_ms", "ms"},
        {"fl.unattributed_ms", "ms"},
        {"fl.traced_round_ms", "ms"},
        {"fl.client_steps_per_round", "count"},
        {"fl.participants_per_round", "count"},
        {"fl.mean_staleness", "rounds"},
        {"nn.fwd_ms", "ms"},
        {"nn.bwd_ms", "ms"},
        {"nn.linear_ms", "ms"},
        {"nn.relu_ms", "ms"},
        {"nn.calls_per_round", "count"},
        {"nn.us_per_call", "us"},
        {"sparsify.round_ms", "ms"},
        {"sparsify.probe_ms", "ms"},
        {"sparsify.select_ms", "ms"},
        {"sparsify.aggregate_ms", "ms"},
        {"sparsify.resets_ms", "ms"},
        {"sparsify.emit_ms", "ms"},
        {"sparsify.uplink_entries_per_round", "count"},
        {"sparsify.downlink_entries_per_round", "count"},
        {"sparsify.ns_per_uplink_entry", "ns"},
        {"online.us_per_round", "us"},
        {"pool.compute_busy_share", "ratio"},
        {"proc.cpu_util", "cores"},
        {"proc.sys_share", "ratio"},
        {"proc.minflt_per_round", "count"},
        {"proc.vcsw_per_round", "count"},
    };
    const double rps_traced = rounds_per_s(reps, true, period);
    metrics = {
        {"data.gen_s", "s", median(gen_s)},
        {"fl.ctor_s", "s", median(ctor_s)},
        {"fl.round_ms_p50", "ms", percentile(round_ms, 0.5)},
        {"fl.round_ms_p90", "ms", percentile(round_ms, 0.9)},
        {"fl.round_samples", "count", static_cast<double>(round_ms.size())},
    };
    // Means across repetitions keep the breakdown additive: the stage means
    // plus the unattributed mean equal the mean round wall time.
    for (const auto& [name, unit] : kLayerUnits) metrics.push_back({name, unit, mean(layer[name])});
    metrics.push_back({"trace.overhead_pct", "%",
                       rps_traced > 0.0 ? (rps_untraced / rps_traced - 1.0) * 100.0 : 0.0});
  }
  for (const Metric& m : metrics) std::fprintf(stderr, "  %-36s %14.6g %s\n", m.name, m.value, m.unit);
  std::fflush(stderr);
  print_result(correct, attempted, correct ? 0 : attempted, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
