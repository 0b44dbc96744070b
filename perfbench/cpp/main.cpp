// perfbench — the repository benchmark program.
//
//   perfbench --workload <campaign_day|fleet_metro|uav_phy> --seed <n>
//             --seconds <s> --trace <0|1> [--size full|smoke]
//
// Builds the workload's system, takes one untimed warm-up step, then
// interleaves serial passes (1 lane) and
// W-lane passes (W = max(2, nproc - 1)) until --seconds have elapsed and at
// least kMinCycles of each ran. Every pass repeats the same steps from the
// same captured state, and the oracle requires every pass to reproduce the
// first pass's step digests. With --trace 1 each cycle adds a W-lane pass
// with obs instrumentation on, and the per-layer metrics come from those.
// Afterwards the system is built several more times; setup_s is the median.
//
// Prints one host-context JSON line, then the result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "core/thread_pool.hpp"
#include "harness.hpp"
#include "kernels/kernels.hpp"
#include "obs/obs.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

constexpr int kMinCycles = 2;
constexpr int kMaxCycles = 200;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  Size size = Size::kFull;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <campaign_day|fleet_metro|uav_phy> "
               "--seed <n> --seconds <s> --trace <0|1> [--size full|smoke]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && o.seconds > 0.0;
    } else if (key == "--trace") {
      have_trace = val == "0" || val == "1";
      o.trace = val == "1";
    } else if (key == "--size") {
      if (val != "full" && val != "smoke") usage("--size must be full or smoke");
      o.size = val == "smoke" ? Size::kSmoke : Size::kFull;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || o.workload.empty())
    usage("--workload, --seed, --seconds (> 0) and --trace (0|1) are required");
  return o;
}

int cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Runs one pass: reset (untimed), the workload's steps, its end-of-pass
/// checks. Returns the pass's UE-epochs per second of timed host time.
/// `fidelity`, when set, collects the model outputs (the first pass only);
/// `counts` receives the change of the workload's cumulative counts.
double run_pass(Workload& w, int lanes, bool traced, Oracle& oracle, Fidelity* fidelity,
                std::map<std::string, double>& counts) {
  w.reset();
  const std::map<std::string, double> before = w.pass_counts();
  double seconds = 0.0, ue_epochs = 0.0;
  {
    const skyran::core::ScopedWorkers scope(lanes);
    skyran::obs::set_enabled(traced);
    for (int s = 0; s < w.steps_per_pass(); ++s) {
      const StepResult r = w.step(fidelity);
      oracle.check_step(static_cast<std::size_t>(s), r);
      seconds += r.seconds;
      ue_epochs += w.ue_epochs_per_step();
    }
    oracle.check(w.end_pass());
    skyran::obs::set_enabled(false);
  }
  for (const auto& [name, value] : w.pass_counts()) counts[name] = value - before.at(name);
  return ue_epochs / seconds;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "campaign_day") return make_campaign_day(o.seed, o.size);
  if (o.workload == "fleet_metro") return make_fleet_metro(o.seed, o.size);
  if (o.workload == "uav_phy") return make_uav_phy(o.seed, o.size);
  usage(("unknown workload " + o.workload).c_str());
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i > 0 ? ", " : "") + json_number(v[i]);
  return out + "]";
}

int run(const Options& opt) {
  const int nproc = cpus_available();
  const int lanes = std::max(2, nproc - 1);
  std::unique_ptr<Workload> w = make_workload(opt);

  w->build();

  // One untimed warm-up step on the W-lane path (spawns the pool's threads,
  // fills lazy caches); its end state is where every pass starts.
  int resolved = 0;
  {
    const skyran::core::ScopedWorkers scope(lanes);
    resolved = skyran::core::configured_workers();
    const StepResult warm = w->step(nullptr);
    if (!warm.failure.empty()) {
      std::fprintf(stderr, "perfbench: warm-up step failed: %s\n", warm.failure.c_str());
      return 1;
    }
  }
  if (resolved < 2) {
    // A "parallel" figure measured on one lane would be a serial number
    // posing as parallel: refuse to report it.
    std::fprintf(stderr, "perfbench: W-lane path resolved to %d lane; unavailable\n", resolved);
    return 3;
  }
  w->capture_start();

  Oracle oracle;
  Fidelity fidelity;
  std::map<std::string, double> counts;
  std::vector<double> serial, wlane, traced;
  const auto t_measure = Clock::now();
  int cycles = 0;
  while (cycles < kMaxCycles) {
    serial.push_back(run_pass(*w, 1, false, oracle, cycles == 0 ? &fidelity : nullptr, counts));
    wlane.push_back(run_pass(*w, lanes, false, oracle, nullptr, counts));
    if (opt.trace) {
      if (cycles == 0) {
        skyran::obs::MetricsRegistry::instance().reset_values();
        skyran::obs::TraceJournal::instance().clear();
      }
      traced.push_back(run_pass(*w, lanes, true, oracle, nullptr, counts));
    }
    ++cycles;
    if (cycles >= kMinCycles && seconds_since(t_measure) >= opt.seconds) break;
  }
  const double measured_s = seconds_since(t_measure);

  // Set-up time: construct the system again several times, after the
  // passes so the host has settled (the first constructions of a fresh
  // process run slower for a while); report the median.
  const int setup_reps = opt.size == Size::kFull ? 31 : 2;
  std::vector<double> setup_s;
  for (int r = 0; r < setup_reps; ++r) {
    const auto t0 = Clock::now();
    w->build();
    setup_s.push_back(seconds_since(t0));
  }

  Metrics metrics;
  if (!opt.trace) {
    metrics["setup_s"] = {median(setup_s), "s"};
    metrics["ue_epochs_per_s"] = {median(wlane), "1/s"};
    metrics["serial_ue_epochs_per_s"] = {median(serial), "1/s"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  } else {
    TraceRun tr;
    tr.events = skyran::obs::TraceJournal::instance().events();
    tr.metrics = skyran::obs::MetricsRegistry::instance().snapshot();
    tr.steps = cycles * w->steps_per_pass();
    tr.fleet_epochs = tr.steps * w->fleet_epochs_per_step();
    tr.uav_epochs = tr.steps * w->uav_epochs_per_step();
    tr.serial_throughput = median(serial);
    tr.wlane_throughput = median(wlane);
    tr.traced_throughput = median(traced);
    tr.pass_counts = counts;
    tr.ckpt_bytes = w->checkpoint_bytes();
    tr.availability = fidelity.samples > 0 ? static_cast<double>(fidelity.served_samples) /
                                                 static_cast<double>(fidelity.samples)
                                           : 0.0;
    tr.loc_err_m_p50 = median(fidelity.loc_err_m);
    tr.min_ue_snr_db = median(fidelity.min_snr_db);
    metrics = per_layer_metrics(tr);
    if (skyran::obs::TraceJournal::instance().dropped() > 0) {
      oracle.check("trace journal dropped spans; per-layer times are incomplete");
    }
  }

  bool finite = true;
  for (const auto& [name, m] : metrics) finite = finite && std::isfinite(m.value);
  if (!oracle.first_failure.empty())
    std::fprintf(stderr, "perfbench: oracle failure: %s\n", oracle.first_failure.c_str());

  // Host context: non-identity metadata, and every sample behind a median.
  std::string host = "{\"host\": {\"workload\": \"" + opt.workload + "\"";
  host += ", \"seed\": " + std::to_string(opt.seed);
  host += std::string(", \"size\": \"") + (opt.size == Size::kFull ? "full" : "smoke") + "\"";
  host += ", \"nproc\": " + std::to_string(nproc) + ", \"lanes\": " + std::to_string(lanes);
  host += ", \"lanes_resolved\": " + std::to_string(resolved);
  host += std::string(", \"simd\": \"") +
          skyran::kernels::level_name(skyran::kernels::active_level()) + "\"";
  host += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"compiler\": \"" __VERSION__ "\"";
  host += ", \"steps_per_pass\": " + std::to_string(w->steps_per_pass());
  host += ", \"cycles\": " + std::to_string(cycles);
  host += ", \"measured_s\": " + json_number(measured_s);
  host += ", \"setup_s_samples\": " + json_array(setup_s);
  host += ", \"serial_pass_ue_epochs_per_s\": " + json_array(serial);
  host += ", \"wlane_pass_ue_epochs_per_s\": " + json_array(wlane);
  host += ", \"traced_pass_ue_epochs_per_s\": " + json_array(traced) + "}}";
  std::printf("%s\n", host.c_str());

  std::string line = "{\"correct\": ";
  line += oracle.failed == 0 && finite ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(oracle.attempted);
  line += ", \"failed\": " + std::to_string(oracle.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" + m.unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options opt = perfbench::parse(argc, argv);
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
