#include "trace.hpp"

#include <algorithm>
#include <set>

#include "harness.hpp"

namespace perfbench {
namespace {

using skyran::obs::TraceEvent;

const std::set<std::string> kFleetPhases = {"fleet.measure", "fleet.decide", "fleet.apply",
                                            "fleet.sinr", "fleet.serve"};
// epoch.measure_and_place encloses epoch.placement, which encloses
// epoch.serve (all three are function-scope spans in SkyRan::run_epoch), so
// a phase's time is its span minus the phase spans nested in it.
const std::set<std::string> kEpochPhases = {"epoch.localize", "epoch.altitude",
                                            "epoch.measure_and_place", "epoch.placement",
                                            "epoch.serve"};

/// Per-name span totals. Self time is a span minus its direct children on
/// the same thread; phase time is a span minus its directly nested phase
/// spans. Spans a pool worker records inside a parallel loop have no parent
/// on that worker thread and count as roots.
class SpanIndex {
 public:
  explicit SpanIndex(std::vector<TraceEvent> events) {
    std::sort(events.begin(), events.end(), [](const TraceEvent& a, const TraceEvent& b) {
      if (a.thread_id != b.thread_id) return a.thread_id < b.thread_id;
      if (a.start_us != b.start_us) return a.start_us < b.start_us;
      return a.depth < b.depth;
    });
    std::vector<double> child(events.size(), 0.0), phase_child(events.size(), 0.0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const TraceEvent& e = events[i];
      if (i > 0 && events[i - 1].thread_id != e.thread_id) stack.clear();
      while (!stack.empty() && events[stack.back()].depth >= e.depth) stack.pop_back();
      if (!stack.empty() && events[stack.back()].depth == e.depth - 1) {
        child[stack.back()] += e.duration_us;
        if (kFleetPhases.count(e.name) != 0 || kEpochPhases.count(e.name) != 0)
          phase_child[stack.back()] += e.duration_us;
      }
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < events.size(); ++i) {
      Totals& t = by_name_[events[i].name];
      t.durations_ms.push_back(events[i].duration_us * 1e-3);
      t.total_ms += events[i].duration_us * 1e-3;
      t.self_ms += (events[i].duration_us - child[i]) * 1e-3;
      t.phase_ms += (events[i].duration_us - phase_child[i]) * 1e-3;
    }
  }

  double median_ms(const std::string& name) const { return median(find(name).durations_ms); }
  double total_ms(const std::string& name) const { return find(name).total_ms; }
  double self_ms(const std::string& name) const { return find(name).self_ms; }
  double phase_ms(const std::string& name) const { return find(name).phase_ms; }

 private:
  struct Totals {
    std::vector<double> durations_ms;
    double total_ms = 0.0, self_ms = 0.0, phase_ms = 0.0;
  };
  const Totals& find(const std::string& name) const {
    static const Totals kEmpty;
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? kEmpty : it->second;
  }
  std::map<std::string, Totals> by_name_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Metrics per_layer_metrics(const TraceRun& run) {
  const SpanIndex spans(run.events);
  std::map<std::string, double> counters, hist_sums;
  for (const auto& c : run.metrics.counters) counters[c.name] = static_cast<double>(c.value);
  for (const auto& h : run.metrics.histograms) hist_sums[h.name] = h.sum;
  const auto counter = [&](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  const double steps = run.steps;
  const double fleet_epochs = run.fleet_epochs;
  const double uav_epochs = run.uav_epochs;

  Metrics m;
  const auto put = [&](const std::string& name, double value, const char* unit) {
    m[name] = Metric{value, unit};
  };

  // Model outputs of the reference pass: exact per seed, so a pure speed-up
  // leaves them bit-identical (they swing too far between seeds to hold an
  // end-to-end bound; see README.md).
  put("availability", run.availability, "ratio");
  put("loc_err_m_p50", run.loc_err_m_p50, "m");
  put("min_ue_snr_db", run.min_ue_snr_db, "dB");

  // Bases of the per-step and per-epoch figures below.
  put("trace.steps", steps, "count");
  put("fleet.epochs_traced", fleet_epochs, "count");
  put("core.epochs_traced", uav_epochs, "count");

  // scenario: the benchmark's own spans around Campaign calls.
  put("scenario.hour_ms_p50", spans.median_ms("bench.campaign.run_hour"), "ms");
  put("scenario.ckpt_save_ms_p50", spans.median_ms("bench.campaign.save"), "ms");
  put("scenario.restore_ms", spans.median_ms("bench.campaign.restore"), "ms");
  put("scenario.ckpt_bytes", run.ckpt_bytes, "bytes");

  // fleet: phase time per fleet epoch.
  put("fleet.epoch_ms_p50", spans.median_ms("fleet.epoch"), "ms");
  double fleet_phase_sum = 0.0;
  for (const char* phase : {"measure", "sinr", "decide", "serve", "apply"}) {
    const double t = spans.phase_ms(std::string("fleet.") + phase);
    fleet_phase_sum += t;
    put(std::string("fleet.") + phase + "_ms", ratio(t, fleet_epochs), "ms");
  }
  put("fleet.phase_coverage", ratio(fleet_phase_sum, spans.total_ms("fleet.epoch")), "ratio");
  put("fleet.handovers", run.pass_counts.count("handovers") ? run.pass_counts.at("handovers") : 0.0,
      "count");
  put("fleet.pingpongs", run.pass_counts.count("pingpongs") ? run.pass_counts.at("pingpongs") : 0.0,
      "count");

  // lte: traffic plane, HARQ, ToF ranging.
  const double ue_ttis = counter("traffic.sched.ue_ttis");
  const double serve_ms = spans.phase_ms("fleet.serve") + spans.phase_ms("epoch.serve");
  put("lte.traffic.ue_ttis", ratio(ue_ttis, steps), "count");
  put("lte.traffic.ns_per_ue_tti", ratio(serve_ms * 1e6, ue_ttis), "ns");
  put("lte.harq.retx", ratio(counter("traffic.harq.retx"), steps), "count");
  put("lte.harq.drops", ratio(counter("traffic.harq.drops"), steps), "count");
  const double correlations = counter("lte.tof.correlations");
  put("lte.tof.correlations", ratio(correlations, steps), "count");
  put("lte.tof.us_per_correlation",
      ratio(spans.self_ms("lte.tof.estimate_batch") * 1e3, correlations), "us");

  // localization: self time per SkyRan epoch.
  put("loc.collect_ms", ratio(spans.self_ms("loc.collect_gps_tof"), uav_epochs), "ms");
  put("loc.mlat_ms", ratio(spans.self_ms("loc.mlat.joint"), uav_epochs), "ms");
  put("loc.tuples", ratio(counter("loc.tuples.collected"), steps), "count");
  put("loc.gated_ratio", ratio(counter("loc.tof.gated_low_quality"), correlations), "ratio");

  // rem: self time per SkyRan epoch; ratios with their bases.
  put("rem.estimate_all_ms", ratio(spans.self_ms("rem.bank.estimate_all"), uav_epochs), "ms");
  put("rem.plan_ms", ratio(spans.self_ms("rem.plan_trajectory"), uav_epochs), "ms");
  put("rem.placement_ms", ratio(spans.self_ms("epoch.placement"), uav_epochs), "ms");
  put("rem.kmeans_iterations",
      ratio(hist_sums.count("rem.kmeans.iterations") ? hist_sums.at("rem.kmeans.iterations") : 0.0,
            steps),
      "count");
  const double reest = counter("rem.bank.cells_reestimated");
  const double cells = reest + counter("rem.bank.cells_cached");
  put("rem.cells", ratio(cells, steps), "count");
  put("rem.reestimated_ratio", ratio(reest, cells), "ratio");
  const double hits = counter("epoch.rem_cache.hit");
  const double lookups = hits + counter("epoch.rem_cache.miss");
  put("rem.lookups", ratio(lookups, steps), "count");
  put("rem.reuse_ratio", ratio(hits, lookups), "ratio");

  // core: SkyRan epoch phases per epoch, thread-pool activity per step.
  double epoch_phase_sum = 0.0;
  const std::pair<const char*, const char*> phases[] = {{"localize", "epoch.localize"},
                                                        {"altitude", "epoch.altitude"},
                                                        {"measure", "epoch.measure_and_place"},
                                                        {"placement", "epoch.placement"},
                                                        {"serve", "epoch.serve"}};
  for (const auto& [label, span] : phases) {
    const double t = spans.phase_ms(span);
    epoch_phase_sum += t;
    put(std::string("core.epoch.") + label + "_ms", ratio(t, uav_epochs), "ms");
  }
  put("core.epoch.phase_coverage", ratio(epoch_phase_sum, spans.total_ms("epoch.run")), "ratio");
  put("core.pool.runs_parallel_per_step", ratio(counter("core.pool.runs_parallel"), steps), "count");
  put("core.pool.runs_inline_per_step", ratio(counter("core.pool.runs_inline"), steps), "count");
  put("core.pool.chunks_per_step", ratio(counter("core.pool.chunks"), steps), "count");
  put("core.pool.serial_ue_epochs_per_s", run.serial_throughput, "1/s");
  put("core.pool.speedup", ratio(run.wlane_throughput, run.serial_throughput), "ratio");

  // kernels: operation counts per step (exact).
  for (const char* k : {"mul_conj", "peak_scan", "kmeans_assign", "pathloss"})
    put(std::string("kernels.") + k + ".elems_per_step",
        ratio(counter(std::string("kernel.") + k + ".elems"), steps), "count");

  // obs: cost of tracing, traced vs untraced W-lane passes of this run.
  put("obs.untraced_ue_epochs_per_s", run.wlane_throughput, "1/s");
  put("obs.overhead_frac", ratio(run.wlane_throughput, run.traced_throughput) - 1.0, "ratio");
  return m;
}

}  // namespace perfbench
