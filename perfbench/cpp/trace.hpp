// Traced-run collector: derives the per-layer metrics from the trace journal
// (the benchmark's own spans around public calls plus the program's obs
// spans) and the obs counters, both read through obs's public API.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Everything the traced passes of one run recorded.
struct TraceRun {
  std::vector<skyran::obs::TraceEvent> events;
  skyran::obs::MetricsSnapshot metrics;
  int steps = 0;         ///< workload steps run while traced
  int fleet_epochs = 0;  ///< fleet::Fleet epochs inside those steps
  int uav_epochs = 0;    ///< core::SkyRan epochs inside those steps
  double serial_throughput = 0.0;    ///< UE-epochs/s, untraced serial passes
  double wlane_throughput = 0.0;     ///< UE-epochs/s, untraced W-lane passes
  double traced_throughput = 0.0;    ///< UE-epochs/s, traced W-lane passes
  std::map<std::string, double> pass_counts;  ///< exact per-pass counts
  double ckpt_bytes = 0.0;
  double availability = 0.0;
  double loc_err_m_p50 = 0.0;  ///< 0 when the workload localizes nothing
  double min_ue_snr_db = 0.0;
};

Metrics per_layer_metrics(const TraceRun& run);

}  // namespace perfbench
