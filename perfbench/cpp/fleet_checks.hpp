// Range checks and model outputs read from a fleet::Fleet after an epoch,
// shared by the two fleet workloads.
#pragma once

#include <cmath>
#include <limits>
#include <string>

#include "fleet/fleet.hpp"
#include "harness.hpp"
#include "rf/units.hpp"

namespace perfbench {

/// A (UE, epoch) sample counts as served when attached with SINR at or above
/// this (the campaign's own service threshold).
inline constexpr double kServiceSinrDb = -3.0;

/// Checks the fleet's state after an epoch: every UE attached, every SINR
/// finite, every cell utilization in [0, 1]. When `fidelity` is set, adds
/// the epoch's (UE, epoch) samples and the worst UE's serving-link SNR
/// (signal over the UE noise floor, from the fleet's own link budget and
/// channel; interference excluded, like the single-UAV SNR metric).
/// Returns the first failure, or an empty string.
inline std::string check_fleet(const skyran::fleet::Fleet& fleet,
                               const skyran::fleet::FleetConfig& config,
                               const skyran::rf::ChannelModel& channel, Fidelity* fidelity) {
  const double eirp_dbm =
      config.cell_tx_power_dbm + config.cell_antenna_gain_dbi + config.ue_antenna_gain_dbi;
  const double noise_dbm =
      skyran::rf::noise_floor_dbm(config.bandwidth_hz, config.ue_noise_figure_db);
  std::uint64_t served = 0;
  double min_snr = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < fleet.ue_count(); ++i) {
    const std::int32_t cell = fleet.serving_cell(i);
    if (cell < 0) return "UE " + std::to_string(i) + " is not attached";
    const double sinr = fleet.sinr_db(i);
    if (!std::isfinite(sinr)) return "UE " + std::to_string(i) + " has a non-finite SINR";
    if (sinr >= kServiceSinrDb) ++served;
    if (fidelity != nullptr) {
      const double pl = channel.path_loss_db(fleet.cell_position(static_cast<std::size_t>(cell)),
                                             fleet.ue_position(i));
      min_snr = std::min(min_snr, eirp_dbm - pl - noise_dbm);
    }
  }
  for (std::size_t c = 0; c < fleet.cell_count(); ++c) {
    const double u = fleet.prb_utilization(c);
    if (!(u >= 0.0 && u <= 1.0)) return "cell " + std::to_string(c) + " utilization outside [0, 1]";
  }
  if (fidelity != nullptr) {
    fidelity->samples += fleet.ue_count();
    fidelity->served_samples += served;
    fidelity->min_snr_db.push_back(min_snr);
  }
  return {};
}

}  // namespace perfbench
