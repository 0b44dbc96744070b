// uav_phy: the paper's single-UAV loop. core::SkyRan::run_epoch on the
// campus terrain (300x300 m) with 7 UEs, an 800 m measurement budget and
// the full SRS/ToF/multilateration localization. Before each epoch a third
// of the UEs are re-deployed, so both REM reuse and fresh localization run.
// A step is one epoch; a pass restores the SkyRan snapshot taken after the
// warm-up epoch (which also restores the world's UE positions).
//
// The campus is a fixed map (the paper's testbed is one place); the seed
// draws the UE deployments and seeds SkyRan.
#include <cmath>
#include <limits>
#include <memory>

#include "core/skyran.hpp"
#include "core/snapshot.hpp"
#include "harness.hpp"
#include "mobility/deployment.hpp"

namespace perfbench {
namespace {

namespace core = skyran::core;
namespace sim = skyran::sim;

constexpr double kServiceSnrDb = -3.0;  // same threshold as the fleet workloads
constexpr std::uint64_t kCampusSeed = 1;
constexpr double kCoverageGridM = 5.0;
constexpr double kHandsetHeightM = 1.5;

class UavPhy final : public Workload {
 public:
  UavPhy(std::uint64_t seed, Size size)
      : seed_(seed), n_ues_(size == Size::kFull ? 7 : 4), steps_(size == Size::kFull ? 12 : 1) {
    world_config_.terrain_kind = skyran::terrain::TerrainKind::kCampus;
    world_config_.seed = kCampusSeed;
    world_config_.cell_size_m = 1.0;
    config_.measurement_budget_m = size == Size::kFull ? 800.0 : 200.0;
    config_.rem_cell_m = 4.0;
    config_.localization_mode = core::LocalizationMode::kPhy;
    config_.threads = 0;  // lanes come from the harness's per-pass scope
  }

  void build() override {
    skyran_.reset();
    world_.reset();
    world_ = std::make_unique<sim::World>(world_config_);
    world_->ue_positions() = skyran::mobility::deploy_mixed_visibility(
        world_->terrain(), static_cast<int>(n_ues_), seed_);
    skyran_ = std::make_unique<core::SkyRan>(*world_, config_, seed_);
  }

  void capture_start() override {
    start_ = std::make_unique<core::Snapshot>(skyran_->snapshot());
    // Availability probes: walkable ground on a fixed grid, handset height
    // (seven UEs are too few samples for a steady served fraction).
    const skyran::terrain::Terrain& t = world_->terrain();
    const skyran::geo::Rect inner = t.area().inflated(-10.0);
    for (double y = inner.min.y; y <= inner.max.y; y += kCoverageGridM)
      for (double x = inner.min.x; x <= inner.max.x; x += kCoverageGridM)
        if (t.clutter_at({x, y}) != skyran::terrain::Clutter::kBuilding)
          ground_.push_back({x, y, t.ground_height({x, y}) + kHandsetHeightM});
  }

  void reset() override { skyran_->restore(*start_); }

  StepResult step(Fidelity* fidelity) override {
    redeploy(skyran_->epochs_run() + 1);
    StepResult r;
    const auto t0 = Clock::now();
    const core::EpochReport rep = skyran_->run_epoch();
    r.seconds = seconds_since(t0);

    Digest d;
    d.add(rep.epoch);
    for (const auto& p : rep.estimated_ue_positions) d.add(p.x).add(p.y);
    for (bool reused : rep.reused_rem) d.add(reused);
    d.add(rep.localization_flight_m).add(rep.altitude_flight_m).add(rep.measurement_flight_m);
    d.add(rep.total_flight_m).add(rep.flight_time_s).add(rep.altitude_m);
    d.add(rep.position.x).add(rep.position.y).add(rep.predicted_objective_snr_db);
    d.add(rep.served_mean_throughput_bps).add(rep.planned_k).add(rep.info_to_cost);
    d.add(rep.measurement_rounds).add(rep.degraded);
    const auto& t = rep.traffic;
    d.add(t.ttis).add(t.scheduled_ue_ttis).add(t.offered_bits).add(t.served_bits);
    d.add(t.dropped_bits).add(t.fairness_jain).add(t.p50_delay_ms).add(t.p99_delay_ms);
    d.add(t.harq_first_tx).add(t.harq_retx).add(t.harq_drops);
    r.digest = d.value();

    const std::vector<skyran::geo::Vec3>& ues = world_->ue_positions();
    if (rep.estimated_ue_positions.size() != ues.size()) {
      r.failure = "epoch report does not estimate every UE";
      return r;
    }
    if (!world_->area().contains(rep.position)) r.failure = "placement outside the area";
    if (r.failure.empty() && !(t.served_bits <= t.offered_bits))
      r.failure = "service phase served more bits than were offered";
    const skyran::geo::Vec3 uav{rep.position, rep.altitude_m};
    double min_snr = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < ues.size(); ++i) {
      const double snr = world_->snr_db(uav, ues[i]);
      const double err = rep.estimated_ue_positions[i].dist(ues[i].xy());
      if (r.failure.empty() && !(std::isfinite(snr) && std::isfinite(err)))
        r.failure = "UE " + std::to_string(i) + " has a non-finite SNR or position error";
      min_snr = std::min(min_snr, snr);
      if (fidelity != nullptr) fidelity->loc_err_m.push_back(err);
    }
    if (fidelity != nullptr) {
      fidelity->min_snr_db.push_back(min_snr);
      for (const skyran::geo::Vec3& g : ground_)
        if (world_->snr_db(uav, g) >= kServiceSnrDb) ++fidelity->served_samples;
      fidelity->samples += ground_.size();
    }
    return r;
  }

  int steps_per_pass() const override { return steps_; }
  double ue_epochs_per_step() const override { return static_cast<double>(n_ues_); }
  int uav_epochs_per_step() const override { return 1; }

 private:
  /// Before epoch `epoch` (> 1), UEs with index % 3 == epoch % 3 move to a
  /// fresh mixed-visibility spot drawn from (seed, epoch).
  void redeploy(int epoch) {
    if (epoch <= 1) return;
    const auto fresh = skyran::mobility::deploy_mixed_visibility(
        world_->terrain(), static_cast<int>(n_ues_),
        seed_ ^ (static_cast<std::uint64_t>(epoch) * 0x9e3779b97f4a7c15ULL));
    for (std::size_t i = 0; i < n_ues_; ++i)
      if (static_cast<int>(i % 3) == epoch % 3) world_->ue_positions()[i] = fresh[i];
  }

  std::uint64_t seed_;
  std::size_t n_ues_;
  int steps_;
  sim::WorldConfig world_config_;
  core::SkyRanConfig config_;
  std::unique_ptr<sim::World> world_;
  std::unique_ptr<core::SkyRan> skyran_;
  std::unique_ptr<core::Snapshot> start_;
  std::vector<skyran::geo::Vec3> ground_;
};

}  // namespace

std::unique_ptr<Workload> make_uav_phy(std::uint64_t seed, Size size) {
  return std::make_unique<UavPhy>(seed, size);
}

}  // namespace perfbench
