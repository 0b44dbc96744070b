// fleet_metro: fleet::Fleet driven directly — 10^5 CBR UEs at 5-20 kbit/s
// under a 6x6 cell grid over 1200 m, 10 TTIs per epoch. Before each epoch a
// counter-random 10 % of UEs take a step via set_ue_position, so decide and
// apply see handovers. A step is one fleet epoch; a pass restores the fleet
// state saved after the warm-up epoch and runs a fixed number of epochs.
#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>
#include <sstream>

#include "fleet_checks.hpp"

namespace perfbench {
namespace {

namespace fleet = skyran::fleet;
namespace geo = skyran::geo;

constexpr double kAreaM = 1200.0;
constexpr double kCellAltitudeM = 60.0;
constexpr double kUeHeightM = 1.5;
constexpr double kMoverFraction = 0.10;
constexpr double kMaxStepM = 40.0;

// Counter streams of the workload's inputs.
enum : std::uint64_t { kStreamX = 1, kStreamY, kStreamRate, kStreamMove, kStreamDir, kStreamLen };

class FleetMetro final : public Workload {
 public:
  FleetMetro(std::uint64_t seed, Size size)
      : seed_(seed),
        channel_(2.6e9),
        n_ues_(size == Size::kFull ? 100000 : 4000),
        cells_per_side_(size == Size::kFull ? 6 : 3),
        steps_(size == Size::kFull ? 6 : 2) {
    config_.seed = seed;
    config_.ttis_per_epoch = 10;
    config_.threads = 0;  // lanes come from the harness's per-pass scope
  }

  void build() override {
    fleet_.reset();
    fleet_ = std::make_unique<fleet::Fleet>(config_, channel_);
    const double pitch = kAreaM / cells_per_side_;
    for (int gy = 0; gy < cells_per_side_; ++gy)
      for (int gx = 0; gx < cells_per_side_; ++gx)
        fleet_->add_cell({(gx + 0.5) * pitch, (gy + 0.5) * pitch, kCellAltitudeM});
    skyran::lte::TrafficSpec spec;
    spec.model = skyran::lte::TrafficModel::kCbr;
    for (std::size_t i = 0; i < n_ues_; ++i) {
      spec.rate_bps = 5e3 + 15e3 * u01(seed_, kStreamRate, i);
      fleet_->add_ue({kAreaM * u01(seed_, kStreamX, i), kAreaM * u01(seed_, kStreamY, i), kUeHeightM},
                     spec);
    }
    offered_bits_ = served_bits_ = 0.0;
  }

  void capture_start() override {
    std::ostringstream os;
    fleet_->save(os);
    start_ = std::move(os).str();
    start_offered_ = offered_bits_;
    start_served_ = served_bits_;
  }

  void reset() override {
    std::istringstream is(start_);
    fleet_->restore(is);
    offered_bits_ = start_offered_;
    served_bits_ = start_served_;
  }

  StepResult step(Fidelity* fidelity) override {
    move_ues(static_cast<std::uint64_t>(fleet_->epochs_run()) + 1);
    StepResult r;
    const auto t0 = Clock::now();
    const fleet::FleetEpochReport rep = fleet_->run_epoch();
    r.seconds = seconds_since(t0);

    Digest d;
    d.add(fleet_->state_hash()).add(rep.epoch).add(rep.attach_events).add(rep.ho_attempts);
    d.add(rep.ho_successes).add(rep.ho_pingpongs).add(rep.steering_steps).add(rep.min_sinr_db);
    d.add(rep.mean_sinr_db).add(rep.offered_bits).add(rep.served_bits);
    d.add(rep.aggregate_throughput_bps).add(rep.max_prb_util).add(rep.mean_prb_util);
    for (double u : rep.cell_prb_util) d.add(u);
    for (std::uint32_t n : rep.cell_ues) d.add(n);
    r.digest = d.value();

    offered_bits_ += rep.offered_bits;
    served_bits_ += rep.served_bits;
    r.failure = check_fleet(*fleet_, config_, channel_, fidelity);
    if (r.failure.empty() && !(served_bits_ <= offered_bits_))
      r.failure = "fleet served more bits than were offered";
    return r;
  }

  int steps_per_pass() const override { return steps_; }
  double ue_epochs_per_step() const override { return static_cast<double>(n_ues_); }
  int fleet_epochs_per_step() const override { return 1; }
  std::map<std::string, double> pass_counts() const override {
    return {{"handovers", static_cast<double>(fleet_->total_handovers())},
            {"pingpongs", static_cast<double>(fleet_->total_pingpongs())}};
  }

 private:
  /// Epoch `epoch`'s movers: a counter-random 10 % of UEs step up to
  /// kMaxStepM in a counter-random direction, clamped to the area.
  void move_ues(std::uint64_t epoch) {
    const std::uint64_t key = seed_ ^ (epoch << 32);
    for (std::size_t i = 0; i < n_ues_; ++i) {
      if (u01(key, kStreamMove, i) >= kMoverFraction) continue;
      const double angle = 2.0 * std::numbers::pi * u01(key, kStreamDir, i);
      const double len = kMaxStepM * u01(key, kStreamLen, i);
      const geo::Vec3 p = fleet_->ue_position(i);
      fleet_->set_ue_position(i, {std::clamp(p.x + len * std::cos(angle), 0.0, kAreaM),
                                  std::clamp(p.y + len * std::sin(angle), 0.0, kAreaM), p.z});
    }
  }

  std::uint64_t seed_;
  fleet::FleetConfig config_;
  skyran::rf::FsplChannel channel_;
  std::size_t n_ues_;
  int cells_per_side_;
  int steps_;
  std::unique_ptr<fleet::Fleet> fleet_;
  std::string start_;
  // Bits offered and served since the fleet was built (the served <= offered
  // check is cumulative, so it holds however service state is carried).
  double offered_bits_ = 0.0, served_bits_ = 0.0;
  double start_offered_ = 0.0, start_served_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_metro(std::uint64_t seed, Size size) {
  return std::make_unique<FleetMetro>(seed, size);
}

}  // namespace perfbench
