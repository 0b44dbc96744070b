// campaign_day: scenario::Campaign over the reference day (8000 UEs, 4x4
// cells, 4 epochs/h, 100 TTIs/epoch). A step is one campaign hour followed
// by Campaign::save into an in-memory checkpoint buffer; a pass runs the
// rest of the day (hours 1-23) from the state captured after the warm-up
// hour, then restores the last checkpoint into a fresh Campaign and compares.
#include <cmath>
#include <memory>
#include <sstream>

#include "fleet_checks.hpp"
#include "obs/trace.hpp"
#include "scenario/campaign.hpp"

namespace perfbench {
namespace {

using skyran::obs::TraceSpan;
namespace scenario = skyran::scenario;

class CampaignDay final : public Workload {
 public:
  CampaignDay(std::uint64_t seed, Size size)
      : config_(scenario::example_day_config(seed, size == Size::kFull ? 8000 : 400,
                                             size == Size::kFull ? 4 : 2)),
        channel_(config_.carrier_hz),
        steps_(size == Size::kFull ? 23 : 2) {
    config_.hours = 24;
    config_.epochs_per_hour = 4;
    config_.fleet.ttis_per_epoch = size == Size::kFull ? 100 : 20;
    config_.threads = 0;  // lanes come from the harness's per-pass scope
  }

  void build() override {
    campaign_.reset();
    campaign_ = std::make_unique<scenario::Campaign>(config_);
  }

  void capture_start() override {
    std::ostringstream os;
    campaign_->save(os);
    start_ = std::move(os).str();
  }

  void reset() override {
    std::istringstream is(start_);
    campaign_->restore(is);
    fresh_ = std::make_unique<scenario::Campaign>(config_);  // end_pass restores into it
  }

  StepResult step(Fidelity* fidelity) override {
    StepResult r;
    const auto t0 = Clock::now();
    scenario::HourReport hr;
    {
      const TraceSpan span("bench.campaign.run_hour");
      hr = campaign_->run_hour();
    }
    {
      const TraceSpan span("bench.campaign.save");
      std::ostringstream os;
      campaign_->save(os);
      checkpoint_ = std::move(os).str();
    }
    r.seconds = seconds_since(t0);

    const scenario::CampaignReport rep = campaign_->report();
    r.digest = Digest()
                   .add(scenario::hour_digest(hr))
                   .add(scenario::campaign_digest(rep))
                   .add(campaign_->state_hash())
                   .value();
    Fidelity fleet_view;
    r.failure = check_fleet(campaign_->fleet(), config_.fleet, channel_, &fleet_view);
    if (r.failure.empty() && rep.by_hour.size() != static_cast<std::size_t>(campaign_->hours_run()))
      r.failure = "campaign report does not hold one row per hour";
    if (r.failure.empty() && !(rep.served_bits <= rep.offered_bits))
      r.failure = "campaign served more bits than were offered";
    if (r.failure.empty() && !(hr.availability >= 0.0 && hr.availability <= 1.0))
      r.failure = "hour availability outside [0, 1]";
    if (fidelity != nullptr) {
      const auto samples =
          static_cast<std::uint64_t>(config_.n_ues) * static_cast<std::uint64_t>(config_.epochs_per_hour);
      fidelity->samples += samples;
      fidelity->served_samples +=
          static_cast<std::uint64_t>(std::llround(hr.availability * static_cast<double>(samples)));
      fidelity->min_snr_db.insert(fidelity->min_snr_db.end(), fleet_view.min_snr_db.begin(),
                                  fleet_view.min_snr_db.end());
    }
    return r;
  }

  std::string end_pass() override {
    scenario::Campaign& fresh = *fresh_;
    std::istringstream is(checkpoint_);
    {
      const TraceSpan span("bench.campaign.restore");
      fresh.restore(is);
    }
    if (fresh.state_hash() != campaign_->state_hash())
      return "restored checkpoint state_hash differs from the live campaign";
    if (scenario::campaign_digest(fresh.report()) != scenario::campaign_digest(campaign_->report()))
      return "restored checkpoint campaign_digest differs from the live campaign";
    return {};
  }

  int steps_per_pass() const override { return steps_; }
  double ue_epochs_per_step() const override {
    return static_cast<double>(config_.n_ues) * config_.epochs_per_hour;
  }
  int fleet_epochs_per_step() const override { return config_.epochs_per_hour; }
  double checkpoint_bytes() const override { return static_cast<double>(checkpoint_.size()); }
  std::map<std::string, double> pass_counts() const override {
    return {{"handovers", static_cast<double>(campaign_->fleet().total_handovers())},
            {"pingpongs", static_cast<double>(campaign_->fleet().total_pingpongs())}};
  }

 private:
  scenario::CampaignConfig config_;
  skyran::rf::FsplChannel channel_;  ///< the campaign's own channel model (FSPL at its carrier)
  int steps_;
  std::unique_ptr<scenario::Campaign> campaign_;
  std::unique_ptr<scenario::Campaign> fresh_;
  std::string start_;
  std::string checkpoint_;
};

}  // namespace

std::unique_ptr<Workload> make_campaign_day(std::uint64_t seed, Size size) {
  return std::make_unique<CampaignDay>(seed, size);
}

}  // namespace perfbench
