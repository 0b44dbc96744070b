// Benchmark harness: the workload interface, the timed pass loop (serial and
// W-lane passes interleaved), the in-bench oracle and the result record.
//
// A workload is a simulated system built through the repo's public APIs. A
// pass restores the system to the state captured after the untimed warm-up
// step and runs a fixed number of steps, so every pass does identical work:
// per-pass throughputs are comparable, and every pass must reproduce the
// first (serial) pass's step digests exactly.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Problem size: `full` is the benchmark; `smoke` is the same code path at a
/// size that finishes in seconds (for the benchmark's own tests).
enum class Size { kFull, kSmoke };

/// Outcome of one step as the oracle sees it.
struct StepResult {
  double seconds = 0.0;       ///< host time of the program calls (timed part only)
  std::uint64_t digest = 0;   ///< digest over every output field the step produced
  std::string failure;        ///< first range-check failure; empty when all passed
};

/// Model outputs of one pass, gathered on the reference pass.
struct Fidelity {
  std::uint64_t samples = 0;         ///< availability samples: (UE, epoch) or (ground point, epoch)
  std::uint64_t served_samples = 0;  ///< ... served at or above the service threshold
  std::vector<double> loc_err_m;     ///< per (UE, epoch) localization error
  std::vector<double> min_snr_db;    ///< per step: worst UE's true SNR at the placement
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Construct the system from scratch (timed, several times, as setup_s).
  virtual void build() = 0;
  /// Remember the current state as the start of every pass.
  virtual void capture_start() = 0;
  /// Return to the captured start state (untimed).
  virtual void reset() = 0;
  /// Run one step; times only the calls into the program.
  virtual StepResult step(Fidelity* fidelity) = 0;
  /// Checks that need the whole pass (e.g. checkpoint restore); returns the
  /// first failure or an empty string.
  virtual std::string end_pass() { return {}; }

  virtual int steps_per_pass() const = 0;
  virtual double ue_epochs_per_step() const = 0;
  /// Fleet epochs and SkyRan epochs inside one step (per-layer normalisation).
  virtual int fleet_epochs_per_step() const { return 0; }
  virtual int uav_epochs_per_step() const { return 0; }
  /// Exact cumulative counts read from the program's public state; the
  /// harness reports their change over a pass.
  virtual std::map<std::string, double> pass_counts() const { return {}; }
  /// Size of the last checkpoint the workload wrote (0 when it writes none).
  virtual double checkpoint_bytes() const { return 0.0; }
};

std::unique_ptr<Workload> make_campaign_day(std::uint64_t seed, Size size);
std::unique_ptr<Workload> make_fleet_metro(std::uint64_t seed, Size size);
std::unique_ptr<Workload> make_uav_phy(std::uint64_t seed, Size size);

/// Order-sensitive FNV-1a accumulation of plain values (doubles by bit pattern).
class Digest {
 public:
  template <typename T>
  Digest& add(const T& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
    return *this;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

double median(std::vector<double> v);

/// Counter-based uniform draw in [0, 1) from (seed, stream, index): workload
/// inputs are pure functions of the seed, independent of run order.
inline double u01(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  std::uint64_t z = seed ^ (stream * 0x9e3779b97f4a7c15ULL) ^ (index * 0xbf58476d1ce4e5b9ULL);
  for (int round = 0; round < 2; ++round) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
  }
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

/// Counts for the result line: every step and every end-of-pass check is one
/// attempted operation; an operation fails on any oracle or range mismatch.
struct Oracle {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::uint64_t> reference;  ///< step digests of the first pass
  std::string first_failure;

  void check_step(std::size_t index, const StepResult& r);
  void check(const std::string& failure);
};

}  // namespace perfbench
