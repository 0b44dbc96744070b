#include "harness.hpp"

#include <algorithm>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Oracle::check_step(std::size_t index, const StepResult& r) {
  std::string failure = r.failure;
  if (index == reference.size()) {
    reference.push_back(r.digest);
  } else if (reference[index] != r.digest && failure.empty()) {
    failure = "step " + std::to_string(index) + " digest differs from the reference pass";
  }
  check(failure);
}

void Oracle::check(const std::string& failure) {
  ++attempted;
  if (failure.empty()) return;
  ++failed;
  if (first_failure.empty()) first_failure = failure;
}

}  // namespace perfbench
