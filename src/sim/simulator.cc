#include "sim/simulator.h"

namespace afraid {

void Simulator::RunUntil(SimTime deadline) {
  const SimTime outer = deadline_;
  deadline_ = std::min(deadline, outer);
  while (!queue_.Empty()) {
    const SimTime next = queue_.NextTime();
    if (next > deadline) {
      break;
    }
    auto fired = queue_.PopNext();
    now_ = fired.time;
    ++events_processed_;
    fired.fn();
  }
  deadline_ = outer;
  if (now_ < deadline) {
    now_ = deadline;
  }
}

void Simulator::RunToEnd() {
  while (Step()) {
  }
}

bool Simulator::Step(SimTime deadline) {
  if (queue_.Empty()) {
    return false;
  }
  auto fired = queue_.PopNext();
  now_ = fired.time;
  ++events_processed_;
  const SimTime outer = deadline_;
  deadline_ = std::min(deadline, outer);
  fired.fn();
  deadline_ = outer;
  return true;
}

}  // namespace afraid
