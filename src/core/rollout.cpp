#include "core/rollout.hpp"

#include <string>
#include <utility>

namespace ctj::core {

void RewardWindow::push(double reward) {
  values_.push_back(reward);
  sum_ += reward;
  if (values_.size() > capacity_) {
    sum_ -= values_.front();
    values_.pop_front();
  }
}

double RewardWindow::mean() const {
  return values_.empty() ? 0.0 : sum_ / static_cast<double>(values_.size());
}

void RewardWindow::encode(io::ByteWriter& out) const {
  out.f64(sum_);
  out.u64(values_.size());
  for (double r : values_) out.f64(r);
}

RewardWindow RewardWindow::decode(io::ByteReader& in, std::size_t capacity,
                                  std::size_t max_count,
                                  io::ErrorKind over_long) {
  RewardWindow window(capacity);
  window.sum_ = in.f64();
  const std::uint64_t count = in.u64();
  if (count > max_count) {
    throw io::IoError(over_long, "reward window longer than " +
                                     std::to_string(max_count) + " slots");
  }
  for (std::uint64_t i = 0; i < count; ++i) window.values_.push_back(in.f64());
  return window;
}

Rollout::Rollout(const DqnScheme::Config& scheme, const EnvironmentConfig& env,
                 std::size_t replicas)
    : venv_(env, replicas),
      windows_(replicas, scheme.history, scheme.num_channels,
               scheme.num_power_levels),
      num_power_levels_(scheme.num_power_levels),
      actions_(replicas),
      channels_(replicas),
      powers_(replicas),
      pre_states_(replicas) {}

void Rollout::step() {
  for (std::size_t r = 0; r < size(); ++r) {
    channels_[r] = static_cast<int>(actions_[r] / num_power_levels_);
    powers_[r] = actions_[r] % num_power_levels_;
  }
  venv_.step(channels_, powers_);
}

void Rollout::act_and_step(rl::DqnAgent& agent) {
  // For a single replica the RNG draw order (bernoulli, then index only on
  // explore) matches DqnAgent::act exactly, so the sequential trainer is
  // reproduced slot for slot.
  agent.act_batch(windows_.states(), actions_);
  for (std::size_t r = 0; r < size(); ++r) {
    const auto row = windows_.row(r);
    pre_states_[r].assign(row.begin(), row.end());
  }
  step();
}

void Rollout::push(std::size_t r) {
  windows_.push(r, venv_.successes()[r] != 0, venv_.channels()[r],
                powers_[r]);
}

void Rollout::observe(std::size_t r, rl::DqnAgent& agent) {
  push(r);
  rl::Transition transition;
  transition.state = std::move(pre_states_[r]);
  transition.action = actions_[r];
  transition.reward = venv_.rewards()[r];
  const auto next_row = windows_.row(r);
  transition.next_state.assign(next_row.begin(), next_row.end());
  transition.done = false;  // continuing competition
  agent.observe(std::move(transition));
}

void Rollout::save_chunks(io::ContainerWriter& out) const {
  io::add_state_chunk(out, io::tags::kEnvState, venv_);
  io::add_state_chunk(out, io::tags::kObsWindows, windows_);
}

void Rollout::load_chunks(const io::ContainerReader& in) {
  io::load_state_chunk(in, io::tags::kEnvState, venv_);
  io::load_state_chunk(in, io::tags::kObsWindows, windows_);
}

}  // namespace ctj::core
