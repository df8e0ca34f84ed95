// The hub's rollout loop (Sec. III.C, IV.B), written once.
//
// Every DQN loop in the repository runs the same lockstep round: the
// batched policy picks one (channel, power) action per replica from the
// replicas' 3×I observation windows, every replica steps, and each
// replica's window slides (and, when training, its transition is observed).
// Rollout owns that round — the VectorEnv, the ObservationWindows and the
// per-replica action buffers — so core::train_batched, evaluate_batched and
// the serve layer's DQN tenants are one loop, not parallel copies kept
// equal by tests.
//
// RewardWindow is the trainers' (and serve tenants') sliding mean reward
// with its early-stop test and its one checkpoint codec.
#pragma once

#include <cstddef>
#include <deque>
#include <span>
#include <vector>

#include "core/rl_fh.hpp"
#include "core/vector_env.hpp"
#include "io/container.hpp"

namespace ctj::core {

/// Mean reward over the last `capacity` slots. The running sum is carried
/// (and serialized) as the raw double rather than recomputed: the
/// incremental add/sub stream differs from a fresh summation in floating
/// point, and bit-identical resume needs the exact value an uninterrupted
/// run would carry.
class RewardWindow {
 public:
  explicit RewardWindow(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Append a reward, dropping the oldest once past capacity.
  void push(double reward);
  bool full() const { return values_.size() == capacity_; }
  /// The windowed mean (0 while empty).
  double mean() const;

  /// Checkpoint codec: running sum (f64), count (u64), then the rewards
  /// oldest first (f64 each).
  void encode(io::ByteWriter& out) const;
  /// Decode a window of `capacity`; a count above `max_count` throws
  /// io::IoError of kind `over_long` before any reward is read.
  static RewardWindow decode(io::ByteReader& in, std::size_t capacity,
                             std::size_t max_count, io::ErrorKind over_long);

 private:
  std::size_t capacity_;
  double sum_ = 0.0;
  std::deque<double> values_;
};

class Rollout {
 public:
  /// R replicas of `env` (replica r seeded env.seed + r) with windows and
  /// action space shaped by the scheme config.
  Rollout(const DqnScheme::Config& scheme, const EnvironmentConfig& env,
          std::size_t replicas);

  std::size_t size() const { return venv_.size(); }
  /// The [R × 3I] observation batch (act_batch / act_greedy_batch input).
  const rl::Matrix& states() const { return windows_.states(); }
  /// One action (channel·PL + power) per replica, consumed by step().
  std::span<std::size_t> actions() { return actions_; }
  const VectorEnv& env() const { return venv_; }
  /// Replica r's decoded power index of the last step().
  std::size_t power(std::size_t r) const { return powers_[r]; }
  const jammer::JammerSpec& jammer() const {
    return venv_.env(0).config().jammer;
  }

  /// Decode actions() into (channel, power) and step every replica.
  void step();
  /// Slide replica r's window by its last step's outcome.
  void push(std::size_t r);

  /// One training round: act_and_step, then observe the replicas in order,
  /// calling on_slot(r) after each; a false return cuts the round there,
  /// leaving later replicas stepped but neither pushed nor observed.
  template <class OnSlot>
  void train_round(rl::DqnAgent& agent, OnSlot&& on_slot) {
    act_and_step(agent);
    for (std::size_t r = 0; r < size(); ++r) {
      observe(r, agent);
      if (!on_slot(r)) return;
    }
  }

  /// Append / restore the ENVSTATE then OBSWIN chunks (strong guarantee
  /// per chunk).
  void save_chunks(io::ContainerWriter& out) const;
  void load_chunks(const io::ContainerReader& in);

 private:
  /// ε-greedy act_batch into actions(), snapshot every replica's window as
  /// its transition's pre-state, then step().
  void act_and_step(rl::DqnAgent& agent);
  /// push(r), then hand replica r's transition to the agent.
  void observe(std::size_t r, rl::DqnAgent& agent);

  VectorEnv venv_;
  ObservationWindows windows_;
  std::size_t num_power_levels_;
  std::vector<std::size_t> actions_;
  std::vector<int> channels_;
  std::vector<std::size_t> powers_;
  std::vector<std::vector<double>> pre_states_;
};

}  // namespace ctj::core
