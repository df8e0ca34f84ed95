// Vectorized multi-environment rollout engine.
//
// A VectorEnv steps R CompetitionEnvironment replicas in lockstep and lands
// the per-slot results in structure-of-arrays buffers, so a batched policy
// (DqnAgent::act_greedy_batch / act_batch) amortizes one network forward
// pass across all replicas instead of paying a batch-1 forward per slot.
// Replica r is seeded base_seed + r and owns its RNG stream, so its
// trajectory is identical, seed for seed, to a standalone environment
// constructed with that seed — batching R rollouts is exactly R independent
// rollouts, just interleaved in time.
//
// ObservationWindows is the SoA companion on the agent side: the R sliding
// 3×I observation windows kept as one [R × 3I] matrix that feeds the batched
// forward directly. Each row and DqnScheme's own window slide through the
// same slide_window() encoder (per slot, oldest first: success flag,
// channel/(C−1), power/(PL−1)), so row r equals DqnScheme::observation().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/environment.hpp"
#include "rl/matrix.hpp"

namespace ctj::core {

/// Slide a flattened 3×I observation window one slot: drop the oldest
/// (success, channel, power) record and append this slot's, normalized to
/// [0, 1] by the channel and power-level counts.
void slide_window(std::span<double> window, bool success, int channel,
                  std::size_t power_index, int num_channels,
                  std::size_t num_power_levels);

class VectorEnv {
 public:
  /// R replicas of `config`; replica r runs with seed config.seed + r.
  VectorEnv(const EnvironmentConfig& config, std::size_t replicas);

  std::size_t size() const { return envs_.size(); }
  const EnvironmentConfig& config() const { return config_; }

  /// Step every replica: channels and power_indices hold one decision per
  /// replica. Results land in the SoA views below, valid until the next
  /// step(). Replica order is fixed (0..R−1), so the RNG consumption per
  /// replica matches a sequential rollout exactly.
  void step(std::span<const int> channels,
            std::span<const std::size_t> power_indices);

  // SoA views of the most recent step().
  std::span<const double> rewards() const { return rewards_; }
  std::span<const std::uint8_t> successes() const { return successes_; }
  std::span<const std::uint8_t> jammed() const { return jammed_; }
  std::span<const std::uint8_t> hopped() const { return hopped_; }
  std::span<const int> channels() const { return channels_; }
  std::span<const SlotOutcome> outcomes() const { return outcomes_; }

  CompetitionEnvironment& env(std::size_t r);
  const CompetitionEnvironment& env(std::size_t r) const;

  /// Reset every replica's channel/hidden state (RNG streams keep running,
  /// matching CompetitionEnvironment::reset()).
  void reset();

  /// Checkpoint-format serialization: replica count + every replica's full
  /// state, in replica order. load_state throws io::IoError on a replica
  /// count or per-replica config mismatch, leaving all replicas unchanged.
  void save_state(io::ByteWriter& out) const;
  void load_state(io::ByteReader& in);

 private:
  EnvironmentConfig config_;
  std::vector<CompetitionEnvironment> envs_;
  std::vector<double> rewards_;
  std::vector<std::uint8_t> successes_;
  std::vector<std::uint8_t> jammed_;
  std::vector<std::uint8_t> hopped_;
  std::vector<int> channels_;
  std::vector<SlotOutcome> outcomes_;
};

class ObservationWindows {
 public:
  ObservationWindows(std::size_t replicas, std::size_t history,
                     int num_channels, std::size_t num_power_levels);

  std::size_t size() const { return replicas_; }
  std::size_t history() const { return history_; }

  /// All windows back to the all-zero initial history (= DqnScheme::reset).
  void reset();

  /// Slide replica r's window one slot: drop the oldest record, append
  /// (success, channel, power) with DqnScheme's normalization.
  void push(std::size_t r, bool success, int channel, std::size_t power_index);

  /// The [R × 3I] batch of observations — feed directly to
  /// DqnAgent::act_greedy_batch / q_values_batch.
  const rl::Matrix& states() const { return states_; }

  /// Replica r's current observation (equals DqnScheme::observation()).
  std::span<const double> row(std::size_t r) const;

  /// Checkpoint-format serialization of the window matrix (+ dimension
  /// digest); load_state throws io::IoError kStateMismatch on any
  /// dimension difference, leaving the windows unchanged.
  void save_state(io::ByteWriter& out) const;
  void load_state(io::ByteReader& in);

 private:
  std::size_t replicas_;
  std::size_t history_;
  int num_channels_;
  std::size_t num_power_levels_;
  rl::Matrix states_;  // [R × 3·history]
};

}  // namespace ctj::core
