#include "core/trainer.hpp"

#include <chrono>
#include <deque>
#include <filesystem>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/checkpoint.hpp"
#include "core/vector_env.hpp"

namespace ctj::core {

// TrainProgress (the TRAINPRG chunk) and the resume/cadence helpers live in
// core/checkpoint.{hpp,cpp}.

TrainingStats train(DqnScheme& scheme, CompetitionEnvironment& env,
                    const TrainerConfig& config) {
  CTJ_CHECK(config.max_slots > 0);
  CTJ_CHECK(config.reward_window > 0);
  const auto t0 = std::chrono::steady_clock::now();

  scheme.set_training(true);
  TrainingStats stats;
  std::deque<double> window;
  double window_sum = 0.0;
  std::size_t start_slot = 0;
  bool resumed_early_stop = false;

  if (should_resume_checkpoint(config)) {
    const io::ContainerReader in =
        io::ContainerReader::from_file(config.checkpoint->path);
    TrainProgress progress = read_train_progress(in, /*mode=*/0, /*replicas=*/1, config);
    check_jammer_config(in, env.config().jammer);
    scheme.load_state(in);
    io::ByteReader env_in(in.chunk(io::tags::kEnvState));
    env.load_state(env_in);
    env_in.expect_end();
    start_slot = static_cast<std::size_t>(progress.slots_trained);
    stats.slots_trained = start_slot;
    window = std::move(progress.window);
    window_sum = progress.window_sum;
    resumed_early_stop = progress.early_stopped;
    stats.early_stopped = resumed_early_stop;
  }

  const auto save = [&]() {
    io::ContainerWriter out;
    add_meta_chunk(out, "trainer");
    TrainProgress progress;
    progress.mode = 0;
    progress.replicas = 1;
    progress.slots_trained = stats.slots_trained;
    progress.early_stopped = stats.early_stopped;
    progress.window_sum = window_sum;
    progress.window = window;
    write_train_progress(out, progress, config);
    write_jammer_config(out, env.config().jammer);
    scheme.save_state(out);
    io::ByteWriter env_out;
    env.save_state(env_out);
    out.add_chunk(io::tags::kEnvState, env_out.take());
    out.write_file(config.checkpoint->path);
  };

  const std::size_t every =
      config.checkpoint ? config.checkpoint->every_slots : 0;
  std::size_t next_save = next_checkpoint_after(start_slot, every);

  if (!resumed_early_stop) {
    for (std::size_t slot = start_slot; slot < config.max_slots; ++slot) {
      const SchemeDecision decision = scheme.decide();
      const EnvStep step = env.step(decision.channel, decision.power_index);

      SlotFeedback feedback;
      feedback.success = step.success;
      feedback.jammed = step.outcome != SlotOutcome::kClear;
      feedback.channel = step.channel;
      feedback.power_index = decision.power_index;
      feedback.reward = step.reward;
      scheme.feedback(feedback);

      window.push_back(step.reward);
      window_sum += step.reward;
      if (window.size() > config.reward_window) {
        window_sum -= window.front();
        window.pop_front();
      }
      stats.slots_trained = slot + 1;
      if (config.on_slot) config.on_slot(slot, step.reward);
      if (config.target_mean_reward && window.size() == config.reward_window &&
          window_sum / static_cast<double>(window.size()) >=
              *config.target_mean_reward) {
        stats.early_stopped = true;
        break;
      }
      if (config.checkpoint && stats.slots_trained >= next_save &&
          stats.slots_trained < config.max_slots) {
        save();
        next_save = next_checkpoint_after(stats.slots_trained, every);
      }
    }
  }

  if (config.checkpoint) save();

  stats.final_mean_reward =
      window.empty() ? 0.0 : window_sum / static_cast<double>(window.size());
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return stats;
}

TrainingStats train_batched(DqnScheme& scheme,
                            const EnvironmentConfig& env_config,
                            const TrainerConfig& config,
                            std::size_t replicas) {
  CTJ_CHECK(config.max_slots > 0);
  CTJ_CHECK(config.reward_window > 0);
  CTJ_CHECK(replicas > 0);
  // Checkpoints cut at outer-loop boundaries (all replicas between
  // transitions); a budget that ends mid-iteration would save a state no
  // uninterrupted run passes through, breaking bit-identical resume.
  CTJ_CHECK_MSG(!config.checkpoint || config.max_slots % replicas == 0,
                "batched checkpointing needs max_slots divisible by replicas");
  const auto t0 = std::chrono::steady_clock::now();

  scheme.set_training(true);
  rl::DqnAgent& agent = scheme.agent();
  const DqnScheme::Config& sc = scheme.config();
  const std::size_t pl = sc.num_power_levels;

  VectorEnv venv(env_config, replicas);
  ObservationWindows windows(replicas, sc.history, sc.num_channels, pl);
  std::vector<std::size_t> actions(replicas);
  std::vector<int> channels(replicas);
  std::vector<std::size_t> powers(replicas);
  std::vector<std::vector<double>> pre_states(replicas);

  TrainingStats stats;
  std::deque<double> window;
  double window_sum = 0.0;

  if (should_resume_checkpoint(config)) {
    const io::ContainerReader in =
        io::ContainerReader::from_file(config.checkpoint->path);
    const TrainProgress progress =
        read_train_progress(in, /*mode=*/1, replicas, config);
    check_jammer_config(in, venv.env(0).config().jammer);
    scheme.load_state(in);
    io::ByteReader env_in(in.chunk(io::tags::kEnvState));
    venv.load_state(env_in);
    env_in.expect_end();
    io::ByteReader win_in(in.chunk(io::tags::kObsWindows));
    windows.load_state(win_in);
    win_in.expect_end();
    stats.slots_trained = static_cast<std::size_t>(progress.slots_trained);
    stats.early_stopped = progress.early_stopped;
    window = progress.window;
    window_sum = progress.window_sum;
  }

  const auto save = [&]() {
    io::ContainerWriter out;
    add_meta_chunk(out, "trainer");
    TrainProgress progress;
    progress.mode = 1;
    progress.replicas = replicas;
    progress.slots_trained = stats.slots_trained;
    progress.early_stopped = stats.early_stopped;
    progress.window_sum = window_sum;
    progress.window = window;
    write_train_progress(out, progress, config);
    write_jammer_config(out, venv.env(0).config().jammer);
    scheme.save_state(out);
    io::ByteWriter env_out;
    venv.save_state(env_out);
    out.add_chunk(io::tags::kEnvState, env_out.take());
    io::ByteWriter win_out;
    windows.save_state(win_out);
    out.add_chunk(io::tags::kObsWindows, win_out.take());
    out.write_file(config.checkpoint->path);
  };

  const std::size_t every =
      config.checkpoint ? config.checkpoint->every_slots : 0;
  std::size_t next_save = next_checkpoint_after(stats.slots_trained, every);

  while (stats.slots_trained < config.max_slots && !stats.early_stopped) {
    // One batched ε-greedy forward decides for every replica. For a single
    // replica the RNG draw order (bernoulli, then index only on explore)
    // matches DqnAgent::act exactly, so train() is reproduced slot for slot.
    agent.act_batch(windows.states(), actions);
    for (std::size_t r = 0; r < replicas; ++r) {
      channels[r] = static_cast<int>(actions[r] / pl);
      powers[r] = actions[r] % pl;
      const auto row = windows.row(r);
      pre_states[r].assign(row.begin(), row.end());
    }
    venv.step(channels, powers);
    for (std::size_t r = 0; r < replicas; ++r) {
      const bool success = venv.successes()[r] != 0;
      windows.push(r, success, venv.channels()[r], powers[r]);

      rl::Transition transition;
      transition.state = std::move(pre_states[r]);
      transition.action = actions[r];
      transition.reward = venv.rewards()[r];
      const auto next_row = windows.row(r);
      transition.next_state.assign(next_row.begin(), next_row.end());
      transition.done = false;  // continuing competition
      agent.observe(std::move(transition));

      window.push_back(venv.rewards()[r]);
      window_sum += venv.rewards()[r];
      if (window.size() > config.reward_window) {
        window_sum -= window.front();
        window.pop_front();
      }
      ++stats.slots_trained;
      if (config.on_slot) {
        config.on_slot(stats.slots_trained - 1, venv.rewards()[r]);
      }
      if (config.target_mean_reward && window.size() == config.reward_window &&
          window_sum / static_cast<double>(window.size()) >=
              *config.target_mean_reward) {
        stats.early_stopped = true;
        break;
      }
      if (stats.slots_trained >= config.max_slots) break;
    }
    // Checkpoints only at outer-loop boundaries: here every replica is
    // between transitions, so the saved state is a clean cut for all of
    // them. An early-stopped cut is saved too (flagged, so a resume does
    // not train past the stop).
    if (config.checkpoint && !stats.early_stopped &&
        stats.slots_trained >= next_save &&
        stats.slots_trained < config.max_slots) {
      save();
      next_save = next_checkpoint_after(stats.slots_trained, every);
    }
  }

  if (config.checkpoint) save();

  stats.final_mean_reward =
      window.empty() ? 0.0 : window_sum / static_cast<double>(window.size());
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return stats;
}

}  // namespace ctj::core
