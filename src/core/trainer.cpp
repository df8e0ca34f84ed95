#include "core/trainer.hpp"

#include <chrono>
#include <utility>

#include "common/check.hpp"
#include "core/checkpoint.hpp"
#include "core/experiment.hpp"
#include "core/rollout.hpp"

namespace ctj::core {

namespace {

/// The sequential trainer's environment side: one environment, one slot
/// per round through play_slot.
struct SlotLoop {
  DqnScheme& scheme;
  CompetitionEnvironment& env;

  const jammer::JammerSpec& jammer() const { return env.config().jammer; }
  void save_chunks(io::ContainerWriter& out) const {
    io::add_state_chunk(out, io::tags::kEnvState, env);
  }
  void load_chunks(const io::ContainerReader& in) {
    io::load_state_chunk(in, io::tags::kEnvState, env);
  }
  template <class Record>
  void round(Record& record) {
    record(play_slot(scheme, env).step.reward);
  }
};

/// The batched trainer's environment side: one Rollout round per round.
struct RolloutLoop {
  rl::DqnAgent& agent;
  Rollout rollout;

  const jammer::JammerSpec& jammer() const { return rollout.jammer(); }
  void save_chunks(io::ContainerWriter& out) const {
    rollout.save_chunks(out);
  }
  void load_chunks(const io::ContainerReader& in) { rollout.load_chunks(in); }
  template <class Record>
  void round(Record& record) {
    rollout.train_round(agent, [&](std::size_t r) {
      return record(rollout.env().rewards()[r]);
    });
  }
};

/// Resume, run rounds until the budget or early stop, checkpoint on the
/// cadence at round boundaries, and save once more at the end. `mode`
/// tags the TRAINPRG chunk (0 = train, 1 = train_batched).
template <class Loop>
TrainingStats run_trainer(DqnScheme& scheme, const TrainerConfig& config,
                          std::uint8_t mode, std::size_t replicas,
                          Loop& loop) {
  const auto t0 = std::chrono::steady_clock::now();
  scheme.set_training(true);
  TrainingStats stats;
  RewardWindow window(config.reward_window);

  if (should_resume_checkpoint(config)) {
    const io::ContainerReader in =
        io::ContainerReader::from_file(config.checkpoint->path);
    TrainProgress progress = read_train_progress(in, mode, replicas, config);
    check_jammer_config(in, loop.jammer());
    scheme.load_state(in);
    loop.load_chunks(in);
    stats.slots_trained = static_cast<std::size_t>(progress.slots_trained);
    stats.early_stopped = progress.early_stopped;
    window = std::move(progress.window);
  }

  const auto save = [&]() {
    io::ContainerWriter out;
    add_meta_chunk(out, "trainer");
    TrainProgress progress;
    progress.mode = mode;
    progress.replicas = replicas;
    progress.slots_trained = stats.slots_trained;
    progress.early_stopped = stats.early_stopped;
    progress.window = window;
    write_train_progress(out, progress, config);
    write_jammer_config(out, loop.jammer());
    scheme.save_state(out);
    loop.save_chunks(out);
    out.write_file(config.checkpoint->path);
  };

  // Books one trained slot; false ends the round (early stop or budget).
  const auto record = [&](double reward) {
    window.push(reward);
    ++stats.slots_trained;
    if (config.on_slot) config.on_slot(stats.slots_trained - 1, reward);
    if (config.target_mean_reward && window.full() &&
        window.mean() >= *config.target_mean_reward) {
      stats.early_stopped = true;
      return false;
    }
    return stats.slots_trained < config.max_slots;
  };

  const std::size_t every =
      config.checkpoint ? config.checkpoint->every_slots : 0;
  std::size_t next_save = next_checkpoint_after(stats.slots_trained, every);
  while (stats.slots_trained < config.max_slots && !stats.early_stopped) {
    loop.round(record);
    // Checkpoints only at round boundaries, where every replica is between
    // transitions. An early stop is saved by the final save (flagged, so a
    // resume does not train past it).
    if (config.checkpoint && !stats.early_stopped &&
        stats.slots_trained >= next_save &&
        stats.slots_trained < config.max_slots) {
      save();
      next_save = next_checkpoint_after(stats.slots_trained, every);
    }
  }
  if (config.checkpoint) save();

  stats.final_mean_reward = window.mean();
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return stats;
}

}  // namespace

TrainingStats train(DqnScheme& scheme, CompetitionEnvironment& env,
                    const TrainerConfig& config) {
  CTJ_CHECK(config.max_slots > 0);
  CTJ_CHECK(config.reward_window > 0);
  SlotLoop loop{scheme, env};
  return run_trainer(scheme, config, /*mode=*/0, /*replicas=*/1, loop);
}

TrainingStats train_batched(DqnScheme& scheme,
                            const EnvironmentConfig& env_config,
                            const TrainerConfig& config,
                            std::size_t replicas) {
  CTJ_CHECK(config.max_slots > 0);
  CTJ_CHECK(config.reward_window > 0);
  CTJ_CHECK(replicas > 0);
  // Checkpoints cut at round boundaries (all replicas between
  // transitions); a budget that ends mid-round would save a state no
  // uninterrupted run passes through, breaking bit-identical resume.
  CTJ_CHECK_MSG(!config.checkpoint || config.max_slots % replicas == 0,
                "batched checkpointing needs max_slots divisible by replicas");
  RolloutLoop loop{scheme.agent(), Rollout(scheme.config(), env_config,
                                           replicas)};
  return run_trainer(scheme, config, /*mode=*/1, replicas, loop);
}

}  // namespace ctj::core
