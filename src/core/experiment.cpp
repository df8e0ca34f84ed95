#include "core/experiment.hpp"

#include "common/check.hpp"
#include "core/rollout.hpp"

namespace ctj::core {

PlayedSlot play_slot(AntiJammingScheme& scheme, CompetitionEnvironment& env) {
  PlayedSlot slot;
  slot.decision = scheme.decide();
  slot.step = env.step(slot.decision.channel, slot.decision.power_index);
  SlotFeedback feedback;
  feedback.success = slot.step.success;
  feedback.jammed = slot.step.outcome != SlotOutcome::kClear;
  feedback.channel = slot.step.channel;
  feedback.power_index = slot.decision.power_index;
  feedback.reward = slot.step.reward;
  scheme.feedback(feedback);
  return slot;
}

MetricsReport evaluate(AntiJammingScheme& scheme, CompetitionEnvironment& env,
                       std::size_t slots) {
  CTJ_CHECK(slots > 0);
  MetricsAccumulator metrics;
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const PlayedSlot played = play_slot(scheme, env);
    metrics.record(played.step, played.decision.power_index);
  }
  return metrics.report();
}

MetricsReport evaluate_batched(const DqnScheme& scheme,
                               const EnvironmentConfig& env_config,
                               std::size_t slots_per_replica,
                               std::size_t replicas) {
  CTJ_CHECK(slots_per_replica > 0);
  CTJ_CHECK_MSG(!scheme.training(),
                "evaluate_batched expects a frozen (deployed) policy");
  const rl::DqnAgent& agent = scheme.agent();
  const std::size_t num_actions = agent.config().num_actions;
  Rollout rollout(scheme.config(), env_config, replicas);
  const VectorEnv& venv = rollout.env();
  const std::span<std::size_t> actions = rollout.actions();
  // Deployed ε-greedy for the batch: one stream for all replicas, seeded
  // from the evaluation environment (not the scheme's deploy RNG, which
  // stays untouched — the scheme is const here).
  Rng explore_rng(env_config.seed ^ 0xD09ULL);
  const double eps = scheme.deploy_epsilon();

  MetricsAccumulator metrics;
  for (std::size_t slot = 0; slot < slots_per_replica; ++slot) {
    agent.act_greedy_batch(rollout.states(), actions);
    for (std::size_t r = 0; r < replicas; ++r) {
      if (eps > 0.0 && explore_rng.bernoulli(eps)) {
        actions[r] = explore_rng.index(num_actions);
      }
    }
    rollout.step();
    for (std::size_t r = 0; r < replicas; ++r) {
      rollout.push(r);
      metrics.record(venv.successes()[r] != 0, venv.hopped()[r] != 0,
                     rollout.power(r) > 0, venv.rewards()[r]);
    }
  }
  return metrics.report();
}

void RlExperimentConfig::sync_dimensions() {
  scheme.num_channels = env.num_channels;
  scheme.num_power_levels = env.num_power_levels();
}

RlExperimentResult run_rl_experiment(RlExperimentConfig config) {
  config.sync_dimensions();

  CompetitionEnvironment train_env(config.env);
  DqnScheme scheme(config.scheme);

  TrainerConfig trainer;
  trainer.max_slots = config.train_slots;
  trainer.checkpoint = config.checkpoint;
  RlExperimentResult result;
  result.training = train(scheme, train_env, trainer);

  // Freeze the policy and evaluate on an independently seeded environment,
  // as the paper does when loading the trained network onto the hub.
  scheme.set_training(false);
  scheme.reset();
  EnvironmentConfig eval_config = config.env;
  eval_config.seed = config.eval_seed;
  if (config.eval_replicas > 1) {
    result.metrics = evaluate_batched(scheme, eval_config, config.eval_slots,
                                      config.eval_replicas);
  } else {
    CompetitionEnvironment eval_env(eval_config);
    result.metrics = evaluate(scheme, eval_env, config.eval_slots);
  }
  return result;
}

}  // namespace ctj::core
