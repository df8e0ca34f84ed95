#include "core/qlearning_scheme.hpp"

#include "common/check.hpp"
#include "core/vector_env.hpp"

namespace ctj::core {
namespace {

rl::QLearningConfig make_agent_config(const QLearningScheme::Config& config) {
  rl::QLearningConfig agent;
  agent.state_dim = 3 * config.history;
  agent.num_actions = static_cast<std::size_t>(config.num_channels) *
                      config.num_power_levels;
  agent.bins_per_dim = config.bins_per_dim;
  agent.learning_rate = config.learning_rate;
  agent.gamma = config.gamma;
  agent.epsilon_start = config.epsilon_start;
  agent.epsilon_end = config.epsilon_end;
  agent.epsilon_decay_steps = config.epsilon_decay_steps;
  agent.seed = config.seed;
  return agent;
}

}  // namespace

QLearningScheme::QLearningScheme(const Config& config)
    : config_(config),
      agent_(make_agent_config(config)),
      deploy_rng_(config.seed ^ 0x91ULL) {
  CTJ_CHECK(config.num_channels >= 2);
  CTJ_CHECK(config.num_power_levels > 0);
  CTJ_CHECK(config.history > 0);
  reset();
}

void QLearningScheme::reset() {
  window_.assign(3 * config_.history, 0.0);
  has_pending_ = false;
}

SchemeDecision QLearningScheme::decide() {
  std::size_t action;
  if (training_) {
    action = agent_.act(window_);
  } else if (config_.deploy_epsilon > 0.0 &&
             deploy_rng_.bernoulli(config_.deploy_epsilon)) {
    action = deploy_rng_.index(agent_.config().num_actions);
  } else {
    action = agent_.act_greedy(window_);
  }
  pending_state_ = window_;
  pending_action_ = action;
  has_pending_ = true;
  SchemeDecision decision;
  decision.channel = static_cast<int>(action / config_.num_power_levels);
  decision.power_index = action % config_.num_power_levels;
  return decision;
}

void QLearningScheme::save_state(io::ByteWriter& out) const {
  out.i32(config_.num_channels);
  out.u64(config_.num_power_levels);
  out.u64(config_.history);
  out.u64(config_.bins_per_dim);
  out.f64(config_.learning_rate);
  out.f64(config_.gamma);
  out.f64(config_.epsilon_start);
  out.f64(config_.epsilon_end);
  out.u64(config_.epsilon_decay_steps);
  out.f64(config_.deploy_epsilon);
  out.u64(config_.seed);

  out.u8(training_ ? 1 : 0);
  out.str(deploy_rng_.serialize_state());
  out.u64(config_.history);
  for (double v : window_) out.f64(v);
  out.u8(has_pending_ ? 1 : 0);
  out.f64_vec(pending_state_);
  out.u64(pending_action_);

  agent_.save_state(out);
}

void QLearningScheme::load_state(io::ByteReader& in) {
  const auto num_channels = in.i32();
  const auto num_power_levels = static_cast<std::size_t>(in.u64());
  const auto history_len = static_cast<std::size_t>(in.u64());
  const auto bins = static_cast<std::size_t>(in.u64());
  const double lr = in.f64();
  const double gamma = in.f64();
  const double eps_start = in.f64();
  const double eps_end = in.f64();
  const auto decay = static_cast<std::size_t>(in.u64());
  const double deploy_eps = in.f64();
  const std::uint64_t seed = in.u64();
  if (num_channels != config_.num_channels ||
      num_power_levels != config_.num_power_levels ||
      history_len != config_.history || bins != config_.bins_per_dim ||
      lr != config_.learning_rate || gamma != config_.gamma ||
      eps_start != config_.epsilon_start || eps_end != config_.epsilon_end ||
      decay != config_.epsilon_decay_steps ||
      deploy_eps != config_.deploy_epsilon || seed != config_.seed) {
    throw io::IoError(io::ErrorKind::kStateMismatch,
                      "stored QLearningScheme::Config differs from this "
                      "scheme");
  }

  const bool training = in.u8() != 0;
  const std::string rng_text = in.str();
  Rng deploy_rng;
  try {
    deploy_rng.restore_state(rng_text);
  } catch (const CheckFailure&) {
    throw io::IoError(io::ErrorKind::kBadPayload, "QL scheme RNG state");
  }
  const std::uint64_t records = in.u64();
  if (records != config_.history) {
    throw io::IoError(io::ErrorKind::kStateMismatch,
                      "stored window has " + std::to_string(records) +
                          " records, scheme history is " +
                          std::to_string(config_.history));
  }
  std::vector<double> window(3 * config_.history);
  for (double& v : window) v = in.f64();
  const bool has_pending = in.u8() != 0;
  std::vector<double> pending_state = in.f64_vec();
  const std::uint64_t pending_action = in.u64();
  if (has_pending && pending_state.size() != 3 * config_.history) {
    throw io::IoError(io::ErrorKind::kBadPayload,
                      "pending state has the wrong dimension");
  }
  if (has_pending && pending_action >= agent_.config().num_actions) {
    throw io::IoError(io::ErrorKind::kBadPayload,
                      "pending action out of range");
  }

  // The agent loader keeps the strong guarantee itself; loading it first
  // means nothing above has mutated the scheme when it throws.
  agent_.load_state(in);
  training_ = training;
  deploy_rng_ = deploy_rng;
  window_ = std::move(window);
  pending_state_ = std::move(pending_state);
  pending_action_ = static_cast<std::size_t>(pending_action);
  has_pending_ = has_pending;
}

void QLearningScheme::feedback(const SlotFeedback& feedback) {
  slide_window(window_, feedback.success, feedback.channel,
               feedback.power_index, config_.num_channels,
               config_.num_power_levels);
  if (has_pending_ && training_) {
    agent_.update(pending_state_, pending_action_, feedback.reward, window_);
  }
  has_pending_ = false;
}

}  // namespace ctj::core
