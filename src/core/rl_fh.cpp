#include "core/rl_fh.hpp"

#include "common/check.hpp"
#include "core/vector_env.hpp"

namespace ctj::core {

rl::DqnConfig DqnScheme::make_dqn_config(const Config& config) {
  rl::DqnConfig dqn;
  dqn.state_dim = 3 * config.history;
  dqn.num_actions = static_cast<std::size_t>(config.num_channels) *
                    config.num_power_levels;
  dqn.hidden = config.hidden;
  dqn.learning_rate = config.learning_rate;
  dqn.gamma = config.gamma;
  dqn.epsilon_start = config.epsilon_start;
  dqn.epsilon_end = config.epsilon_end;
  dqn.epsilon_decay_steps = config.epsilon_decay_steps;
  dqn.double_dqn = config.double_dqn;
  dqn.target_sync_interval = config.target_sync_interval;
  dqn.target_tau = config.target_tau;
  dqn.seed = config.seed;
  return dqn;
}

DqnScheme::DqnScheme(const Config& config)
    : config_(config),
      agent_(make_dqn_config(config)),
      deploy_rng_(config.seed ^ 0xD09ULL),
      training_(config.training) {
  CTJ_CHECK(config.deploy_epsilon >= 0.0 && config.deploy_epsilon < 1.0);
  CTJ_CHECK(config.num_channels >= 2);
  CTJ_CHECK(config.num_power_levels > 0);
  CTJ_CHECK(config.history > 0);
  reset();
}

void DqnScheme::set_deploy_epsilon(double epsilon) {
  CTJ_CHECK(epsilon >= 0.0 && epsilon < 1.0);
  config_.deploy_epsilon = epsilon;
}

void DqnScheme::reset() {
  window_.assign(3 * config_.history, 0.0);
  has_pending_ = false;
}

std::vector<double> DqnScheme::observation() const { return window_; }

SchemeDecision DqnScheme::decide() {
  std::size_t action;
  if (training_) {
    action = agent_.act(window_);
  } else if (config_.deploy_epsilon > 0.0 &&
             deploy_rng_.bernoulli(config_.deploy_epsilon)) {
    // Deployed ε-greedy (Sec. III.C): occasional random action keeps the
    // channel pattern unpredictable to the sweeping jammer.
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

void DqnScheme::save_state(io::ContainerWriter& out) const {
  io::ByteWriter cfg;
  cfg.i32(config_.num_channels);
  cfg.u64(config_.num_power_levels);
  cfg.u64(config_.history);
  cfg.u8(config_.training ? 1 : 0);
  cfg.f64(config_.deploy_epsilon);
  cfg.f64(config_.learning_rate);
  cfg.f64(config_.gamma);
  cfg.f64(config_.epsilon_start);
  cfg.f64(config_.epsilon_end);
  cfg.u64(config_.epsilon_decay_steps);
  cfg.u64(config_.hidden.size());
  for (std::size_t h : config_.hidden) cfg.u64(h);
  cfg.u8(config_.double_dqn ? 1 : 0);
  cfg.u64(config_.target_sync_interval);
  cfg.f64(config_.target_tau);
  cfg.u64(config_.seed);
  out.add_chunk(io::tags::kSchemeCfg, cfg.take());

  io::ByteWriter state;
  state.u8(training_ ? 1 : 0);
  state.str(deploy_rng_.serialize_state());
  state.u64(config_.history);
  for (double v : window_) state.f64(v);
  state.u8(has_pending_ ? 1 : 0);
  state.f64_vec(pending_state_);
  state.u64(pending_action_);
  out.add_chunk(io::tags::kSchemeState, state.take());

  agent_.save_state(out);
}

DqnScheme::Config DqnScheme::read_config(const io::ContainerReader& in) {
  io::ByteReader cfg(in.chunk(io::tags::kSchemeCfg));
  Config config;
  config.num_channels = cfg.i32();
  config.num_power_levels = static_cast<std::size_t>(cfg.u64());
  config.history = static_cast<std::size_t>(cfg.u64());
  config.training = cfg.u8() != 0;
  config.deploy_epsilon = cfg.f64();
  config.learning_rate = cfg.f64();
  config.gamma = cfg.f64();
  config.epsilon_start = cfg.f64();
  config.epsilon_end = cfg.f64();
  config.epsilon_decay_steps = static_cast<std::size_t>(cfg.u64());
  const std::uint64_t hidden_count = cfg.u64();
  if (hidden_count > 1024) {
    throw io::IoError(io::ErrorKind::kBadPayload,
                      "implausible hidden layer count " +
                          std::to_string(hidden_count));
  }
  config.hidden.clear();
  for (std::uint64_t i = 0; i < hidden_count; ++i) {
    config.hidden.push_back(static_cast<std::size_t>(cfg.u64()));
  }
  config.double_dqn = cfg.u8() != 0;
  config.target_sync_interval = static_cast<std::size_t>(cfg.u64());
  config.target_tau = cfg.f64();
  config.seed = cfg.u64();
  cfg.expect_end();
  return config;
}

void DqnScheme::load_state(const io::ContainerReader& in) {
  const Config stored = read_config(in);
  // `training` is runtime state (set_training flips it after construction),
  // restored from SCHMST below; every constructive field must match.
  if (stored.num_channels != config_.num_channels ||
      stored.num_power_levels != config_.num_power_levels ||
      stored.history != config_.history ||
      stored.deploy_epsilon != config_.deploy_epsilon ||
      stored.learning_rate != config_.learning_rate ||
      stored.gamma != config_.gamma ||
      stored.epsilon_start != config_.epsilon_start ||
      stored.epsilon_end != config_.epsilon_end ||
      stored.epsilon_decay_steps != config_.epsilon_decay_steps ||
      stored.hidden != config_.hidden ||
      stored.double_dqn != config_.double_dqn ||
      stored.target_sync_interval != config_.target_sync_interval ||
      stored.target_tau != config_.target_tau ||
      stored.seed != config_.seed) {
    throw io::IoError(io::ErrorKind::kStateMismatch,
                      "checkpoint DqnScheme::Config differs from this scheme");
  }

  io::ByteReader state(in.chunk(io::tags::kSchemeState));
  const bool training = state.u8() != 0;
  const std::string rng_text = state.str();
  Rng deploy_rng;
  try {
    deploy_rng.restore_state(rng_text);
  } catch (const CheckFailure&) {
    throw io::IoError(io::ErrorKind::kBadPayload, "scheme RNG state");
  }
  const std::uint64_t records = state.u64();
  if (records != config_.history) {
    throw io::IoError(io::ErrorKind::kStateMismatch,
                      "checkpoint window has " + std::to_string(records) +
                          " records, scheme history is " +
                          std::to_string(config_.history));
  }
  std::vector<double> window(3 * config_.history);
  for (double& v : window) v = state.f64();
  const bool has_pending = state.u8() != 0;
  std::vector<double> pending_state = state.f64_vec();
  const std::uint64_t pending_action = state.u64();
  state.expect_end();
  if (has_pending && pending_state.size() != 3 * config_.history) {
    throw io::IoError(io::ErrorKind::kBadPayload,
                      "pending state has the wrong dimension");
  }
  if (has_pending && pending_action >= agent_.config().num_actions) {
    throw io::IoError(io::ErrorKind::kBadPayload,
                      "pending action out of range");
  }

  // The agent loader keeps the strong guarantee itself; putting it last
  // means nothing above has mutated the scheme yet either.
  agent_.load_state(in);
  training_ = training;
  deploy_rng_ = deploy_rng;
  window_ = std::move(window);
  pending_state_ = std::move(pending_state);
  pending_action_ = static_cast<std::size_t>(pending_action);
  has_pending_ = has_pending;
}

void DqnScheme::feedback(const SlotFeedback& feedback) {
  slide_window(window_, feedback.success, feedback.channel,
               feedback.power_index, config_.num_channels,
               config_.num_power_levels);

  if (has_pending_ && training_) {
    rl::Transition transition;
    transition.state = std::move(pending_state_);
    transition.action = pending_action_;
    transition.reward = feedback.reward;
    transition.next_state = window_;
    transition.done = false;  // continuing competition
    agent_.observe(std::move(transition));
  }
  has_pending_ = false;
}

}  // namespace ctj::core
