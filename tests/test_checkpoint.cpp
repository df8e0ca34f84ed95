// Checkpoint & resume tests for the training stack: RNG stream round trips,
// agent/scheme state round trips with the strong no-mutation-on-failure
// guarantee, replay-ring persistence, and the headline property — a killed
// and resumed training run is bit-identical to an uninterrupted one, for
// both the sequential and the batched trainer.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/environment.hpp"
#include "core/trainer.hpp"
#include "io/container.hpp"
#include "rl/replay.hpp"

using namespace ctj;
using namespace ctj::core;

namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

DqnScheme::Config small_scheme_config() {
  DqnScheme::Config config;
  config.history = 2;
  config.hidden = {8};
  config.epsilon_decay_steps = 200;
  config.seed = 99;
  return config;
}

EnvironmentConfig small_env_config() {
  auto config = EnvironmentConfig::defaults();
  config.seed = 5;
  return config;
}

std::string scheme_bytes(const DqnScheme& scheme) {
  io::ContainerWriter out;
  scheme.save_state(out);
  return out.to_bytes();
}

rl::Transition make_transition(double tag) {
  rl::Transition t;
  t.state = {tag, tag + 0.25};
  t.action = static_cast<std::size_t>(tag) % 3;
  t.reward = -tag;
  t.next_state = {tag + 0.5, tag + 0.75};
  t.done = false;
  return t;
}

void expect_same_transition(const rl::Transition& a, const rl::Transition& b) {
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.action, b.action);
  EXPECT_EQ(a.reward, b.reward);
  EXPECT_EQ(a.next_state, b.next_state);
  EXPECT_EQ(a.done, b.done);
}

}  // namespace

TEST(RngState, RoundTripPreservesDrawStream) {
  Rng rng(1234);
  rng.uniform();
  // One normal draw primes the Box–Muller spare — the half of the
  // distribution state a naive engine-only serialization would lose.
  rng.normal();

  const std::string state = rng.serialize_state();
  std::vector<double> expected;
  for (int i = 0; i < 16; ++i) {
    expected.push_back(rng.uniform());
    expected.push_back(rng.normal());
    expected.push_back(static_cast<double>(rng.index(1000)));
  }

  Rng restored(1);  // different seed: state must come wholly from the text
  restored.restore_state(state);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(restored.uniform(), expected[3 * i]);
    EXPECT_EQ(restored.normal(), expected[3 * i + 1]);
    EXPECT_EQ(static_cast<double>(restored.index(1000)), expected[3 * i + 2]);
  }
}

TEST(RngState, MalformedStateThrowsWithoutMutating) {
  Rng rng(7);
  const std::string before = rng.serialize_state();
  EXPECT_THROW(rng.restore_state("not an rng state"), CheckFailure);
  EXPECT_EQ(rng.serialize_state(), before);
}

TEST(ReplayState, MidWrapRoundTrip) {
  rl::ReplayBuffer ring(4);
  for (int i = 0; i < 6; ++i) ring.push(make_transition(i));  // wrapped twice
  ASSERT_EQ(ring.size(), 4u);
  ASSERT_EQ(ring.cursor(), 2u);

  io::ByteWriter w;
  ring.save_state(w);
  rl::ReplayBuffer restored(4);
  io::ByteReader r(w.buffer());
  restored.load_state(r);

  EXPECT_EQ(restored.size(), ring.size());
  EXPECT_EQ(restored.cursor(), ring.cursor());
  for (std::size_t i = 0; i < ring.size(); ++i) {
    expect_same_transition(restored.at(i), ring.at(i));
  }

  // The restored ring keeps overwriting exactly where the original would.
  ring.push(make_transition(50));
  restored.push(make_transition(50));
  EXPECT_EQ(restored.cursor(), ring.cursor());
  for (std::size_t i = 0; i < ring.size(); ++i) {
    expect_same_transition(restored.at(i), ring.at(i));
  }
}

TEST(ReplayState, SamplingOrderIsDeterministicAcrossSaveLoad) {
  rl::ReplayBuffer ring(16);
  for (int i = 0; i < 12; ++i) ring.push(make_transition(i));
  Rng rng(42);
  rng.uniform();  // advance to a non-trivial point
  const std::string rng_state = rng.serialize_state();

  io::ByteWriter w;
  ring.save_state(w);

  const auto batch_a = ring.sample(8, rng);

  rl::ReplayBuffer restored(16);
  io::ByteReader r(w.buffer());
  restored.load_state(r);
  Rng rng_b(7);
  rng_b.restore_state(rng_state);
  const auto batch_b = restored.sample(8, rng_b);

  ASSERT_EQ(batch_a.size(), batch_b.size());
  for (std::size_t i = 0; i < batch_a.size(); ++i) {
    expect_same_transition(*batch_a[i], *batch_b[i]);
  }
}

TEST(ReplayState, CapacityMismatchThrowsWithoutMutating) {
  rl::ReplayBuffer ring(4);
  for (int i = 0; i < 3; ++i) ring.push(make_transition(i));
  io::ByteWriter w;
  ring.save_state(w);

  rl::ReplayBuffer other(8);
  other.push(make_transition(77));
  io::ByteReader r(w.buffer());
  try {
    other.load_state(r);
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kStateMismatch);
  }
  ASSERT_EQ(other.size(), 1u);
  expect_same_transition(other.at(0), make_transition(77));
}

TEST(SchemeState, SaveLoadSaveIsByteIdentical) {
  DqnScheme trained(small_scheme_config());
  CompetitionEnvironment env(small_env_config());
  TrainerConfig config;
  config.max_slots = 350;
  config.reward_window = 50;
  train(trained, env, config);

  const std::string first = scheme_bytes(trained);

  DqnScheme restored(small_scheme_config());
  restored.load_state(io::ContainerReader::from_bytes(first));
  EXPECT_EQ(scheme_bytes(restored), first);

  // The restored scheme also behaves identically.
  const auto obs = trained.observation();
  EXPECT_EQ(restored.observation(), obs);
  EXPECT_EQ(restored.agent().act_greedy(obs), trained.agent().act_greedy(obs));
}

TEST(SchemeState, ReadConfigReconstructsMatchingScheme) {
  DqnScheme source(small_scheme_config());
  const std::string path = temp_path("ctj_scheme_cfg.ctjs");
  save_scheme(source, path);

  const DqnScheme::Config config = read_scheme_config(path);
  EXPECT_EQ(config.history, small_scheme_config().history);
  EXPECT_EQ(config.hidden, small_scheme_config().hidden);
  EXPECT_EQ(config.seed, small_scheme_config().seed);

  DqnScheme clone(config);
  load_scheme(clone, path);
  EXPECT_EQ(scheme_bytes(clone), scheme_bytes(source));
  std::filesystem::remove(path);
}

TEST(SchemeState, ConfigMismatchThrowsWithoutMutating) {
  DqnScheme source(small_scheme_config());
  io::ContainerWriter out;
  source.save_state(out);
  const io::ContainerReader in = io::ContainerReader::from_bytes(out.to_bytes());

  auto other_config = small_scheme_config();
  other_config.hidden = {16};
  DqnScheme other(other_config);
  const std::string before = scheme_bytes(other);
  try {
    other.load_state(in);
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kStateMismatch);
  }
  EXPECT_EQ(scheme_bytes(other), before);
}

TEST(SchemeState, CorruptChunkPayloadThrowsWithoutMutating) {
  DqnScheme source(small_scheme_config());
  CompetitionEnvironment env(small_env_config());
  TrainerConfig config;
  config.max_slots = 300;
  config.reward_window = 50;
  train(source, env, config);

  // Rebuild the container with the replay payload truncated: CRCs are
  // re-stamped so only the payload decoder can catch it.
  io::ContainerWriter original;
  source.save_state(original);
  const io::ContainerReader in =
      io::ContainerReader::from_bytes(original.to_bytes());
  io::ContainerWriter tampered;
  for (const io::ChunkInfo& chunk : in.chunks()) {
    std::string payload(in.chunk(chunk.tag));
    if (chunk.tag == "REPLAY") payload.resize(payload.size() - 8);
    tampered.add_chunk(chunk.tag, std::move(payload));
  }

  DqnScheme victim(small_scheme_config());
  const std::string before = scheme_bytes(victim);
  EXPECT_THROW(
      victim.load_state(io::ContainerReader::from_bytes(tampered.to_bytes())),
      io::IoError);
  EXPECT_EQ(scheme_bytes(victim), before);
}

TEST(SchemeState, FlippedBytesInModelFileAlwaysThrow) {
  DqnScheme source(small_scheme_config());
  io::ContainerWriter out;
  add_meta_chunk(out, "model");
  source.save_state(out);
  const std::string bytes = out.to_bytes();
  // Sampled single-byte corruption sweep over a real model file (every
  // byte is exercised exhaustively at container level in test_io.cpp).
  for (std::size_t i = 0; i < bytes.size(); i += 13) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x20);
    EXPECT_THROW(io::ContainerReader::from_bytes(std::move(corrupt)),
                 io::IoError)
        << "flipped byte " << i << " went undetected";
  }
}

TEST(PolicyState, LoadPolicyRestoresGreedyBehaviourOnly) {
  DqnScheme trained(small_scheme_config());
  CompetitionEnvironment env(small_env_config());
  TrainerConfig config;
  config.max_slots = 300;
  config.reward_window = 50;
  train(trained, env, config);
  const std::string path = temp_path("ctj_policy.ctjs");
  save_scheme(trained, path);

  DqnScheme fresh(small_scheme_config());
  load_policy(fresh, path);
  const auto obs = trained.observation();
  EXPECT_EQ(fresh.agent().act_greedy(obs), trained.agent().act_greedy(obs));
  // Training state was deliberately not restored.
  EXPECT_EQ(fresh.agent().steps(), 0u);
  std::filesystem::remove(path);
}

TEST(TrainerCheckpoint, KillResumeIsBitIdenticalSequential) {
  const std::string path = temp_path("ctj_resume_seq.ctjs");
  std::filesystem::remove(path);

  TrainerConfig config;
  config.max_slots = 400;
  config.reward_window = 50;

  // Reference: one uninterrupted run.
  std::vector<double> ref_rewards;
  config.on_slot = [&](std::size_t, double r) { ref_rewards.push_back(r); };
  DqnScheme ref(small_scheme_config());
  CompetitionEnvironment ref_env(small_env_config());
  const auto ref_stats = train(ref, ref_env, config);
  ASSERT_EQ(ref_rewards.size(), 400u);

  // Killed + resumed: phase 1 stops at slot 250, phase 2 picks the
  // checkpoint up with the full budget in a fresh process-equivalent
  // (new scheme and environment objects).
  std::vector<double> rewards;
  config.on_slot = [&](std::size_t, double r) { rewards.push_back(r); };
  config.checkpoint = CheckpointOptions{path, 100, true};
  {
    TrainerConfig phase1 = config;
    phase1.max_slots = 250;
    DqnScheme scheme(small_scheme_config());
    CompetitionEnvironment env(small_env_config());
    train(scheme, env, phase1);
  }
  DqnScheme resumed(small_scheme_config());
  CompetitionEnvironment env(small_env_config());
  const auto stats = train(resumed, env, config);

  EXPECT_EQ(stats.slots_trained, 400u);
  EXPECT_EQ(stats.final_mean_reward, ref_stats.final_mean_reward);
  EXPECT_EQ(rewards, ref_rewards);  // identical per-slot reward stream
  EXPECT_EQ(scheme_bytes(resumed), scheme_bytes(ref));  // bit-identical state
  std::filesystem::remove(path);
}

TEST(TrainerCheckpoint, KillResumeIsBitIdenticalAdaptiveJammer) {
  // Same kill/resume discipline against the behavioural adaptive jammer:
  // its checkpoint payload must carry BOTH of its RNG streams (own + nested
  // sweeper) and the visit histogram, or the resumed run diverges from the
  // reference within a few slots.
  const std::string path = temp_path("ctj_resume_adaptive.ctjs");
  std::filesystem::remove(path);

  EnvironmentConfig env_config = small_env_config();
  env_config.jammer = jammer::JammerSpec::defaults("adaptive");

  TrainerConfig config;
  config.max_slots = 400;
  config.reward_window = 50;

  std::vector<double> ref_rewards;
  config.on_slot = [&](std::size_t, double r) { ref_rewards.push_back(r); };
  DqnScheme ref(small_scheme_config());
  CompetitionEnvironment ref_env(env_config);
  const auto ref_stats = train(ref, ref_env, config);
  ASSERT_EQ(ref_rewards.size(), 400u);

  std::vector<double> rewards;
  config.on_slot = [&](std::size_t, double r) { rewards.push_back(r); };
  config.checkpoint = CheckpointOptions{path, 100, true};
  {
    TrainerConfig phase1 = config;
    phase1.max_slots = 250;
    DqnScheme scheme(small_scheme_config());
    CompetitionEnvironment env(env_config);
    train(scheme, env, phase1);
  }
  DqnScheme resumed(small_scheme_config());
  CompetitionEnvironment env(env_config);
  const auto stats = train(resumed, env, config);

  EXPECT_EQ(stats.slots_trained, 400u);
  EXPECT_EQ(stats.final_mean_reward, ref_stats.final_mean_reward);
  EXPECT_EQ(rewards, ref_rewards);
  EXPECT_EQ(scheme_bytes(resumed), scheme_bytes(ref));
  std::filesystem::remove(path);
}

TEST(TrainerCheckpoint, ResumeRejectsDifferentJammerSpec) {
  // A checkpoint written against one adversary must not resume against
  // another: the JAMRCFG chunk check throws kStateMismatch.
  const std::string path = temp_path("ctj_resume_wrong_jammer.ctjs");
  std::filesystem::remove(path);

  EnvironmentConfig env_config = small_env_config();
  env_config.jammer = jammer::JammerSpec::defaults("reactive");

  TrainerConfig config;
  config.max_slots = 150;
  config.reward_window = 50;
  config.checkpoint = CheckpointOptions{path, 100, true};
  {
    DqnScheme scheme(small_scheme_config());
    CompetitionEnvironment env(env_config);
    train(scheme, env, config);
  }

  EnvironmentConfig other = small_env_config();
  other.jammer = jammer::JammerSpec::defaults("sweep");
  DqnScheme resumed(small_scheme_config());
  CompetitionEnvironment env(other);
  config.max_slots = 400;
  EXPECT_THROW(train(resumed, env, config), io::IoError);
  std::filesystem::remove(path);
}

TEST(TrainerCheckpoint, KillResumeIsBitIdenticalBatched) {
  const std::string path = temp_path("ctj_resume_batched.ctjs");
  std::filesystem::remove(path);
  const std::size_t replicas = 3;

  TrainerConfig config;
  config.max_slots = 402;  // multiple of the replica count
  config.reward_window = 50;

  std::vector<double> ref_rewards;
  config.on_slot = [&](std::size_t, double r) { ref_rewards.push_back(r); };
  DqnScheme ref(small_scheme_config());
  const auto ref_stats =
      train_batched(ref, small_env_config(), config, replicas);
  ASSERT_EQ(ref_rewards.size(), 402u);

  std::vector<double> rewards;
  config.on_slot = [&](std::size_t, double r) { rewards.push_back(r); };
  config.checkpoint = CheckpointOptions{path, 100, true};
  {
    TrainerConfig phase1 = config;
    phase1.max_slots = 201;
    DqnScheme scheme(small_scheme_config());
    train_batched(scheme, small_env_config(), phase1, replicas);
  }
  DqnScheme resumed(small_scheme_config());
  const auto stats =
      train_batched(resumed, small_env_config(), config, replicas);

  EXPECT_EQ(stats.slots_trained, 402u);
  EXPECT_EQ(stats.final_mean_reward, ref_stats.final_mean_reward);
  EXPECT_EQ(rewards, ref_rewards);
  EXPECT_EQ(scheme_bytes(resumed), scheme_bytes(ref));
  std::filesystem::remove(path);
}

TEST(TrainerCheckpoint, ResumeWithNothingLeftToDoIsStable) {
  const std::string path = temp_path("ctj_resume_done.ctjs");
  std::filesystem::remove(path);

  TrainerConfig config;
  config.max_slots = 200;
  config.reward_window = 50;
  config.checkpoint = CheckpointOptions{path, 0, true};
  {
    DqnScheme scheme(small_scheme_config());
    CompetitionEnvironment env(small_env_config());
    train(scheme, env, config);
  }
  std::ifstream f1(path, std::ios::binary);
  std::stringstream s1;
  s1 << f1.rdbuf();

  std::size_t extra_slots = 0;
  config.on_slot = [&](std::size_t, double) { ++extra_slots; };
  DqnScheme scheme(small_scheme_config());
  CompetitionEnvironment env(small_env_config());
  const auto stats = train(scheme, env, config);
  EXPECT_EQ(stats.slots_trained, 200u);
  EXPECT_EQ(extra_slots, 0u);  // no retraining happened

  std::ifstream f2(path, std::ios::binary);
  std::stringstream s2;
  s2 << f2.rdbuf();
  EXPECT_EQ(s1.str(), s2.str());  // rewrite is byte-identical
  std::filesystem::remove(path);
}

TEST(TrainerCheckpoint, ResumeValidatesTrainerConfig) {
  const std::string path = temp_path("ctj_resume_cfg.ctjs");
  std::filesystem::remove(path);

  TrainerConfig config;
  config.max_slots = 150;
  config.reward_window = 50;
  config.checkpoint = CheckpointOptions{path, 0, true};
  {
    DqnScheme scheme(small_scheme_config());
    CompetitionEnvironment env(small_env_config());
    train(scheme, env, config);
  }

  TrainerConfig changed = config;
  changed.reward_window = 60;
  DqnScheme scheme(small_scheme_config());
  CompetitionEnvironment env(small_env_config());
  try {
    train(scheme, env, changed);
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kStateMismatch);
  }

  // A batched trainer must refuse a sequential checkpoint outright.
  DqnScheme batched(small_scheme_config());
  TrainerConfig batched_config = config;
  batched_config.max_slots = 150;
  try {
    train_batched(batched, small_env_config(), batched_config, 3);
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kStateMismatch);
  }
  std::filesystem::remove(path);

  // Mode 2 belonged to the retired parallel trainer: both trainers must
  // refuse such a checkpoint with a typed mismatch.
  const std::string retired_path = temp_path("ctj_resume_mode2.ctjs");
  {
    io::ContainerWriter out;
    add_meta_chunk(out, "trainer");
    TrainProgress progress;
    progress.mode = 2;
    progress.replicas = 3;
    write_train_progress(out, progress, config);
    out.write_file(retired_path);
  }
  TrainerConfig retired = config;
  retired.checkpoint = CheckpointOptions{retired_path, 0, true};
  try {
    DqnScheme s(small_scheme_config());
    CompetitionEnvironment e(small_env_config());
    train(s, e, retired);
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kStateMismatch);
  }
  try {
    DqnScheme s(small_scheme_config());
    train_batched(s, small_env_config(), retired, 3);
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kStateMismatch);
  }
  std::filesystem::remove(retired_path);
}
