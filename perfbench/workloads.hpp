// The three phases every perfbench run executes, interleaved in rounds:
//
//   fig_point   the paper's Figs. 6-8 protocol, single-threaded closed loop:
//               train the paper-default DqnScheme with core::train_batched,
//               then evaluate the frozen policy greedily with
//               core::evaluate_batched. Training is ~95% learner, evaluation
//               is inference plus env stepping, so an rl or core change
//               shows in one phase and not the other.
//   serve_fleet a 3-worker serve::ServeEngine fed DQN training jobs,
//               open-loop at a fixed arrival rate (latency from due time)
//               and in bursts (throughput). The residency cap is below the
//               in-flight count, so spool evict/revive is on the blocking
//               path. The only phase that exercises serve and io.
//   emubee_phy  a seeded stream of designed ZigBee packets through one
//               warm-start phy::EmuBeeEmulator, then phy::assess_fidelity.
//               Exercises phy and the common SIMD kernels and bypasses
//               rl/core/serve: a learner or serve change predicts no change
//               here.
//
// The adversary is the workload: `sweep` drives the behavioural sweep jammer
// from the registry inside every env step; `kernel` samples the closed-form
// MDP kernel, which bypasses the jammer layer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "jammer/registry.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;          // "sweep" | "kernel"
  std::uint64_t seed = 1;
  double seconds = 30.0;         // measured time of the whole run
  bool trace = false;
  std::string spool_dir;         // serve eviction spool (inside the checkout)
};

/// Set-ups timed per round (timed_setup); setup_s sums the phases' medians.
constexpr std::size_t kSetupReps = 7;

/// The adversary a workload name selects; throws std::invalid_argument for
/// an unknown name.
ctj::jammer::JammerSpec workload_jammer(const std::string& workload);

/// Output of one phase. `e2e` holds the untraced end-to-end metrics; with
/// tracing on, `layer` holds the per-layer metrics of the traced round.
/// Every checked output is one attempted operation.
struct PhaseResult {
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  /// The e2e figures before scaling by host speed, and the host speeds the
  /// chunks saw (single-threaded phases only).
  std::vector<Metric> raw;
  std::vector<double> speeds;
  /// Seconds each round spent before its timed part: constructing the
  /// scheme and nets, engine and spool directory, emulator, seeded inputs.
  std::vector<double> setup_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed check

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

/// A phase runs in rounds. A run interleaves one round of each phase until
/// its time is up, so every metric samples the whole run: on a shared host
/// the neighbours' load drifts over tens of seconds, and a phase measured
/// in one slice of the run would see only that slice. With tracing on, the
/// first round does its work untraced and then again traced on the same
/// inputs; the traced work gives the per-layer metrics and
/// trace.overhead_ratio.* compares the two.
class Phase {
 public:
  virtual ~Phase() = default;
  virtual void round(Tracer* tracer) = 0;
  /// Fill result().e2e (and, with a tracer, result().layer) from all rounds.
  virtual void finish(Tracer* tracer) = 0;
  PhaseResult& result() { return out_; }

 protected:
  PhaseResult out_;
};

std::unique_ptr<Phase> fig_point_phase(const RunOptions& opt);
std::unique_ptr<Phase> serve_fleet_phase(const RunOptions& opt);
std::unique_ptr<Phase> emubee_phy_phase(const RunOptions& opt);

}  // namespace perfbench
