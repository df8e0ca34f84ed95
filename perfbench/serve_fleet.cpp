// serve_fleet: DQN training jobs through a 3-worker ServeEngine, first
// open-loop at a fixed arrival rate, then as one burst.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "serve/engine.hpp"
#include "serve/tenant.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ctj;

// Three workers plus the generator thread: four threads, one per CPU of the
// 4-CPU host the rate below was set on. Fixed, not taken from the host.
constexpr std::size_t kWorkers = 3;
// Below the in-flight count of both phases, so evict/revive runs steadily:
// whenever two jobs are in flight, the one that just ran its quantum is
// spooled out.
constexpr std::size_t kMaxResident = 1;
constexpr std::size_t kQuantum = 128;
// A job trains: its budget is several quanta and exceeds the agent's
// min_replay_before_training (256).
constexpr std::uint64_t kJobSlots = 512;
// Open loop: one segment in every round, so the latencies sample the whole
// run, and at least kMinSegments of them (finish() runs any missing), so
// that ten latencies lie beyond p95 (200 needed). Open-loop jobs are
// numbered from kOpenLoopFirstJob, apart from the burst jobs.
constexpr std::size_t kSegmentJobs = 48;
constexpr std::size_t kMinSegments = 5;
constexpr std::uint64_t kOpenLoopFirstJob = 1u << 20;
// About half the burst capacity (24k slots/s = 47 jobs/s) of a 4-CPU host.
// At two thirds, neighbours slowing a shared host by 20-30% pushed the open
// loop close to saturation, and its p95 swung by more than a quarter from
// run to run. Arrivals are Poisson, drawn from the seed: one job alone takes
// about as long (40 ms) as the mean gap, so with evenly spaced arrivals a
// small change of host speed flipped most jobs between running alone and
// overlapping the next (with an eviction per quantum), and the p50 jumped.
constexpr double kArrivalRate = 24.0;
constexpr double kPollInterval = 0.5e-3;
constexpr std::size_t kBurstJobs = 24;
constexpr std::size_t kBurstsPerRound = 2;
// Jobs driven through TenantRunner directly to time quanta and spool I/O.
constexpr std::size_t kMirrorJobs = 8;

serve::JobSpec job_spec(const RunOptions& opt, std::uint64_t index) {
  serve::JobSpec spec;
  spec.scheme = "dqn";
  spec.jammer = workload_jammer(opt.workload);
  spec.seed = opt.seed * 100003 + index;
  spec.slots = kJobSlots;
  spec.reward_window = 256;
  return spec;
}

// Seeded Poisson arrival offsets of one open-loop segment; job 0 is due at 0.
std::vector<double> arrival_offsets(const RunOptions& opt, std::uint64_t segment) {
  Rng rng(opt.seed * 7919 + segment + 0x0A11E5ULL);
  std::vector<double> offsets(kSegmentJobs, 0.0);
  for (std::size_t i = 1; i < kSegmentJobs; ++i) {
    offsets[i] = offsets[i - 1] + rng.exponential(kArrivalRate);
  }
  return offsets;
}

serve::ServeConfig engine_config(const std::string& spool_dir) {
  serve::ServeConfig config;
  config.workers = kWorkers;
  config.max_resident = kMaxResident;
  config.quantum_slots = kQuantum;
  config.spool_dir = spool_dir;
  return config;
}

void sleep_until_s(double t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(static_cast<std::int64_t>(t * 1e9))));
}

bool finished(serve::JobState s) {
  return s == serve::JobState::kDone || s == serve::JobState::kFailed;
}

struct OpenLoopRun {
  std::vector<OpenLoopRecord> records;
  serve::EngineStats stats;
  std::uint64_t resident_max = 0;
  double speed = 1.0;  // StretchSpeed of the segment
};

OpenLoopRun open_loop(const RunOptions& opt, std::uint64_t segment,
                      const std::string& spool, Tracer* tr, PhaseResult& out) {
  const double s0 = now_s();
  const std::uint64_t first_job = kOpenLoopFirstJob + segment * kSegmentJobs;
  std::vector<serve::JobSpec> specs;
  for (std::size_t i = 0; i < kSegmentJobs; ++i) {
    specs.push_back(job_spec(opt, first_job + i));
  }
  std::vector<double> offsets = arrival_offsets(opt, segment);
  std::filesystem::create_directories(spool);
  serve::ServeEngine engine(engine_config(spool));
  out.setup_s.push_back(now_s() - s0);

  std::vector<std::uint64_t> ids(kSegmentJobs);
  OpenLoopRun run;
  const StretchSpeed speed;
  // The generator submits and polls on its own thread, next to the three
  // workers.
  std::thread generator([&] {
    run.records = run_open_loop(
        OpenLoopSchedule{now_s(), std::move(offsets)}, kPollInterval, now_s,
        [&](double until) {
          run.resident_max =
              std::max(run.resident_max, engine.stats().resident);
          sleep_until_s(until);
        },
        [&](std::size_t i) {
          Scope s(tr, "serve.submit");
          ids[i] = engine.submit(specs[i]);
        },
        [&](std::size_t i) {
          const serve::JobStatus st = engine.status(ids[i]);
          return JobProgress{st.slots_done > 0, finished(st.state)};
        });
  });
  generator.join();
  run.speed = speed.stop();
  run.stats = engine.stats();
  for (std::size_t i = 0; i < kSegmentJobs; ++i) {
    out.check(engine.status(ids[i]).state == serve::JobState::kDone,
              "serve_fleet: open-loop job " + std::to_string(first_job + i) +
                  " did not complete");
  }
  return run;
}

struct BurstRun {
  double slots_per_sec = 0.0;  // divided by speed
  double raw_slots_per_sec = 0.0;
  double speed = 1.0;  // StretchSpeed of the burst
  serve::EngineStats stats;
  std::uint64_t resident_max = 0;
  serve::JobResult probe;  // result of burst job 0
};

BurstRun burst(const RunOptions& opt, std::size_t first_job,
               const std::string& spool, Tracer* tr, PhaseResult& out) {
  const double s0 = now_s();
  std::vector<serve::JobSpec> specs;
  for (std::size_t i = 0; i < kBurstJobs; ++i) {
    specs.push_back(job_spec(opt, first_job + i));
  }
  std::filesystem::create_directories(spool);
  serve::ServeEngine engine(engine_config(spool));
  out.setup_s.push_back(now_s() - s0);

  BurstRun run;
  std::vector<std::uint64_t> ids;
  const StretchSpeed speed;
  const double t0 = now_s();
  for (const serve::JobSpec& spec : specs) {
    Scope s(tr, "serve.submit");
    ids.push_back(engine.submit(spec));
  }
  for (const std::uint64_t id : ids) {
    while (!finished(engine.status(id).state)) {
      run.resident_max = std::max(run.resident_max, engine.stats().resident);
      sleep_until_s(now_s() + kPollInterval);
    }
  }
  const double t1 = now_s();
  run.speed = speed.stop();
  run.raw_slots_per_sec =
      static_cast<double>(kBurstJobs * kJobSlots) / (t1 - t0);
  run.slots_per_sec = run.raw_slots_per_sec / run.speed;
  run.stats = engine.stats();
  for (std::size_t i = 0; i < kBurstJobs; ++i) {
    out.check(engine.status(ids[i]).state == serve::JobState::kDone,
              "serve_fleet: burst job " + std::to_string(i) +
                  " did not complete");
  }
  run.probe = engine.wait(ids[0]);
  return run;
}

bool same_result(const serve::JobResult& a, const serve::JobResult& b) {
  return a.reward_crc == b.reward_crc && a.state_crc == b.state_crc &&
         a.slots_run == b.slots_run;
}

// Drive burst jobs through TenantRunner::run one quantum at a time, saving
// and reviving the runner between quanta as an eviction would. Returns the
// result of the first job.
serve::JobResult mirror_runners(const RunOptions& opt, const std::string& spool,
                                Tracer& tr) {
  std::filesystem::create_directories(spool);
  serve::JobResult first;
  for (std::size_t j = 0; j < kMirrorJobs; ++j) {
    const serve::JobSpec spec = job_spec(opt, j);
    const std::string path = spool + "/mirror.ctjs";
    std::unique_ptr<serve::TenantRunner> runner =
        serve::TenantRunner::create(spec);
    for (;;) {
      {
        Scope s(&tr, "serve.quantum");
        runner->run(kQuantum);
      }
      if (runner->done()) break;
      {
        Scope s(&tr, "io.spool_save");
        runner->save(path);
      }
      tr.count("io.spool_bytes", static_cast<double>(std::filesystem::file_size(path)));
      runner.reset();
      Scope s(&tr, "io.spool_load");
      runner = serve::TenantRunner::load(path, spec);
    }
    if (j == 0) first = runner->result();
  }
  return first;
}

// A sequential, never-evicted run of one spec.
serve::JobResult sequential(const serve::JobSpec& spec) {
  auto runner = serve::TenantRunner::create(spec);
  while (!runner->done()) runner->run(kQuantum);
  return runner->result();
}

class ServeFleet final : public Phase {
 public:
  explicit ServeFleet(const RunOptions& opt) : opt_(opt) {}

  // Every round runs one open-loop segment and kBurstsPerRound bursts of
  // fresh jobs, in a traced round each burst followed by the same burst
  // traced.
  void round(Tracer* tracer) override {
    segment(tracer);
    for (std::size_t k = 0; k < kBurstsPerRound; ++k) {
      const std::size_t first_job = bursts_ * kBurstJobs;
      const std::string dir =
          opt_.spool_dir + "/burst" + std::to_string(bursts_);
      const BurstRun b = burst(opt_, first_job, dir, nullptr, out_);
      rates_.push_back(b.slots_per_sec);
      raw_rates_.push_back(b.raw_slots_per_sec);
      if (bursts_++ == 0) {
        out_.check(same_result(b.probe, sequential(job_spec(opt_, first_job))),
                   "serve_fleet: probe job differs from a sequential "
                   "TenantRunner run");
      }
      if (tracer != nullptr) {
        const BurstRun t = burst(opt_, first_job, dir + "-traced", tracer, out_);
        rates_tr_.push_back(t.slots_per_sec);
        burst_evictions_ += t.stats.evictions;
        resident_max_ = std::max(resident_max_, t.resident_max);
      }
    }
  }

  void finish(Tracer* tracer) override;

 private:
  void segment(Tracer* tracer) {
    const std::size_t k = segments_++;
    const OpenLoopRun run =
        open_loop(opt_, k, opt_.spool_dir + "/open" + std::to_string(k),
                  tracer, out_);
    records_.insert(records_.end(), run.records.begin(), run.records.end());
    record_speeds_.insert(record_speeds_.end(), run.records.size(), run.speed);
    open_evictions_ += run.stats.evictions;
    open_revivals_ += run.stats.revivals;
    resident_max_ = std::max(resident_max_, run.resident_max);
  }

  RunOptions opt_;
  std::size_t bursts_ = 0;
  std::size_t segments_ = 0;
  std::vector<OpenLoopRecord> records_;
  std::vector<double> record_speeds_;  // the segment's speed, per record
  std::uint64_t open_evictions_ = 0;
  std::uint64_t open_revivals_ = 0;
  std::vector<double> rates_, raw_rates_, rates_tr_;
  std::uint64_t burst_evictions_ = 0;
  std::uint64_t resident_max_ = 0;
};

void ServeFleet::finish(Tracer* tracer) {
  while (segments_ < kMinSegments) segment(nullptr);
  // Latencies and queue waits are multiplied by their segment's speed.
  std::vector<double> latencies, raw_latencies, queue_waits;
  double late_max = 0.0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const OpenLoopRecord& r = records_[i];
    latencies.push_back(r.latency_s() * record_speeds_[i]);
    raw_latencies.push_back(r.latency_s());
    queue_waits.push_back(r.queue_wait_s() * record_speeds_[i]);
    late_max = std::max(late_max, r.lateness_s());
  }
  // p95 is reported but not gated: on a shared host it swings with the
  // neighbours' load (spread 0.20-0.46 over ten runs), beyond any bound the
  // benchmark may set.
  const double p95 = *percentile(latencies, 95.0);
  std::cerr << "perfbench: serve_latency_p95_s " << p95 << " s over "
            << latencies.size() << " jobs\n";
  out_.e2e.push_back({"serve_latency_p50_s", *percentile(latencies, 50.0), "s"});
  out_.e2e.push_back({"serve_burst_slots_per_sec", median(rates_), "slots/s"});
  out_.raw.push_back(
      {"serve_latency_p50_s", *percentile(raw_latencies, 50.0), "s"});
  out_.raw.push_back(
      {"serve_burst_slots_per_sec", median(raw_rates_), "slots/s"});
  if (tracer == nullptr) return;

  const serve::JobResult mirrored =
      mirror_runners(opt_, opt_.spool_dir + "/mirror", *tracer);
  out_.check(same_result(mirrored, sequential(job_spec(opt_, 0))),
             "serve_fleet: spooled TenantRunner run differs from a sequential "
             "one");

  const auto agg = aggregate(tracer->spans());
  const auto mean = [&](const char* name) {
    const auto it = agg.find(name);
    return it == agg.end() ? 0.0 : it->second.mean_ns();
  };
  const auto saves = static_cast<double>(agg.at("io.spool_save").count);
  const auto per_open_job = [&](std::uint64_t n) {
    return static_cast<double>(n) / static_cast<double>(records_.size());
  };
  auto& L = out_.layer;
  L.push_back({"serve.latency_p95_s", p95, "s"});
  L.push_back({"serve.latency_samples", static_cast<double>(latencies.size()),
               "count"});
  L.push_back({"serve.submit_us", mean("serve.submit") * 1e-3, "us"});
  L.push_back({"serve.queue_wait_p50_s", *percentile(queue_waits, 50.0), "s"});
  L.push_back({"serve.queue_wait_p95_s", *percentile(queue_waits, 95.0), "s"});
  L.push_back({"serve.evictions_per_job", per_open_job(open_evictions_),
               "count"});
  L.push_back({"serve.revivals_per_job", per_open_job(open_revivals_),
               "count"});
  L.push_back({"serve.burst_evictions_per_job",
               static_cast<double>(burst_evictions_) /
                   static_cast<double>(rates_tr_.size() * kBurstJobs),
               "count"});
  L.push_back({"serve.resident_max", static_cast<double>(resident_max_), "count"});
  L.push_back({"serve.generator_late_max_ms", late_max * 1e3, "ms"});
  L.push_back({"serve.quantum_ms", mean("serve.quantum") * 1e-6, "ms"});
  L.push_back({"io.spool_save_ms", mean("io.spool_save") * 1e-6, "ms"});
  L.push_back({"io.spool_load_ms", mean("io.spool_load") * 1e-6, "ms"});
  L.push_back({"io.spool_bytes", tracer->counter("io.spool_bytes") / saves,
               "bytes"});
  L.push_back({"trace.overhead_ratio.serve", median(rates_tr_) / median(rates_),
               "ratio"});
}

}  // namespace

std::unique_ptr<Phase> serve_fleet_phase(const RunOptions& opt) {
  return std::make_unique<ServeFleet>(opt);
}

}  // namespace perfbench
