// Measurement harness of the perfbench benchmark: a monotonic clock, an
// in-memory span tracer with self-time arithmetic, percentile selection
// under the ten-samples-beyond rule, open-loop arrival accounting and the
// result line the benchmark prints.
//
// Nothing here knows about the ctj library; the workloads (workloads.hpp)
// record spans around their calls into it.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
std::int64_t now_ns();
/// Seconds on the steady clock.
double now_s();

// ---------------------------------------------------------------- tracing

/// One timed interval. `parent` indexes the span that caused it (-1 for a
/// root); spans opened on one thread nest through a per-thread stack.
struct Span {
  const char* name = "";  // a string literal: spans are recorded in hot loops
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
};

/// Per-name aggregate of a set of spans.
struct SpanStats {
  std::size_t count = 0;
  std::int64_t total_ns = 0;  // summed span durations
  std::int64_t self_ns = 0;   // summed durations minus child coverage

  double mean_ns() const {
    return count == 0 ? 0.0 : static_cast<double>(total_ns) / count;
  }
};

/// Self time of every span: its duration minus the part of [start, end)
/// covered by the union of its children (each child clipped to the parent,
/// overlapping children counted once).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Aggregate spans by name (count, total and self time).
std::map<std::string, SpanStats> aggregate(const std::vector<Span>& spans);

/// Spans and counters kept in memory; written once, at exit, by write().
/// Thread-safe: the serve workload records submit spans on its generator
/// thread.
class Tracer {
 public:
  /// Open a span on the calling thread, child of that thread's innermost
  /// open span. Returns its index.
  std::int32_t open(const char* name);
  void close(std::int32_t id);

  /// Add `value` to a named counter.
  void count(const std::string& name, double value);
  double counter(const std::string& name) const;

  std::vector<Span> spans() const;

  /// One line per span (`name start_ns end_ns parent`), then one per
  /// counter (`# counter name value`). Returns false if the file could not
  /// be written.
  bool write(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
};

/// RAII span; a null tracer makes it a no-op, so the traced and untraced
/// loops share their code.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->open(name) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

// ------------------------------------------------------------ statistics

double median(std::vector<double> values);

/// Nearest-rank percentile `p` (0 < p < 100) of `values`, reported only
/// when at least `min_beyond` samples lie strictly beyond the selected rank
/// — the rule that a tail percentile must rest on at least ten samples.
/// nullopt when the sample set is too small for `p`.
std::optional<double> percentile(std::vector<double> values, double p,
                                 std::size_t min_beyond = 10);

/// Calls make() `reps` times (at least once), timing each call on its own,
/// appends the median seconds to `setup_s` and returns the last result
/// (earlier ones are destroyed untimed). A single set-up of a millisecond
/// or less reads up to twice as long cold as warm; the median of several
/// is the set-up figure of one round.
template <typename Make>
auto timed_setup(std::size_t reps, std::vector<double>& setup_s, Make&& make) {
  std::vector<double> seconds;
  for (;;) {
    const double s0 = now_s();
    auto made = make();
    seconds.push_back(now_s() - s0);
    if (seconds.size() >= reps) {
      setup_s.push_back(median(seconds));
      return made;
    }
  }
}

// -------------------------------------------------------------- open loop

/// Arrival schedule of an open-loop generator: job i is due at
/// start + offsets_s[i], whatever happened to earlier jobs.
struct OpenLoopSchedule {
  double start_s = 0.0;
  std::vector<double> offsets_s;  // one per job, non-decreasing

  double due(std::size_t i) const { return start_s + offsets_s[i]; }
};

/// Per-job timestamps of one open-loop run. Latencies are charged from the
/// due time, not the submit time, so a generator stall (a slow submit, a
/// descheduled thread) counts against every job queued behind it.
struct OpenLoopRecord {
  double due_s = 0.0;
  double submitted_s = 0.0;    // when submit() was called
  double started_s = -1.0;     // first poll showing progress
  double done_s = -1.0;        // first poll showing completion

  double latency_s() const { return done_s - due_s; }
  double queue_wait_s() const { return started_s - due_s; }
  double lateness_s() const { return submitted_s - due_s; }
};

/// Observed progress of one job at a poll.
struct JobProgress {
  bool started = false;
  bool done = false;
};

/// Drive an open-loop run of schedule.offsets_s.size() jobs on one thread: submit each job at
/// its due time (late jobs are submitted as soon as the generator gets to
/// them, never skipped) and poll every in-flight job between arrivals and
/// until all are done. `Clock` returns seconds, `Sleep(until_s)` waits,
/// `Submit(i)` submits job i and `Poll(i)` returns its JobProgress.
template <typename Clock, typename Sleep, typename Submit, typename Poll>
std::vector<OpenLoopRecord> run_open_loop(const OpenLoopSchedule& schedule,
                                          double poll_interval_s,
                                          Clock&& clock, Sleep&& sleep,
                                          Submit&& submit, Poll&& poll) {
  const std::size_t jobs = schedule.offsets_s.size();
  std::vector<OpenLoopRecord> records(jobs);
  std::vector<std::size_t> in_flight;
  std::size_t next = 0;
  while (next < jobs || !in_flight.empty()) {
    double now = clock();
    while (next < jobs && schedule.due(next) <= now) {
      records[next].due_s = schedule.due(next);
      records[next].submitted_s = now;
      submit(next);
      in_flight.push_back(next);
      ++next;
      now = clock();
    }
    for (std::size_t k = 0; k < in_flight.size();) {
      const std::size_t i = in_flight[k];
      const JobProgress progress = poll(i);
      const double seen = clock();
      OpenLoopRecord& r = records[i];
      if ((progress.started || progress.done) && r.started_s < 0.0) {
        r.started_s = seen;
      }
      if (progress.done) {
        r.done_s = seen;
        in_flight[k] = in_flight.back();
        in_flight.pop_back();
      } else {
        ++k;
      }
    }
    double wake = clock() + poll_interval_s;
    if (next < jobs && schedule.due(next) < wake) wake = schedule.due(next);
    sleep(wake);
  }
  return records;
}

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's last stdout line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}, values with all their digits.
std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

/// Escape a string for a JSON string literal.
std::string json_escape(const std::string& s);

/// Peak resident set size of this process in MiB.
double peak_rss_mib();

/// CPUs this process may run on (its affinity mask).
std::size_t host_cpus();

/// Speed of the calling thread's CPU right now, relative to an idle CPU of
/// the 4-CPU reference host (1 = as fast; 0.7 = 30% slower), from timing a
/// fixed 32x32 double matrix product (about 1 ms, L1-resident).
///
/// On a shared host, neighbours slow every CPU by 20-40% for seconds to
/// minutes at a time, and a run's median drifts with them. The probe
/// follows those swings within an hour, but not always from one hour to
/// the next: on a 4-vCPU host it read 0.9 and later 0.68 while the
/// unscaled evaluation rate moved 3.5%. So figures are scaled by
/// probe_scale(speed), its square root, and not by the speed itself: it
/// halves, in log terms, both the host's swings and any shift the probe
/// makes on its own (ten-run spread of `eval_slots_per_sec` 0.117 scaled,
/// 0.154-0.168 unscaled).
double host_speed();

/// The factor a probed speed scales figures by: rates are divided by it,
/// latencies multiplied by it. See host_speed().
inline double probe_scale(double speed) { return std::sqrt(speed); }

/// Moves the calling thread round-robin over the CPUs of its affinity mask,
/// one per call to next(); release() (and destruction) restores the mask.
/// Release before starting threads: they inherit the caller's mask.
///
/// On a shared host each CPU is slowed by neighbours in its own way and for
/// seconds at a time, so a single-threaded phase timed on whichever CPU the
/// scheduler picked reads up to 40% apart from run to run. Timing its chunks
/// on every CPU in turn makes the median over chunks sample all of them.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next();
  void release();

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// host_speed() probed on every CPU of the caller's affinity mask in turn
/// (about 1 ms each); returns their median and restores the mask.
double all_cpus_speed();

/// Aggregate CPU time of the machine from /proc/stat, in clock ticks: the
/// time its CPUs were busy (stolen time included) and the part of it the
/// hypervisor gave to other guests (steal). Zeros where /proc/stat is not
/// readable.
struct CpuTicks {
  double busy = 0.0;
  double steal = 0.0;
};
CpuTicks cpu_ticks();

/// Share of the busy time between two readings that was stolen, in [0, 1).
/// A shared host takes 0-25% of a guest's CPU time in bursts of seconds; the
/// 1 ms probe of host_speed() mostly falls between them, but a phase that
/// keeps every CPU busy for seconds waits through them.
double steal_share(const CpuTicks& before, const CpuTicks& after);

/// Speed of the host over a stretch of work whose threads share all CPUs:
/// probe_scale() of the mean of all_cpus_speed() at construction and at
/// stop(), times the share of busy CPU time not stolen in between. The
/// stretch's latencies are multiplied by it and its rates divided by it.
class StretchSpeed {
 public:
  StretchSpeed() : ticks_(cpu_ticks()), speed0_(all_cpus_speed()) {}
  double stop() const {
    return probe_scale(0.5 * (speed0_ + all_cpus_speed())) *
           (1.0 - steal_share(ticks_, cpu_ticks()));
  }

 private:
  CpuTicks ticks_;
  double speed0_;
};

/// Times the chunks of a single-threaded phase: start() moves to the next
/// CPU, probes host_speed() there and starts the clock; stop(work) records
/// work per second, raw and divided by probe_scale() of that speed.
/// release() restores the thread's CPU mask (call it before another phase
/// starts threads).
class ChunkTimer {
 public:
  void start();
  void stop(double work);
  void release() { cpus_.release(); }

  /// Speed-normalised rates: the figures the benchmark reports.
  const std::vector<double>& rates() const { return rates_; }
  const std::vector<double>& raw_rates() const { return raw_; }
  const std::vector<double>& speeds() const { return speeds_; }

 private:
  CpuRotation cpus_;
  double speed_ = 1.0;
  double t0_ = 0.0;
  std::vector<double> rates_, raw_, speeds_;
};

}  // namespace perfbench
