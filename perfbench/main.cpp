// perfbench_ctj: one run of the benchmark. Runs the fig_point, serve_fleet
// and emubee_phy phases (workloads.hpp) against the adversary the workload
// names, checks their outputs and prints the result line last on stdout.
//
//   perfbench_ctj --workload sweep|kernel --seed N --seconds S --trace 0|1
//                 [--git-rev REV] [--spool-dir DIR] [--trace-out FILE]
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/kernels.hpp"
#include "workloads.hpp"

namespace perfbench {

ctj::jammer::JammerSpec workload_jammer(const std::string& workload) {
  if (workload == "sweep") return ctj::jammer::JammerSpec::defaults("sweep");
  if (workload == "kernel") return ctj::jammer::JammerSpec::kernel();
  throw std::invalid_argument("unknown workload '" + workload +
                              "' (expected sweep or kernel)");
}

namespace {

// serve_fleet runs three engine workers plus one generator thread.
constexpr std::size_t kServeThreads = 4;

struct Args {
  RunOptions run;
  std::string git_rev = "unknown";
  std::string trace_out;
};

Args parse(int argc, char** argv) {
  Args a;
  a.run.spool_dir = ".bench_build/perfbench-spool";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.run.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.run.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.run.seconds = std::stod(value);
      if (!(a.run.seconds > 0.0)) throw std::invalid_argument("--seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace");
      a.run.trace = value == "1";
    } else if (flag == "--git-rev") {
      a.git_rev = value;
    } else if (flag == "--spool-dir") {
      a.run.spool_dir = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  workload_jammer(a.run.workload);  // validate
  return a;
}

int run(const Args& args) {
  const RunOptions& opt = args.run;
  const std::size_t cpus = host_cpus();
  const bool oversubscribed = kServeThreads > cpus;
  std::printf(
      "stamp {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"host_cpus\": %zu, \"workers\": 3, "
      "\"generator_threads\": 1, \"oversubscribed\": %s, "
      "\"simd_level\": \"%s\", \"git_rev\": \"%s\"}\n",
      json_escape(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0,
      cpus, oversubscribed ? "true" : "false", ctj::kern::simd_level_name(),
      json_escape(args.git_rev).c_str());
  std::fflush(stdout);
  if (oversubscribed) {
    std::cerr << "perfbench: WARNING serve_fleet runs " << kServeThreads
              << " threads on " << cpus
              << " CPUs; its figures include scheduler contention\n";
  }

  Tracer tracer;
  Tracer* tr = opt.trace ? &tracer : nullptr;
  std::filesystem::remove_all(opt.spool_dir);
  std::filesystem::create_directories(opt.spool_dir);
  std::vector<std::unique_ptr<Phase>> phases;
  phases.push_back(fig_point_phase(opt));
  phases.push_back(serve_fleet_phase(opt));
  phases.push_back(emubee_phy_phase(opt));
  // Only the first round is traced; later rounds add untraced samples.
  const double start = now_s();
  Tracer* round_tracer = tr;
  do {
    for (auto& phase : phases) phase->round(round_tracer);
    round_tracer = nullptr;
  } while (now_s() - start < opt.seconds);
  for (auto& phase : phases) phase->finish(tr);
  std::filesystem::remove_all(opt.spool_dir);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup = 0.0;
  std::vector<Metric> metrics;
  std::vector<double> speeds;
  if (!opt.trace) metrics.push_back({"setup_s", 0.0, "s"});
  for (const auto& phase : phases) {
    const PhaseResult& p = phase->result();
    attempted += p.attempted;
    failed += p.failed;
    for (const std::string& f : p.failures) {
      std::cerr << "perfbench: FAILED " << f << '\n';
    }
    setup += median(p.setup_s);
    speeds.insert(speeds.end(), p.speeds.begin(), p.speeds.end());
    for (const Metric& m : p.raw) {
      std::cerr << "perfbench: " << m.name << " unscaled by host speed "
                << m.value << ' ' << m.unit << '\n';
    }
    const auto& ms = opt.trace ? p.layer : p.e2e;
    metrics.insert(metrics.end(), ms.begin(), ms.end());
  }
  std::cerr << "perfbench: median host speed " << median(speeds) << '\n';
  if (opt.trace) {
    metrics.push_back({"host.speed", median(speeds), "ratio"});
  } else {
    metrics.front().value = setup;
    metrics.push_back({"peak_rss_mb", peak_rss_mib(), "MiB"});
  }
  if (!args.trace_out.empty() && !tracer.write(args.trace_out)) {
    std::cerr << "perfbench: cannot write " << args.trace_out << '\n';
  }
  std::cout << result_line(failed == 0, attempted, failed, metrics) << '\n';
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
