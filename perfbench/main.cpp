// pga_perfbench: runs one benchmark workload for a fixed time and prints its
// metrics as one JSON object on the last line of standard output.
//
//   pga_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <file>]
//
// A run repeats episodes of the workload (each a fixed, seed-determined
// evaluation budget) until `seconds` have passed, then reports medians.
// --trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
// and traced episodes and reports the per-layer metrics; the untraced ones
// give the tracing overhead and the counts the traced ones must reproduce.
// Exit status 0 means every check passed; 1 a failed check; 2 bad usage.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "measure.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct WorkloadDef {
  std::string name;
  std::uint64_t generations = 0;
  std::uint64_t useful = 0;         ///< useful evaluations per episode
  OperatorCalls ops_per_gen;
  std::function<Episode(std::uint64_t seed, bool traced)> episode;
  /// Extra check outside the timed interval; returns failures.
  std::function<std::vector<std::string>(std::uint64_t seed)> oracle;
};

std::vector<WorkloadDef> workloads() {
  std::vector<WorkloadDef> w;
  {
    const RastriginConfig c;
    w.push_back(
        {"rastrigin-islands-par", c.epochs, rastrigin_useful(c),
         rastrigin_operator_calls(c),
         [c](std::uint64_t seed, bool traced) {
           return traced ? rastrigin_episode<true>(c, seed, c.lanes)
                         : rastrigin_episode<false>(c, seed, c.lanes);
         },
         // Thread-count invariance: the parallel overload's final best must
         // be bit-identical to the sequential overload's at the same seed.
         [c](std::uint64_t seed) {
           pga::Individual<pga::RealVector> par, seq;
           (void)rastrigin_episode<false>(c, seed, c.lanes, &par);
           (void)rastrigin_episode<false>(c, seed, 1, &seq);
           std::vector<std::string> f;
           if (!bit_identical(par, seq))
             f.push_back("parallel best is not bit-identical to the sequential "
                         "overload's");
           return f;
         }});
  }
  {
    const BisectionConfig c;
    w.push_back({"bisection-master-slave", c.generations, bisection_useful(c),
                 bisection_operator_calls(c),
                 [c](std::uint64_t seed, bool traced) {
                   return traced ? bisection_episode<true>(c, seed)
                                 : bisection_episode<false>(c, seed);
                 },
                 nullptr});
  }
  return w;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "pga_perfbench: " << why
            << "\nusage: pga_perfbench --workload <name> --seed <n> --seconds "
               "<s> --trace <0|1> [--trace-out <file>]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") a.workload = val;
      else if (key == "--seed") a.seed = std::stoull(val);
      else if (key == "--seconds") a.seconds = std::stod(val);
      else if (key == "--trace") a.trace = std::stoi(val) != 0;
      else if (key == "--trace-out") a.trace_out = val;
      else usage("unknown option " + key);
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ", ";
    s += json_string(ms[i].name) + ": {\"value\": " + json_number(ms[i].value) +
         ", \"unit\": " + json_string(ms[i].unit) + "}";
  }
  return s + "}";
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

double median_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : median(v);
}

/// Per-layer metrics from the traced episodes' summed layers.
std::vector<Metric> layer_metrics(const Layers& L,
                                  const std::vector<Episode>& untraced,
                                  const std::vector<Episode>& traced) {
  const double gens = static_cast<double>(L.generations);
  const double ops_ns = L.ops.select.est_total_ns() +
                        L.ops.crossover.est_total_ns() +
                        L.ops.mutate.est_total_ns();
  // Variation share: of the deme steps (islands) or of the master's
  // generation time (master-slave), whichever holds the operators.
  const double variation_base = L.step_ns > 0 ? L.step_ns : L.gen_wall_ns;
  const double scalar_items =
      static_cast<double>(L.fitness.scalar.calls + L.fitness.batch_items);
  const double episodes = static_cast<double>(traced.size());

  std::vector<double> share_untraced, wall_u, wall_t, gen_ms_u;
  for (const auto& e : untraced) {
    share_untraced.push_back(ratio(static_cast<double>(e.soa_items),
                                   static_cast<double>(e.evaluations)));
    wall_u.push_back(e.gen_phase_s);
    gen_ms_u.insert(gen_ms_u.end(), e.gen_ms.begin(), e.gen_ms.end());
  }
  for (const auto& e : traced) wall_t.push_back(e.gen_phase_s);

  const double slaves_wall = L.slave_wall_ns;
  std::vector<Metric> m = {
      {"core.select.ns", L.ops.select.mean_ns(), "ns"},
      {"core.crossover.ns", L.ops.crossover.mean_ns(), "ns"},
      {"core.mutation.ns", L.ops.mutate.mean_ns(), "ns"},
      {"core.variation.share", ratio(ops_ns, variation_base), "ratio"},
      {"core.step.generational.ms_p50", median_or_zero(L.step_ms), "ms"},
      {"core.step.self_share",
       L.step_ns > 0 ? (L.step_ns - ops_ns - L.fitness_in_gen_ns) / L.step_ns : 0.0,
       "ratio"},
      {"problems.fitness.calls", ratio(scalar_items, episodes), "count/episode"},
      {"problems.fitness.ns", L.fitness.scalar_ns_per_eval(), "ns"},
      {"problems.fitness_soa.items",
       ratio(static_cast<double>(L.soa_items), episodes), "count/episode"},
      {"problems.fitness_soa.ns_per_item", L.fitness.soa_ns_per_item(), "ns"},
      {"problems.batched_share",
       ratio(static_cast<double>(L.soa_items), static_cast<double>(L.evaluations)),
       "ratio"},
      {"problems.batched_share_untraced", median_or_zero(share_untraced), "ratio"},
      {"exec.tasks_per_epoch", ratio(static_cast<double>(L.tasks), gens), "count/epoch"},
      {"exec.steals_per_epoch", ratio(static_cast<double>(L.steals), gens), "count/epoch"},
      {"exec.parks_per_epoch", ratio(static_cast<double>(L.parks), gens), "count/epoch"},
      {"exec.lane_busy_share",
       L.lanes > 1 ? ratio(L.step_ns, L.lanes * L.gen_wall_ns) : 0.0, "ratio"},
      {"exec.barrier_wait_ms_p50",
       L.lanes > 1 ? median_or_zero(L.barrier_wait_ms) : 0.0, "ms"},
      {"parallel.island.self_ms_per_epoch",
       L.step_ns > 0 ? ratio(L.island_self_ns * 1e-6, gens) : 0.0, "ms"},
      {"parallel.master.serial_share", ratio(L.master_self_ns, L.gen_wall_ns), "ratio"},
      {"parallel.slave.busy_share", ratio(L.slave_chunk_ns, slaves_wall), "ratio"},
      {"parallel.slave.self_us_per_chunk",
       L.slave_chunks
           ? (L.slave_chunk_ns - L.fitness.batch.net_ns()) * 1e-3 /
                 static_cast<double>(L.slave_chunks)
           : 0.0,
       "us"},
      {"comm.msgs_per_gen", ratio(static_cast<double>(L.gen_msgs), gens), "count/gen"},
      {"comm.bytes_per_gen", ratio(static_cast<double>(L.gen_bytes), gens), "B/gen"},
      {"comm.send.us",
       ratio(L.master_send_ns * 1e-3, static_cast<double>(L.master_sends)), "us"},
      {"comm.recv_wait.master_share", ratio(L.master_recv_ns, L.gen_wall_ns), "ratio"},
      {"comm.recv_wait.slave_share", ratio(L.slave_recv_ns, slaves_wall), "ratio"},
      {"gen_ms_p99", gen_ms_u.empty() ? 0.0 : percentile(gen_ms_u, 99.0), "ms"},
      {"gen_ms.samples", static_cast<double>(gen_ms_u.size()), "count"},
      {"bench.clock_overhead_ns", clock_overhead_ns(), "ns"},
      {"bench.trace_overhead",
       ratio(median_or_zero(wall_t), median_or_zero(wall_u)), "ratio"},
  };
  return m;
}

/// Chrome trace (about:tracing / Perfetto) of one episode's spans.
void write_trace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const std::int64_t origin = spans.empty() ? 0 : spans.front().t0;
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"name\": ",
                  i ? "," : "", s.tid, static_cast<double>(s.t0 - origin) * 1e-3,
                  static_cast<double>(s.t1 - s.t0) * 1e-3);
    out << buf << json_string(s.name) << ", \"args\": {\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"msg_id\": " << s.msg_id << "}}";
  }
  out << "\n]}\n";
}

int run(const Args& args) {
  const auto all = workloads();
  const WorkloadDef* def = nullptr;
  for (const auto& w : all)
    if (w.name == args.workload) def = &w;
  if (!def) usage("unknown workload " + args.workload);

  std::cout << "{\"manifest\": "
            << manifest_json(def->name, args.seed, def->generations) << "}\n"
            << std::flush;

  constexpr std::size_t kMinEpisodes = 3;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  std::vector<Episode> untraced, traced;
  std::set<std::string> failures;
  std::uint64_t attempted = 0, failed = 0;
  Layers layers;
  std::vector<Span> last_spans;
  // Counts every episode of one seed must reproduce: generation traffic
  // (messages, bytes) of the first episode, crossover calls of the first
  // traced one.
  std::optional<std::pair<std::uint64_t, std::uint64_t>> traffic;
  std::optional<std::uint64_t> crossovers;
  double rss = 0;
  for (std::size_t k = 0;; ++k) {
    const bool traced_episode = args.trace && k % 2 == 1;
    Episode e = def->episode(args.seed, traced_episode);
    if (e.evaluations != def->useful)
      e.failures.push_back("engine reported " + std::to_string(e.evaluations) +
                           " evaluations, the config implies " +
                           std::to_string(def->useful));
    if (e.generations != def->generations)
      e.failures.push_back("ran " + std::to_string(e.generations) + " of " +
                           std::to_string(def->generations) + " generations");
    if (!traffic) traffic.emplace(e.gen_msgs, e.gen_bytes);
    if (e.gen_msgs != traffic->first || e.gen_bytes != traffic->second)
      e.failures.push_back(std::string(traced_episode ? "traced" : "untraced") +
                           " episode's generation traffic differs from the "
                           "first episode's");
    if (traced_episode) {
      const Layers& L = e.layers;
      const std::uint64_t g = e.generations;
      if (L.ops.select.calls != def->ops_per_gen.select * g ||
          L.ops.mutate.calls != def->ops_per_gen.mutate * g ||
          L.ops.crossover.calls > def->ops_per_gen.crossover_max * g)
        e.failures.push_back("traced operator calls differ from the config");
      if (!crossovers) crossovers = L.ops.crossover.calls;
      if (L.ops.crossover.calls != *crossovers)
        e.failures.push_back("crossover calls differ between traced episodes");
      const std::uint64_t work =
          L.fitness.scalar.calls + L.fitness.batch_items + L.soa_items;
      if (work != e.evaluations)
        e.failures.push_back("traced fitness work " + std::to_string(work) +
                             " != reported evaluations " +
                             std::to_string(e.evaluations));
      layers.add(L);
      last_spans = std::move(e.spans);
      e.spans.clear();
    }
    // Peak RSS after one episode: a fixed amount of work, so the figure does
    // not grow with how many episodes a fast or slow host fits in the run.
    if (k == 0) rss = peak_rss_mib();
    attempted += def->generations;
    if (!e.failures.empty()) {
      failed += def->generations;
      failures.insert(e.failures.begin(), e.failures.end());
    }
    (traced_episode ? traced : untraced).push_back(std::move(e));
    if (now_ns() >= deadline && untraced.size() >= kMinEpisodes &&
        (!args.trace || traced.size() >= kMinEpisodes))
      break;
  }
  if (def->oracle) {
    const auto f = def->oracle(args.seed);
    if (!f.empty()) {
      failed += def->generations;
      failures.insert(f.begin(), f.end());
    }
  }

  // Route report: the kAuto calibrator may pick a different route between
  // episodes; such episodes stay in the sample.
  std::vector<double> shares;
  for (const auto& e : untraced)
    shares.push_back(ratio(static_cast<double>(e.soa_items),
                           static_cast<double>(e.evaluations)));
  std::string share_list;
  for (std::size_t i = 0; i < shares.size(); ++i)
    share_list += (i ? ", " : "") + json_number(shares[i]);
  double best_lo = 0, best_hi = 0;
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    const double b = untraced[i].best_fitness;
    best_lo = i ? std::min(best_lo, b) : b;
    best_hi = i ? std::max(best_hi, b) : b;
  }
  std::string fail_list;
  for (const auto& f : failures)
    fail_list += (fail_list.empty() ? "" : ", ") + json_string(f);
  std::cout << "{\"report\": {\"episodes_untraced\": " << untraced.size()
            << ", \"episodes_traced\": " << traced.size()
            << ", \"useful_evaluations_per_episode\": " << def->useful
            << ", \"best_fitness_range\": [" << json_number(best_lo) << ", "
            << json_number(best_hi) << "]"
            << ", \"batched_share_per_episode\": [" << share_list << "]"
            << ", \"failures\": [" << fail_list << "]}}\n";

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::vector<double> setup, eps, cpu, gen_ms;
    const double useful = static_cast<double>(def->useful);
    for (const auto& e : untraced) {
      setup.push_back(e.setup_s);
      eps.push_back(ratio(useful, e.gen_phase_s));
      cpu.push_back(e.cpu_s * 1e6 / useful);
      gen_ms.insert(gen_ms.end(), e.gen_ms.begin(), e.gen_ms.end());
    }
    metrics = {
        {"setup_s", median(setup), "s"},
        {"evals_per_s", median(eps), "1/s"},
        {"gen_ms_p50", median(gen_ms), "ms"},
        {"cpu_us_per_eval", median(cpu), "us"},
        {"peak_rss_mib", rss, "MiB"},
    };
  } else {
    metrics = layer_metrics(layers, untraced, traced);
    if (!args.trace_out.empty()) write_trace(args.trace_out, last_spans);
  }
  const bool correct = failures.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(metrics) << "}\n"
            << std::flush;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "pga_perfbench: " << e.what() << "\n";
    return 1;
  }
}
