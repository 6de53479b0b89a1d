#pragma once
// The benchmark workloads.  Each one is a fixed, seed-determined evaluation
// budget (never a wall-clock budget), so runs compare programs at equal work.
// One episode function call builds the instance, runs the whole budget and
// checks the outcome; pga_perfbench repeats episodes for the requested number
// of seconds and reports medians.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "comm/inproc.hpp"
#include "core/crossover.hpp"
#include "core/evolution.hpp"
#include "core/mutation.hpp"
#include "core/selection.hpp"
#include "exec/parallelism.hpp"
#include "exec/thread_pool.hpp"
#include "measure.hpp"
#include "parallel/island.hpp"
#include "parallel/master_slave.hpp"
#include "problems/functions.hpp"
#include "problems/graph.hpp"
#include "probes.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Configurations (the whole input of a workload apart from the seed)
// ---------------------------------------------------------------------------

/// rastrigin-islands-par: every epoch is a pool barrier; evaluation runs
/// through the batched SoA kernel.
struct RastriginConfig {
  std::size_t demes = 4;
  std::size_t deme_size = 512;
  std::size_t dim = 64;
  std::size_t epochs = 150;
  std::size_t migration_interval = 8;
  std::size_t migrants = 2;
  std::size_t lanes = 2;  ///< caller plus one worker
};

/// bisection-master-slave: an expensive scalar objective farmed out to slaves
/// over the in-process transport.
struct BisectionConfig {
  std::size_t vertices = 1024;
  double p_in = 0.1;
  double p_out = 0.01;
  std::size_t pop_size = 128;
  std::size_t elitism = 1;
  std::size_t chunk = 16;
  int ranks = 3;  ///< master plus two slaves
  std::size_t generations = 150;
  /// Required gain over a random partition: best fitness must exceed the
  /// initial population's best by this fraction of the edge count.
  double quality_gain = 0.03;
};

// ---------------------------------------------------------------------------
// Per-episode results
// ---------------------------------------------------------------------------

/// One span of the trace: run -> generation/epoch -> deme step or master
/// phase -> message.  Ids are deterministic per episode.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  int tid = 0;  ///< deme index (islands) or rank (master-slave)
  std::int64_t t0 = 0, t1 = 0;
  std::uint64_t msg_id = 0;
};

/// Raw per-layer sums of one traced episode (or of several, via add()).
struct Layers {
  OperatorStats ops;
  FitnessSlot fitness;
  std::uint64_t soa_items = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t generations = 0;
  double gen_wall_ns = 0;      ///< generation phase
  double step_ns = 0;          ///< sum of deme steps (islands)
  double fitness_in_gen_ns = 0;
  std::vector<double> step_ms;  ///< every deme step (all demes are generational)
  double island_self_ns = 0;
  std::vector<double> barrier_wait_ms;
  // exec
  double lanes = 0;
  std::uint64_t tasks = 0, steals = 0, parks = 0;
  // master-slave
  double master_self_ns = 0, master_recv_ns = 0, master_send_ns = 0;
  std::uint64_t master_sends = 0;
  std::uint64_t gen_msgs = 0, gen_bytes = 0;
  double slave_wall_ns = 0, slave_recv_ns = 0, slave_chunk_ns = 0;
  std::uint64_t slave_chunks = 0;

  void add(const Layers& o) {
    ops.add(o.ops);
    fitness.add(o.fitness);
    soa_items += o.soa_items;
    evaluations += o.evaluations;
    generations += o.generations;
    gen_wall_ns += o.gen_wall_ns;
    step_ns += o.step_ns;
    fitness_in_gen_ns += o.fitness_in_gen_ns;
    auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(step_ms, o.step_ms);
    island_self_ns += o.island_self_ns;
    cat(barrier_wait_ms, o.barrier_wait_ms);
    lanes = o.lanes;
    tasks += o.tasks;
    steals += o.steals;
    parks += o.parks;
    master_self_ns += o.master_self_ns;
    master_recv_ns += o.master_recv_ns;
    master_send_ns += o.master_send_ns;
    master_sends += o.master_sends;
    gen_msgs += o.gen_msgs;
    gen_bytes += o.gen_bytes;
    slave_wall_ns += o.slave_wall_ns;
    slave_recv_ns += o.slave_recv_ns;
    slave_chunk_ns += o.slave_chunk_ns;
    slave_chunks += o.slave_chunks;
  }
};

struct Episode {
  double setup_s = 0;      ///< instance build start -> generation 1 start
  double gen_phase_s = 0;  ///< generation 1 start -> end of the run
  double cpu_s = 0;        ///< process CPU over the generation phase
  std::vector<double> gen_ms;
  std::uint64_t evaluations = 0;  ///< as reported by the engine
  std::uint64_t generations = 0;  ///< as reported by the engine
  std::uint64_t soa_items = 0;    ///< genomes through the SoA kernel
  std::uint64_t gen_msgs = 0, gen_bytes = 0;  ///< master-slave only
  double best_fitness = 0;
  std::vector<std::string> failures;
  Layers layers;           ///< traced episodes only
  std::vector<Span> spans; ///< traced episodes only
};

// ---------------------------------------------------------------------------
// Interval helpers
// ---------------------------------------------------------------------------

/// Per-generation durations (ms) from generation start stamps and run end.
[[nodiscard]] inline std::vector<double> generation_ms(
    const std::vector<std::int64_t>& starts, std::int64_t end) {
  std::vector<double> out;
  out.reserve(starts.size());
  for (std::size_t k = 0; k < starts.size(); ++k) {
    const std::int64_t stop = k + 1 < starts.size() ? starts[k + 1] : end;
    out.push_back(static_cast<double>(stop - starts[k]) * 1e-6);
  }
  return out;
}

/// Index of the generation whose interval contains t (clamped).
[[nodiscard]] inline std::size_t generation_of(
    const std::vector<std::int64_t>& starts, std::int64_t t) {
  const auto it = std::upper_bound(starts.begin(), starts.end(), t);
  return it == starts.begin() ? 0 : static_cast<std::size_t>(it - starts.begin()) - 1;
}

/// Length of [a0, a1) that lies inside [b0, b1).
[[nodiscard]] inline std::int64_t overlap(std::int64_t a0, std::int64_t a1,
                                          std::int64_t b0, std::int64_t b1) {
  return std::max<std::int64_t>(0, std::min(a1, b1) - std::max(a0, b0));
}

/// Total length covered by the union of intervals, clipped to [w0, w1).
[[nodiscard]] inline std::int64_t union_length(
    std::vector<std::pair<std::int64_t, std::int64_t>> iv, std::int64_t w0,
    std::int64_t w1) {
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0, cur0 = 0, cur1 = 0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, w0);
    b = std::min(b, w1);
    if (b <= a) continue;
    if (open && a <= cur1) {
      cur1 = std::max(cur1, b);
    } else {
      if (open) covered += cur1 - cur0;
      cur0 = a;
      cur1 = b;
      open = true;
    }
  }
  if (open) covered += cur1 - cur0;
  return covered;
}

enum SpanKind : std::uint64_t {
  kRun = 1, kSetup, kGeneration, kStep, kPhase, kSend, kRecv, kChunk
};

[[nodiscard]] constexpr std::uint64_t span_id(SpanKind kind, std::uint64_t tid,
                                              std::uint64_t index) {
  return (static_cast<std::uint64_t>(kind) << 56) | (tid << 40) | index;
}

// ---------------------------------------------------------------------------
// Configuration formulas
// ---------------------------------------------------------------------------

/// Initial populations plus, per epoch, n - 1 offspring in each generational
/// deme (elitism 1).
[[nodiscard]] inline std::uint64_t rastrigin_useful(const RastriginConfig& c) {
  const std::uint64_t n = c.deme_size;
  return c.demes * n + c.epochs * c.demes * (n - 1);
}

[[nodiscard]] inline std::uint64_t bisection_useful(const BisectionConfig& c) {
  return c.pop_size + c.generations * (c.pop_size - c.elitism);
}

/// Exact operator calls per epoch/generation implied by a configuration;
/// crossover is drawn with probability 0.9, so only its ceiling is fixed.
struct OperatorCalls {
  std::uint64_t select = 0, mutate = 0, crossover_max = 0;
};

/// A generational deme (elitism 1) breeds n - 1 offspring in pairs, two
/// selections per pair.
[[nodiscard]] inline OperatorCalls rastrigin_operator_calls(
    const RastriginConfig& c) {
  const std::uint64_t kids = c.deme_size - 1, pairs = (kids + 1) / 2;
  return {c.demes * 2 * pairs, c.demes * kids, c.demes * pairs};
}

[[nodiscard]] inline OperatorCalls bisection_operator_calls(
    const BisectionConfig& c) {
  const std::uint64_t kids = c.pop_size - c.elitism, pairs = (kids + 1) / 2;
  return {2 * pairs, kids, pairs};
}

[[nodiscard]] inline pga::Operators<pga::BitString> bit_operators() {
  using G = pga::BitString;
  pga::Operators<G> ops;
  ops.select = pga::selection::tournament(2);
  ops.cross = pga::crossover::two_point<G>();
  ops.cross_in_place = pga::crossover::two_point_in_place<G>();
  ops.mutate = pga::mutation::bit_flip();  // 1/L
  return ops;
}

template <class G>
[[nodiscard]] pga::Operators<G> maybe_instrument(bool traced,
                                                 const pga::Operators<G>& ops,
                                                 OperatorStats& stats,
                                                 const Phase& phase) {
  return traced ? instrument(ops, stats, phase) : ops;
}

// ---------------------------------------------------------------------------
// rastrigin-islands-par
// ---------------------------------------------------------------------------

/// Runs one Rastrigin island episode: each generational deme's scheme is
/// wrapped in a SchemeProbe (deme 0 drives the generation clock), and
/// IslandModel::run steps a ring with the "2 best replace the worst" policy.
/// `lanes` overrides the configured lane count: the thread-count-invariance
/// oracle reruns the seed with the sequential overload (lanes = 1).
template <bool kTraced>
Episode rastrigin_episode(const RastriginConfig& c, std::uint64_t seed,
                          std::size_t lanes,
                          pga::Individual<pga::RealVector>* best_out = nullptr) {
  using G = pga::RealVector;
  const std::int64_t t0 = now_ns();
  Phase phase;
  std::vector<OperatorStats> op_stats(c.demes);
  const pga::problems::Rastrigin rastrigin(c.dim);
  const pga::Bounds bounds = rastrigin.bounds();
  pga::Operators<G> ops;
  ops.select = pga::selection::tournament(2);
  ops.cross_in_place = pga::crossover::blx_alpha_in_place(bounds, 0.4);
  ops.mutate = pga::mutation::gaussian(bounds, 0.08);

  Episode ep;
  FitnessStats fstats;
  GenerationClock clock(phase, c.epochs);
  std::vector<StepLog> logs(c.demes);
  std::vector<std::unique_ptr<pga::EvolutionScheme<G>>> schemes;
  for (std::size_t d = 0; d < c.demes; ++d) {
    logs[d].begin_ns.reserve(c.epochs);
    logs[d].end_ns.reserve(c.epochs);
    schemes.push_back(std::make_unique<SchemeProbe<G>>(
        std::make_unique<pga::GenerationalScheme<G>>(
            maybe_instrument(kTraced, ops, op_stats[d], phase), 1),
        logs[d], d == 0 ? &clock : nullptr));
  }
  const ProblemProbe<G, pga::problems::Rastrigin, kTraced> problem(rastrigin,
                                                                   fstats, phase);

  pga::MigrationPolicy policy;
  policy.interval = c.migration_interval;
  policy.count = c.migrants;
  policy.selection = pga::MigrantSelection::kBest;
  policy.replacement = pga::MigrantReplacement::kWorst;
  pga::IslandModel<G> model(pga::Topology::ring(c.demes), policy,
                            std::move(schemes));
  pga::Rng rng(seed);
  auto pops = model.make_populations(
      c.deme_size, [bounds](pga::Rng& r) { return G::random(bounds, r); }, rng);
  pga::StopCondition stop;
  stop.max_generations = c.epochs;

  std::optional<pga::exec::ThreadPool> pool;
  pga::exec::PoolStats before;
  pga::IslandResult<G> result;
  if (lanes > 1) {
    pool.emplace(lanes);
    const pga::exec::Parallelism par(&*pool);
    before = pool->stats();
    result = model.run(pops, problem, stop, rng, par);
  } else {
    result = model.run(pops, problem, stop, rng);
  }
  const std::int64_t t_end = now_ns();
  const double cpu_end = process_cpu_s();

  if (clock.starts_ns.empty()) {
    ep.failures.push_back("no generation ran");
    return ep;
  }
  const std::int64_t g0 = clock.starts_ns.front();
  ep.setup_s = static_cast<double>(g0 - t0) * 1e-9;
  ep.gen_phase_s = static_cast<double>(t_end - g0) * 1e-9;
  ep.cpu_s = cpu_end - clock.cpu_at_start_s;
  ep.gen_ms = generation_ms(clock.starts_ns, t_end);
  ep.evaluations = result.evaluations;
  ep.generations = result.epochs;
  ep.soa_items = fstats.soa_items.load();
  ep.best_fitness = result.best.fitness;
  if (best_out) *best_out = result.best;
  if constexpr (!kTraced) return ep;

  Layers& L = ep.layers;
  for (const auto& s : op_stats) L.ops.add(s);
  L.fitness = fstats.total();
  L.soa_items = ep.soa_items;
  L.evaluations = ep.evaluations;
  L.generations = ep.generations;
  L.gen_wall_ns = static_cast<double>(t_end - g0);
  L.lanes = static_cast<double>(lanes);
  // Every fitness call after generation 1 starts is inside a deme step.
  L.fitness_in_gen_ns =
      L.fitness.scalar.mean_ns() * static_cast<double>(L.fitness.scalar_gen_calls) +
      L.fitness.soa.net_ns();
  if (pool) {
    const auto d = pool->stats().delta(before);
    L.tasks = d.tasks_executed;
    L.steals = d.steals;
    L.parks = d.parks;
  }
  const std::uint64_t run_id = span_id(kRun, 0, 0);
  ep.spans.push_back({run_id, 0, "run", 0, t0, t_end, 0});
  ep.spans.push_back({span_id(kSetup, 0, 0), run_id, "setup", 0, t0, g0, 0});
  const auto& starts = clock.starts_ns;
  auto epoch_end = [&](std::size_t k) {
    return k + 1 < starts.size() ? starts[k + 1] : t_end;
  };
  for (std::size_t k = 0; k < starts.size(); ++k)
    ep.spans.push_back({span_id(kGeneration, 0, k), run_id, "epoch", 0,
                        starts[k], epoch_end(k), 0});
  struct StepInterval {
    std::int64_t b, e;
    std::size_t thread;
  };
  std::vector<std::vector<StepInterval>> per_epoch(starts.size());
  for (std::size_t d = 0; d < logs.size(); ++d) {
    const StepLog& log = logs[d];
    for (std::size_t k = 0; k < log.end_ns.size(); ++k) {
      const std::int64_t b = log.begin_ns[k], e = log.end_ns[k];
      L.step_ms.push_back(static_cast<double>(e - b) * 1e-6);
      L.step_ns += static_cast<double>(e - b);
      // Step k of every deme belongs to epoch k, whichever lane ran it.
      if (k < per_epoch.size()) per_epoch[k].push_back({b, e, log.thread[k]});
      ep.spans.push_back({span_id(kStep, d, k), span_id(kGeneration, 0, k),
                          "step.generational", static_cast<int>(d), b, e, 0});
    }
  }
  for (std::size_t k = 0; k < starts.size(); ++k) {
    const std::int64_t e1 = epoch_end(k);
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    std::map<std::size_t, std::int64_t> lane_busy;
    std::int64_t first = e1, last = starts[k];
    for (const auto& s : per_epoch[k]) {
      iv.emplace_back(s.b, s.e);
      lane_busy[s.thread] += s.e - s.b;
      first = std::min(first, s.b);
      last = std::max(last, s.e);
    }
    L.island_self_ns += static_cast<double>(e1 - starts[k] -
                                            union_length(iv, starts[k], e1));
    // Barrier wait: how long the epoch's parallel region (first deme start
    // to last deme end) outlasts the busiest lane's deme steps.
    std::int64_t busiest = 0;
    for (const auto& [thread, ns] : lane_busy) busiest = std::max(busiest, ns);
    L.barrier_wait_ms.push_back(
        static_cast<double>(std::max<std::int64_t>(0, last - first - busiest)) *
        1e-6);
  }
  return ep;
}

/// True when two individuals are bit-identical (fitness and every gene).
[[nodiscard]] inline bool bit_identical(const pga::Individual<pga::RealVector>& a,
                                        const pga::Individual<pga::RealVector>& b) {
  if (std::bit_cast<std::uint64_t>(a.fitness) !=
      std::bit_cast<std::uint64_t>(b.fitness))
    return false;
  if (a.genome.values.size() != b.genome.values.size()) return false;
  return std::memcmp(a.genome.values.data(), b.genome.values.data(),
                     a.genome.values.size() * sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// bisection-master-slave
// ---------------------------------------------------------------------------

template <bool kTraced>
Episode bisection_episode(const BisectionConfig& c, std::uint64_t seed) {
  using G = pga::BitString;
  const std::int64_t t0 = now_ns();
  Phase phase;
  pga::Rng instance_rng(seed);
  const pga::problems::GraphBipartition bisection(pga::problems::planted_bisection(
      c.vertices, c.p_in, c.p_out, instance_rng));
  FitnessStats fstats;
  fstats.scalar_stride = 1;  // ~40 us per evaluation: time every call
  const ProblemProbe<G, pga::problems::GraphBipartition, kTraced> problem(
      bisection, fstats, phase);
  GenerationClock clock(phase, c.generations);
  OperatorStats op_stats;

  pga::MasterSlaveConfig<G> cfg;
  cfg.pop_size = c.pop_size;
  cfg.stop.max_generations = c.generations;
  cfg.elitism = c.elitism;
  cfg.chunk_size = c.chunk;
  cfg.mode = pga::DispatchMode::kAsynchronous;
  cfg.seed = pga::Rng(seed).split(1).next();
  const std::size_t len = c.vertices;
  cfg.make_genome = [len](pga::Rng& r) { return G::random(len, r); };
  auto ops = maybe_instrument(kTraced, bit_operators(), op_stats, phase);
  // Generation clock: the master mutates pop_size - elitism offspring per
  // generation; the first mutation of each marks the generation's start.
  const std::size_t per_gen = c.pop_size - c.elitism;
  std::uint64_t mutations = 0;
  ops.mutate = [inner = std::move(ops.mutate), &clock, &mutations, per_gen](
                   G& g, pga::Rng& r) {
    if (mutations++ % per_gen == 0) clock.tick();
    inner(g, r);
  };
  cfg.ops = std::move(ops);

  std::vector<RankLog> logs(static_cast<std::size_t>(c.ranks));
  std::optional<pga::MasterResult<G>> result;
  std::int64_t t_end = 0;
  double cpu_end = 0;
  pga::comm::InprocCluster cluster(c.ranks);
  const auto reports = cluster.run([&](pga::comm::Transport& t) {
    TransportProbe probe(t, logs[static_cast<std::size_t>(t.rank())], phase,
                         kTraced);
    auto r = pga::run_master_slave_rank(probe, problem, cfg);
    if (r) {
      t_end = now_ns();
      cpu_end = process_cpu_s();
      result = std::move(r);
    }
  });

  Episode ep;
  for (std::size_t r = 0; r < reports.size(); ++r)
    if (!reports[r].completed)
      ep.failures.push_back("rank " + std::to_string(r) + " failed: " +
                            reports[r].error);
  if (!result || clock.starts_ns.empty()) {
    ep.failures.push_back("master produced no generations");
    return ep;
  }
  const std::int64_t g0 = clock.starts_ns.front();
  ep.setup_s = static_cast<double>(g0 - t0) * 1e-9;
  ep.gen_phase_s = static_cast<double>(t_end - g0) * 1e-9;
  ep.cpu_s = cpu_end - clock.cpu_at_start_s;
  ep.gen_ms = generation_ms(clock.starts_ns, t_end);
  ep.evaluations = result->evaluations;
  ep.generations = result->generations;
  ep.soa_items = fstats.soa_items.load();
  ep.best_fitness = result->best.fitness;
  // Stop messages (one per slave, empty payload) are not generation traffic.
  const std::uint64_t stops = static_cast<std::uint64_t>(c.ranks - 1);
  for (const auto& log : logs) {
    ep.gen_msgs += log.gen_sends;
    ep.gen_bytes += log.gen_send_bytes;
  }
  ep.gen_msgs -= std::min(ep.gen_msgs, stops);

  if (result->slaves_lost != 0)
    ep.failures.push_back("slaves_lost = " + std::to_string(result->slaves_lost));
  if (result->local_evaluations != 0)
    ep.failures.push_back("local_evaluations = " +
                          std::to_string(result->local_evaluations));
  // Quality: the best partition must beat the best random partition's
  // fitness by quality_gain * edges (a random bisection cuts about half
  // the edges; the planted one about p_out / (p_in + p_out) of them).
  const double edges = static_cast<double>(bisection.graph().num_edges());
  const double random_cut = 0.5 * edges;
  const double floor = -(random_cut - c.quality_gain * edges);
  if (ep.best_fitness < floor)
    ep.failures.push_back("bisection best " + std::to_string(ep.best_fitness) +
                          " below the quality floor " + std::to_string(floor));
  if constexpr (!kTraced) return ep;

  Layers& L = ep.layers;
  L.ops = op_stats;
  L.fitness = fstats.total();
  L.soa_items = ep.soa_items;
  L.evaluations = ep.evaluations;
  L.generations = ep.generations;
  L.gen_wall_ns = static_cast<double>(t_end - g0);
  L.gen_msgs = ep.gen_msgs;
  L.gen_bytes = ep.gen_bytes;
  const auto& starts = clock.starts_ns;
  const std::uint64_t run_id = span_id(kRun, 0, 0);
  ep.spans.push_back({run_id, 0, "run", 0, t0, t_end, 0});
  ep.spans.push_back({span_id(kSetup, 0, 0), run_id, "setup", 0, t0, g0, 0});
  for (std::size_t k = 0; k < starts.size(); ++k)
    ep.spans.push_back({span_id(kGeneration, 0, k), run_id, "generation", 0,
                        starts[k], k + 1 < starts.size() ? starts[k + 1] : t_end,
                        0});
  // Master phases per generation: variation (until its first send),
  // dispatch (until its last receive returns) and replace (the rest).
  // Messages and slave chunks hang under their generation's dispatch phase.
  const RankLog& master = logs[0];
  for (std::size_t k = 0; k < starts.size(); ++k) {
    const std::int64_t g1 = k + 1 < starts.size() ? starts[k + 1] : t_end;
    std::int64_t first_send = g1, last_recv = starts[k];
    for (const auto& s : master.sent)
      if (s.t0 >= starts[k] && s.t0 < g1) first_send = std::min(first_send, s.t0);
    for (const auto& s : master.received)
      if (s.t0 >= starts[k] && s.t0 < g1) last_recv = std::max(last_recv, s.t1);
    last_recv = std::max(last_recv, first_send);
    const std::uint64_t gen = span_id(kGeneration, 0, k);
    ep.spans.push_back({span_id(kPhase, 0, k), gen, "variation", 0, starts[k],
                        first_send, 0});
    ep.spans.push_back({span_id(kPhase, 1, k), gen, "dispatch", 0, first_send,
                        last_recv, 0});
    ep.spans.push_back({span_id(kPhase, 2, k), gen, "replace", 0, last_recv, g1, 0});
  }
  auto parent_of = [&](std::int64_t t) {
    return span_id(kPhase, 1, generation_of(starts, t));
  };
  for (std::size_t r = 0; r < logs.size(); ++r) {
    const RankLog& log = logs[r];
    const auto rank = static_cast<std::uint64_t>(r);
    double recv_ns = 0, send_ns = 0;
    std::uint64_t seq = 0;
    for (const auto& s : log.received) {
      if (!s.generations) continue;
      recv_ns += static_cast<double>(overlap(s.t0, s.t1, g0, t_end));
      ep.spans.push_back({span_id(kRecv, rank, seq++), parent_of(s.t0),
                          "recv_wait", static_cast<int>(r), s.t0, s.t1,
                          s.msg_id});
    }
    seq = 0;
    for (const auto& s : log.sent) {
      if (!s.generations || s.tag == pga::ms_detail::kStopTag) continue;
      send_ns += static_cast<double>(overlap(s.t0, s.t1, g0, t_end));
      if (r == 0) ++L.master_sends;
      ep.spans.push_back({span_id(kSend, rank, seq++), parent_of(s.t0), "send",
                          static_cast<int>(r), s.t0, s.t1, s.msg_id});
    }
    if (r == 0) {
      L.master_recv_ns = recv_ns;
      L.master_send_ns = send_ns;
      L.master_self_ns = L.gen_wall_ns - recv_ns - send_ns;
      continue;
    }
    // A slave handles chunks in order: the i-th work message it receives is
    // answered by its i-th result send.  The chunk span runs from the end of
    // the receive to the end of that send.
    L.slave_wall_ns += L.gen_wall_ns;
    L.slave_recv_ns += recv_ns;
    std::size_t next_send = 0;
    seq = 0;
    for (const auto& s : log.received) {
      if (s.tag != pga::ms_detail::kWorkTag) continue;
      const MessageSpan* reply = nullptr;
      while (next_send < log.sent.size() && !reply) {
        const MessageSpan& c2 = log.sent[next_send++];
        if (c2.tag == pga::ms_detail::kResultTag) reply = &c2;
      }
      if (!reply || !s.generations) continue;
      L.slave_chunk_ns += static_cast<double>(reply->t1 - s.t1);
      ++L.slave_chunks;
      ep.spans.push_back({span_id(kChunk, rank, seq++), parent_of(s.t1),
                          "chunk", static_cast<int>(r), s.t1, reply->t1,
                          s.msg_id});
    }
  }
  return ep;
}

}  // namespace perfbench
