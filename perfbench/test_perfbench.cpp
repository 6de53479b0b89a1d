// Unit tests for the benchmark's own code: the forwarding wrappers, their
// counts on short runs against the configuration formulas, the percentile
// estimator and the VmHWM parser.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "comm/serialize.hpp"
#include "measure.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// ---------------------------------------------------------------------------
// percentile / VmHWM
// ---------------------------------------------------------------------------

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  const std::vector<double> v = {4, 1, 3, 2};  // sorted: 1 2 3 4
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 2.5);
  // rank (n-1) * q = 3 * 0.25 = 0.75 -> 1 + 0.75 * (2 - 1)
  EXPECT_DOUBLE_EQ(percentile(v, 25), 1.75);
  EXPECT_DOUBLE_EQ(median({7}), 7.0);
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3.0);
}

TEST(Percentile, MatchesPythonInclusiveQuantiles) {
  // statistics.quantiles(range(1, 11), n=4, method="inclusive")
  //   == [3.25, 5.5, 7.75]
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 3.25);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.5);
  EXPECT_DOUBLE_EQ(percentile(v, 75), 7.75);
  // 99th of 1..100 (rank 98.01) -> 99.01
  std::vector<double> h;
  for (int i = 1; i <= 100; ++i) h.push_back(i);
  EXPECT_NEAR(percentile(h, 99), 99.01, 1e-12);
}

TEST(Percentile, RejectsEmptySampleAndBadRank) {
  EXPECT_THROW((void)percentile({}, 50), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, 101), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, -1), std::invalid_argument);
}

TEST(VmHwm, ParsesTheStatusLine) {
  const std::string status =
      "Name:\tpga_perfbench\nVmPeak:\t   20000 kB\nVmHWM:\t    3788 kB\n"
      "VmRSS:\t    3700 kB\n";
  ASSERT_TRUE(parse_vmhwm_kib(status).has_value());
  EXPECT_EQ(*parse_vmhwm_kib(status), 3788u);
  EXPECT_EQ(*parse_vmhwm_kib("VmHWM: 12 kB"), 12u);  // last line, no newline
}

TEST(VmHwm, RejectsMissingOrMalformedLines) {
  EXPECT_FALSE(parse_vmhwm_kib("").has_value());
  EXPECT_FALSE(parse_vmhwm_kib("VmRSS:\t 100 kB\n").has_value());
  EXPECT_FALSE(parse_vmhwm_kib("VmHWM:\t kB\n").has_value());
  EXPECT_FALSE(parse_vmhwm_kib("VmHWM:\t 100 MB\n").has_value());
  EXPECT_FALSE(parse_vmhwm_kib("XVmHWM:\t 100 kB\n").has_value());
}

TEST(VmHwm, ReadsThisProcess) {
  const double mib = peak_rss_mib();
  EXPECT_GT(mib, 0.5);
  EXPECT_LT(mib, 4096.0);
}

// ---------------------------------------------------------------------------
// Wrappers forward every call
// ---------------------------------------------------------------------------

using pga::BitString;

/// A final problem that records which virtual was called.
class FakeProblem final : public pga::Problem<BitString> {
 public:
  mutable int fitness_calls = 0, objective_calls = 0, optimum_calls = 0,
              name_calls = 0, batch_calls = 0, kernel_query_calls = 0,
              soa_calls = 0;

  [[nodiscard]] double fitness(const BitString& g) const override {
    ++fitness_calls;
    return static_cast<double>(g.count_ones());
  }
  [[nodiscard]] double objective(const BitString& g) const override {
    ++objective_calls;
    return -static_cast<double>(g.count_ones());
  }
  [[nodiscard]] std::optional<double> optimum_fitness() const override {
    ++optimum_calls;
    return 42.0;
  }
  [[nodiscard]] std::string name() const override {
    ++name_calls;
    return "fake";
  }
  void fitness_batch(std::span<const BitString> genomes,
                     std::span<double> out) const override {
    ++batch_calls;
    for (std::size_t k = 0; k < genomes.size(); ++k) out[k] = 7.0;
  }
  [[nodiscard]] bool has_soa_kernel() const noexcept override {
    ++kernel_query_calls;
    return true;
  }
  void fitness_soa(const pga::BitSoaView& x, std::span<double> out) const override {
    ++soa_calls;
    for (std::size_t k = 0; k < x.count; ++k) out[k] = 9.0;
  }
};

template <bool kTraced>
void check_problem_forwarding() {
  FakeProblem inner;
  FitnessStats stats;
  Phase phase;
  const ProblemProbe<BitString, FakeProblem, kTraced> probe(inner, stats, phase);
  const pga::Problem<BitString>& p = probe;
  BitString g(8, 1);
  EXPECT_EQ(p.fitness(g), 8.0);
  EXPECT_EQ(p.objective(g), -8.0);
  EXPECT_EQ(p.optimum_fitness(), 42.0);
  EXPECT_EQ(p.name(), "fake");
  std::vector<BitString> batch(3, g);
  std::vector<double> out(3);
  p.fitness_batch(batch, out);
  EXPECT_EQ(out[2], 7.0);
  EXPECT_TRUE(p.has_soa_kernel());
  pga::SoaSlab<BitString> slab;
  const auto view =
      slab.gather(batch.size(), [&](std::size_t k) -> const BitString& { return batch[k]; });
  const auto fit = slab.fitness_scratch();
  p.fitness_soa(view, fit);
  EXPECT_EQ(fit[0], 9.0);
  EXPECT_EQ(inner.fitness_calls, 1);
  EXPECT_EQ(inner.objective_calls, 1);
  EXPECT_EQ(inner.optimum_calls, 1);
  EXPECT_EQ(inner.name_calls, 1);
  EXPECT_EQ(inner.batch_calls, 1);
  EXPECT_EQ(inner.kernel_query_calls, 1);
  EXPECT_EQ(inner.soa_calls, 1);
  EXPECT_EQ(stats.soa_items.load(), 3u);
  const FitnessSlot t = stats.total();
  if (kTraced) {
    EXPECT_EQ(t.scalar.calls, 1u);
    EXPECT_EQ(t.batch.calls, 1u);
    EXPECT_EQ(t.batch_items, 3u);
    EXPECT_EQ(t.soa.calls, 1u);
    EXPECT_EQ(t.scalar.timed + t.batch.timed + t.soa.timed, 0u)
        << "nothing is timed before generation 1";
  } else {
    EXPECT_EQ(t.scalar.calls + t.batch.calls + t.soa.calls, 0u);
  }
}

TEST(ProblemProbe, ForwardsEveryCallUntraced) { check_problem_forwarding<false>(); }
TEST(ProblemProbe, ForwardsEveryCallTraced) { check_problem_forwarding<true>(); }

TEST(ProblemProbe, SamplesScalarTimingOnlyInGenerations) {
  FakeProblem inner;
  FitnessStats stats;
  stats.scalar_stride = 4;
  Phase phase;
  const ProblemProbe<BitString, FakeProblem, true> probe(inner, stats, phase);
  BitString g(8, 1);
  for (int i = 0; i < 8; ++i) (void)probe.fitness(g);
  phase.generations = true;
  for (int i = 0; i < 8; ++i) (void)probe.fitness(g);
  const FitnessSlot t = stats.total();
  EXPECT_EQ(t.scalar.calls, 16u);
  EXPECT_EQ(t.scalar_gen_calls, 8u);
  EXPECT_EQ(t.scalar.timed, 2u);  // calls 8 and 12
}

TEST(Instrument, ForwardsOperatorsWithoutChangingTheRngStream) {
  const auto ops = bit_operators();
  OperatorStats stats;
  Phase phase;
  phase.generations = true;
  const auto wrapped = instrument(ops, stats, phase);
  pga::Rng r1(5), r2(5);
  BitString a1 = BitString::random(64, r1), b1 = BitString::random(64, r1);
  BitString a2 = BitString::random(64, r2), b2 = BitString::random(64, r2);
  const std::vector<double> fit = {1, 5, 3, 2};
  EXPECT_EQ(ops.select(fit, r1), wrapped.select(fit, r2));
  ops.cross_in_place(a1, b1, r1);
  wrapped.cross_in_place(a2, b2, r2);
  const auto [c1, d1] = ops.cross(a1, b1, r1);
  const auto [c2, d2] = wrapped.cross(a2, b2, r2);
  ops.mutate(a1, r1);
  wrapped.mutate(a2, r2);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(b1, b2);
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(r1.next(), r2.next());
  EXPECT_EQ(stats.select.calls, 1u);
  EXPECT_EQ(stats.crossover.calls, 2u);
  EXPECT_EQ(stats.mutate.calls, 1u);
  EXPECT_EQ(stats.mutate.timed, 1u);  // the first call of each stride is timed
}

/// Scheme that counts its calls.
class FakeScheme final : public pga::EvolutionScheme<BitString> {
 public:
  int* steps;
  int* exec_steps;
  FakeScheme(int* s, int* e) : steps(s), exec_steps(e) {}
  std::size_t step(pga::Population<BitString>&, const pga::Problem<BitString>&,
                   pga::Rng&) override {
    ++*steps;
    return 3;
  }
  std::size_t step_exec(pga::Population<BitString>&,
                        const pga::Problem<BitString>&, pga::Rng&,
                        const pga::exec::Parallelism&) override {
    ++*exec_steps;
    return 5;
  }
  [[nodiscard]] std::string name() const override { return "fake-scheme"; }
};

TEST(SchemeProbe, ForwardsAndLogsEveryStep) {
  int steps = 0, exec_steps = 0;
  Phase phase;
  GenerationClock clock(phase, 4);
  StepLog log;
  SchemeProbe<BitString> probe(std::make_unique<FakeScheme>(&steps, &exec_steps),
                               log, &clock);
  pga::Population<BitString> pop;
  FakeProblem problem;
  pga::Rng rng(1);
  const pga::exec::Parallelism par;
  EXPECT_EQ(probe.step(pop, problem, rng), 3u);
  EXPECT_TRUE(phase.in_generations());
  EXPECT_EQ(probe.step_exec(pop, problem, rng, par), 5u);
  EXPECT_EQ(probe.name(), "fake-scheme");
  EXPECT_EQ(steps, 1);
  EXPECT_EQ(exec_steps, 1);
  ASSERT_EQ(log.begin_ns.size(), 2u);
  ASSERT_EQ(log.end_ns.size(), 2u);
  EXPECT_LE(log.begin_ns[0], log.end_ns[0]);
  EXPECT_EQ(clock.starts_ns.size(), 2u);
}

/// Transport that records which virtual was called.
class FakeTransport final : public pga::comm::Transport {
 public:
  mutable int calls[8] = {};
  [[nodiscard]] int rank() const noexcept override { return ++calls[0], 1; }
  [[nodiscard]] int world_size() const noexcept override { return ++calls[1], 3; }
  std::uint64_t send(int, int, std::vector<std::uint8_t>) override {
    ++calls[2];
    return 77;
  }
  std::optional<pga::comm::Message> recv(int, int) override {
    ++calls[3];
    return pga::comm::Message{2, 10, 78, {1, 2, 3}};
  }
  std::optional<pga::comm::Message> try_recv(int, int) override {
    ++calls[4];
    return std::nullopt;
  }
  std::optional<pga::comm::Message> recv_timeout(double, int, int) override {
    ++calls[5];
    return std::nullopt;
  }
  void compute(double) override { ++calls[6]; }
  [[nodiscard]] double now() const override { return ++calls[7], 1.5; }
};

TEST(TransportProbe, ForwardsEveryCallAndCountsBytes) {
  for (const bool traced : {false, true}) {
    FakeTransport inner;
    RankLog log;
    Phase phase;
    TransportProbe probe(inner, log, phase, traced);
    EXPECT_EQ(probe.rank(), 1);
    EXPECT_EQ(probe.world_size(), 3);
    EXPECT_EQ(probe.send(0, 10, std::vector<std::uint8_t>(5)), 77u);
    phase.generations = true;
    EXPECT_EQ(probe.send(0, 10, std::vector<std::uint8_t>(7)), 77u);
    const auto m = probe.recv(pga::comm::Transport::kAnySource,
                              pga::comm::Transport::kAnyTag);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->msg_id, 78u);
    EXPECT_FALSE(probe.try_recv(0, 0).has_value());
    EXPECT_FALSE(probe.recv_timeout(0.1, 0, 0).has_value());
    probe.compute(1.0);
    EXPECT_EQ(probe.now(), 1.5);
    const int expected[8] = {1, 1, 2, 1, 1, 1, 1, 1};  // send was called twice
    for (int i = 0; i < 8; ++i) EXPECT_EQ(inner.calls[i], expected[i]) << i;
    EXPECT_EQ(log.gen_sends, 1u);  // the first send precedes generation 1
    EXPECT_EQ(log.gen_send_bytes, 7u);
    if (traced) {
      ASSERT_EQ(log.sent.size(), 2u);
      EXPECT_EQ(log.sent[1].msg_id, 77u);
      ASSERT_EQ(log.received.size(), 3u);
      EXPECT_EQ(log.received[0].msg_id, 78u);
      EXPECT_EQ(log.received[0].tag, 10);
    } else {
      EXPECT_TRUE(log.sent.empty());
      EXPECT_TRUE(log.received.empty());
    }
  }
}

// ---------------------------------------------------------------------------
// Short runs: counts equal the configuration formulas
// ---------------------------------------------------------------------------

TEST(ShortRun, RastriginCountsMatchTheConfigAndThreadCount) {
  RastriginConfig c;
  c.deme_size = 64;
  c.dim = 8;
  c.epochs = 9;
  pga::Individual<pga::RealVector> par, seq;
  const Episode e = rastrigin_episode<true>(c, 4, 2, &par);
  (void)rastrigin_episode<false>(c, 4, 1, &seq);
  EXPECT_TRUE(e.failures.empty());
  EXPECT_EQ(e.evaluations, rastrigin_useful(c));
  const auto per = rastrigin_operator_calls(c);
  EXPECT_EQ(e.layers.ops.select.calls, per.select * c.epochs);
  EXPECT_EQ(e.layers.ops.mutate.calls, per.mutate * c.epochs);
  EXPECT_EQ(e.layers.fitness.scalar.calls + e.layers.soa_items, e.evaluations);
  EXPECT_GT(e.layers.tasks, 0u);
  EXPECT_EQ(e.gen_ms.size(), c.epochs);
  EXPECT_EQ(e.layers.step_ms.size(), c.demes * c.epochs);
  EXPECT_EQ(e.layers.barrier_wait_ms.size(), c.epochs);
  // run + setup + epochs + one step per deme and epoch
  EXPECT_EQ(e.spans.size(), 2 + c.epochs * (1 + c.demes));
  EXPECT_TRUE(bit_identical(par, seq));
}

/// Messages and payload bytes per master-slave generation under the current
/// wire format: one work and one result message per chunk.
struct MessageCounts {
  std::uint64_t msgs = 0, bytes = 0;
};

MessageCounts bisection_messages_per_gen(const BisectionConfig& c) {
  pga::comm::ByteWriter w;
  pga::comm::serialize(w, pga::BitString(c.vertices));
  const std::uint64_t genome_bytes = std::move(w).take().size();
  const std::uint64_t kids = c.pop_size - c.elitism;
  MessageCounts m;
  for (std::uint64_t done = 0; done < kids; done += c.chunk) {
    const std::uint64_t n = std::min<std::uint64_t>(c.chunk, kids - done);
    m.msgs += 2;
    m.bytes += 4 + n * (4 + genome_bytes);  // count, then (id, genome) pairs
    m.bytes += 4 + n * (4 + 8);             // count, then (id, fitness) pairs
  }
  return m;
}

TEST(ShortRun, BisectionCountsMatchTheConfig) {
  BisectionConfig c;
  c.vertices = 128;
  c.pop_size = 40;
  c.generations = 3;
  c.quality_gain = -1.0;  // no quality floor on a 3-generation run
  const auto msgs = bisection_messages_per_gen(c);
  EXPECT_EQ(msgs.msgs, 2u * 3u);  // 39 offspring in chunks of 16, 16, 7
  for (const bool traced : {false, true}) {
    const Episode e =
        traced ? bisection_episode<true>(c, 5) : bisection_episode<false>(c, 5);
    EXPECT_TRUE(e.failures.empty()) << e.failures.front();
    EXPECT_EQ(e.evaluations, bisection_useful(c));
    EXPECT_EQ(e.generations, c.generations);
    EXPECT_EQ(e.gen_msgs, msgs.msgs * c.generations);
    EXPECT_EQ(e.gen_bytes, msgs.bytes * c.generations);
    if (!traced) continue;
    const Layers& L = e.layers;
    const auto per = bisection_operator_calls(c);
    EXPECT_EQ(L.ops.select.calls, per.select * c.generations);
    EXPECT_EQ(L.ops.mutate.calls, per.mutate * c.generations);
    EXPECT_EQ(L.fitness.batch_items, e.evaluations);
    EXPECT_EQ(L.fitness.scalar.calls, 0u);
    EXPECT_EQ(L.slave_chunks, 3u * c.generations);
    EXPECT_EQ(L.master_sends, 3u * c.generations);
  }
}

TEST(Intervals, UnionAndGenerationLookup) {
  EXPECT_EQ(union_length({{0, 10}, {5, 15}, {20, 30}}, 0, 100), 25);
  EXPECT_EQ(union_length({{0, 10}, {5, 15}}, 8, 12), 4);
  const std::vector<std::int64_t> starts = {10, 20, 30};
  EXPECT_EQ(generation_of(starts, 5), 0u);
  EXPECT_EQ(generation_of(starts, 25), 1u);
  EXPECT_EQ(generation_of(starts, 99), 2u);
  const auto ms = generation_ms(starts, 45);
  ASSERT_EQ(ms.size(), 3u);
  EXPECT_DOUBLE_EQ(ms[2], 15e-6);
}

}  // namespace
}  // namespace perfbench
