#pragma once
// Forwarding wrappers around the objects a caller hands to pgalib: the
// Problem, the Operators, each deme's EvolutionScheme and each rank's
// comm::Transport.  They measure every layer from outside the library.
//
// Cost discipline.  A clock read (~20 ns) around a ~30 ns fitness call
// changes what is measured, and even tips the kAuto route calibrator towards
// the batched kernel.  So:
//   * untraced runs use ProblemProbe<..., false>, whose scalar path is a
//     plain forward (one virtual call, as without the wrapper); it counts
//     only SoA kernel items, one relaxed add per tile;
//   * traced runs count every call exactly but time only every
//     kSampleStride-th sub-microsecond call, and only once generation 1 has
//     started — the route calibration runs in the initial evaluation, before
//     that.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/transport.hpp"
#include "core/evolution.hpp"
#include "core/problem.hpp"
#include "measure.hpp"

namespace perfbench {

/// Traced runs time every kSampleStride-th call of a sub-microsecond function.
inline constexpr std::uint64_t kSampleStride = 16;

/// Exact call count plus the summed duration of a sample of the calls.
struct SampledTimer {
  std::uint64_t calls = 0;  ///< every call
  std::uint64_t timed = 0;  ///< calls whose duration is in `ns`
  std::int64_t ns = 0;

  /// Timed nanoseconds net of the clock reads' own cost.
  [[nodiscard]] double net_ns() const {
    return std::max(0.0, static_cast<double>(ns) -
                             static_cast<double>(timed) * clock_overhead_ns());
  }
  [[nodiscard]] double mean_ns() const {
    return timed ? net_ns() / static_cast<double>(timed) : 0.0;
  }
  /// Estimated total time of all calls.
  [[nodiscard]] double est_total_ns() const {
    return mean_ns() * static_cast<double>(calls);
  }
  void add(const SampledTimer& o) noexcept {
    calls += o.calls;
    timed += o.timed;
    ns += o.ns;
  }

  /// Runs `f`, counting it and timing it when `sample` is set.
  template <class F>
  decltype(auto) run(bool sample, F&& f) {
    ++calls;
    if (!sample) return f();
    struct Stop {
      SampledTimer& t;
      std::int64_t t0;
      ~Stop() {
        t.ns += now_ns() - t0;
        ++t.timed;
      }
    } stop{*this, now_ns()};
    return f();
  }
};

/// Shared by every probe of one episode: the generation phase starts when
/// the generation hook first fires; timing samples are taken only after it.
struct Phase {
  std::atomic<bool> generations{false};
  [[nodiscard]] bool in_generations() const noexcept {
    return generations.load(std::memory_order_acquire);
  }
};

/// One slot per thread that touches the owner, so counters need no atomics.
/// A thread caches its slot for the most recent owner; owners are not
/// shared between concurrent episodes.
template <class T>
class PerThread {
 public:
  T& local() {
    thread_local std::uint64_t owner = 0;
    thread_local T* slot = nullptr;
    if (owner != id_) {
      std::lock_guard<std::mutex> lock(mutex_);
      slot = &slots_.emplace_back();
      owner = id_;
    }
    return *slot;
  }
  /// Visits every slot; call only after the writing threads have been
  /// joined or synchronised with (pool barrier, cluster join).
  template <class F>
  void for_each(F&& f) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const T& s : slots_) f(s);
  }

 private:
  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }
  const std::uint64_t id_ = next_id();
  mutable std::mutex mutex_;
  std::deque<T> slots_;  // deque: slot addresses stay valid as it grows
};

// ---------------------------------------------------------------------------
// Problem
// ---------------------------------------------------------------------------

struct FitnessSlot {
  SampledTimer scalar;  ///< fitness() calls
  SampledTimer batch;   ///< fitness_batch() calls
  SampledTimer soa;     ///< fitness_soa() calls (tiles)
  std::uint64_t scalar_gen_calls = 0;  ///< fitness() calls after generation 1
  std::uint64_t batch_items = 0, batch_timed_items = 0;  ///< genomes
  std::uint64_t soa_timed_items = 0;

  void add(const FitnessSlot& o) noexcept {
    scalar.add(o.scalar);
    batch.add(o.batch);
    soa.add(o.soa);
    scalar_gen_calls += o.scalar_gen_calls;
    batch_items += o.batch_items;
    batch_timed_items += o.batch_timed_items;
    soa_timed_items += o.soa_timed_items;
  }
  /// Mean ns per scalar-path evaluation (fitness and fitness_batch).
  [[nodiscard]] double scalar_ns_per_eval() const {
    const auto items = scalar.timed + batch_timed_items;
    return items ? (scalar.net_ns() + batch.net_ns()) / static_cast<double>(items)
                 : 0.0;
  }
  [[nodiscard]] double soa_ns_per_item() const {
    return soa_timed_items ? soa.net_ns() / static_cast<double>(soa_timed_items)
                           : 0.0;
  }
};

struct FitnessStats {
  std::atomic<std::uint64_t> soa_items{0};  ///< genomes through the kernel
  PerThread<FitnessSlot> slots;             ///< traced runs only
  /// Time every n-th fitness(); 1 for objectives slow enough to time each call.
  std::uint64_t scalar_stride = kSampleStride;

  [[nodiscard]] FitnessSlot total() const {
    FitnessSlot t;
    slots.for_each([&](const FitnessSlot& s) { t.add(s); });
    return t;
  }
};

/// Forwards every Problem<G> call to a concrete `final` problem P.  Calls on
/// `inner_` are qualified, so they bind statically to P's overriders.
template <class G, class P, bool kTraced>
class ProblemProbe final : public pga::Problem<G> {
 public:
  ProblemProbe(const P& inner, FitnessStats& stats, const Phase& phase)
      : inner_(inner), stats_(stats), phase_(phase) {}

  [[nodiscard]] double fitness(const G& g) const override {
    if constexpr (!kTraced) {
      return inner_.P::fitness(g);
    } else {
      FitnessSlot& s = stats_.slots.local();
      const bool gen = phase_.in_generations();
      s.scalar_gen_calls += gen;
      const bool sample = gen && s.scalar.calls % stats_.scalar_stride == 0;
      return s.scalar.run(sample, [&] { return inner_.P::fitness(g); });
    }
  }
  [[nodiscard]] double objective(const G& g) const override {
    return inner_.P::objective(g);
  }
  [[nodiscard]] std::optional<double> optimum_fitness() const override {
    return inner_.P::optimum_fitness();
  }
  [[nodiscard]] std::string name() const override { return inner_.P::name(); }

  void fitness_batch(std::span<const G> genomes,
                     std::span<double> out) const override {
    if constexpr (kTraced) {
      FitnessSlot& s = stats_.slots.local();
      const bool sample = phase_.in_generations();
      s.batch_items += genomes.size();
      if (sample) s.batch_timed_items += genomes.size();
      s.batch.run(sample, [&] { inner_.P::fitness_batch(genomes, out); });
    } else {
      inner_.P::fitness_batch(genomes, out);
    }
  }
  [[nodiscard]] bool has_soa_kernel() const noexcept override {
    return inner_.P::has_soa_kernel();
  }
  void fitness_soa(const pga::SoaView<G>& x,
                   std::span<double> out) const override {
    stats_.soa_items.fetch_add(x.count, std::memory_order_relaxed);
    if constexpr (kTraced) {
      FitnessSlot& s = stats_.slots.local();
      const bool sample = phase_.in_generations();
      if (sample) s.soa_timed_items += x.count;
      s.soa.run(sample, [&] { inner_.P::fitness_soa(x, out); });
    } else {
      inner_.P::fitness_soa(x, out);
    }
  }

 private:
  const P& inner_;
  FitnessStats& stats_;
  const Phase& phase_;
};

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

/// Operator counters of one deme (or of the master).  A deme is stepped by
/// one thread at a time and the pool barrier orders successive epochs, so
/// plain counters suffice.
struct alignas(64) OperatorStats {
  SampledTimer select;
  SampledTimer crossover;  ///< pair-returning and in-place calls together
  SampledTimer mutate;

  void add(const OperatorStats& o) noexcept {
    select.add(o.select);
    crossover.add(o.crossover);
    mutate.add(o.mutate);
  }
};

/// Wraps each operator of `ops` so it is counted and sample-timed into
/// `stats`.  RNG consumption is unchanged.
template <class G>
[[nodiscard]] pga::Operators<G> instrument(pga::Operators<G> ops,
                                           OperatorStats& stats,
                                           const Phase& phase) {
  auto sample = [&phase](const SampledTimer& t) {
    return t.calls % kSampleStride == 0 && phase.in_generations();
  };
  if (ops.select)
    ops.select = [f = std::move(ops.select), &stats, sample](
                     std::span<const double> fit, pga::Rng& rng) {
      return stats.select.run(sample(stats.select), [&] { return f(fit, rng); });
    };
  if (ops.cross)
    ops.cross = [f = std::move(ops.cross), &stats, sample](
                    const G& a, const G& b, pga::Rng& rng) {
      return stats.crossover.run(sample(stats.crossover),
                                 [&] { return f(a, b, rng); });
    };
  if (ops.cross_in_place)
    ops.cross_in_place = [f = std::move(ops.cross_in_place), &stats, sample](
                             G& a, G& b, pga::Rng& rng) {
      stats.crossover.run(sample(stats.crossover), [&] { f(a, b, rng); });
    };
  if (ops.mutate)
    ops.mutate = [f = std::move(ops.mutate), &stats, sample](G& g,
                                                            pga::Rng& rng) {
      stats.mutate.run(sample(stats.mutate), [&] { f(g, rng); });
    };
  return ops;
}

// ---------------------------------------------------------------------------
// Generation hooks
// ---------------------------------------------------------------------------

/// Start of the generation phase and one timestamp per generation.  Present
/// in timed and traced runs alike.
struct GenerationClock {
  Phase& phase;
  std::vector<std::int64_t> starts_ns;  ///< start of each generation / epoch
  double cpu_at_start_s = 0.0;

  GenerationClock(Phase& p, std::size_t generations) : phase(p) {
    starts_ns.reserve(generations + 1);
  }
  void tick() {
    const std::int64_t t = now_ns();
    if (starts_ns.empty()) {
      cpu_at_start_s = process_cpu_s();
      phase.generations.store(true, std::memory_order_release);
    }
    starts_ns.push_back(t);
  }
};

/// Start, end and executing thread of every step of one deme.
struct StepLog {
  std::vector<std::int64_t> begin_ns, end_ns;
  std::vector<std::size_t> thread;  ///< hash of the stepping thread's id
};

/// Forwards an EvolutionScheme and logs each step's wall interval; the
/// deme-0 probe also drives the generation clock (one tick per epoch).
template <class G>
class SchemeProbe final : public pga::EvolutionScheme<G> {
 public:
  SchemeProbe(std::unique_ptr<pga::EvolutionScheme<G>> inner, StepLog& log,
              GenerationClock* clock)
      : inner_(std::move(inner)), log_(log), clock_(clock) {}

  std::size_t step(pga::Population<G>& pop, const pga::Problem<G>& problem,
                   pga::Rng& rng) override {
    begin();
    const std::size_t n = inner_->step(pop, problem, rng);
    log_.end_ns.push_back(now_ns());
    return n;
  }
  std::size_t step_exec(pga::Population<G>& pop, const pga::Problem<G>& problem,
                        pga::Rng& rng, const pga::exec::Parallelism& par) override {
    begin();
    const std::size_t n = inner_->step_exec(pop, problem, rng, par);
    log_.end_ns.push_back(now_ns());
    return n;
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  void begin() {
    if (clock_) clock_->tick();
    log_.thread.push_back(std::hash<std::thread::id>{}(std::this_thread::get_id()));
    log_.begin_ns.push_back(now_ns());
  }

  std::unique_ptr<pga::EvolutionScheme<G>> inner_;
  StepLog& log_;
  GenerationClock* clock_;
};

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

/// One transport call with its wall interval.
struct MessageSpan {
  std::int64_t t0 = 0, t1 = 0;
  std::uint64_t msg_id = 0;
  int tag = 0;
  bool generations = false;  ///< issued after generation 1 started
};

/// Per-rank generation-phase send counters (every run) and message spans
/// (traced runs).
struct RankLog {
  std::uint64_t gen_sends = 0, gen_send_bytes = 0;
  std::vector<MessageSpan> sent, received;  ///< traced runs only
};

/// Forwards a comm::Transport.  Every call is forwarded unchanged; sends
/// after generation 1 starts are counted with their payload bytes, and traced
/// runs log each send and each receive (its blocking wait) with the
/// transport's msg_id.
class TransportProbe final : public pga::comm::Transport {
 public:
  TransportProbe(pga::comm::Transport& inner, RankLog& log, const Phase& phase,
                 bool traced)
      : inner_(inner), log_(log), phase_(phase), traced_(traced) {}

  [[nodiscard]] int rank() const noexcept override { return inner_.rank(); }
  [[nodiscard]] int world_size() const noexcept override {
    return inner_.world_size();
  }

  std::uint64_t send(int dest, int tag,
                     std::vector<std::uint8_t> payload) override {
    const bool gen = phase_.in_generations();
    if (gen) {
      ++log_.gen_sends;
      log_.gen_send_bytes += payload.size();
    }
    if (!traced_) return inner_.send(dest, tag, std::move(payload));
    MessageSpan s{now_ns(), 0, 0, tag, gen};
    s.msg_id = inner_.send(dest, tag, std::move(payload));
    s.t1 = now_ns();
    log_.sent.push_back(s);
    return s.msg_id;
  }

  [[nodiscard]] std::optional<pga::comm::Message> recv(int source,
                                                       int tag) override {
    return logged([&] { return inner_.recv(source, tag); });
  }
  [[nodiscard]] std::optional<pga::comm::Message> try_recv(int source,
                                                           int tag) override {
    return logged([&] { return inner_.try_recv(source, tag); });
  }
  [[nodiscard]] std::optional<pga::comm::Message> recv_timeout(
      double seconds, int source, int tag) override {
    return logged([&] { return inner_.recv_timeout(seconds, source, tag); });
  }

  void compute(double seconds) override { inner_.compute(seconds); }
  [[nodiscard]] double now() const override { return inner_.now(); }

 private:
  template <class F>
  std::optional<pga::comm::Message> logged(F&& f) {
    if (!traced_) return f();
    MessageSpan s;
    s.t0 = now_ns();
    auto m = f();
    s.t1 = now_ns();
    s.generations = phase_.in_generations();
    if (m) {
      s.msg_id = m->msg_id;
      s.tag = m->tag;
    }
    log_.received.push_back(s);
    return m;
  }

  pga::comm::Transport& inner_;
  RankLog& log_;
  const Phase& phase_;
  bool traced_;
};

}  // namespace perfbench
