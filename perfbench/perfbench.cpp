#include "perfbench.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/metric.h"
#include "core/scoreboard.h"
#include "llm/client.h"
#include "replay/experiment.h"
#include "runtime/engine.h"
#include "runtime/task_pool.h"
#include "scenario/driver.h"
#include "scenario/registry.h"
#include "scenario/spec.h"
#include "trace/schema.h"
#include "world/grid_map.h"
#include "world/world_state.h"

namespace perfbench {

namespace {

namespace core = aimetro::core;
namespace llm = aimetro::llm;
namespace replay = aimetro::replay;
namespace runtime = aimetro::runtime;
namespace scenario = aimetro::scenario;
namespace trace = aimetro::trace;
namespace world = aimetro::world;
using aimetro::AgentId;
using aimetro::Pos;
using aimetro::Step;
using aimetro::Tile;
using aimetro::splitmix64;
using aimetro::strformat;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

// ---- Statistics ----

Percentile percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return {};
  AIM_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile " << q << " not in [0, 1]");
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return {samples[lo] + (samples[hi] - samples[lo]) * frac, samples.size()};
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5).value;
}

// ---- Tracing ----

namespace {

/// One timed call. Times are nanoseconds since the tracer's epoch;
/// parent 0 is the root. `counts` carries the counters measured at the
/// same boundary (e.g. DES events of a replay).
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  const char* name = "";
  std::uint32_t thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<std::pair<const char*, double>> counts;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
  double micros() const { return static_cast<double>(end_ns - start_ns) * 1e-3; }
  /// The named count; check-fails when absent.
  double count(const char* key) const {
    for (const auto& [k, v] : counts) {
      if (std::string(k) == key) return v;
    }
    AIM_CHECK_MSG(false, "span " << name << " has no count " << key);
    return 0.0;
  }
};

/// In-memory span store for one benchmark invocation (the run id).
/// Recording is thread-safe; spans are read and written out post-run.
class Tracer {
 public:
  explicit Tracer(std::uint32_t run_id) : run_id_(run_id), epoch_(Clock::now()) {}

  std::uint32_t next_id() { return next_id_.fetch_add(1); }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }
  void record(Span span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event file (Perfetto, chrome://tracing): pid = run id,
  /// args carry id/parent and the counts.
  void write_chrome_json(const std::string& path, const std::string& title) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    AIM_CHECK_MSG(f != nullptr, "cannot write span file " << path);
    std::fprintf(f,
                 "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"run_id\":%u},"
                 "\"traceEvents\":[\n"
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                 "\"args\":{\"name\":\"%s\"}}",
                 run_id_, run_id_, title.c_str());
    for (const Span& s : spans_) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u",
                   s.name, run_id_, s.thread, static_cast<double>(s.start_ns) * 1e-3,
                   s.micros(), s.id, s.parent);
      for (const auto& [key, value] : s.counts) {
        std::fprintf(f, ",\"%s\":%.17g", key, value);
      }
      std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    AIM_CHECK_MSG(std::fclose(f) == 0, "cannot write span file " << path);
  }

 private:
  const std::uint32_t run_id_;
  const Clock::time_point epoch_;
  std::atomic<std::uint32_t> next_id_{1};
  std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_ while recording
};

/// RAII span: times its scope and records it on destruction. A null
/// tracer makes it a no-op, so untraced runs take no timestamps.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint32_t parent = 0)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    span_.id = tracer_->next_id();
    span_.parent = parent;
    span_.name = name;
    span_.thread = thread_index();
    span_.start_ns = tracer_->now_ns();
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.end_ns = tracer_->now_ns();
    tracer_->record(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return span_.id; }
  void count(const char* key, double value) {
    if (tracer_ != nullptr) span_.counts.emplace_back(key, value);
  }

 private:
  Tracer* tracer_;
  Span span_;
};

std::vector<const Span*> spans_named(const std::vector<Span>& spans, const char* name) {
  std::vector<const Span*> out;
  for (const Span& s : spans) {
    if (std::string(s.name) == name) out.push_back(&s);
  }
  return out;
}

/// The single span named `name`; check-fails unless exactly one exists.
const Span& only_span(const std::vector<Span>& spans, const char* name) {
  const auto found = spans_named(spans, name);
  AIM_CHECK_MSG(found.size() == 1, found.size() << " spans named " << name << ", expected 1");
  return *found.front();
}

}  // namespace

// ---- Workloads ----

namespace {

/// The live-engine settings: wall clock with the default 200 us fake call
/// latency, and 2 workers — on a 4-core host the default 4 workers start
/// 4 + 8 threads and run slower than 2 (README.md).
const std::vector<std::string> kEngineOverrides = {"backend=engine",
                                                   "clock=wall", "workers=2"};

/// Set-ups per untraced invocation; setup_s is their median.
constexpr int kSetups = 3;

/// The 12:00–13:00 busy hour: 360 steps.
const std::vector<std::string> kBusyHour = {"window_begin=4320",
                                            "window_end=4680"};

std::vector<std::string> concat(std::vector<std::string> a,
                                const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

}  // namespace

const std::vector<Workload>& workloads() {
  // Why each workload exists, and the layer each one carries: README.md.
  static const std::vector<Workload> all = {
      // The paper's pipeline at paper sparsity (mean cluster 3.29): grid A*
      // trace generation and the DES serving simulator dominate.
      // Five traces per invocation: the metropolis replay's host cost
      // differs by up to ~1.6x between seeds, so one trace would let its
      // seed set the result.
      {"ville_busy_des", "metro_ville1000", kBusyHour, 5.0, 5},
      // The same trace on the live threaded engine; bypasses replay/llm/des.
      {"ville_busy_engine", "metro_ville1000", concat(kBusyHour, kEngineOverrides),
       5.0},
      // Graph world: hop-ball scoreboard probes and hub clusters of up to
      // ~350 members dominate; set-up has no grid A*. Run by hand only:
      // BENCHMARK.json leaves it out, since its run_s follows the host's
      // memory contention more than the program (README.md).
      {"social_busy_des", "social_net1000", kBusyHour, 4.0},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t recorded_digest(const std::string& workload, std::uint64_t seed) {
  static const std::map<std::pair<std::string, std::uint64_t>, std::uint64_t>
      recorded = {
          {{"ville_busy_des", kDefaultSeed}, 0x84e9ffcf6359d4dcULL},
          {{"ville_busy_engine", kDefaultSeed}, 0x2f9ac11015eee3b7ULL},
          {{"social_busy_des", kDefaultSeed}, 0xc8bcd7ecee373d44ULL},
          {{"ville_busy_des", kHeldOutSeed}, 0x102d4baffcb18629ULL},
          {{"ville_busy_engine", kHeldOutSeed}, 0x8075ce74b90a4f7aULL},
          {{"social_busy_des", kHeldOutSeed}, 0xc62cafb47f6b0652ULL},
      };
  const auto it = recorded.find({workload, seed});
  return it == recorded.end() ? 0 : it->second;
}

// ---- One invocation ----

namespace {

/// Final-state digest over agent-indexed (step, position) pairs — the
/// same function as ScenarioDriver's `scoreboard-digest`, so the values
/// here can be compared with `aimetro_run` output.
std::uint64_t digest_states(const std::vector<std::pair<Step, Pos>>& states) {
  std::uint64_t h = 0xA13E7205C0FFEE01ULL;
  for (const auto& [step, pos] : states) {
    std::uint64_t v = splitmix64(static_cast<std::uint64_t>(
        static_cast<std::uint32_t>(step)));
    v = splitmix64(v ^ static_cast<std::uint64_t>(
                           std::llround(pos.x * 4.0) + (1LL << 30)));
    v = splitmix64(v ^ static_cast<std::uint64_t>(
                           std::llround(pos.y * 4.0) + (1LL << 30)));
    h = splitmix64(h ^ v) + 0x9e3779b97f4a7c15ULL;
  }
  return h;
}

/// Final-state digest of a scoreboard's agents.
std::uint64_t board_digest(const core::Scoreboard& board) {
  std::vector<std::pair<Step, Pos>> states;
  for (AgentId a = 0; a < static_cast<AgentId>(board.agent_count()); ++a) {
    states.emplace_back(board.step_of(a), board.pos_of(a));
  }
  return digest_states(states);
}

/// Digest of the state a replay of `tr` must end in: every agent done at
/// n_steps on its last traced position.
std::uint64_t trace_final_digest(const trace::SimulationTrace& tr) {
  std::vector<std::pair<Step, Pos>> states;
  for (AgentId a = 0; a < tr.n_agents; ++a) {
    states.emplace_back(tr.n_steps,
                        tr.position_at(a, tr.start_step + tr.n_steps).center());
  }
  return digest_states(states);
}

/// Everything a set-up produced, hashed: positions and calls.
std::uint64_t trace_fingerprint(const trace::SimulationTrace& tr) {
  std::uint64_t h = splitmix64(static_cast<std::uint64_t>(tr.n_agents) << 32 |
                               static_cast<std::uint32_t>(tr.n_steps));
  for (const trace::AgentTrace& a : tr.agents) {
    for (const Tile& t : a.positions) {
      h = splitmix64(h ^ (static_cast<std::uint64_t>(
                              static_cast<std::uint32_t>(t.x)) << 32 |
                          static_cast<std::uint32_t>(t.y)));
    }
    for (const trace::LlmCall& c : a.calls) {
      h = splitmix64(h ^ static_cast<std::uint64_t>(c.step) ^
                     static_cast<std::uint64_t>(c.input_tokens) << 20 ^
                     static_cast<std::uint64_t>(c.output_tokens) << 40);
    }
  }
  return h;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

scenario::ScenarioSpec make_spec(const std::string& name,
                                 const std::vector<std::string>& overrides) {
  std::string error;
  auto spec = scenario::find_scenario(name, &error);
  AIM_CHECK_MSG(spec.has_value(), error);
  for (const std::string& o : overrides) {
    AIM_CHECK_MSG(scenario::apply_override(&*spec, o, &error), error);
  }
  const std::string invalid = scenario::validate_spec(*spec);
  AIM_CHECK_MSG(invalid.empty(), invalid);
  return *spec;
}

/// Output checks. Each failure is printed; the caller decides whether it
/// fails one run's operations or the whole invocation's.
class Gate {
 public:
  bool check(bool ok, const std::string& what) {
    if (!ok) {
      std::printf("FAIL    %s\n", what.c_str());
      failures_ += 1;
    }
    return ok;
  }
  int failures() const { return failures_; }

 private:
  int failures_ = 0;
};

// -- replay layer (with llm/des inside) --

struct DesRun {
  double seconds = 0.0;
  replay::ExperimentResult sync;
  replay::ExperimentResult metro;
  std::uint64_t digest = 0;
};

/// The parallel-sync and metropolis replays `aimetro_run --skip-serial`
/// runs after set-up.
DesRun des_run(const trace::SimulationTrace& tr, replay::ExperimentConfig cfg,
               Tracer* tracer) {
  DesRun out;
  const auto t0 = Clock::now();
  {
    ScopedSpan span(tracer, "replay.sync");
    cfg.mode = replay::Mode::kParallelSync;
    out.sync = replay::run_experiment(tr, cfg);
    span.count("des_events", static_cast<double>(out.sync.des_events));
    span.count("calls", static_cast<double>(out.sync.total_calls));
  }
  {
    ScopedSpan span(tracer, "replay.metro");
    cfg.mode = replay::Mode::kMetropolis;
    out.metro = replay::run_experiment(tr, cfg);
    const replay::ExperimentResult& m = out.metro;
    span.count("des_events", static_cast<double>(m.des_events));
    span.count("calls", static_cast<double>(m.total_calls));
    span.count("clusters",
               static_cast<double>(m.scoreboard.clusters_dispatched));
    span.count("mean_cluster", m.scoreboard.mean_cluster_size());
    span.count("mean_blockers", m.mean_blockers);
    span.count("parallelism", m.avg_parallelism);
    span.count("utilization", m.avg_utilization);
  }
  out.seconds = seconds_since(t0);
  out.digest = digest_states(out.metro.final_agent_states);
  return out;
}

bool check_des(Gate& gate, const DesRun& run, const trace::SimulationTrace& tr) {
  const std::uint64_t calls = tr.total_calls();
  const std::uint64_t agent_steps =
      static_cast<std::uint64_t>(tr.n_agents) * static_cast<std::uint64_t>(tr.n_steps);
  bool ok = gate.check(run.sync.total_calls == calls,
                       strformat("sync served %llu calls, trace has %llu",
                                 static_cast<unsigned long long>(run.sync.total_calls),
                                 static_cast<unsigned long long>(calls)));
  ok &= gate.check(run.metro.total_calls == calls,
                   strformat("metropolis served %llu calls, trace has %llu",
                             static_cast<unsigned long long>(run.metro.total_calls),
                             static_cast<unsigned long long>(calls)));
  // Lock-step advances every agent once per barrier, so the sync run's
  // agent-steps are agents x barriers.
  const std::uint64_t sync_steps = static_cast<std::uint64_t>(tr.n_agents) *
                                   run.sync.step_completion_times.size();
  ok &= gate.check(sync_steps == agent_steps,
                   strformat("sync advanced %llu agent-steps, expected %llu",
                             static_cast<unsigned long long>(sync_steps),
                             static_cast<unsigned long long>(agent_steps)));
  const auto committed = static_cast<std::uint64_t>(
      std::llround(run.metro.scoreboard.sum_cluster_sizes));
  ok &= gate.check(committed == agent_steps,
                   strformat("metropolis committed %llu agent-steps, expected %llu",
                             static_cast<unsigned long long>(committed),
                             static_cast<unsigned long long>(agent_steps)));
  ok &= gate.check(run.digest == trace_final_digest(tr),
                   "metropolis final state is not the trace's final state");
  return ok;
}

// -- runtime layer --

/// FakeLlmClient that also sums the time callers spend blocked in it.
class TimedLlmClient final : public llm::LlmClient {
 public:
  TimedLlmClient(std::uint64_t seed, aimetro::SimTime latency_us)
      : fake_(seed, latency_us) {}

  llm::CompletionResult complete(const llm::CompletionRequest& request) override {
    const auto t0 = Clock::now();
    llm::CompletionResult result = fake_.complete(request);
    busy_ns_.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - t0)
                           .count(),
                       std::memory_order_relaxed);
    return result;
  }
  std::uint64_t calls() const { return fake_.calls(); }
  double busy_seconds() const {
    return static_cast<double>(busy_ns_.load()) * 1e-9;
  }

 private:
  llm::FakeLlmClient fake_;
  std::atomic<std::int64_t> busy_ns_{0};
};

std::int32_t sign(std::int32_t d) { return d > 0 ? 1 : (d < 0 ? -1 : 0); }

/// One 4-neighbor step from `from` toward `to`, as ScenarioDriver's engine
/// path moves agents (single-axis moves respect max_vel = 1).
Tile step_toward(const world::GridMap& map, Tile from, Tile to) {
  const std::int32_t dx = to.x - from.x;
  const std::int32_t dy = to.y - from.y;
  const Tile via_x{from.x + sign(dx), from.y};
  const Tile via_y{from.x, from.y + sign(dy)};
  const Tile first = std::abs(dx) >= std::abs(dy) ? via_x : via_y;
  const Tile second = std::abs(dx) >= std::abs(dy) ? via_y : via_x;
  if (!(first == from) && map.walkable(first)) return first;
  if (!(second == from) && map.walkable(second)) return second;
  return from;
}

/// One metropolis run on the live engine, as the output gate and the shape
/// check read it.
struct EngineRun {
  double seconds = 0.0;  // wall time of Engine::run()
  std::uint64_t agent_steps = 0;
  std::uint64_t calls = 0;
  std::uint64_t clusters = 0;
  double mean_cluster = 0.0;
  double mean_blockers = 0.0;
  std::uint64_t digest = 0;
};

/// The program's own engine run: ScenarioDriver::run without the serial
/// baseline. It builds its map and trace itself (untimed), then reports
/// the wall seconds of Engine::run() as metro_seconds under clock = wall.
EngineRun driver_engine_run(const scenario::ScenarioDriver& driver) {
  const scenario::ScenarioReport report = driver.run(/*serial_baseline=*/false);
  EngineRun out;
  out.seconds = report.metro_seconds;
  out.agent_steps = report.agent_steps;
  out.calls = report.total_calls;
  out.clusters = report.clusters_dispatched;
  out.mean_cluster = report.mean_cluster_size;
  out.mean_blockers = report.mean_blockers;
  out.digest = report.scoreboard_digest;
  return out;
}

/// A mirror of ScenarioDriver's engine backend (run_engine_trace) for the
/// traced per-layer run only: trace positions become one-tile intents and
/// every traced call goes through the blocking client on a chain TaskPool,
/// but with this benchmark's step_fn and a timed client, so step_fn time
/// and LLM-busy time show. It sets only the EngineConfig fields the
/// workloads' defaults need (no scan_mode, partition, reshard or pinning)
/// and uses a FakeLlmClient directly; end-to-end run_s never comes from
/// here but from driver_engine_run.
EngineRun engine_run(const scenario::ScenarioSpec& spec,
                     const world::GridMap& grid_map,
                     const trace::SimulationTrace& tr, Tracer* tracer) {
  const bool graph = tr.world_kind == trace::WorldKind::kGraph;
  // Graph worlds stand on a node-count-by-1 substrate map.
  const world::GridMap substrate(graph ? tr.map_width : 1, 1);
  const world::GridMap& map = graph ? substrate : grid_map;

  std::vector<trace::StepCalls> chains(static_cast<std::size_t>(tr.n_agents));
  for (std::size_t i = 0; i < chains.size(); ++i) {
    chains[i] = trace::group_calls_by_step(tr.agents[i]);
  }
  std::vector<Tile> starts;
  for (AgentId a = 0; a < tr.n_agents; ++a) {
    starts.push_back(tr.position_at(a, tr.start_step));
  }
  world::WorldState world(&map, std::move(starts),
                          graph ? &tr.graph_adjacency : nullptr);

  runtime::EngineConfig cfg;
  cfg.params = core::DependencyParams{spec.radius_p, spec.max_vel};
  cfg.target_step = tr.n_steps;
  cfg.n_workers = spec.workers;
  cfg.kv_instrumentation = false;
  if (graph) cfg.metric = std::make_shared<core::GraphMetric>(tr.graph_adjacency);
  cfg.shards = spec.resolved_shards();

  TimedLlmClient client(spec.seed, spec.call_latency_us);
  runtime::TaskPool chain_pool(spec.resolved_pool_workers());
  std::uint32_t run_span = 0;

  auto issue_chain = [&](AgentId m, Step abs_step) {
    const auto& by_step = chains[static_cast<std::size_t>(m)];
    const auto it = by_step.find(abs_step);
    if (it == by_step.end()) return;
    for (const trace::LlmCall* call : it->second) {
      llm::CompletionRequest req;
      req.prompt = strformat("agent=%d step=%d type=%s", m, abs_step,
                             trace::call_type_name(call->type));
      req.prompt_tokens = call->input_tokens;
      req.max_tokens = call->output_tokens;
      req.priority = abs_step;
      client.complete(req);
    }
  };
  auto step_fn = [&](const core::AgentCluster& cluster,
                     const world::WorldState& w) {
    ScopedSpan span(tracer, "engine.step_fn", run_span);
    const Step abs_step = tr.start_step + cluster.step;
    std::vector<AgentId> with_calls;
    for (AgentId m : cluster.members) {
      if (chains[static_cast<std::size_t>(m)].count(abs_step) != 0) {
        with_calls.push_back(m);
      }
    }
    if (with_calls.size() > 1) {
      std::vector<runtime::TaskPool::Task> tasks;
      for (AgentId m : with_calls) {
        tasks.push_back([&issue_chain, m, abs_step] { issue_chain(m, abs_step); });
      }
      chain_pool.submit_and_wait(std::move(tasks), /*priority=*/abs_step);
    } else if (!with_calls.empty()) {
      issue_chain(with_calls.front(), abs_step);
    }
    std::vector<world::StepIntent> intents;
    intents.reserve(cluster.members.size());
    for (AgentId m : cluster.members) {
      Tile current;
      {
        aimetro::common::ReaderLock lock(w.mutex());
        current = w.tile_of(m);
      }
      const Tile want = tr.position_at(m, abs_step + 1);
      const Tile next = graph ? want : step_toward(map, current, want);
      world::StepIntent intent;
      intent.agent = m;
      if (!(next == current)) intent.move_to = next;
      intents.push_back(intent);
    }
    return intents;
  };

  EngineRun out;
  runtime::Engine engine(&world, cfg, step_fn);
  {
    ScopedSpan span(tracer, "engine.run");
    run_span = span.id();
    const auto t0 = Clock::now();
    const runtime::EngineStats stats = engine.run();
    out.seconds = seconds_since(t0);
    out.agent_steps = stats.agent_steps;
    span.count("commits", static_cast<double>(stats.commits));
    span.count("commit_wait_us", static_cast<double>(stats.commit_wait_us));
    span.count("commit_hold_us", static_cast<double>(stats.commit_hold_us));
    span.count("max_commit_wait_us",
               static_cast<double>(stats.max_commit_wait_us));
    span.count("llm_busy_s", client.busy_seconds());
    span.count("workers", static_cast<double>(spec.workers));
    span.count("pool_peak_inflight",
               static_cast<double>(chain_pool.stats().peak_in_flight));
  }
  out.calls = client.calls();
  const core::Scoreboard& board = engine.scoreboard();
  out.clusters = board.stats().clusters_dispatched;
  out.mean_cluster = board.stats().mean_cluster_size();
  out.mean_blockers = board.mean_blockers();
  out.digest = board_digest(board);
  return out;
}

bool check_engine(Gate& gate, const EngineRun& run,
                  const trace::SimulationTrace& tr) {
  const std::uint64_t calls = tr.total_calls();
  const std::uint64_t agent_steps =
      static_cast<std::uint64_t>(tr.n_agents) * static_cast<std::uint64_t>(tr.n_steps);
  bool ok = gate.check(run.agent_steps == agent_steps,
                       strformat("engine committed %llu agent-steps, expected %llu",
                                 static_cast<unsigned long long>(run.agent_steps),
                                 static_cast<unsigned long long>(agent_steps)));
  ok &= gate.check(run.calls == calls,
                   strformat("engine served %llu calls, trace has %llu",
                             static_cast<unsigned long long>(run.calls),
                             static_cast<unsigned long long>(calls)));
  return ok;
}

// -- core layer --

struct CoreRun {
  std::uint64_t clusters = 0;
  std::uint64_t members = 0;
  std::size_t max_cluster = 0;
  double mean_blockers = 0.0;
  std::uint64_t digest = 0;
  double mean_cluster() const {
    return clusters == 0 ? 0.0
                         : static_cast<double>(members) / static_cast<double>(clusters);
  }
};

/// Single-thread Scoreboard replay of the trace: pop every ready cluster,
/// commit each to its traced positions, repeat until all agents are done.
CoreRun core_replay(const trace::SimulationTrace& tr, Tracer* tracer) {
  ScopedSpan span(tracer, "core.replay");
  std::vector<Pos> initial;
  for (AgentId a = 0; a < tr.n_agents; ++a) {
    initial.push_back(tr.position_at(a, tr.start_step).center());
  }
  const std::shared_ptr<const core::Metric> metric =
      tr.world_kind == trace::WorldKind::kGraph
          ? std::make_shared<core::GraphMetric>(tr.graph_adjacency)
          : core::make_euclidean();
  core::Scoreboard board(core::DependencyParams{tr.radius_p, tr.max_vel},
                         metric, std::move(initial), tr.n_steps);
  CoreRun out;
  std::vector<std::pair<AgentId, Pos>> moves;
  while (!board.all_done()) {
    std::vector<core::AgentCluster> ready;
    {
      ScopedSpan pop(tracer, "core.pop", span.id());
      ready = board.pop_ready_clusters();
    }
    AIM_CHECK_MSG(!ready.empty(), "scoreboard stalled before all agents were done");
    for (const core::AgentCluster& cluster : ready) {
      out.clusters += 1;
      out.members += cluster.members.size();
      out.max_cluster = std::max(out.max_cluster, cluster.members.size());
      moves.clear();
      for (AgentId m : cluster.members) {
        moves.emplace_back(
            m, tr.position_at(m, tr.start_step + cluster.step + 1).center());
      }
      ScopedSpan commit(tracer, "core.commit", span.id());
      board.commit(moves);
    }
  }
  out.mean_blockers = board.mean_blockers();
  out.digest = board_digest(board);
  span.count("commits", static_cast<double>(board.stats().commits));
  span.count("max_cluster", static_cast<double>(out.max_cluster));
  span.count("edges_added", static_cast<double>(board.stats().edges_added));
  return out;
}

// -- per-layer metrics from the spans of a traced run --

std::vector<Metric> layer_metrics(const std::vector<Span>& spans,
                                  double untraced_run_s, double traced_run_s) {
  std::vector<Metric> m;
  auto add = [&m](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };
  auto durations_us = [&spans](const char* name) {
    std::vector<double> out;
    for (const Span* s : spans_named(spans, name)) out.push_back(s->micros());
    return out;
  };

  add("world.map_s", only_span(spans, "world.map").seconds(), "s");
  add("trace.generate_s", only_span(spans, "trace.generate").seconds(), "s");
  const Span& slice = only_span(spans, "trace.slice");
  add("trace.slice_s", slice.seconds(), "s");
  add("trace.calls", slice.count("calls"), "count");

  const Span& sync = only_span(spans, "replay.sync");
  const Span& metro = only_span(spans, "replay.metro");
  const double events = sync.count("des_events") + metro.count("des_events");
  add("replay.sync_s", sync.seconds(), "s");
  add("replay.metro_s", metro.seconds(), "s");
  add("replay.des_events", events, "count");
  add("replay.us_per_event", (sync.micros() + metro.micros()) / events, "us");
  add("replay.clusters", metro.count("clusters"), "count");
  add("replay.mean_cluster", metro.count("mean_cluster"), "agents");
  add("replay.mean_blockers", metro.count("mean_blockers"), "agents");
  add("replay.parallelism", metro.count("parallelism"), "requests");
  add("replay.utilization", metro.count("utilization"), "ratio");

  const Span& core_span = only_span(spans, "core.replay");
  double pop_s = 0.0;
  for (const Span* s : spans_named(spans, "core.pop")) pop_s += s->seconds();
  const std::vector<double> commit_us = durations_us("core.commit");
  add("core.replay_s", core_span.seconds(), "s");
  add("core.pop_s", pop_s, "s");
  add("core.commits", core_span.count("commits"), "count");
  add("core.commit_p50_us", percentile(commit_us, 0.5).value, "us");
  const Percentile commit_p99 = percentile(commit_us, 0.99);
  add("core.commit_p99_us", commit_p99.value, "us");
  add("core.commit_samples", static_cast<double>(commit_p99.samples), "count");
  add("core.max_cluster", core_span.count("max_cluster"), "agents");
  add("core.edges_added", core_span.count("edges_added"), "count");

  const Span& engine = only_span(spans, "engine.run");
  const std::vector<double> step_us = durations_us("engine.step_fn");
  add("engine.run_s", engine.seconds(), "s");
  add("engine.commits", engine.count("commits"), "count");
  add("engine.commit_wait_us", engine.count("commit_wait_us"), "us");
  add("engine.commit_hold_us", engine.count("commit_hold_us"), "us");
  add("engine.max_commit_wait_us", engine.count("max_commit_wait_us"), "us");
  add("engine.step_fn_p50_us", percentile(step_us, 0.5).value, "us");
  const Percentile step_p99 = percentile(step_us, 0.99);
  add("engine.step_fn_p99_us", step_p99.value, "us");
  add("engine.step_fn_samples", static_cast<double>(step_p99.samples), "count");
  add("engine.llm_busy_s", engine.count("llm_busy_s"), "s");
  add("engine.worker_util",
      engine.count("llm_busy_s") / (engine.seconds() * engine.count("workers")),
      "ratio");
  add("engine.pool_peak_inflight", engine.count("pool_peak_inflight"), "count");

  add("traced.run_s", traced_run_s, "s");
  add("traced.overhead", traced_run_s / untraced_run_s - 1.0, "ratio");
  return m;
}

std::string hex(std::uint64_t v) {
  return strformat("%016llx", static_cast<unsigned long long>(v));
}

/// One of a workload's traces and everything measured on it.
struct Input {
  Input(std::uint64_t trace_seed, scenario::ScenarioSpec s)
      : seed(trace_seed), driver(std::move(s)) {}
  const scenario::ScenarioSpec& spec() const { return driver.spec(); }
  /// Operations of one run: agent-steps plus traced calls.
  std::uint64_t ops() const {
    return static_cast<std::uint64_t>(tr.n_agents) *
               static_cast<std::uint64_t>(tr.n_steps) +
           tr.total_calls();
  }

  std::uint64_t seed;
  scenario::ScenarioDriver driver;
  std::optional<world::GridMap> map;
  trace::SimulationTrace tr;
  std::uint64_t fingerprint = 0;
  std::vector<double> run_s;            // the workload's own runs
  std::vector<std::uint64_t> digests;   // one per own run
  /// (metropolis, sync) virtual seconds, one pair per DES replay.
  std::vector<std::pair<double, double>> sims;
  std::optional<DesRun> des;
  std::optional<EngineRun> eng;
  CoreRun core;
};

/// The seed of a workload's k-th trace: the workload seed itself for the
/// first, then seeds drawn from it, so no two workload seeds share a trace.
std::uint64_t trace_seed(std::uint64_t seed, int k) {
  if (k == 0) return seed;
  return splitmix64(seed + static_cast<std::uint64_t>(k) * 0x9e3779b97f4a7c15ULL) >> 1;
}

std::vector<std::string> with_seed(const std::vector<std::string>& overrides,
                                   std::uint64_t seed) {
  return concat(overrides,
                {strformat("seed=%llu", static_cast<unsigned long long>(seed))});
}

}  // namespace

Outcome run(const Workload& w, const Options& opt) {
  // A traced run measures the layers on the first trace only.
  const int n_traces = opt.trace ? 1 : std::max(1, w.traces);
  std::vector<Input> inputs;
  for (int k = 0; k < n_traces; ++k) {
    const std::uint64_t seed = trace_seed(opt.seed, k);
    inputs.emplace_back(seed, make_spec(w.scenario, with_seed(w.overrides, seed)));
  }
  const bool engine_native =
      inputs.front().spec().backend == scenario::Backend::kEngine;
  const auto run_id = static_cast<std::uint32_t>(
      splitmix64(opt.seed ^ static_cast<std::uint64_t>(
                                Clock::now().time_since_epoch().count())) >> 33);
  Tracer tracer(run_id);
  Tracer* const traced = opt.trace ? &tracer : nullptr;
  Gate gate;
  // Checks over the whole invocation; any failure fails every operation.
  bool whole_ok = true;
  Outcome out;

  // ---- Set-up: the world map and the windowed trace of every input. ----
  std::vector<double> setup_s;
  if (!opt.trace) {
    // Each input is set up once, the first ones again until there were
    // kSetups set-ups; a repeated set-up must generate the same trace.
    const int n_setups = std::max(kSetups, n_traces);
    for (int i = 0; i < n_setups; ++i) {
      Input& in = inputs[static_cast<std::size_t>(i % n_traces)];
      in.map.reset();
      in.tr = trace::SimulationTrace{};
      const auto t0 = Clock::now();
      in.map.emplace(in.driver.build_map());
      in.tr = in.driver.build_trace();
      setup_s.push_back(seconds_since(t0));
      const std::uint64_t fingerprint = trace_fingerprint(in.tr);
      if (i < n_traces) in.fingerprint = fingerprint;
      whole_ok &= gate.check(fingerprint == in.fingerprint,
                             "a repeated set-up generated a different trace");
    }
  } else {
    // The same work as build_trace(), split: generation of the full
    // episode (window cleared), then the window slice.
    Input& in = inputs.front();
    scenario::ScenarioSpec full_spec = in.spec();
    full_spec.window_begin = -1;
    full_spec.window_end = -1;
    const scenario::ScenarioDriver full_driver(full_spec);
    trace::SimulationTrace full;
    {
      ScopedSpan span(traced, "world.map");
      in.map.emplace(in.driver.build_map());
    }
    {
      ScopedSpan span(traced, "trace.generate");
      full = full_driver.build_trace();
    }
    {
      ScopedSpan span(traced, "trace.slice");
      in.tr = trace::slice(full, in.spec().window_begin, in.spec().window_end);
      span.count("calls", static_cast<double>(in.tr.total_calls()));
    }
  }
  for (const Input& in : inputs) {
    const scenario::ScenarioSpec& spec = in.spec();
    whole_ok &= gate.check(
        in.tr.n_agents == spec.agents && in.tr.n_steps == spec.sim_steps(),
        strformat("trace is %d agents x %d steps, spec says %d x %d", in.tr.n_agents,
                  in.tr.n_steps, spec.agents, spec.sim_steps()));
    std::printf("workload %s  seed=%llu  %s on %s: %d agents x %d steps, %llu calls\n",
                w.name.c_str(), static_cast<unsigned long long>(in.seed),
                w.scenario.c_str(), scenario::backend_name(spec.backend),
                in.tr.n_agents, in.tr.n_steps,
                static_cast<unsigned long long>(in.tr.total_calls()));
  }

  // ---- Run phase on the workload's own backend. Untraced: every input
  // runs once and the first once more (the repeat check), then the inputs
  // take turns until the budget is spent; engine runs go through
  // ScenarioDriver::run. Traced: one untraced run, then one traced run,
  // both through the benchmark's own calls so the two differ only by the
  // spans. ----
  const std::size_t min_runs = inputs.size() + 1;
  const auto phase_start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool done = opt.trace ? i == 2
                                : i >= min_runs && seconds_since(phase_start) >= opt.seconds;
    if (done) break;
    Tracer* const rep_tracer = opt.trace && i == 1 ? traced : nullptr;
    Input& in = inputs[i % inputs.size()];
    bool ok = false;
    if (engine_native) {
      in.eng = opt.trace ? engine_run(in.spec(), *in.map, in.tr, rep_tracer)
                         : driver_engine_run(in.driver);
      ok = check_engine(gate, *in.eng, in.tr);
      in.run_s.push_back(in.eng->seconds);
      in.digests.push_back(in.eng->digest);
    } else {
      in.des = des_run(in.tr, in.driver.experiment_config(), rep_tracer);
      ok = check_des(gate, *in.des, in.tr);
      in.run_s.push_back(in.des->seconds);
      in.digests.push_back(in.des->digest);
      in.sims.emplace_back(in.des->metro.completion_seconds,
                           in.des->sync.completion_seconds);
    }
    out.ops.add_run(in.ops(), ok);
  }
  // Peak memory of set-up plus the native runs, before the other layers'
  // replays below can raise it.
  const double rss_mib = peak_rss_mib();

  // ---- The other layers over the same traces. The engine workload
  // always replays on DES too: sim_s and speedup_vs_sync are that
  // replay's. ----
  for (Input& in : inputs) {
    if (engine_native) {
      in.des = des_run(in.tr, in.driver.experiment_config(), traced);
      whole_ok &= check_des(gate, *in.des, in.tr);
      in.sims.emplace_back(in.des->metro.completion_seconds,
                           in.des->sync.completion_seconds);
    } else if (opt.trace) {
      const scenario::ScenarioSpec engine_spec = make_spec(
          w.scenario, with_seed(concat(w.overrides, kEngineOverrides), in.seed));
      in.eng = engine_run(engine_spec, *in.map, in.tr, traced);
      whole_ok &= check_engine(gate, *in.eng, in.tr);
    }
    in.core = core_replay(in.tr, traced);
    const std::uint64_t agent_steps = static_cast<std::uint64_t>(in.tr.n_agents) *
                                      static_cast<std::uint64_t>(in.tr.n_steps);
    whole_ok &= gate.check(in.core.members == agent_steps,
                           "core replay committed the wrong number of agent-steps");
    whole_ok &= gate.check(in.core.digest == trace_final_digest(in.tr),
                           "core replay final state is not the trace's final state");
  }

  // ---- Output gate and workload shape, per input. ----
  for (const Input& in : inputs) {
    bool repeat_ok = true;
    for (std::uint64_t d : in.digests) repeat_ok &= d == in.digests.front();
    for (const auto& s : in.sims) repeat_ok &= s == in.sims.front();
    whole_ok &= gate.check(repeat_ok, "repeated runs disagree on the final state or sim_s");
    const std::uint64_t digest = in.digests.front();
    const std::uint64_t recorded = recorded_digest(w.name, in.seed);
    const bool recorded_ok = recorded == 0 || recorded == digest;
    whole_ok &= gate.check(recorded_ok, strformat("digest %s, recorded %s",
                                                  hex(digest).c_str(), hex(recorded).c_str()));
    std::printf("digest  seed=%llu  %s  repeat x%zu: %s  recorded: %s\n",
                static_cast<unsigned long long>(in.seed), hex(digest).c_str(),
                in.digests.size(), repeat_ok ? "same" : "DIFFERENT",
                recorded == 0 ? "none for this seed"
                              : (recorded_ok ? "match" : "MISMATCH"));
    if (in.des.has_value() && in.eng.has_value()) {
      std::printf("digest  DES %s vs engine %s: %s (information only; they differ on "
                  "coupled worlds)\n",
                  hex(in.des->digest).c_str(), hex(in.eng->digest).c_str(),
                  in.des->digest == in.eng->digest ? "agree" : "differ");
    }

    // Workload shape: a workload must not collapse into giant clusters.
    double native_mean = 0.0;
    if (engine_native) {
      native_mean = in.eng->mean_cluster;
      std::printf("shape   engine: clusters=%llu mean=%.3f blockers=%.3f\n",
                  static_cast<unsigned long long>(in.eng->clusters), native_mean,
                  in.eng->mean_blockers);
    } else {
      native_mean = in.des->metro.scoreboard.mean_cluster_size();
      std::printf("shape   metropolis: clusters=%llu mean=%.3f blockers=%.3f\n",
                  static_cast<unsigned long long>(
                      in.des->metro.scoreboard.clusters_dispatched),
                  native_mean, in.des->metro.mean_blockers);
    }
    std::printf("shape   core replay: clusters=%llu mean=%.3f max=%zu blockers=%.3f"
                "  (bound: mean <= %.2f)\n",
                static_cast<unsigned long long>(in.core.clusters), in.core.mean_cluster(),
                in.core.max_cluster, in.core.mean_blockers, w.max_mean_cluster);
    whole_ok &= gate.check(native_mean <= w.max_mean_cluster &&
                               in.core.mean_cluster() <= w.max_mean_cluster,
                           "mean cluster size above the workload's bound");
  }

  if (!whole_ok) out.ops.fail_all();
  out.correct = gate.failures() == 0;

  for (const Input& in : inputs) {
    std::string runs;
    for (double s : in.run_s) runs += strformat(" %.3f", s);
    std::printf("run     seed=%llu  %zu x%s s\n", static_cast<unsigned long long>(in.seed),
                in.run_s.size(), runs.c_str());
  }
  if (!opt.trace) {
    std::string setups;
    for (double s : setup_s) setups += strformat(" %.3f", s);
    std::printf("setup   %zu x%s s\n", setup_s.size(), setups.c_str());
    // Per input: the median of its runs and its (deterministic) virtual
    // times. run_s and sim_s are their means over the inputs; the speedup
    // is that of the inputs' summed virtual times.
    double run_sum = 0.0;
    double metro_sum = 0.0;
    double sync_sum = 0.0;
    for (const Input& in : inputs) {
      run_sum += median(in.run_s);
      metro_sum += in.sims.front().first;
      sync_sum += in.sims.front().second;
    }
    const double n = static_cast<double>(inputs.size());
    out.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"run_s", run_sum / n, "s"},
        {"sim_s", metro_sum / n, "s"},
        {"speedup_vs_sync", sync_sum / metro_sum, "x"},
        {"peak_rss_mib", rss_mib, "MiB"},
        {"success_rate", 1.0 - out.ops.error_rate(), "ratio"},
    };
  } else {
    const Input& in = inputs.front();
    out.metrics = layer_metrics(tracer.spans(), in.run_s.at(0), in.run_s.at(1));
    if (!opt.spans_dir.empty()) {
      const std::string path =
          strformat("%s/%s.seed%llu.trace.json", opt.spans_dir.c_str(), w.name.c_str(),
                    static_cast<unsigned long long>(opt.seed));
      tracer.write_chrome_json(path, strformat("%s seed=%llu", w.name.c_str(),
                                               static_cast<unsigned long long>(opt.seed)));
      std::printf("spans   %zu written to %s\n", tracer.spans().size(), path.c_str());
    }
  }
  for (Metric& m : out.metrics) {
    if (!gate.check(std::isfinite(m.value), m.name + " is not a finite number")) {
      m.value = 0.0;  // keeps the result line valid JSON
      out.correct = false;
    }
  }
  std::printf("ops     attempted=%llu failed=%llu error_rate=%.6g\n",
              static_cast<unsigned long long>(out.ops.attempted),
              static_cast<unsigned long long>(out.ops.failed), out.ops.error_rate());
  for (const Metric& m : out.metrics) {
    std::printf("metric  %-26s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  return out;
}

std::string result_json(const Outcome& outcome) {
  std::string metrics;
  for (const Metric& m : outcome.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += strformat("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", m.name.c_str(),
                         m.value, m.unit.c_str());
  }
  return strformat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}",
      outcome.correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.ops.attempted),
      static_cast<unsigned long long>(outcome.ops.failed), metrics.c_str());
}

}  // namespace perfbench
