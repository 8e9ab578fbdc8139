// The benchmark of record for the MRD simulator.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//
// Runs one named workload from a cold process and prints every metric by
// name and unit, then, as the last line of stdout, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones, from a traced window measured beside an untraced one.
//
// The simulator is driven only through its public API: workload lookup and
// planning (find_workload, plan_workload, DagBuilder, DagScheduler), the
// sweep harness (SweepRunner, SweepStats, cache_bytes_per_node_for) and the
// runner (run_plan with a RunConfig of cluster, policy, visibility and
// phase_timers). Everything else in RunConfig and SweepJob keeps its default.
//
// Workloads (why each exists is recorded in BENCHMARK.json and README.md):
//   paper_sweep  the paper's Fig 4/9 grid through one SweepRunner, 4 clients
//   graph_heavy  scc/lp/pr at scale 8 under lru and mrd, direct run_plan calls
//   scale_tier   the 1000-node synthetic chain under lru and mrd (runnable,
//                not in the record: its host times follow the host)
//
// Output check: every timed run must satisfy the RunMetrics invariants and
// equal, field for field, the first timed run of the same point, which in
// turn must equal a fresh serial run of that point made after the window.
// Any failure is counted against the runs attempted and the exit code is 1.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "dag/dag_builder.h"
#include "dag/dag_scheduler.h"
#include "harness/experiment.h"
#include "util/scoped_timer.h"

namespace {

using namespace mrd;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double ms_since_start(Clock::time_point t) { return ms_between(kProcessStart, t); }

// ---------------------------------------------------------------------------
// Fixed shape of each workload. Seed-drawn inputs vary only inside the
// ranges below, narrow enough that run-to-run spread stays host noise.

/// Sweep width: the paper suite's default on the 4-core reference machine.
constexpr std::size_t kSweepThreads = 4;
/// paper_sweep input scale: larger inputs instead of a repeated grid, so a
/// pass is long enough to measure without replaying warmed contexts.
constexpr double kPaperScale = 4.0;
/// graph_heavy: perf_microbench's heavy scenarios at a seed-drawn tight
/// cache fraction around its 0.5. Across 0.4-0.6 the hit ratio moves from
/// 0.64 to 0.84 and run time with it, more than host noise; this range keeps
/// the seed's effect on the work small.
constexpr double kGraphScale = 8.0;
constexpr double kGraphFractionLo = 0.47;
constexpr double kGraphFractionHi = 0.53;
/// scale_tier: scale_stress's full tier at its largest cluster.
constexpr std::uint32_t kScaleNodes = 1000;
constexpr double kScaleFraction = 0.4;
constexpr std::uint64_t kScaleBlockBytes = 64ull << 10;
constexpr std::uint64_t kScaleRankBytes = 32ull << 10;
constexpr std::uint32_t kScaleIterations = 12;
/// Set-ups per process; setup_s is their median. Set-up takes milliseconds,
/// so it repeats until enough time has passed for a steady median.
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 1000;
constexpr double kMinSetupSeconds = 0.5;

/// Paper Fig 4 readings (full MRD vs LRU, normalized JCT), Table 3 order —
/// the same readings bench/jct_validation scores against.
constexpr std::pair<std::string_view, double> kPaperFig4[] = {
    {"km", 0.45},  {"linr", 0.55},  {"logr", 0.45}, {"svm", 0.60},
    {"dt", 0.95},  {"mf", 0.60},    {"pr", 0.40},   {"tc", 0.75},
    {"sp", 0.70},  {"lp", 0.30},    {"svdpp", 0.45}, {"cc", 0.55},
    {"scc", 0.20}, {"po", 0.40},
};

/// The runner phases reported as exec.* children; whatever else run_plan
/// does is exec.other_ms.
constexpr std::array<std::pair<SimPhase, std::string_view>, 6> kPhases = {{
    {SimPhase::kProbes, "probes"},
    {SimPhase::kCacheWrites, "cache_writes"},
    {SimPhase::kPrefetchIssue, "prefetch_issue"},
    {SimPhase::kPrefetchServe, "prefetch_serve"},
    {SimPhase::kPurge, "purge"},
    {SimPhase::kBroadcast, "broadcast"},
}};

// ---------------------------------------------------------------------------
// Seeded draws: mt19937_64's output is fixed by the standard; the mapping to
// ranges is done here so inputs do not depend on the library's distributions.

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : gen_(seed) {}

  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(gen_() >> 11) * 0x1.0p-53;
  }
  std::uint32_t between(std::uint32_t lo, std::uint32_t hi) {
    return lo + static_cast<std::uint32_t>(gen_() % (hi - lo + 1));
  }
  template <typename T>
  void shuffle(std::vector<T>* v) {
    for (std::size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[gen_() % i]);
    }
  }

 private:
  std::mt19937_64 gen_;
};

// ---------------------------------------------------------------------------
// Spans, kept in memory and written out at exit.

struct Span {
  std::string name;
  double start_ms = 0.0;  // since process start
  double end_ms = 0.0;
  long parent = -1;  // index into the span list, -1 for a root
  std::uint64_t run = 0;
};

class Tracer {
 public:
  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  long add(std::string name, double start_ms, double end_ms, long parent,
           std::uint64_t run) {
    if (!on_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), start_ms, end_ms, parent, run});
    return static_cast<long>(spans_.size()) - 1;
  }
  long add(std::string name, Clock::time_point start, Clock::time_point end,
           long parent, std::uint64_t run) {
    return add(std::move(name), ms_since_start(start), ms_since_start(end),
               parent, run);
  }

  void end(long id, Clock::time_point t) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ms = ms_since_start(t);
  }

  /// Phase totals become child spans laid end to end from the parent's
  /// start: the phases interleave stage by stage, so only their durations
  /// are real.
  void add_phases(long parent, const PhaseTimers& timers, std::uint64_t run) {
    if (!on_ || parent < 0) return;
    double at = 0.0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      at = spans_[static_cast<std::size_t>(parent)].start_ms;
    }
    for (const auto& [phase, name] : kPhases) {
      const double ms = timers[phase];
      add("exec." + std::string(name), at, at + ms, parent, run);
      at += ms;
    }
  }

  /// Per span name: (count, total ms, self ms = total minus children).
  struct Layer {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Layer> layers() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ms[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
      }
    }
    std::map<std::string, Layer> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Layer& layer = out[spans_[i].name];
      const double d = spans_[i].end_ms - spans_[i].start_ms;
      ++layer.count;
      layer.total_ms += d;
      layer.self_ms += d - child_ms[i];
    }
    return out;
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    std::lock_guard<std::mutex> lock(mu_);
    char line[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(line, sizeof(line),
                    "\", \"start_ms\": %.6f, \"end_ms\": %.6f, \"parent\": "
                    "%ld, \"run\": %llu}\n",
                    s.start_ms, s.end_ms, s.parent,
                    static_cast<unsigned long long>(s.run));
      out << "{\"id\": " << i << ", \"name\": \"" << s.name << line;
    }
    return static_cast<bool>(out);
  }

 private:
  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Workload set-up: plans built, caches sized, points enumerated.

struct Point {
  std::shared_ptr<const WorkloadRun> run;
  ClusterConfig cluster;  // cache_bytes_per_node sized for `fraction`
  double fraction = 0.0;
  PolicyConfig policy;
  DagVisibility visibility = DagVisibility::kRecurring;

  std::string label() const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "@%.4f%s", fraction,
                  visibility == DagVisibility::kAdHoc ? "/adhoc" : "");
    return run->key + "/" + policy.name + buf;
  }
};

struct Setup {
  std::vector<std::shared_ptr<const WorkloadRun>> runs;
  std::vector<Point> points;
  double plan_ms = 0.0;  // time inside workload generation + planning
};

/// Seed-drawn inputs, drawn once per process so every set-up repeat builds
/// the same thing.
struct Draws {
  double graph_fraction = 0.0;
  std::uint32_t scale_parts = 0;
  std::uint32_t scale_dims = 0;
  std::uint32_t scale_dim_parts = 0;
};

Draws draw_inputs(Rng* rng) {
  Draws d;
  d.graph_fraction = rng->uniform(kGraphFractionLo, kGraphFractionHi);
  d.scale_parts = rng->between(64512, 65536);
  d.scale_dims = rng->between(63, 65);
  d.scale_dim_parts = rng->between(98, 102);
  return d;
}

PolicyConfig policy_named(const char* name) {
  PolicyConfig config;
  config.name = name;
  return config;
}

/// Plans one registered workload, timing it as a dag.plan span.
std::shared_ptr<const WorkloadRun> plan_timed(const WorkloadSpec& spec,
                                              double scale, Setup* setup,
                                              Tracer* tracer, long parent) {
  WorkloadParams params;
  params.scale = scale;
  const Clock::time_point t0 = Clock::now();
  auto run = std::make_shared<const WorkloadRun>(plan_workload(spec, params));
  const Clock::time_point t1 = Clock::now();
  setup->plan_ms += ms_between(t0, t1);
  tracer->add("dag.plan", t0, t1, parent, setup->runs.size());
  setup->runs.push_back(run);
  return run;
}

void add_points(Setup* setup, const std::shared_ptr<const WorkloadRun>& run,
                const ClusterConfig& base, double fraction,
                const std::vector<std::pair<const char*, DagVisibility>>&
                    policies) {
  ClusterConfig cluster = base;
  cluster.cache_bytes_per_node = cache_bytes_per_node_for(*run, base, fraction);
  for (const auto& [name, visibility] : policies) {
    setup->points.push_back(
        Point{run, cluster, fraction, policy_named(name), visibility});
  }
}

Setup setup_paper_sweep(const Draws&, Tracer* tracer, long parent) {
  Setup setup;
  const std::vector<std::pair<const char*, DagVisibility>> policies = {
      {"lru", DagVisibility::kRecurring},
      {"mrd", DagVisibility::kRecurring},
      {"lrc", DagVisibility::kRecurring},
      {"memtune", DagVisibility::kRecurring},
      {"mrd", DagVisibility::kAdHoc},
  };
  for (const auto* suite : {&sparkbench_workloads(), &hibench_workloads()}) {
    for (const WorkloadSpec& spec : *suite) {
      const auto run = plan_timed(spec, kPaperScale, &setup, tracer, parent);
      for (const double fraction : default_cache_fractions()) {
        add_points(&setup, run, main_cluster(), fraction, policies);
      }
    }
  }
  return setup;
}

Setup setup_graph_heavy(const Draws& draws, Tracer* tracer, long parent) {
  Setup setup;
  for (const char* key : {"scc", "lp", "pr"}) {
    const WorkloadSpec* spec = find_workload(key);
    if (spec == nullptr) throw std::runtime_error("unknown workload");
    const auto run = plan_timed(*spec, kGraphScale, &setup, tracer, parent);
    add_points(&setup, run, main_cluster(), draws.graph_fraction,
               {{"lru", DagVisibility::kRecurring},
                {"mrd", DagVisibility::kRecurring}});
  }
  return setup;
}

/// scale_stress's full-tier chain: per iteration one job joins the current
/// ranks with the persisted base and caches the next ranks generation, and a
/// second job re-reads every small persisted dimension RDD.
Setup setup_scale_tier(const Draws& draws, Tracer* tracer, long parent) {
  Setup setup;
  const Clock::time_point t0 = Clock::now();
  DagBuilder b("scale-chain");
  b.set_compute_ms_per_mb(0.5);
  const RddId links = b.source("links", draws.scale_parts, kScaleBlockBytes);
  const RddId base = b.map(links, "base");
  b.persist(base);
  std::vector<RddId> dims;
  for (std::uint32_t s = 0; s < draws.scale_dims; ++s) {
    const RddId src = b.source("dim-src-" + std::to_string(s),
                               draws.scale_dim_parts, kScaleBlockBytes);
    const RddId dim = b.map(src, "dim-" + std::to_string(s));
    b.persist(dim);
    dims.push_back(dim);
  }
  TransformOpts rank_opts;
  rank_opts.bytes_per_partition = kScaleRankBytes;
  RddId ranks = b.map(base, "ranks-0", rank_opts);
  b.persist(ranks);
  b.action(ranks, "init");
  for (std::uint32_t it = 1; it <= kScaleIterations; ++it) {
    TransformOpts join_opts;
    join_opts.partitions = draws.scale_parts;
    const std::string n = std::to_string(it);
    const RddId contrib = b.join(ranks, base, "contrib-" + n, join_opts);
    const RddId next = b.map(contrib, "ranks-" + n, rank_opts);
    b.persist(next);
    b.action(next, "iterate-" + n);
    const RddId mix = b.union_of(dims, "dim-mix-" + n);
    b.action(b.filter(mix, "dim-score-" + n), "score-" + n);
    ranks = next;
  }
  auto app = std::make_shared<const Application>(std::move(b).build());
  ExecutionPlan plan = DagScheduler::plan(app);
  auto run = std::make_shared<const WorkloadRun>(
      WorkloadRun{app, std::move(plan), "scale-chain", "scale"});
  const Clock::time_point t1 = Clock::now();
  setup.plan_ms = ms_between(t0, t1);
  tracer->add("dag.plan", t0, t1, parent, 0);
  setup.runs.push_back(run);

  ClusterConfig cluster = main_cluster();
  cluster.name = "scale-" + std::to_string(kScaleNodes);
  cluster.num_nodes = kScaleNodes;
  cluster.placement = BlockPlacement::kRddMixed;
  add_points(&setup, run, cluster, kScaleFraction,
             {{"lru", DagVisibility::kRecurring},
              {"mrd", DagVisibility::kRecurring}});
  return setup;
}

struct WorkloadDef {
  std::string_view name;
  Setup (*setup)(const Draws&, Tracer*, long);
  bool sweep;  // through one SweepRunner with closed-loop clients
};

constexpr WorkloadDef kWorkloads[] = {
    {"paper_sweep", setup_paper_sweep, true},
    {"graph_heavy", setup_graph_heavy, false},
    {"scale_tier", setup_scale_tier, false},
};

// ---------------------------------------------------------------------------
// Output check.

std::uint64_t block_ops(const RunMetrics& m) {
  return m.probes + m.blocks_cached + m.prefetches_issued + m.purged_blocks;
}

const char* invariant_violation(const RunMetrics& m) {
  if (m.probes != m.hits + m.misses_from_disk + m.misses_recompute) {
    return "probes != hits + disk + recompute";
  }
  if (m.prefetches_useful + m.prefetches_wasted > m.prefetches_completed) {
    return "useful + wasted > completed prefetches";
  }
  if (!(m.jct_ms > 0.0)) return "jct <= 0";
  return nullptr;
}

/// Name of the first differing RunMetrics field, or "" (field-exact: the
/// simulation is deterministic, so doubles must match bit for bit).
std::string metrics_diff(const RunMetrics& a, const RunMetrics& b) {
#define MRD_BENCH_FIELD(f) \
  if (!(a.f == b.f)) return #f;
  MRD_BENCH_FIELD(workload)
  MRD_BENCH_FIELD(policy)
  MRD_BENCH_FIELD(jct_ms)
  MRD_BENCH_FIELD(probes)
  MRD_BENCH_FIELD(hits)
  MRD_BENCH_FIELD(misses_from_disk)
  MRD_BENCH_FIELD(misses_recompute)
  MRD_BENCH_FIELD(blocks_cached)
  MRD_BENCH_FIELD(evictions)
  MRD_BENCH_FIELD(spills)
  MRD_BENCH_FIELD(purged_blocks)
  MRD_BENCH_FIELD(uncacheable_blocks)
  MRD_BENCH_FIELD(prefetches_issued)
  MRD_BENCH_FIELD(prefetches_completed)
  MRD_BENCH_FIELD(prefetches_useful)
  MRD_BENCH_FIELD(prefetches_wasted)
  MRD_BENCH_FIELD(disk_bytes_read)
  MRD_BENCH_FIELD(disk_bytes_written)
  MRD_BENCH_FIELD(network_bytes)
  MRD_BENCH_FIELD(recompute_cpu_ms)
  MRD_BENCH_FIELD(per_rdd_probes)
  MRD_BENCH_FIELD(mrd_table_peak_entries)
  MRD_BENCH_FIELD(mrd_update_messages)
#undef MRD_BENCH_FIELD
  if (a.stage_timings.size() != b.stage_timings.size()) return "stage_timings";
  return "";
}

// ---------------------------------------------------------------------------
// Timed window.

/// One pass's worth of consecutive completions: a cycle over the points of a
/// direct workload, or as many sweep completions as the grid has points.
struct Slice {
  double wall_ms = 0.0;
  std::uint64_t ops = 0;
  std::vector<std::pair<std::size_t, double>> runs;  // (point, host ms)

  double ops_per_s() const {
    return wall_ms > 0.0 ? static_cast<double>(ops) / (wall_ms / 1e3) : 0.0;
  }
};

/// Everything one timed window observed. Thread-safe: sweep clients record
/// concurrently.
class Window {
 public:
  explicit Window(std::size_t points) : per_point_(points) {}

  /// Accumulated over every timed stretch recorded into this window.
  double wall_ms = 0.0;
  SweepStats sweep;  // sweep workloads only: runs, wall, aggregate, queue
  PhaseTimers phases;  // summed over traced direct runs
  std::size_t phased_runs = 0;

  void record(std::size_t point, Clock::time_point t0, Clock::time_point t1,
              const RunMetrics& m) {
    std::lock_guard<std::mutex> lock(mu_);
    PointLog& log = per_point_[point];
    ++attempted_;
    ++log.runs;
    std::string problem;
    if (const char* bad = invariant_violation(m)) {
      problem = bad;
    } else if (!log.have_first) {
      log.first = m;
      log.have_first = true;
    } else {
      const std::string field = metrics_diff(log.first, m);
      if (!field.empty()) problem = "differs from its first run on " + field;
    }
    if (!problem.empty()) {
      ++failed_;
      ++log.failed;
      if (failed_ <= 5) std::fprintf(stderr, "FAIL: point %zu: %s\n", point,
                                     problem.c_str());
      return;
    }
    pending_.push_back(Completion{point, t1, ms_between(t0, t1), block_ops(m)});
  }

  void record_error(std::size_t point, const char* what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    ++failed_;
    ++per_point_[point].runs;
    ++per_point_[point].failed;
    if (failed_ <= 5) {
      std::fprintf(stderr, "FAIL: point %zu threw: %s\n", point, what);
    }
  }

  /// Ends a timed stretch that began at `start`: cuts its passing runs, in
  /// completion order, into slices of `slice_runs`. A slice's wall time is
  /// the elapsed time to its last completion, or for `serial` runs the time
  /// inside them (the loop's own bookkeeping between runs is not the
  /// program's). A trailing partial slice (a sweep's drain) is
  /// output-checked but left out of the timing.
  void close_stretch(Clock::time_point start, std::size_t slice_runs,
                     bool serial) {
    std::lock_guard<std::mutex> lock(mu_);
    std::sort(pending_.begin(), pending_.end(),
              [](const Completion& a, const Completion& b) {
                return a.end < b.end;
              });
    Clock::time_point slice_start = start;
    for (std::size_t at = 0; at + slice_runs <= pending_.size();
         at += slice_runs) {
      Slice slice;
      for (std::size_t i = at; i < at + slice_runs; ++i) {
        slice.ops += pending_[i].ops;
        slice.runs.emplace_back(pending_[i].point, pending_[i].run_ms);
        if (serial) slice.wall_ms += pending_[i].run_ms;
      }
      const Clock::time_point end = pending_[at + slice_runs - 1].end;
      if (!serial) slice.wall_ms = ms_between(slice_start, end);
      slice_start = end;
      slices_.push_back(std::move(slice));
    }
    for (const Completion& c : pending_) {
      total_run_ms_ += c.run_ms;
      ++passed_;
    }
    pending_.clear();
  }

  /// Checks each point's first timed run against its fresh reference run;
  /// a mismatch fails every timed run of that point.
  void check_against(const std::vector<RunMetrics>& reference,
                     const std::vector<Point>& points) {
    for (std::size_t i = 0; i < per_point_.size(); ++i) {
      const PointLog& log = per_point_[i];
      if (!log.have_first) continue;
      const std::string field = metrics_diff(log.first, reference[i]);
      if (field.empty()) continue;
      std::fprintf(stderr, "FAIL: %s differs from its fresh serial run on %s\n",
                   points[i].label().c_str(), field.c_str());
      failed_ += log.runs - log.failed;
    }
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// Passing runs and their summed host ms, over every stretch.
  std::uint64_t passed() const { return passed_; }
  double total_run_ms() const { return total_run_ms_; }
  std::vector<const Slice*> all_slices() const {
    std::vector<const Slice*> out;
    for (const Slice& s : slices_) out.push_back(&s);
    return out;
  }

  /// The faster half of the slices, by block operations per host second.
  /// The host here slows in episodes of seconds (another tenant on the
  /// core); the simulation does the same work in every slice, so the faster
  /// half measures the program and the slower half mostly the neighbour.
  std::vector<const Slice*> quiet_half() const {
    std::vector<const Slice*> out = all_slices();
    std::sort(out.begin(), out.end(), [](const Slice* a, const Slice* b) {
      return a->ops_per_s() > b->ops_per_s();
    });
    out.resize((out.size() + 1) / 2);
    return out;
  }

 private:
  struct Completion {
    std::size_t point = 0;
    Clock::time_point end;
    double run_ms = 0.0;
    std::uint64_t ops = 0;
  };
  struct PointLog {
    bool have_first = false;
    RunMetrics first;
    std::uint64_t runs = 0;
    std::uint64_t failed = 0;
  };

  std::mutex mu_;
  std::vector<PointLog> per_point_;
  std::vector<Completion> pending_;
  std::vector<Slice> slices_;
  double total_run_ms_ = 0.0;
  std::uint64_t passed_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

RunConfig config_for(const Point& p) {
  RunConfig config;
  config.cluster = p.cluster;
  config.policy = p.policy;
  config.visibility = p.visibility;
  return config;
}

/// paper_sweep: `threads` closed-loop clients share one SweepRunner; each
/// submits a point and waits for its ticket before taking the next. Points
/// come from seed-drawn permutations of the grid, one per pass.
void sweep_window(const Setup& setup, double seconds, std::size_t threads,
                  Rng* rng, Tracer* tracer, Window* window) {
  std::mutex order_mu;
  std::vector<std::size_t> order(setup.points.size());
  std::size_t next = order.size();
  std::uint64_t seq = 0;
  const auto take = [&](std::uint64_t* run) {
    std::lock_guard<std::mutex> lock(order_mu);
    if (next == order.size()) {
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      rng->shuffle(&order);
      next = 0;
    }
    *run = seq++;
    return order[next++];
  };

  SweepRunner runner(threads);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const auto client = [&] {
    while (Clock::now() < deadline) {
      std::uint64_t run = 0;
      const std::size_t i = take(&run);
      const Point& p = setup.points[i];
      const Clock::time_point t0 = Clock::now();
      try {
        const SweepTicket ticket = runner.submit(
            SweepJob{p.run, p.cluster, p.fraction, p.policy, p.visibility});
        const RunMetrics& m = ticket.get();
        const Clock::time_point t1 = Clock::now();
        window->record(i, t0, t1, m);
        tracer->add("harness.point", t0, t1, -1, run);
      } catch (const std::exception& e) {
        window->record_error(i, e.what());
      }
    }
  };
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < threads; ++c) clients.emplace_back(client);
  for (std::thread& t : clients) t.join();
  const SweepStats stats = runner.stats();
  window->sweep.threads = stats.threads;
  window->sweep.runs += stats.runs;
  window->sweep.wall_ms += stats.wall_ms;
  window->sweep.aggregate_ms += stats.aggregate_ms;
  window->sweep.queue_ms += stats.queue_ms;
  window->wall_ms += ms_between(start, Clock::now());
  window->close_stretch(start, setup.points.size(), false);
}

/// graph_heavy / scale_tier: one direct run_plan call at a time, fresh state
/// per call, cycling through a seed-drawn order of the points until the
/// window has passed (whole cycles only).
void direct_window(const Setup& setup, double seconds, Rng* rng,
                   Tracer* tracer, Window* window) {
  std::vector<std::size_t> order(setup.points.size());
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::uint64_t run = 0;
  do {
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng->shuffle(&order);
    for (const std::size_t i : order) {
      RunConfig config = config_for(setup.points[i]);
      PhaseTimers timers;
      if (tracer->on()) config.phase_timers = &timers;
      const Clock::time_point t0 = Clock::now();
      try {
        const RunMetrics m = run_plan(setup.points[i].run->plan, config);
        const Clock::time_point t1 = Clock::now();
        window->record(i, t0, t1, m);
        tracer->add_phases(tracer->add("exec.run_plan", t0, t1, -1, run),
                           timers, run);
      } catch (const std::exception& e) {
        window->record_error(i, e.what());
      }
      if (tracer->on()) {
        for (std::size_t p = 0; p < kNumSimPhases; ++p) {
          window->phases.ms[p] += timers.ms[p];
        }
        ++window->phased_runs;
      }
      // Hand freed heap back between runs, so the next run's peak resident
      // memory does not depend on which runs came before it.
      malloc_trim(0);
      ++run;
    }
  } while (Clock::now() < deadline);
  window->wall_ms += ms_between(start, Clock::now());
  window->close_stretch(start, setup.points.size(), true);
}

/// A fresh serial run of every point, outside the timed window, on up to
/// `threads` plain threads (each point runs alone on its thread). Phase
/// totals are kept when tracing.
std::vector<RunMetrics> reference_runs(const Setup& setup, std::size_t threads,
                                       Tracer* tracer, PhaseTimers* phases,
                                       std::size_t* errors) {
  std::vector<RunMetrics> out(setup.points.size());
  std::vector<PhaseTimers> timers(setup.points.size());
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> failed{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < out.size(); i = next++) {
      RunConfig config = config_for(setup.points[i]);
      if (tracer->on()) config.phase_timers = &timers[i];
      const Clock::time_point t0 = Clock::now();
      try {
        out[i] = run_plan(setup.points[i].run->plan, config);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "FAIL: reference run of %s threw: %s\n",
                     setup.points[i].label().c_str(), e.what());
        ++failed;
      }
      tracer->add_phases(
          tracer->add("check.run_plan", t0, Clock::now(), -1, i), timers[i],
          i);
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::max<std::size_t>(1, threads); ++t) {
    pool.emplace_back(worker);
  }
  for (std::thread& t : pool) t.join();
  for (const PhaseTimers& t : timers) {
    for (std::size_t p = 0; p < kNumSimPhases; ++p) phases->ms[p] += t.ms[p];
  }
  *errors = failed;
  return out;
}

// ---------------------------------------------------------------------------
// Statistics.

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

std::vector<double> ranks_of(const std::vector<double>& xs) {
  std::vector<std::size_t> order(xs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&xs](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  std::vector<double> ranks(xs.size(), 0.0);
  for (std::size_t i = 0; i < order.size();) {
    std::size_t j = i;
    while (j + 1 < order.size() && xs[order[j + 1]] == xs[order[i]]) ++j;
    for (std::size_t k = i; k <= j; ++k) {
      ranks[order[k]] = 0.5 * static_cast<double>(i + j) + 1.0;
    }
    i = j + 1;
  }
  return ranks;
}

double spearman(const std::vector<double>& a, const std::vector<double>& b) {
  const std::vector<double> ra = ranks_of(a);
  const std::vector<double> rb = ranks_of(b);
  const double n = static_cast<double>(ra.size());
  double ma = 0.0, mb = 0.0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ma += ra[i] / n;
    mb += rb[i] / n;
  }
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    cov += (ra[i] - ma) * (rb[i] - mb);
    va += (ra[i] - ma) * (ra[i] - ma);
    vb += (rb[i] - mb) * (rb[i] - mb);
  }
  const double denom = std::sqrt(va * vb);
  return denom == 0.0 ? 0.0 : cov / denom;
}

/// Run times of some slices, per point and pooled.
struct RunTimes {
  std::vector<std::vector<double>> per_point;
  std::vector<double> all;
};

RunTimes run_times(const std::vector<const Slice*>& slices,
                   std::size_t points) {
  RunTimes t;
  t.per_point.resize(points);
  for (const Slice* s : slices) {
    for (const auto& [point, ms] : s->runs) {
      t.per_point[point].push_back(ms);
      t.all.push_back(ms);
    }
  }
  return t;
}

/// `pooled`: the percentile over all runs (the sweep, whose 400 points each
/// run a few times). Otherwise per point, then the geometric mean over the
/// points, so the mix of fast and slow points cannot move the figure.
double run_percentile(const RunTimes& t, bool pooled, double q) {
  if (pooled) return percentile(t.all, q);
  std::vector<double> per_point;
  for (const std::vector<double>& v : t.per_point) {
    if (!v.empty()) per_point.push_back(percentile(v, q));
  }
  return geomean(per_point);
}

/// Host-time figures of a window. Throughput and p50 come from the faster
/// half of the slices: the program on a quiet host. The p90 comes from every
/// slice: the tail a user sees, contention included. (A p90 of the faster
/// half sits where quiet and contended runs meet, and flips between them.)
struct Timing {
  double ops_per_s = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  std::size_t slices = 0;
  std::size_t quiet_runs = 0;
  std::size_t all_runs = 0;
  std::size_t fewest_per_point = 0;  // among all runs
};

Timing timing_of(const Window& w, std::size_t points, bool pooled) {
  Timing t;
  const std::vector<const Slice*> quiet = w.quiet_half();
  std::uint64_t ops = 0;
  double wall_ms = 0.0;
  for (const Slice* s : quiet) {
    ops += s->ops;
    wall_ms += s->wall_ms;
  }
  t.ops_per_s = wall_ms > 0.0 ? static_cast<double>(ops) / (wall_ms / 1e3) : 0.0;
  const RunTimes quiet_runs = run_times(quiet, points);
  const RunTimes all_runs = run_times(w.all_slices(), points);
  t.p50_ms = run_percentile(quiet_runs, pooled, 0.5);
  t.p90_ms = run_percentile(all_runs, pooled, 0.9);
  t.slices = w.all_slices().size();
  t.quiet_runs = quiet_runs.all.size();
  t.all_runs = all_runs.all.size();
  t.fewest_per_point = pooled ? t.all_runs : SIZE_MAX;
  if (!pooled) {
    for (const std::vector<double>& v : all_runs.per_point) {
      t.fewest_per_point = std::min(t.fewest_per_point, v.size());
    }
  }
  return t;
}

/// MRD JCT ÷ LRU JCT at every (application, cache size) with both policies
/// under recurring visibility, in point order.
struct JctRatio {
  std::string app;
  double fraction = 0.0;
  double ratio = 0.0;
};

std::vector<JctRatio> mrd_vs_lru(const Setup& setup,
                                 const std::vector<RunMetrics>& results) {
  std::vector<JctRatio> out;
  for (std::size_t i = 0; i < setup.points.size(); ++i) {
    const Point& lru = setup.points[i];
    if (lru.policy.name != "lru") continue;
    for (std::size_t j = 0; j < setup.points.size(); ++j) {
      const Point& mrd = setup.points[j];
      if (mrd.policy.name == "mrd" && mrd.run == lru.run &&
          mrd.fraction == lru.fraction &&
          mrd.visibility == DagVisibility::kRecurring) {
        out.push_back(JctRatio{lru.run->key, lru.fraction,
                               results[j].jct_ms / results[i].jct_ms});
      }
    }
  }
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans_path;
};

[[noreturn]] void usage_error(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload paper_sweep|graph_heavy|"
               "scale_tier --seed N --seconds S --trace 0|1 [--spans FILE]\n",
               argv0, why.c_str(), argv0);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage_error(argv[0], "missing value for " + std::string(flag));
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0') args.seconds = 0.0;
    } else if (flag == "--trace") {
      args.trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      usage_error(argv[0], "unknown argument " + std::string(flag));
    }
  }
  if (!have_seed) usage_error(argv[0], "--seed must be a whole number");
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
    usage_error(argv[0], "--seconds must be in (0, 600]");
  }
  if (args.trace < 0) usage_error(argv[0], "--trace must be 0 or 1");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (w.name == args.workload) def = &w;
  }
  if (def == nullptr) usage_error(argv[0], "unknown workload " + args.workload);
  const bool traced = args.trace == 1;
  const std::size_t threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, kSweepThreads);

  Rng rng(args.seed);
  const Draws draws = draw_inputs(&rng);
  Tracer tracer;
  tracer.set_on(traced);

  // --- Set-up, repeated; the first repeat is timed from process start.
  std::vector<double> setup_s;
  std::vector<double> plan_ms;
  Setup setup;
  double setup_total_s = 0.0;
  for (int rep = 0; rep < kMaxSetupReps &&
                    (rep < kMinSetupReps || setup_total_s < kMinSetupSeconds);
       ++rep) {
    setup = Setup{};  // free the previous repeat's plans first
    const Clock::time_point t0 = rep == 0 ? kProcessStart : Clock::now();
    const long root = tracer.add("setup", t0, t0, -1, rep);
    setup = def->setup(draws, &tracer, root);
    const Clock::time_point t1 = Clock::now();
    tracer.end(root, t1);
    setup_s.push_back(ms_between(t0, t1) / 1e3);
    setup_total_s += setup_s.back();
    plan_ms.push_back(setup.plan_ms);
  }
  const std::size_t num_points = setup.points.size();

  // --- Timed windows. A traced process first warms up untraced (a sweep's
  // first pass builds every pooled context), then measures in equal stretches
  // ordered untraced, traced, traced, untraced so that slow host drift falls
  // on both sides; the ratio of the two sides' throughput is the tracing
  // overhead. The warm-up is output-checked but not timed.
  const auto measure = [&](double seconds, Window* window) {
    if (def->sweep) {
      sweep_window(setup, seconds, threads, &rng, &tracer, window);
    } else {
      direct_window(setup, seconds, &rng, &tracer, window);
    }
  };
  Window warmup(num_points);
  Window untraced(num_points);
  Window traced_window(num_points);
  if (traced) {
    tracer.set_on(false);
    measure(args.seconds / 5, &warmup);
    for (const bool on : {false, true, true, false}) {
      tracer.set_on(on);
      measure(args.seconds / 5, on ? &traced_window : &untraced);
    }
  } else {
    tracer.set_on(false);
    measure(args.seconds, &untraced);
  }
  tracer.set_on(traced);

  // --- Reference runs and the output check.
  PhaseTimers reference_phases;
  std::size_t reference_errors = 0;
  const std::vector<RunMetrics> reference =
      reference_runs(setup, def->sweep ? threads : 1, &tracer,
                     &reference_phases, &reference_errors);
  std::uint64_t attempted = 0;
  std::uint64_t failed = reference_errors;
  for (Window* w : {&warmup, &untraced, &traced_window}) {
    w->check_against(reference, setup.points);
    attempted += w->attempted();
    failed += w->failed();
  }
  const bool correct = failed == 0 && attempted > 0;

  // --- Deterministic work counters over one fresh run of every point.
  RunMetrics sum;
  for (const RunMetrics& m : reference) {
    sum.probes += m.probes;
    sum.hits += m.hits;
    sum.misses_from_disk += m.misses_from_disk;
    sum.misses_recompute += m.misses_recompute;
    sum.blocks_cached += m.blocks_cached;
    sum.evictions += m.evictions;
    sum.spills += m.spills;
    sum.purged_blocks += m.purged_blocks;
    sum.prefetches_issued += m.prefetches_issued;
    sum.prefetches_completed += m.prefetches_completed;
    sum.prefetches_useful += m.prefetches_useful;
    sum.disk_bytes_read += m.disk_bytes_read;
    sum.network_bytes += m.network_bytes;
    sum.mrd_update_messages += m.mrd_update_messages;
  }
  std::uint64_t stages = 0;
  std::uint64_t persisted_blocks = 0;
  for (const auto& run : setup.runs) {
    stages += run->plan.total_stages();
    for (const RddInfo& rdd : run->app->rdds()) {
      if (rdd.persisted) persisted_blocks += rdd.num_partitions;
    }
  }
  const std::vector<JctRatio> ratios = mrd_vs_lru(setup, reference);
  std::vector<double> ratio_values;
  for (const JctRatio& r : ratios) ratio_values.push_back(r.ratio);
  const double sim_jct = geomean(ratio_values);

  const Timing timing = timing_of(untraced, num_points, def->sweep);

  // --- Human-readable report.
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d threads=%zu\n",
              def->name.data(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace, def->sweep ? threads : 1);
  if (def->name == "graph_heavy") {
    std::printf("inputs: scale %.1f, cache fraction %.4f (seed-drawn)\n",
                kGraphScale, draws.graph_fraction);
  } else if (def->name == "scale_tier") {
    std::printf("inputs: %u nodes, chain %u partitions, %u dimension RDDs x "
                "%u partitions (seed-drawn)\n",
                kScaleNodes, draws.scale_parts, draws.scale_dims,
                draws.scale_dim_parts);
  } else {
    std::printf("inputs: scale %.1f, %zu points, submission order seed-drawn\n",
                kPaperScale, num_points);
  }
  std::printf("plans %zu, stages %llu, persisted blocks %llu, points %zu\n",
              setup.runs.size(), static_cast<unsigned long long>(stages),
              static_cast<unsigned long long>(persisted_blocks), num_points);
  std::printf("output check: %llu of %llu runs failed (failed_run_share %.6f)\n",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              attempted ? static_cast<double>(failed) /
                              static_cast<double>(attempted)
                        : 1.0);

  std::vector<Metric> metrics;
  if (!traced) {
    std::printf("timing: p50 and throughput over the faster %zu of %zu "
                "slices (%zu runs); p90 over all %zu runs in slices (fewest "
                "per point %zu)\n",
                (timing.slices + 1) / 2, timing.slices, timing.quiet_runs,
                timing.all_runs, timing.fewest_per_point);
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"sim_blocks_per_s", timing.ops_per_s, "1/s"},
        {"run_ms_p50", timing.p50_ms, "ms"},
        {"run_ms_p90", timing.p90_ms, "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"sim_jct_mrd_vs_lru", sim_jct, "ratio"},
    };
    if (def->name == "paper_sweep") {
      // Fidelity beside the simulated speed-up (information only): the
      // best-of-cache-size Fig 4 vector against the paper's readings.
      std::vector<double> paper, measured;
      for (const auto& [key, reading] : kPaperFig4) {
        double best = 0.0;
        bool found = false;
        for (const JctRatio& r : ratios) {
          if (r.app != key) continue;
          best = found ? std::min(best, r.ratio) : r.ratio;
          found = true;
        }
        if (!found) continue;
        paper.push_back(reading);
        measured.push_back(best);
      }
      std::printf("fidelity: Fig 4 spearman rho %.4f over %zu workloads "
                  "(information only)\n",
                  spearman(paper, measured), paper.size());
    }
  } else {
    const Window& w = traced_window;
    const double untraced_rate = timing.ops_per_s;
    const double traced_rate =
        timing_of(w, num_points, def->sweep).ops_per_s;
    double run_ms = 0.0;
    double queue_ms = 0.0;
    double busy = 0.0;
    PhaseTimers phases;
    double phased_runs = 0.0;
    if (def->sweep) {
      run_ms = w.sweep.runs ? w.sweep.aggregate_ms /
                                  static_cast<double>(w.sweep.runs)
                            : 0.0;
      queue_ms = w.sweep.mean_queue_ms();
      busy = w.sweep.wall_ms > 0.0
                 ? w.sweep.aggregate_ms /
                       (w.sweep.wall_ms * static_cast<double>(w.sweep.threads))
                 : 0.0;
      // SweepJob carries no phase timers: the split comes from the fresh
      // reference run of every point.
      phases = reference_phases;
      phased_runs = static_cast<double>(num_points);
    } else {
      run_ms = w.passed() ? w.total_run_ms() / static_cast<double>(w.passed())
                          : 0.0;
      busy = w.wall_ms > 0.0 ? w.total_run_ms() / w.wall_ms : 0.0;
      phases = w.phases;
      phased_runs = static_cast<double>(std::max<std::size_t>(1, w.phased_runs));
    }
    double phase_sum = 0.0;
    metrics = {
        {"dag.plan_ms", median(plan_ms), "ms"},
        {"dag.stages", static_cast<double>(stages), "count"},
        {"dag.persisted_blocks", static_cast<double>(persisted_blocks), "count"},
        {"harness.queue_ms_mean", queue_ms, "ms"},
        {"harness.busy_share", busy, "ratio"},
        {"exec.run_ms", run_ms, "ms"},
    };
    for (const auto& [phase, name] : kPhases) {
      const double ms = phases[phase] / phased_runs;
      phase_sum += ms;
      metrics.push_back({"exec." + std::string(name) + "_ms", ms, "ms"});
    }
    const auto ratio = [](std::uint64_t num, std::uint64_t den) {
      return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
    };
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    const std::vector<Metric> counters = {
        {"exec.other_ms", run_ms - phase_sum, "ms"},
        {"cache.probes", count(sum.probes), "count"},
        {"cache.hits", count(sum.hits), "count"},
        {"cache.hit_ratio", ratio(sum.hits, sum.probes), "ratio"},
        {"cache.misses_disk", count(sum.misses_from_disk), "count"},
        {"cache.misses_recompute", count(sum.misses_recompute), "count"},
        {"cluster.evictions", count(sum.evictions), "count"},
        {"cluster.spills", count(sum.spills), "count"},
        {"cluster.disk_bytes_read", count(sum.disk_bytes_read), "bytes"},
        {"cluster.network_bytes", count(sum.network_bytes), "bytes"},
        {"core.purged_blocks", count(sum.purged_blocks), "count"},
        {"core.prefetches_issued", count(sum.prefetches_issued), "count"},
        {"core.prefetch_useful_ratio",
         ratio(sum.prefetches_useful, sum.prefetches_completed), "ratio"},
        {"core.mrd_update_messages", count(sum.mrd_update_messages), "count"},
        {"trace.overhead", traced_rate > 0.0 ? untraced_rate / traced_rate : 0.0,
         "ratio"},
    };
    metrics.insert(metrics.end(), counters.begin(), counters.end());

    std::printf("bases: cache.hit_ratio = hits %llu / probes %llu; "
                "core.prefetch_useful_ratio = useful %llu / completed %llu; "
                "counts summed over one fresh run of each of %zu points\n",
                static_cast<unsigned long long>(sum.hits),
                static_cast<unsigned long long>(sum.probes),
                static_cast<unsigned long long>(sum.prefetches_useful),
                static_cast<unsigned long long>(sum.prefetches_completed),
                num_points);
    std::printf("trace.overhead = untraced %.1f / traced %.1f block ops/s\n",
                untraced_rate, traced_rate);
    std::printf("self time per layer (ms, from %s spans):\n",
                def->sweep ? "harness.point, reference and set-up"
                           : "exec.run_plan and set-up");
    for (const auto& [name, layer] : tracer.layers()) {
      std::printf("  %-24s n=%-7zu total %12.3f  self %12.3f\n", name.c_str(),
                  layer.count, layer.total_ms, layer.self_ms);
    }
    if (!args.spans_path.empty() && !tracer.write(args.spans_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   args.spans_path.c_str());
    }
  }
  for (const Metric& m : metrics) {
    // Counts in full, so a later change can cite exact before/after values.
    const bool whole = m.unit == "count" || m.unit == "bytes";
    std::printf(whole ? "  %-28s %.0f %s\n" : "  %-28s %.6g %s\n",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
