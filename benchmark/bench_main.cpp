// Campaign benchmark harness: runs one workload in this process and prints
// one JSON object of raw samples on stdout (benchmark/run.py turns them into
// metrics and checks them).
//
//   issrtl_bench --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//                [--smoke] [--spans FILE]
//
// The harness calls only public entry points: workloads::build, the
// RtlCampaignBackend / IssCampaignBackend constructors, CampaignEngine::run,
// finish, fault::outcome_hash, Leon3Core::run and Emulator::run. Engine
// options are the defaults with threads = 1; ISSRTL_* variables are refused
// rather than read, so the measured configuration is the default one.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/iss_backend.hpp"
#include "engine/rtl_backend.hpp"
#include "fault/campaign.hpp"
#include "fault/iss_campaign.hpp"
#include "iss/emulator.hpp"
#include "rtlcore/core.hpp"
#include "traced_backend.hpp"
#include "workloads/workload.hpp"

extern char** environ;

namespace issrtl::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  const char* program;
  bool iss = false;
  const char* unit = "";
  std::vector<rtl::FaultModel> rtl_models;
  std::vector<iss::IssFaultModel> iss_models;
  std::size_t samples = 0;    // per model; 0 = every bit of the unit
  std::size_t instants = 1;   // per (node, bit)
  std::size_t campaigns = 1;  // sub-campaigns per run, see run_workload
};

// One rep is a fraction of a second on a current x86 core, so a run holds
// many reps; the sub-campaigns widen the fault sample each run covers.
// benchmark/README.md says why each workload exists.
const std::vector<Workload>& all_workloads() {
  using rtl::FaultModel;
  using iss::IssFaultModel;
  static const std::vector<Workload> w = {
      {"rtl_permanent_iu", "rspeed", false, "iu",
       {FaultModel::kStuckAt0, FaultModel::kStuckAt1, FaultModel::kOpenLine},
       {}, 12, 1, 6},
      {"rtl_permanent_cmem", "canrdr", false, "cmem",
       {FaultModel::kStuckAt0, FaultModel::kStuckAt1, FaultModel::kOpenLine},
       {}, 10, 1, 6},
      {"rtl_transient_sweep", "rspeed", false, "iu.ex",
       {FaultModel::kTransientBitFlip}, {}, 0, 8, 6},
      {"iss_regfile", "rspeed", true, "",
       {}, {IssFaultModel::kStuckAt0, IssFaultModel::kStuckAt1}, 200, 1, 2},
  };
  return w;
}

const char* model_name(rtl::FaultModel m) {
  switch (m) {
    case rtl::FaultModel::kStuckAt0: return "sa0";
    case rtl::FaultModel::kStuckAt1: return "sa1";
    case rtl::FaultModel::kOpenLine: return "open";
    case rtl::FaultModel::kTransientBitFlip: return "flip";
    case rtl::FaultModel::kBridge: return "bridge";
  }
  return "?";
}

const char* model_name(iss::IssFaultModel m) {
  switch (m) {
    case iss::IssFaultModel::kStuckAt0: return "sa0";
    case iss::IssFaultModel::kStuckAt1: return "sa1";
    case iss::IssFaultModel::kOpenLine: return "open";
    case iss::IssFaultModel::kBitFlip: return "flip";
  }
  return "?";
}

// ---- one campaign's verdicts ---------------------------------------------------

enum OutcomeClass : unsigned { kSilent, kLatent, kFailure, kHang, kError, kClasses };
constexpr const char* kClassNames[kClasses] = {"silent", "latent", "failure",
                                               "hang", "errors"};

struct Summary {
  u64 hash = 0;
  std::size_t completed = 0;
  std::size_t total = 0;
  bool truncated = false;
  std::map<std::string, std::array<std::size_t, kClasses>> counts;  // by model
  std::vector<u8> site_class;  // outcome class by site index
  fault::ReplayCounters replay;
};

Summary summarize(const fault::CampaignResult& r) {
  Summary s;
  s.hash = fault::outcome_hash(r);
  s.completed = r.completed_sites;
  s.total = r.total_sites;
  s.truncated = r.truncated;
  s.replay = r.replay;
  for (const fault::InjectionResult& run : r.runs) {
    unsigned c = kSilent;
    switch (run.outcome) {
      case fault::Outcome::kSilent: c = kSilent; break;
      case fault::Outcome::kLatent: c = kLatent; break;
      case fault::Outcome::kFailure: c = kFailure; break;
      case fault::Outcome::kHang: c = kHang; break;
      case fault::Outcome::kEngineError: c = kError; break;
    }
    ++s.counts[model_name(run.site.model)][c];
    s.site_class.push_back(static_cast<u8>(c));
  }
  return s;
}

// The ISS result has no library hash; this is fault::outcome_hash's FNV-1a
// over (outcome class, latency) per site, in site order.
Summary summarize(const fault::IssCampaignResult& r) {
  Summary s;
  s.hash = 1469598103934665603ull;
  s.completed = r.completed_sites;
  s.total = r.total_sites;
  s.truncated = r.truncated;
  s.replay = r.replay;
  for (const fault::IssInjectionResult& run : r.runs) {
    const unsigned c = run.engine_error ? kError
                       : run.failure    ? kFailure
                       : run.latent     ? kLatent
                                        : kSilent;
    s.hash = (s.hash ^ c) * 1099511628211ull;
    s.hash = (s.hash ^ run.latency_instr) * 1099511628211ull;
    ++s.counts[model_name(run.fault.model)][c];
    s.site_class.push_back(static_cast<u8>(c));
  }
  return s;
}

// ---- backends ----------------------------------------------------------------

fault::CampaignConfig rtl_config(const Workload& w, u64 seed, bool smoke) {
  fault::CampaignConfig cfg;
  cfg.unit_prefix = w.unit;
  cfg.models = w.rtl_models;
  cfg.samples = smoke && w.samples > 0 ? std::max<std::size_t>(1, w.samples / 4)
                                       : w.samples;
  cfg.instants_per_site = smoke ? std::max<std::size_t>(1, w.instants / 4)
                                : w.instants;
  cfg.seed = seed;
  if (w.instants > 1) {
    // Instants are drawn over the whole golden run; with every bit of the
    // unit swept, the seed draws only the instants.
    cfg.inject_time = fault::InjectTime::kUniformRandom;
    cfg.instant_window = fault::InstantWindow::kFull;
  }
  return cfg;
}

fault::IssCampaignConfig iss_config(const Workload& w, u64 seed, bool smoke) {
  fault::IssCampaignConfig cfg;
  cfg.models = w.iss_models;
  cfg.samples = smoke ? std::max<std::size_t>(1, w.samples / 4) : w.samples;
  cfg.seed = seed;
  return cfg;
}

std::unique_ptr<engine::RtlCampaignBackend> construct(
    const engine::RtlCampaignBackend*, const Workload& w,
    const isa::Program& prog, u64 seed, bool smoke,
    const engine::EngineOptions& opts) {
  return std::make_unique<engine::RtlCampaignBackend>(
      prog, rtl_config(w, seed, smoke), rtlcore::CoreConfig{}, opts);
}

std::unique_ptr<engine::IssCampaignBackend> construct(
    const engine::IssCampaignBackend*, const Workload& w,
    const isa::Program& prog, u64 seed, bool smoke,
    const engine::EngineOptions& opts) {
  return std::make_unique<engine::IssCampaignBackend>(
      prog, iss_config(w, seed, smoke), opts);
}

// ---- statistics helpers ---------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- JSON output -------------------------------------------------------------------

class Json {
 public:
  void key(const char* k) {
    sep();
    out_ += '"';
    out_ += k;
    out_ += "\":";
    fresh_ = true;
  }
  void num(double v) {
    sep();
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    out_ += buf;
  }
  void str(const std::string& s) {
    sep();
    out_ += '"';
    out_ += s;
    out_ += '"';
  }
  void boolean(bool b) {
    sep();
    out_ += b ? "true" : "false";
  }
  void open(char c) {
    sep();
    out_ += c;
    fresh_ = true;
  }
  void close(char c) {
    out_ += c;
    fresh_ = false;
  }
  void list(const std::vector<double>& v) {
    open('[');
    for (double x : v) num(x);
    close(']');
  }
  const std::string& text() const { return out_; }

 private:
  void sep() {
    if (!fresh_ && !out_.empty()) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

// ---- traced-rep analysis ---------------------------------------------------------

/// Per-layer numbers of one traced campaign rep.
struct TracedRep {
  double finish_ms = 0;
  double capture_s = 0;
  double coverage = 0;
  std::size_t threads = 0;  ///< distinct threads that recorded spans
  double site_busy_share = 0;
  double restore_busy_share = 0;
  double classify_busy_share = 0;
  double site_ms[kClasses] = {};
  double time_share[kClasses] = {};
  std::vector<double> site_us;
  std::vector<double> restore_us;
  std::vector<double> classify_us;
};

// Spans of the rep rooted at `campaign_id` (the tracer holds every rep).
TracedRep analyse_rep(const std::vector<Span>& spans, u64 campaign_id,
                      const Summary& sum) {
  std::map<u64, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  auto root_of = [&](const Span& s) {
    const Span* cur = &s;
    while (cur->parent != 0) {
      const auto it = by_id.find(cur->parent);
      if (it == by_id.end()) break;
      cur = it->second;
    }
    return cur->id;
  };

  TracedRep rep;
  const Span* campaign = by_id.at(campaign_id);
  const Span* run = nullptr;
  std::vector<const Span*> sites, classifies;
  const Span* capture = nullptr;
  double restore_ns = 0, classify_ns = 0, self_ns = 0;
  std::set<unsigned> threads;
  for (const Span& s : spans) {
    if (s.id == campaign_id || root_of(s) != campaign_id) continue;
    threads.insert(s.thread);
    if (s.thread == campaign->thread) self_ns += static_cast<double>(s.self_ns);
    const std::string name = s.name;
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    if (name == "engine.run") run = &s;
    else if (name == "engine.finish") rep.finish_ms = dur / 1e6;
    else if (name == "engine.site") sites.push_back(&s);
    else if (name == "engine.capture") {
      capture = &s;
      rep.capture_s = dur / 1e9;
    } else if (name == "engine.restore") {
      restore_ns += dur;
      rep.restore_us.push_back(dur / 1e3);
    } else if (name == "engine.classify") {
      classify_ns += dur;
      classifies.push_back(&s);
      rep.classify_us.push_back(dur / 1e3);
    }
  }
  const double wall_ns =
      static_cast<double>(campaign->end_ns - campaign->start_ns);
  const double run_ns =
      run != nullptr ? static_cast<double>(run->end_ns - run->start_ns) : 0.0;
  rep.threads = threads.size();
  rep.coverage = ratio(self_ns, wall_ns);
  rep.restore_busy_share = ratio(restore_ns, run_ns);
  rep.classify_busy_share = ratio(classify_ns, run_ns);

  // Per-site time: the run_site span where the engine takes the per-site
  // path. The staged ISS path runs every site inside one run_capture call,
  // so there the per-site time is the interval between successive
  // retirements as the classify stage receives them (stuck-at ISS sites are
  // never pre-classified, so every site passes through classify).
  std::vector<std::pair<std::int64_t, double>> per_site;  // (site, ns)
  if (!sites.empty()) {
    for (const Span* s : sites)
      per_site.emplace_back(s->site, static_cast<double>(s->end_ns - s->start_ns));
  } else if (!classifies.empty() && capture != nullptr) {
    std::sort(classifies.begin(), classifies.end(),
              [](const Span* a, const Span* b) { return a->start_ns < b->start_ns; });
    std::int64_t prev = capture->start_ns;
    for (const Span* s : classifies) {
      per_site.emplace_back(s->site, static_cast<double>(s->start_ns - prev));
      prev = s->start_ns;
    }
  }
  double total_ns = 0;
  for (const auto& [site, ns] : per_site) {
    rep.site_us.push_back(ns / 1e3);
    total_ns += ns;
    if (site >= 0 && static_cast<std::size_t>(site) < sum.site_class.size())
      rep.site_ms[sum.site_class[static_cast<std::size_t>(site)]] += ns / 1e6;
  }
  rep.site_busy_share = ratio(total_ns, run_ns);
  for (unsigned c = 0; c < kClasses; ++c)
    rep.time_share[c] = ratio(rep.site_ms[c] * 1e6, total_ns);
  return rep;
}

// ---- the harness -----------------------------------------------------------------

struct Args {
  std::string workload;
  u64 seed = 2015;
  double seconds = 25;
  bool trace = false;
  bool smoke = false;
  std::string spans;
};

constexpr std::size_t kSetupReps = 21;
constexpr std::size_t kMinRounds = 3;  // timed reps per sub-campaign
constexpr std::size_t kMinTracedSites = 1000;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Fault-free reference runs on both simulators: host ns per simulated cycle
// (Leon3Core::run) and per retired instruction (Emulator::run). Each probe
// repeats until it has run for at least `budget_s` and 5 times.
struct Probe {
  double rtl_ns_per_cycle = 0;
  double rtl_run_s = 0;
  double iss_ns_per_instr = 0;
  double iss_run_s = 0;
};

Probe probe_golden(const isa::Program& prog, double budget_s) {
  std::vector<double> rtl_ns, rtl_s, iss_ns, iss_s;
  const auto t_rtl = Clock::now();
  while (rtl_s.size() < 5 || seconds_since(t_rtl) < budget_s) {
    Memory mem;
    prog.load_into(mem);
    rtlcore::Leon3Core core(mem, rtlcore::CoreConfig{});
    core.reset(prog.entry);
    const auto t0 = Clock::now();
    if (core.run() != iss::HaltReason::kHalted)
      throw std::runtime_error("RTL golden probe did not halt");
    const double s = seconds_since(t0);
    rtl_s.push_back(s);
    rtl_ns.push_back(s * 1e9 / static_cast<double>(core.cycles()));
  }
  const auto t_iss = Clock::now();
  while (iss_s.size() < 5 || seconds_since(t_iss) < budget_s) {
    Memory mem;
    iss::Emulator emu(mem);
    emu.load(prog);
    const auto t0 = Clock::now();
    if (emu.run() != iss::HaltReason::kHalted)
      throw std::runtime_error("ISS golden probe did not halt");
    const double s = seconds_since(t0);
    iss_s.push_back(s);
    iss_ns.push_back(s * 1e9 / static_cast<double>(emu.instret()));
  }
  return {median(rtl_ns), median(rtl_s), median(iss_ns), median(iss_s)};
}

/// One finished campaign rep.
struct Rep {
  std::size_t campaign = 0;
  double seconds = 0;
  Summary summary;
  u64 root = 0;             ///< traced reps: the campaign span's id
  std::int64_t end_ns = 0;  ///< traced reps: when that span closed
};

// Sub-campaign p of a run draws its fault list from this seed, so one
// --seed yields `campaigns` distinct fault lists.
u64 sub_seed(u64 seed, std::size_t p) { return seed * 1000 + p; }

template <class Backend>
int run_workload(const Workload& w, const Args& a) {
  engine::EngineOptions opts;
  opts.threads = 1;
  // The program's input data stays fixed: canrdr's golden run varies by
  // about +-20% with its data seed, which would turn a seed change into a
  // speed change. The seed draws the fault lists.
  const workloads::WorkloadParams params{.iterations = 2, .data_seed = 1};
  const isa::Program prog = workloads::build(w.program, params);
  const std::size_t campaigns = a.smoke ? 1 : w.campaigns;

  // Set-up is workloads::build plus the backend constructor (golden run,
  // ladder, fault list). Every rep sets up afresh, so set-up samples are
  // spread over the run like the campaign samples.
  std::vector<double> setup_s, build_s, ctor_s;
  auto set_up = [&](std::size_t p) {
    const auto t0 = Clock::now();
    const isa::Program built_prog = workloads::build(w.program, params);
    const double built = seconds_since(t0);
    auto backend = construct(static_cast<const Backend*>(nullptr), w,
                             built_prog, sub_seed(a.seed, p), a.smoke, opts);
    setup_s.push_back(seconds_since(t0));
    build_s.push_back(built);
    ctor_s.push_back(setup_s.back() - built);
    return backend;
  };

  Tracer tracer;
  // One closed-loop rep of sub-campaign p: CampaignEngine::run + finish.
  auto campaign = [&](std::size_t p, bool traced) {
    const auto backend = set_up(p);
    engine::CampaignEngine eng(opts);
    Rep rep;
    rep.campaign = p;
    const auto t0 = Clock::now();
    std::optional<decltype(backend->finish(eng.run(*backend)))> result;
    if (traced) {
      const ScopedSpan root(tracer, "campaign", "bench", 0);
      rep.root = root.id();
      std::optional<decltype(eng.run(*backend))> run;
      {
        const ScopedSpan run_span(tracer, "engine.run", "engine", root.id());
        TracedBackend<Backend> tb(*backend, tracer, run_span.id());
        run.emplace(eng.run(tb));
      }
      {
        const ScopedSpan finish_span(tracer, "engine.finish", "engine", root.id());
        result.emplace(backend->finish(std::move(*run)));
      }
      rep.end_ns = tracer.now();
    } else {
      result.emplace(backend->finish(eng.run(*backend)));
    }
    rep.seconds = seconds_since(t0);
    rep.summary = summarize(*result);
    return rep;
  };

  // Untimed warm-up, then reps cycle through the sub-campaigns in turn
  // (closed loop) until the budget is spent and each has run kMinRounds
  // times. Host interference comes in phases of seconds, so many short
  // interleaved reps give every sub-campaign a chance at an undisturbed
  // rep.
  std::vector<Rep> reps, traced;
  reps.push_back(campaign(0, false));
  setup_s.clear();  // the warm-up's set-up paid first-touch costs
  build_s.clear();
  ctor_s.clear();
  const double budget = a.smoke ? 0.5 : a.seconds;
  const std::size_t min_rounds = a.smoke ? 1 : kMinRounds;
  const auto t_start = Clock::now();
  std::size_t next = 0;
  if (!a.trace) {
    while (next < min_rounds * campaigns || seconds_since(t_start) < budget) {
      reps.push_back(campaign(next++ % campaigns, false));
    }
  } else {
    // Traced and untraced reps alternate for the budget, so
    // trace.overhead_pct compares neighbours; traced reps then continue
    // until the pooled per-site samples support a p99 (10 beyond it).
    std::size_t traced_sites = 0;
    const std::size_t min_sites = a.smoke ? 1 : kMinTracedSites;
    while (traced.size() < campaigns || traced_sites < min_sites ||
           seconds_since(t_start) < budget) {
      const std::size_t p = next++ % campaigns;
      traced.push_back(campaign(p, true));
      traced_sites += traced.back().summary.total;
      if (seconds_since(t_start) < budget || reps.size() <= campaigns)
        reps.push_back(campaign(p, false));
    }
  }
  while (setup_s.size() < (a.smoke ? 3 : kSetupReps)) set_up(0);

  // Per sub-campaign verdicts, from its first rep.
  std::vector<const Summary*> first(campaigns, nullptr);
  for (const Rep& r : reps) {
    if (first[r.campaign] == nullptr) first[r.campaign] = &r.summary;
  }
  std::vector<std::size_t> sites(campaigns, 0);
  u64 outcome_hash = 1469598103934665603ull;
  std::map<std::string, std::array<std::size_t, kClasses>> counts;
  for (std::size_t p = 0; p < campaigns; ++p) {
    if (first[p] == nullptr) throw std::logic_error("sub-campaign never ran");
    sites[p] = first[p]->total;
    outcome_hash = (outcome_hash ^ first[p]->hash) * 1099511628211ull;
    for (const auto& [model, c] : first[p]->counts) {
      auto& sum = counts[model];
      for (unsigned k = 0; k < kClasses; ++k) sum[k] += c[k];
    }
  }
  std::size_t incomplete = 0, errors = 0, truncated = 0;
  for (const std::vector<Rep>* v : {&reps, &traced}) {
    for (const Rep& r : *v) {
      incomplete += r.summary.total - r.summary.completed;
      truncated += r.summary.truncated ? 1 : 0;
      for (const auto& [model, c] : r.summary.counts) errors += c[kError];
    }
  }

  Json j;
  j.open('{');
  j.key("workload"); j.str(w.name);
  j.key("seed"); j.num(static_cast<double>(a.seed));
  j.key("campaign_sites");
  j.list(std::vector<double>(sites.begin(), sites.end()));
  j.key("setup_s"); j.list(setup_s);
  j.key("build_s"); j.list(build_s);
  j.key("ctor_s"); j.list(ctor_s);
  j.key("peak_rss_mb"); j.num(peak_rss_mb());
  // Every rep, the warm-up first (it is not timed: the caller skips it),
  // so the caller can check that all reps of a sub-campaign agree and that
  // tracing changed no verdict.
  auto rep_list = [&](const char* key, const std::vector<Rep>& v) {
    j.key(key);
    j.open('[');
    for (const Rep& r : v) {
      j.open('{');
      j.key("campaign"); j.num(static_cast<double>(r.campaign));
      j.key("s"); j.num(r.seconds);
      j.key("hash"); j.str(std::to_string(r.summary.hash));
      j.close('}');
    }
    j.close(']');
  };
  rep_list("reps", reps);
  rep_list("traced_reps", traced);
  j.key("outcome_hash"); j.str(std::to_string(outcome_hash));
  j.key("incomplete_sites"); j.num(static_cast<double>(incomplete));
  j.key("engine_errors"); j.num(static_cast<double>(errors));
  j.key("truncated_reps"); j.num(static_cast<double>(truncated));
  j.key("counts");
  j.open('{');
  for (const auto& [model, c] : counts) {
    j.key(model.c_str());
    j.open('{');
    for (unsigned k = 0; k < kClasses; ++k) {
      j.key(kClassNames[k]);
      j.num(static_cast<double>(c[k]));
    }
    j.close('}');
  }
  j.close('}');

  if (a.trace) {
    tracer.compute_self_times();
    std::vector<TracedRep> layers;
    for (const Rep& r : traced)
      layers.push_back(analyse_rep(tracer.spans(), r.root, r.summary));
    std::size_t threads = 0;
    for (const TracedRep& r : layers) threads = std::max(threads, r.threads);
    const Probe probe = probe_golden(prog, a.smoke ? 0.05 : 0.3);
    // Each traced rep's replay counters, stamped at the end of its span.
    for (const Rep& r : traced) {
      const fault::ReplayCounters& c = r.summary.replay;
      const std::pair<const char*, u64> counters[] = {
          {"ladder_rungs", c.ladder_rungs},
          {"ladder_bytes", c.ladder_bytes},
          {"ladder_restores", c.ladder_restores},
          {"rolling_restores", c.rolling_restores},
          {"cold_resets", c.cold_resets},
          {"fast_forward", c.fast_forward_cycles},
          {"convergence_cutoffs", c.convergence_cutoffs},
          {"restores_prefetched", c.restores_prefetched},
          {"restores_demand", c.restores_demand},
          {"snapshot_waits", c.snapshot_waits},
          {"classify_queue_stalls", c.classify_queue_stalls},
      };
      for (const auto& [name, value] : counters)
        tracer.counter(name, r.end_ns, static_cast<double>(value));
    }
    bool spans_written = true;
    if (!a.spans.empty()) spans_written = tracer.write_chrome_json(a.spans);

    auto med = [&](auto field) {
      std::vector<double> v;
      for (const TracedRep& r : layers) v.push_back(field(r));
      return median(v);
    };
    // Median over traced reps of a replay counter, optionally per site.
    auto counter = [&](auto field, bool per_site = false) {
      std::vector<double> v;
      for (const Rep& r : traced) {
        const double x = static_cast<double>(r.summary.replay.*field);
        v.push_back(per_site ? ratio(x, static_cast<double>(r.summary.total)) : x);
      }
      return median(v);
    };
    auto pooled = [&](auto member) {
      std::vector<double> v;
      for (const TracedRep& r : layers) v.insert(v.end(), (r.*member).begin(), (r.*member).end());
      return v;
    };
    const std::vector<double> site_us = pooled(&TracedRep::site_us);
    const std::vector<double> restore_us = pooled(&TracedRep::restore_us);
    const std::vector<double> classify_us = pooled(&TracedRep::classify_us);
    std::vector<double> hit_ratio;
    for (const Rep& r : traced) {
      const fault::ReplayCounters& c = r.summary.replay;
      hit_ratio.push_back(ratio(static_cast<double>(c.restores_prefetched),
                                static_cast<double>(c.restores_prefetched +
                                                    c.restores_demand)));
    }
    // Fastest traced rep against fastest untraced rep of each sub-campaign
    // that has both (the same estimator as injections_per_s).
    double traced_best = 0, untraced_best = 0;
    for (std::size_t p = 0; p < campaigns; ++p) {
      double t = 1e300, u = 1e300;
      for (const Rep& r : traced)
        if (r.campaign == p) t = std::min(t, r.seconds);
      for (std::size_t i = 1; i < reps.size(); ++i)  // reps[0] is the warm-up
        if (reps[i].campaign == p) u = std::min(u, reps[i].seconds);
      if (t < 1e300 && u < 1e300) {
        traced_best += t;
        untraced_best += u;
      }
    }

    j.key("spans_written"); j.boolean(spans_written);
    j.key("engine_threads"); j.num(static_cast<double>(threads));
    j.key("site_samples"); j.num(static_cast<double>(site_us.size()));
    j.key("layers");
    j.open('{');
    auto metric = [&](const char* name, double v) { j.key(name); j.num(v); };
    metric("workloads.build_ms", 1e3 * median(build_s));
    metric("rtlcore.golden_ns_per_cycle", probe.rtl_ns_per_cycle);
    metric("iss.ns_per_instr", probe.iss_ns_per_instr);
    metric("engine.setup_golden_share",
           ratio(w.iss ? probe.iss_run_s : probe.rtl_run_s, median(ctor_s)));
    metric("engine.ladder_rungs", counter(&fault::ReplayCounters::ladder_rungs));
    metric("engine.ladder_bytes", counter(&fault::ReplayCounters::ladder_bytes));
    metric("engine.finish_ms", med([](const TracedRep& r) { return r.finish_ms; }));
    metric("engine.site_busy_share",
           med([](const TracedRep& r) { return r.site_busy_share; }));
    metric("engine.site_us.p50", quantile(site_us, 0.50));
    metric("engine.site_us.p90", quantile(site_us, 0.90));
    metric("engine.site_us.p99", quantile(site_us, 0.99));
    for (unsigned c : {kSilent, kLatent, kFailure}) {
      const std::string share = std::string("engine.time_share.") + kClassNames[c];
      metric(share.c_str(), med([c](const TracedRep& r) { return r.time_share[c]; }));
    }
    metric("engine.ladder_restores", counter(&fault::ReplayCounters::ladder_restores));
    metric("engine.rolling_restores", counter(&fault::ReplayCounters::rolling_restores));
    metric("engine.cold_resets", counter(&fault::ReplayCounters::cold_resets));
    metric("engine.ff_cycles_per_site",
           counter(&fault::ReplayCounters::fast_forward_cycles, true));
    metric("engine.convergence_cutoffs",
           counter(&fault::ReplayCounters::convergence_cutoffs));
    metric("engine.cutoff_ratio",
           counter(&fault::ReplayCounters::convergence_cutoffs, true));
    metric("engine.restore_busy_share",
           med([](const TracedRep& r) { return r.restore_busy_share; }));
    metric("engine.classify_busy_share",
           med([](const TracedRep& r) { return r.classify_busy_share; }));
    metric("engine.prefetch_hit_ratio", median(hit_ratio));
    metric("engine.snapshot_waits", counter(&fault::ReplayCounters::snapshot_waits));
    metric("engine.classify_queue_stalls",
           counter(&fault::ReplayCounters::classify_queue_stalls));
    metric("trace.overhead_pct", 100.0 * (ratio(traced_best, untraced_best) - 1.0));
    metric("trace.coverage", med([](const TracedRep& r) { return r.coverage; }));
    j.close('}');
    // Reported in the traced summary but left out of BENCHMARK.json's
    // per-layer list: each is zero by construction on some workload (no
    // staged stages on the serial RTL path, outcome classes a campaign may
    // not produce), and a per-layer time must be measured on every run.
    j.key("extra");
    j.open('{');
    for (unsigned c : {kSilent, kLatent, kFailure, kHang}) {
      const std::string ms = std::string("engine.site_ms.") + kClassNames[c];
      metric(ms.c_str(), med([c](const TracedRep& r) { return r.site_ms[c]; }));
    }
    metric("engine.time_share.hang", med([](const TracedRep& r) { return r.time_share[kHang]; }));
    metric("engine.restore_us.p50", quantile(restore_us, 0.50));
    metric("engine.restore_us.p90", quantile(restore_us, 0.90));
    metric("engine.capture_s", med([](const TracedRep& r) { return r.capture_s; }));
    metric("engine.classify_us.p50", quantile(classify_us, 0.50));
    metric("engine.classify_us.p99", quantile(classify_us, 0.99));
    j.close('}');
  }
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "issrtl_bench: %s\n"
               "usage: issrtl_bench --workload NAME [--seed S] [--seconds T] "
               "[--trace 0|1] [--smoke] [--spans FILE]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") a.workload = value();
      else if (arg == "--seed") a.seed = std::stoull(value());
      else if (arg == "--seconds") a.seconds = std::stod(value());
      else if (arg == "--trace") a.trace = value() != "0";
      else if (arg == "--smoke") a.smoke = true;
      else if (arg == "--spans") a.spans = value();
      else usage(("unknown argument " + arg).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

}  // namespace
}  // namespace issrtl::bench

int main(int argc, char** argv) {
  using namespace issrtl::bench;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "ISSRTL_", 7) == 0) {
      std::fprintf(stderr,
                   "issrtl_bench: refusing to run with %s set: the benchmark "
                   "measures the default engine options\n",
                   *e);
      return 2;
    }
  }
  const Args a = parse_args(argc, argv);
  for (const Workload& w : all_workloads()) {
    if (a.workload != w.name) continue;
    try {
      return w.iss ? run_workload<issrtl::engine::IssCampaignBackend>(w, a)
                   : run_workload<issrtl::engine::RtlCampaignBackend>(w, a);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "issrtl_bench: %s\n", e.what());
      return 1;
    }
  }
  usage(("unknown workload " + a.workload).c_str());
}
