// Campaign report: run an RTL fault-injection campaign on a workload and
// print a full report — per-model Pf, outcome breakdown, per-functional-unit
// failure probabilities (the P_mf of Eq. 1) and the α_m area weights.
// Optionally dumps a waveform of one faulty run.
//
//   ./examples/campaign_report [workload] [samples] [threads] [instants]
//                              [window] [--vcd <path>]
//   ./examples/campaign_report rspeed 200 4
//   ./examples/campaign_report rspeed 120 0 1 --vcd /tmp/fault.vcd
//   ./examples/campaign_report --help
//
// Campaigns run on the parallel engine; threads=0 (the default) uses every
// hardware thread and produces the same result as any other thread count.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/area.hpp"
#include "core/predict.hpp"
#include "engine/rtl_backend.hpp"
#include "fault/campaign.hpp"
#include "fault/report.hpp"
#include "rtl/vcd.hpp"
#include "workloads/workload.hpp"

using namespace issrtl;

namespace {

int help() {
  std::printf(
      "campaign_report — full RTL fault-injection campaign report\n"
      "\n"
      "usage: campaign_report [workload] [samples] [threads] [instants]\n"
      "                       [window] [--vcd <path>] [--journal=DIR]\n"
      "                       [--resume] [--deadline-ms=N]\n"
      "  workload   registry name (issrtl_cli list); default rspeed\n"
      "  samples    injection trials per fault model; default 120\n"
      "  threads    engine worker threads; 0 or absent = all hardware\n"
      "             threads (results identical at any count)\n"
      "  instants   injection instants per sampled (node, bit); default 1.\n"
      "             >1 sweeps every site over time (samples*instants\n"
      "             trials per model, uniform-random instants)\n"
      "  window     uniform-random instant window: 'half' (default;\n"
      "             bug-compatible [1, golden/2] draw that keeps historical\n"
      "             fault lists bit-identical) or 'full' ([1, golden] —\n"
      "             also samples late-pipeline/drain states)\n"
      "  --vcd <path>  write a GTKWave waveform of the first failing run\n"
      "             to <path> (off by default: no files are dropped into\n"
      "             the working directory unless asked)\n"
      "  --journal=DIR  append every completed site to a checksummed\n"
      "             write-ahead journal under DIR, keyed by (workload,\n"
      "             config, seed)\n"
      "  --resume   import journaled sites instead of re-simulating them;\n"
      "             the merged report is bit-identical to an uninterrupted\n"
      "             run\n"
      "  --deadline-ms=N  wall-clock budget; on expiry (or SIGINT/SIGTERM)\n"
      "             in-flight sites finish, the journal is flushed, and the\n"
      "             partial report is printed with a TRUNCATED banner\n"
      "\n"
      "environment:\n"
      "  ISSRTL_THREADS      worker threads when [threads] is absent\n"
      "  ISSRTL_CKPT_STRIDE  checkpoint-ladder rung spacing in cycles;\n"
      "                      'auto' (default) adapts to the golden run,\n"
      "                      0 re-simulates every prefix from reset.\n"
      "                      Bit-identical results either way.\n"
      "  ISSRTL_CKPT_MB      ladder byte cap in MiB (default 256)\n"
      "  ISSRTL_JOURNAL      journal directory (same as --journal)\n"
      "  ISSRTL_RESUME       1 = import journaled sites (same as --resume)\n"
      "  ISSRTL_ISS_FAST     1 (default) = ISS decoded-basic-block fast path,\n"
      "                      0 = single-step decoder; bit-identical results\n"
      "  ISSRTL_DEADLINE_MS  wall-clock budget in milliseconds\n"
      "  ISSRTL_FAIL_SITE    test hook: '<i>' or '<i>:once' (comma list)\n"
      "                      injects a worker fault at site i\n"
      "\n"
      "exit codes: 0 success, 1 runtime failure or truncated campaign,\n"
      "2 usage/configuration error\n"
      "\n"
      "Prints per-model Pf, outcome breakdown, per-functional-unit P_mf\n"
      "with the alpha_m area weights (Eq. 1) and the replay-economics\n"
      "counters.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  // Split the --flags off first; everything else is positional as before.
  std::string vcd_path;
  std::string journal_dir;
  bool resume = false;
  bool have_deadline = false;
  u64 deadline_ms = 0;
  std::vector<const char*> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") return help();
    if (a == "--vcd") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --vcd needs a path argument\n");
        return 2;
      }
      vcd_path = argv[++i];
      continue;
    }
    if (a == "--resume") {
      resume = true;
      continue;
    }
    if (a.rfind("--journal=", 0) == 0) {
      journal_dir = a.substr(std::strlen("--journal="));
      if (journal_dir.empty()) {
        std::fprintf(stderr, "error: --journal=DIR needs a directory\n");
        return 2;
      }
      continue;
    }
    if (a.rfind("--deadline-ms=", 0) == 0) {
      const std::string v = a.substr(std::strlen("--deadline-ms="));
      if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
        std::fprintf(stderr,
                     "error: --deadline-ms=N needs a non-negative integer, "
                     "got '%s'\n", v.c_str());
        return 2;
      }
      have_deadline = true;
      deadline_ms = std::strtoull(v.c_str(), nullptr, 10);
      continue;
    }
    if (a.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", a.c_str());
      return 2;
    }
    pos.push_back(argv[i]);
  }
  const std::string workload = pos.size() > 0 ? pos[0] : "rspeed";
  const long long samples_arg = pos.size() > 1 ? std::atoll(pos[1]) : 120;
  if (samples_arg < 0) {
    // Would wrap to a ~1.8e19-site campaign via size_t.
    std::fprintf(stderr, "error: [samples] must be non-negative\n");
    return 2;
  }
  const std::size_t samples = static_cast<std::size_t>(samples_arg);
  // Negative or garbage thread counts fall back to 0 (= all hardware).
  const int threads_arg = pos.size() > 2 ? std::atoi(pos[2]) : 0;
  const unsigned threads =
      threads_arg > 0 ? static_cast<unsigned>(threads_arg) : 0;
  const long long instants_arg = pos.size() > 3 ? std::atoll(pos[3]) : 1;

  const auto prog = workloads::build(workload, {.iterations = 1});

  fault::CampaignConfig cfg;
  cfg.unit_prefix = "";  // whole design: IU + CMEM
  cfg.models = {rtl::FaultModel::kStuckAt1, rtl::FaultModel::kStuckAt0,
                rtl::FaultModel::kOpenLine};
  cfg.samples = samples;
  if (instants_arg < 0) {
    std::fprintf(stderr, "error: [instants] must be a positive integer\n");
    return 2;
  }
  // 0 is passed through: build_fault_list rejects it loudly instead of
  // this front end silently resizing the campaign.
  cfg.instants_per_site = static_cast<std::size_t>(instants_arg);
  if (instants_arg > 1) cfg.inject_time = fault::InjectTime::kUniformRandom;
  if (pos.size() > 4) {
    const std::string w = pos[4];
    if (w == "full") cfg.instant_window = fault::InstantWindow::kFull;
    else if (w != "half") {
      std::fprintf(stderr, "error: [window] must be 'half' or 'full'\n");
      return 2;
    }
  }
  engine::EngineOptions opts = engine::options_from_env();
  if (threads != 0) opts.threads = threads;
  if (!journal_dir.empty()) opts.journal_dir = journal_dir;
  if (resume) opts.resume = true;
  if (have_deadline) opts.deadline_ms = deadline_ms;
  if (opts.resume && opts.journal_dir.empty()) {
    std::fprintf(stderr,
                 "error: --resume requires --journal=DIR (or ISSRTL_JOURNAL)\n");
    return 2;
  }
  // Ctrl-C / SIGTERM stop the campaign gracefully: sites finish, the journal
  // is flushed, and the partial report below carries a TRUNCATED banner.
  engine::install_signal_stop();
  opts.stop = &engine::signal_stop_flag();
  opts.on_progress = engine::stderr_progress();
  const auto r = engine::run_rtl_campaign(prog, cfg, {}, opts);

  std::printf("campaign: workload=%s unit=<whole design> trials=%zu "
              "golden=%llu cycles / %llu instructions\n",
              workload.c_str(), r.runs.size(),
              static_cast<unsigned long long>(r.golden_cycles),
              static_cast<unsigned long long>(r.golden_instret));
  fault::print_replay_summary(r);
  std::printf("\n");

  fault::TextTable t({"model", "Pf", "failures", "hangs", "latent", "silent",
                      "errors", "max latency", "mean latency"});
  for (const auto& s : r.per_model) {
    t.add_row({std::string(rtl::fault_model_name(s.model)),
               fault::TextTable::pct(s.pf()), std::to_string(s.failures),
               std::to_string(s.hangs), std::to_string(s.latent),
               std::to_string(s.silent), std::to_string(s.errors),
               std::to_string(s.max_latency),
               fault::TextTable::num(s.mean_latency, 0)});
  }
  std::printf("%s\n", t.render().c_str());

  // Per-functional-unit P_mf + alpha_m (Eq. 1 ingredients).
  std::vector<core::UnitObservation> obs;
  for (const auto& run : r.runs) {
    obs.emplace_back(run.unit, run.outcome == fault::Outcome::kFailure ||
                                   run.outcome == fault::Outcome::kHang);
  }
  const core::UnitPf upf = core::UnitPf::from_observations(obs);

  Memory probe_mem;
  rtlcore::Leon3Core probe(probe_mem);
  const core::AreaModel area = core::build_area_model(probe.sim());

  fault::TextTable ut({"functional unit m", "alpha_m", "trials", "P_mf"});
  double eq1 = 0.0;
  for (std::size_t u = 0; u < isa::kNumFuncUnits; ++u) {
    if (area.bits[u] == 0) continue;
    eq1 += area.alpha[u] * upf.pf[u];
    ut.add_row({std::string(isa::func_unit_name(static_cast<isa::FuncUnit>(u))),
                fault::TextTable::num(area.alpha[u], 4),
                std::to_string(upf.runs[u]),
                fault::TextTable::pct(upf.pf[u])});
  }
  std::printf("%s\n", ut.render().c_str());
  std::printf("Eq. 1 check: sum(alpha_m * P_mf) = %s (measured overall Pf "
              "mixes models; per-model tables above)\n\n",
              fault::TextTable::pct(eq1).c_str());

  // Waveform of the first failing run, for inspection in GTKWave — only
  // when a destination was requested (an unsolicited dump used to litter
  // the working directory with faulty_run.vcd files).
  if (!vcd_path.empty()) {
    bool wrote = false;
    for (const auto& run : r.runs) {
      if (run.outcome != fault::Outcome::kFailure) continue;
      Memory mem;
      rtlcore::Leon3Core core(mem);
      core.load(prog);
      rtl::VcdWriter vcd(vcd_path, core.sim());
      for (u64 c = 0; c < run.site.inject_cycle; ++c) core.step();
      core.sim().arm_fault(run.site.node, run.site.model, run.site.bit);
      for (int c = 0; c < 400 &&
                      core.halt_reason() == iss::HaltReason::kRunning; ++c) {
        core.step();
        vcd.sample(core.cycles());
      }
      std::printf("wrote %s: %s %s bit %u (first 400 cycles after "
                  "injection)\n",
                  vcd_path.c_str(),
                  std::string(rtl::fault_model_name(run.site.model)).c_str(),
                  run.node_name.c_str(), run.site.bit);
      wrote = true;
      break;
    }
    if (!wrote) {
      std::printf("no failing run to dump: %s not written\n",
                  vcd_path.c_str());
    }
  }
  return r.truncated ? 1 : 0;
} catch (const std::invalid_argument& e) {
  // Configuration the library rejected (bad unit prefix, zero instants,
  // malformed ISSRTL_* values): a usage error, not a runtime failure.
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
