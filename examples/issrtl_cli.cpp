// issrtl_cli — command-line front end to the library.
//
//   issrtl_cli list                          workloads in the registry
//   issrtl_cli run <workload> [iters]       run on the ISS (+ timing stats)
//   issrtl_cli rtl <workload> [iters]       run on the RTL core
//   issrtl_cli diversity <workload>          Table-1-style characterisation
//   issrtl_cli disasm <workload>             disassemble a workload image
//   issrtl_cli campaign <workload> <unit> <model> <samples> [threads]
//                                            RTL fault-injection campaign on
//                                            the parallel engine (threads=0
//                                            uses all hardware threads;
//                                            results identical at any count)
//   issrtl_cli avf <workload>                register-file AVF
//   issrtl_cli asm <file.s>                  assemble + run a text program
//   issrtl_cli nodes [unit]                  list injectable RTL nodes
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/avf.hpp"
#include "core/diversity.hpp"
#include "engine/rtl_backend.hpp"
#include "fault/campaign.hpp"
#include "fault/report.hpp"
#include "isa/asm_parser.hpp"
#include "isa/disasm.hpp"
#include "iss/emulator.hpp"
#include "iss/timing.hpp"
#include "rtlcore/core.hpp"
#include "workloads/workload.hpp"

using namespace issrtl;

namespace {

// Exit codes: 0 success, 1 runtime failure (simulation, I/O), 2 usage or
// configuration error. Usage/config diagnostics go to stderr so piped
// output stays machine-readable.
constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;

int usage() {
  std::fprintf(
      stderr,
      "usage: issrtl_cli <command> [...]\n"
      "  list | run <wl> [iters] | rtl <wl> [iters] | diversity <wl>\n"
      "  disasm <wl> | campaign <wl> <iu|cmem|''> <sa0|sa1|open|flip> <n> "
      "[threads] [instants] [window]\n"
      "      [--journal=DIR] [--resume] [--deadline-ms=N] [--mixed]\n"
      "  avf <wl> | asm <file.s> | nodes [unit] | help\n"
      "run 'issrtl_cli help' for the full flag and environment reference\n");
  return kExitUsage;
}

int help() {
  std::printf(
      "issrtl_cli — command-line front end to the issrtl library\n"
      "\n"
      "commands:\n"
      "  list                      workloads in the registry\n"
      "  run <wl> [iters]          run on the ISS (+ timing stats); iters\n"
      "                            defaults to 1\n"
      "  rtl <wl> [iters]          run on the RTL core\n"
      "  diversity <wl>            Table-1-style characterisation\n"
      "  disasm <wl>               disassemble a workload image\n"
      "  campaign <wl> <unit> <model> <n> [threads] [instants] [window]\n"
      "           [--journal=DIR] [--resume] [--deadline-ms=N] [--mixed]\n"
      "                            RTL fault-injection campaign on the\n"
      "                            parallel engine\n"
      "      <unit>      node-unit prefix: iu, cmem, a subunit like iu.fe,\n"
      "                  or '' for the whole design\n"
      "      <model>     sa0 | sa1 | open | flip\n"
      "      <n>         sampled injection trials (0 = exhaustive)\n"
      "      [threads]   worker threads; 0 or absent = all hardware\n"
      "                  threads (results identical at any count)\n"
      "      [instants]  injection instants per sampled (node, bit);\n"
      "                  default 1, >1 sweeps each site over time\n"
      "      [window]    uniform-random instant window: 'half' (default;\n"
      "                  bug-compatible [1, golden/2] draw that keeps\n"
      "                  historical fault lists bit-identical) or 'full'\n"
      "                  ([1, golden] — covers late-pipeline/drain states)\n"
      "  avf <wl>                  register-file AVF\n"
      "  asm <file.s>              assemble + run a text program\n"
      "  nodes [unit]              list injectable RTL nodes\n"
      "  help | --help | -h        this reference\n"
      "\n"
      "environment (campaign command):\n"
      "  ISSRTL_THREADS      worker threads when [threads] is absent\n"
      "                      (0 = all hardware threads)\n"
      "  ISSRTL_CKPT_STRIDE  checkpoint-ladder rung spacing in cycles;\n"
      "                      'auto' (default) adapts to the golden run,\n"
      "                      0 disables the ladder (rolling checkpoint\n"
      "                      only). Results are bit-identical either way.\n"
      "  ISSRTL_CKPT_MB      ladder byte cap in MiB (default 256); rungs\n"
      "                      are evicted oldest-first beyond it\n"
      "  ISSRTL_JOURNAL      campaign journal directory (same as --journal);\n"
      "                      every completed site is appended to a\n"
      "                      checksummed write-ahead journal keyed by\n"
      "                      (workload, config, seed)\n"
      "  ISSRTL_RESUME       1 imports journaled sites instead of\n"
      "                      re-simulating them (same as --resume); 0 (the\n"
      "                      default) truncates the journal and starts fresh\n"
      "  ISSRTL_MIXED        1 runs the mixed-fidelity accelerator (same as\n"
      "                      --mixed): the fault-free prefix executes on the\n"
      "                      ISS and only the faulty suffix is simulated at\n"
      "                      RTL fidelity. Results are schedule-invariant but\n"
      "                      differ from pure-RTL for pipeline-resident\n"
      "                      faults (the transplanted pipeline starts empty),\n"
      "                      so the mode is part of the campaign identity\n"
      "  ISSRTL_ISS_FAST     1 (default) uses the ISS decoded-basic-block\n"
      "                      fast path, 0 forces the single-step decoder;\n"
      "                      results are bit-identical either way\n"
      "  ISSRTL_DEADLINE_MS  wall-clock budget in milliseconds; the engine\n"
      "                      finishes in-flight sites, flushes the journal and\n"
      "                      returns a partial result marked TRUNCATED\n"
      "  ISSRTL_FAIL_SITE    test hook: '<i>' or '<i>:once' (comma list)\n"
      "                      injects a worker fault at site i; an optional\n"
      "                      stage tag (':restore'/':arm'/':step'/':classify')\n"
      "                      picks the processing stage that throws\n"
      "\n"
      "SIGINT/SIGTERM during a campaign stop it gracefully: in-flight sites\n"
      "finish, the journal is flushed, and the partial result is printed with\n"
      "a TRUNCATED banner. Re-run with --journal=DIR --resume to finish.\n"
      "\n"
      "exit codes: 0 success, 1 runtime failure or truncated campaign,\n"
      "2 usage/configuration error\n");
  return 0;
}

isa::Program load_workload(const std::string& name, unsigned iters) {
  return workloads::build(name, {.iterations = iters, .data_seed = 1});
}

int cmd_list() {
  fault::TextTable t({"name", "class", "description"});
  for (const auto& w : workloads::registry()) {
    t.add_row({w.name,
               w.excerpt ? "excerpt" : (w.synthetic ? "synthetic" : "automotive"),
               w.description});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}

int cmd_run(const std::string& name, unsigned iters) {
  Memory mem;
  iss::Emulator emu(mem);
  iss::TimingModel timing;
  emu.set_timing(&timing);
  emu.load(load_workload(name, iters));
  const auto halt = emu.run();
  const auto s = timing.stats();
  std::printf("halt=%s instructions=%llu cycles=%llu cpi=%.2f\n"
              "icache %llu/%llu hits, dcache %llu/%llu hits, "
              "off-core writes=%zu, diversity=%u\n",
              std::string(iss::halt_reason_name(halt)).c_str(),
              (unsigned long long)emu.instret(), (unsigned long long)s.cycles,
              s.cpi(), (unsigned long long)s.icache_hits,
              (unsigned long long)(s.icache_hits + s.icache_misses),
              (unsigned long long)s.dcache_hits,
              (unsigned long long)(s.dcache_hits + s.dcache_misses),
              emu.offcore().writes().size(), emu.trace().diversity());
  return halt == iss::HaltReason::kHalted ? 0 : 1;
}

int cmd_rtl(const std::string& name, unsigned iters) {
  Memory mem;
  rtlcore::Leon3Core core(mem);
  core.load(load_workload(name, iters));
  const auto halt = core.run();
  std::printf("halt=%s instructions=%llu cycles=%llu cpi=%.2f "
              "off-core writes=%zu\n",
              std::string(iss::halt_reason_name(halt)).c_str(),
              (unsigned long long)core.instret(),
              (unsigned long long)core.cycles(),
              core.instret() ? double(core.cycles()) / core.instret() : 0.0,
              core.offcore().writes().size());
  return halt == iss::HaltReason::kHalted ? 0 : 1;
}

int cmd_diversity(const std::string& name) {
  const auto r = core::analyze_diversity(load_workload(name, 2));
  fault::TextTable t({"metric", "value"});
  t.add_row({"total instructions", std::to_string(r.total_instructions)});
  t.add_row({"integer unit", std::to_string(r.iu_instructions)});
  t.add_row({"memory", std::to_string(r.memory_instructions)});
  t.add_row({"diversity", std::to_string(r.diversity)});
  std::printf("%s\nper-unit D_m:\n", t.render().c_str());
  fault::TextTable u({"unit", "D_m", "accesses"});
  for (std::size_t i = 0; i < isa::kNumFuncUnits; ++i) {
    u.add_row({std::string(isa::func_unit_name(static_cast<isa::FuncUnit>(i))),
               std::to_string(r.unit_diversity[i]),
               std::to_string(r.unit_accesses[i])});
  }
  std::printf("%s", u.render().c_str());
  return 0;
}

int cmd_disasm(const std::string& name) {
  const auto prog = load_workload(name, 1);
  for (std::size_t i = 0; i < prog.code.size(); ++i) {
    const u32 pc = prog.code_base + static_cast<u32>(4 * i);
    std::printf("%08x:  %08x  %s\n", pc, prog.code[i],
                isa::disassemble(prog.code[i], pc).c_str());
  }
  return 0;
}

/// Campaign-only flags peeled off argv before positional dispatch.
struct CampaignFlags {
  std::string journal;
  bool resume = false;
  bool mixed = false;
  bool have_deadline = false;
  u64 deadline_ms = 0;
  bool any() const {
    return !journal.empty() || resume || mixed || have_deadline;
  }
};

int cmd_campaign(const std::string& name, const std::string& unit,
                 const std::string& model, std::size_t samples,
                 unsigned threads, std::size_t instants,
                 fault::InstantWindow window, const CampaignFlags& flags) {
  fault::CampaignConfig cfg;
  cfg.unit_prefix = unit;
  cfg.samples = samples;
  cfg.instants_per_site = instants;
  cfg.instant_window = window;
  if (instants > 1) cfg.inject_time = fault::InjectTime::kUniformRandom;
  if (model == "sa0") cfg.models = {rtl::FaultModel::kStuckAt0};
  else if (model == "sa1") cfg.models = {rtl::FaultModel::kStuckAt1};
  else if (model == "open") cfg.models = {rtl::FaultModel::kOpenLine};
  else if (model == "flip") cfg.models = {rtl::FaultModel::kTransientBitFlip};
  else return usage();
  // Environment knobs first (ISSRTL_THREADS / _CKPT_STRIDE / _CKPT_MB /
  // _JOURNAL / _RESUME / _DEADLINE_MS), explicit arguments on top.
  engine::EngineOptions opts = engine::options_from_env();
  if (threads != 0) opts.threads = threads;
  if (!flags.journal.empty()) opts.journal_dir = flags.journal;
  if (flags.resume) opts.resume = true;
  if (flags.mixed) opts.mixed_fidelity = true;
  if (flags.have_deadline) opts.deadline_ms = flags.deadline_ms;
  if (opts.resume && opts.journal_dir.empty()) {
    std::fprintf(stderr,
                 "error: --resume requires --journal=DIR (or ISSRTL_JOURNAL)\n");
    return kExitUsage;
  }
  // Ctrl-C / SIGTERM request a graceful stop: finish in-flight sites, flush
  // the journal, print the partial result below with a TRUNCATED banner.
  engine::install_signal_stop();
  opts.stop = &engine::signal_stop_flag();
  opts.on_progress = engine::stderr_progress();
  const auto r = engine::run_rtl_campaign(load_workload(name, 1), cfg, {}, opts);
  const auto& s = r.per_model[0];
  std::printf("workload=%s unit=%s model=%s trials=%zu\n"
              "Pf=%.1f%% failures=%zu hangs=%zu latent=%zu silent=%zu "
              "errors=%zu max_latency=%llu cycles\n",
              name.c_str(), unit.empty() ? "<all>" : unit.c_str(),
              model.c_str(), s.runs, 100.0 * s.pf(), s.failures, s.hangs,
              s.latent, s.silent, s.errors, (unsigned long long)s.max_latency);
  const fault::ReplayCounters& rc = r.replay;
  std::printf("replay: ladder %llu rungs (%.1f KiB, %llu evicted), restores "
              "%llu ladder / %llu rolling / %llu cold, fast-forward %llu "
              "cycles, %llu convergence cutoffs\n",
              (unsigned long long)rc.ladder_rungs,
              rc.ladder_bytes / 1024.0,
              (unsigned long long)rc.ladder_evicted,
              (unsigned long long)rc.ladder_restores,
              (unsigned long long)rc.rolling_restores,
              (unsigned long long)rc.cold_resets,
              (unsigned long long)rc.fast_forward_cycles,
              (unsigned long long)rc.convergence_cutoffs);
  if (rc.journal_hits != 0 || rc.journal_dropped != 0 ||
      rc.sites_retried != 0 || rc.sites_engine_error != 0) {
    std::printf("durability: %llu journal hits (%llu dropped), "
                "%llu sites retried, %llu engine errors\n",
                (unsigned long long)rc.journal_hits,
                (unsigned long long)rc.journal_dropped,
                (unsigned long long)rc.sites_retried,
                (unsigned long long)rc.sites_engine_error);
  }
  if (r.truncated) {
    std::printf("TRUNCATED: %zu/%zu sites completed; re-run with "
                "--journal=DIR --resume to finish\n",
                r.completed_sites, r.total_sites);
    return kExitRuntime;
  }
  return 0;
}

int cmd_avf(const std::string& name) {
  const auto r = core::analyze_register_avf(load_workload(name, 1));
  std::printf("register-file AVF = %.3f over %llu instructions\n",
              r.regfile_avf, (unsigned long long)r.instructions);
  return 0;
}

int cmd_asm(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return kExitRuntime;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const auto prog = isa::assemble_text(ss.str(), {.name = path});
  Memory mem;
  iss::Emulator emu(mem);
  emu.load(prog);
  const auto halt = emu.run();
  std::printf("%s: %zu instructions assembled, halt=%s after %llu executed, "
              "%zu off-core writes\n",
              path.c_str(), prog.code.size(),
              std::string(iss::halt_reason_name(halt)).c_str(),
              (unsigned long long)emu.instret(),
              emu.offcore().writes().size());
  return halt == iss::HaltReason::kHalted ? 0 : 1;
}

int cmd_nodes(const std::string& unit) {
  Memory mem;
  rtlcore::Leon3Core core(mem);
  const auto ids = core.sim().nodes_in_unit(unit);
  fault::TextTable t({"node", "unit", "kind", "width"});
  for (const auto id : ids) {
    const auto& sim = core.sim();
    t.add_row({sim.name(id), sim.unit(id),
               sim.kind(id) == rtl::NodeKind::kReg ? "reg" : "wire",
               std::to_string(sim.width(id))});
  }
  std::printf("%s%zu nodes, %llu injectable bits\n", t.render().c_str(),
              ids.size(),
              (unsigned long long)core.sim().injectable_bits(unit));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") return help();
  // Peel --flags off the operand list so they may appear anywhere after the
  // command name; positional arguments keep their historical order.
  std::vector<std::string> pos;
  CampaignFlags flags;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      pos.push_back(a);
    } else if (a == "--resume") {
      flags.resume = true;
    } else if (a == "--mixed") {
      flags.mixed = true;
    } else if (a.rfind("--journal=", 0) == 0) {
      flags.journal = a.substr(std::strlen("--journal="));
      if (flags.journal.empty()) {
        std::fprintf(stderr, "error: --journal=DIR needs a directory\n");
        return kExitUsage;
      }
    } else if (a.rfind("--deadline-ms=", 0) == 0) {
      const std::string v = a.substr(std::strlen("--deadline-ms="));
      if (v.empty() ||
          v.find_first_not_of("0123456789") != std::string::npos) {
        std::fprintf(stderr,
                     "error: --deadline-ms=N needs a non-negative integer, "
                     "got '%s'\n", v.c_str());
        return kExitUsage;
      }
      flags.have_deadline = true;
      flags.deadline_ms = std::strtoull(v.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", a.c_str());
      return usage();
    }
  }
  if (flags.any() && cmd != "campaign") {
    std::fprintf(stderr,
                 "error: --journal/--resume/--deadline-ms/--mixed only apply "
                 "to the campaign command\n");
    return kExitUsage;
  }
  const auto arg = [&pos](std::size_t i) -> const std::string& {
    return pos[i];
  };
  try {
    if (cmd == "list") return cmd_list();
    if (cmd == "run" && pos.size() >= 1)
      return cmd_run(arg(0), pos.size() > 1 ? std::atoi(arg(1).c_str()) : 1);
    if (cmd == "rtl" && pos.size() >= 1)
      return cmd_rtl(arg(0), pos.size() > 1 ? std::atoi(arg(1).c_str()) : 1);
    if (cmd == "diversity" && pos.size() >= 1) return cmd_diversity(arg(0));
    if (cmd == "disasm" && pos.size() >= 1) return cmd_disasm(arg(0));
    if (cmd == "campaign" && pos.size() >= 4) {
      // Negative or garbage thread counts fall back to 0 (= all hardware).
      const int threads = pos.size() > 4 ? std::atoi(arg(4).c_str()) : 0;
      const long long samples = std::atoll(arg(3).c_str());
      const long long instants =
          pos.size() > 5 ? std::atoll(arg(5).c_str()) : 1;
      if (samples < 0) {
        // Would wrap to a ~1.8e19-site campaign via size_t.
        std::fprintf(stderr, "error: <n> must be non-negative\n");
        return kExitUsage;
      }
      if (instants < 0) {
        std::fprintf(stderr, "error: [instants] must be a positive integer\n");
        return kExitUsage;
      }
      fault::InstantWindow window = fault::InstantWindow::kLegacyHalf;
      if (pos.size() > 6) {
        const std::string& w = arg(6);
        if (w == "full") window = fault::InstantWindow::kFull;
        else if (w != "half") {
          std::fprintf(stderr, "error: [window] must be 'half' or 'full'\n");
          return kExitUsage;
        }
      }
      // 0 instants is passed through: build_fault_list rejects it loudly
      // instead of this front end silently resizing the campaign.
      return cmd_campaign(arg(0), arg(1), arg(2),
                          static_cast<std::size_t>(samples),
                          threads > 0 ? static_cast<unsigned>(threads) : 0,
                          static_cast<std::size_t>(instants), window, flags);
    }
    if (cmd == "avf" && pos.size() >= 1) return cmd_avf(arg(0));
    if (cmd == "asm" && pos.size() >= 1) return cmd_asm(arg(0));
    if (cmd == "nodes") return cmd_nodes(!pos.empty() ? arg(0) : "");
  } catch (const std::invalid_argument& e) {
    // Configuration the library rejected (bad unit prefix, zero instants,
    // malformed ISSRTL_* values): a usage error, not a runtime failure.
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitUsage;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitRuntime;
  }
  return usage();
}
