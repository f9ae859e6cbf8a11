// issrtl_cli — command-line front end to the library.
//
//   issrtl_cli list                          workloads in the registry
//   issrtl_cli run <workload> [iters]       run on the ISS (+ timing stats)
//   issrtl_cli rtl <workload> [iters]       run on the RTL core
//   issrtl_cli diversity <workload>          Table-1-style characterisation
//   issrtl_cli disasm <workload>             disassemble a workload image
//   issrtl_cli campaign <workload> <unit> <models> <samples> [threads]
//                       [instants]           RTL fault-injection campaign on
//                                            the parallel engine (threads=0
//                                            uses all hardware threads;
//                                            results identical at any count):
//                                            Pf per model, per-unit P_mf and
//                                            the Eq. 1 check
//   issrtl_cli avf <workload>                register-file AVF
//   issrtl_cli asm <file.s>                  assemble + run a text program
//   issrtl_cli nodes [unit]                  list injectable RTL nodes
#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/area.hpp"
#include "core/avf.hpp"
#include "core/diversity.hpp"
#include "core/predict.hpp"
#include "engine/rtl_backend.hpp"
#include "fault/campaign.hpp"
#include "fault/report.hpp"
#include "isa/asm_parser.hpp"
#include "isa/disasm.hpp"
#include "iss/emulator.hpp"
#include "iss/timing.hpp"
#include "rtl/vcd.hpp"
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
      "  disasm <wl> | campaign <wl> <iu|cmem|''> <sa0|sa1|open|flip>[,...] "
      "<n> [threads]\n"
      "      [instants] [--journal=DIR] [--resume] [--deadline-ms=N]\n"
      "      [--vcd=PATH]\n"
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
      "  campaign <wl> <unit> <models> <n> [threads] [instants]\n"
      "           [--journal=DIR] [--resume] [--deadline-ms=N] [--vcd=PATH]\n"
      "                            RTL fault-injection campaign on the\n"
      "                            parallel engine: Pf per model, the\n"
      "                            replay counters, per-functional-unit\n"
      "                            P_mf with the alpha_m area weights and\n"
      "                            the Eq. 1 check\n"
      "      <unit>      node-unit prefix: iu, cmem, a subunit like iu.fe,\n"
      "                  or '' for the whole design\n"
      "      <models>    comma list of sa0 | sa1 | open | flip, e.g.\n"
      "                  sa1,sa0,open; sites are drawn model by model in\n"
      "                  the listed order\n"
      "      <n>         sampled injection trials per model (0 =\n"
      "                  exhaustive)\n"
      "      [threads]   worker threads; 0 or absent = all hardware\n"
      "                  threads (results identical at any count)\n"
      "      [instants]  injection instants per sampled (node, bit);\n"
      "                  default 1 (at ~1%% of the golden run); >1 draws\n"
      "                  each instant uniformly over the whole golden run\n"
      "      --vcd=PATH  write a GTKWave waveform of the first failing run\n"
      "                  (400 cycles after injection) to PATH\n"
      "  avf <wl>                  register-file AVF\n"
      "  asm <file.s>              assemble + run a text program\n"
      "  nodes [unit]              list injectable RTL nodes\n"
      "  help | --help | -h        this reference\n"
      "\n"
      "environment (campaign command):\n"
      "  ISSRTL_THREADS      worker threads when [threads] is absent\n"
      "                      (0 = all hardware threads)\n"
      "  ISSRTL_CKPT_STRIDE  initial checkpoint-ladder rung spacing in\n"
      "                      cycles (default 64; the stride doubles past\n"
      "                      1024 rungs); 0 re-simulates every prefix from\n"
      "                      reset. Results are bit-identical either way.\n"
      "  ISSRTL_JOURNAL      campaign journal directory (same as --journal);\n"
      "                      every completed site is appended to a\n"
      "                      checksummed write-ahead journal keyed by\n"
      "                      (workload, config, seed)\n"
      "  ISSRTL_RESUME       1 imports journaled sites instead of\n"
      "                      re-simulating them (same as --resume); 0 (the\n"
      "                      default) truncates the journal and starts fresh\n"
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
      "Numeric arguments and flags must be plain unsigned decimals.\n"
      "\n"
      "exit codes: 0 success, 1 runtime failure or truncated campaign,\n"
      "2 usage/configuration error (including a malformed number or a\n"
      "surplus argument)\n");
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
  std::string vcd;
  bool resume = false;
  bool have_deadline = false;
  u64 deadline_ms = 0;
  bool any() const {
    return !journal.empty() || !vcd.empty() || resume || have_deadline;
  }
};

/// Split a comma list of model names into `names` and `models`, in the
/// listed order; false on an empty, unknown or repeated entry.
bool parse_models(const std::string& list, std::vector<std::string>& names,
                  std::vector<rtl::FaultModel>& models) {
  static const std::map<std::string, rtl::FaultModel> kModels = {
      {"sa0", rtl::FaultModel::kStuckAt0},
      {"sa1", rtl::FaultModel::kStuckAt1},
      {"open", rtl::FaultModel::kOpenLine},
      {"flip", rtl::FaultModel::kTransientBitFlip}};
  std::stringstream ss(list + ",");
  for (std::string name; std::getline(ss, name, ',');) {
    const auto it = kModels.find(name);
    if (it == kModels.end() ||
        std::ranges::find(models, it->second) != models.end()) {
      return false;
    }
    names.push_back(name);
    models.push_back(it->second);
  }
  return true;
}

/// Per-functional-unit P_mf with the alpha_m area weights of the campaign's
/// unit, and their Eq. 1 sum.
void print_unit_table(const fault::CampaignResult& r) {
  std::vector<core::UnitObservation> obs;
  for (const auto& run : r.runs) {
    obs.emplace_back(run.unit, run.outcome == fault::Outcome::kFailure ||
                                   run.outcome == fault::Outcome::kHang);
  }
  const core::UnitPf upf = core::UnitPf::from_observations(obs);
  Memory probe_mem;
  rtlcore::Leon3Core probe(probe_mem);
  const core::AreaModel area =
      core::build_area_model(probe.sim(), r.unit_prefix);

  fault::TextTable t({"functional unit m", "alpha_m", "trials", "P_mf"});
  double eq1 = 0.0;
  for (std::size_t u = 0; u < isa::kNumFuncUnits; ++u) {
    if (area.bits[u] == 0) continue;
    eq1 += area.alpha[u] * upf.pf[u];
    t.add_row({std::string(isa::func_unit_name(static_cast<isa::FuncUnit>(u))),
               fault::TextTable::num(area.alpha[u], 4),
               std::to_string(upf.runs[u]), fault::TextTable::pct(upf.pf[u])});
  }
  std::printf("\n%s\n", t.render().c_str());
  std::printf("Eq. 1 check: sum(alpha_m * P_mf) = %s (over every model "
              "above)\n",
              fault::TextTable::pct(eq1).c_str());
}

/// Waveform of the first failing run, for inspection in GTKWave.
void write_vcd(const isa::Program& prog, const fault::CampaignResult& r,
               const std::string& path) {
  for (const auto& run : r.runs) {
    if (run.outcome != fault::Outcome::kFailure) continue;
    Memory mem;
    rtlcore::Leon3Core core(mem);
    core.load(prog);
    rtl::VcdWriter vcd(path, core.sim());
    for (u64 c = 0; c < run.site.inject_cycle; ++c) core.step();
    core.sim().arm_fault(run.site.node, run.site.model, run.site.bit);
    for (int c = 0;
         c < 400 && core.halt_reason() == iss::HaltReason::kRunning; ++c) {
      core.step();
      vcd.sample(core.cycles());
    }
    std::printf("wrote %s: %s %s bit %u (first 400 cycles after "
                "injection)\n",
                path.c_str(),
                std::string(rtl::fault_model_name(run.site.model)).c_str(),
                run.node_name.c_str(), run.site.bit);
    return;
  }
  std::printf("no failing run to dump: %s not written\n", path.c_str());
}

int cmd_campaign(const std::string& name, const std::string& unit,
                 const std::string& model_list, std::size_t samples,
                 unsigned threads, std::size_t instants,
                 const CampaignFlags& flags) {
  fault::CampaignConfig cfg;
  cfg.unit_prefix = unit;
  cfg.samples = samples;
  cfg.instants_per_site = instants;
  if (instants > 1) cfg.inject_time = fault::InjectTime::kUniformRandom;
  std::vector<std::string> model_names;
  cfg.models.clear();
  if (!parse_models(model_list, model_names, cfg.models)) return usage();
  // Environment knobs first (ISSRTL_THREADS / _CKPT_STRIDE / _JOURNAL /
  // _RESUME / _DEADLINE_MS), explicit arguments on top.
  engine::EngineOptions opts = engine::options_from_env();
  if (threads != 0) opts.threads = threads;
  if (!flags.journal.empty()) opts.journal_dir = flags.journal;
  if (flags.resume) opts.resume = true;
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
  const isa::Program prog = load_workload(name, 1);
  const auto r = engine::run_rtl_campaign(prog, cfg, {}, opts);
  for (std::size_t m = 0; m < r.per_model.size(); ++m) {
    const auto& s = r.per_model[m];
    std::printf("workload=%s unit=%s model=%s trials=%zu\n"
                "Pf=%.1f%% failures=%zu hangs=%zu latent=%zu silent=%zu "
                "errors=%zu max_latency=%llu cycles\n",
                name.c_str(), unit.empty() ? "<all>" : unit.c_str(),
                model_names[m].c_str(), s.runs, 100.0 * s.pf(), s.failures,
                s.hangs, s.latent, s.silent, s.errors,
                (unsigned long long)s.max_latency);
  }
  fault::print_replay_summary(r);
  print_unit_table(r);
  if (!flags.vcd.empty()) write_vcd(prog, r, flags.vcd);
  return r.truncated ? kExitRuntime : 0;
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

int main(int argc, char** argv) try {
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
    } else if (a.rfind("--journal=", 0) == 0) {
      flags.journal = a.substr(std::strlen("--journal="));
      if (flags.journal.empty()) {
        std::fprintf(stderr, "error: --journal=DIR needs a directory\n");
        return kExitUsage;
      }
    } else if (a.rfind("--vcd=", 0) == 0) {
      flags.vcd = a.substr(std::strlen("--vcd="));
      if (flags.vcd.empty()) {
        std::fprintf(stderr, "error: --vcd=PATH needs a path\n");
        return kExitUsage;
      }
    } else if (a.rfind("--deadline-ms=", 0) == 0) {
      flags.have_deadline = true;
      flags.deadline_ms = engine::parse_u64(
          "--deadline-ms", a.substr(std::strlen("--deadline-ms=")), ~0ull);
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", a.c_str());
      return usage();
    }
  }
  if (flags.any() && cmd != "campaign") {
    std::fprintf(stderr,
                 "error: --journal/--resume/--deadline-ms/--vcd only "
                 "apply to the campaign command\n");
    return kExitUsage;
  }
  const auto arg = [&pos](std::size_t i) -> const std::string& {
    return pos[i];
  };
  // Each command takes [min, max] positionals: a missing one or a surplus
  // one is a usage error, never silently dropped.
  const auto takes = [&pos](std::size_t min, std::size_t max) {
    return pos.size() >= min && pos.size() <= max;
  };
  // Strict numeric positional: malformed input is a usage error (exit 2),
  // never a silently different campaign.
  const auto num = [&pos](std::size_t i, const char* name, u64 max_value,
                          u64 absent) {
    return pos.size() > i ? engine::parse_u64(name, pos[i], max_value)
                          : absent;
  };
  if (cmd == "list" && takes(0, 0)) return cmd_list();
  if ((cmd == "run" || cmd == "rtl") && takes(1, 2)) {
    const auto iters = static_cast<unsigned>(num(1, "[iters]", UINT_MAX, 1));
    return cmd == "run" ? cmd_run(arg(0), iters) : cmd_rtl(arg(0), iters);
  }
  if (cmd == "diversity" && takes(1, 1)) return cmd_diversity(arg(0));
  if (cmd == "disasm" && takes(1, 1)) return cmd_disasm(arg(0));
  if (cmd == "campaign" && takes(4, 6)) {
    const u64 samples = num(3, "<n>", SIZE_MAX, 0);
    // 0 threads = all hardware threads.
    const u64 threads = num(4, "[threads]", UINT_MAX, 0);
    // 0 instants is passed through: build_fault_list rejects it loudly
    // instead of this front end silently resizing the campaign.
    const u64 instants = num(5, "[instants]", SIZE_MAX, 1);
    return cmd_campaign(arg(0), arg(1), arg(2),
                        static_cast<std::size_t>(samples),
                        static_cast<unsigned>(threads),
                        static_cast<std::size_t>(instants), flags);
  }
  if (cmd == "avf" && takes(1, 1)) return cmd_avf(arg(0));
  if (cmd == "asm" && takes(1, 1)) return cmd_asm(arg(0));
  if (cmd == "nodes" && takes(0, 1)) {
    return cmd_nodes(!pos.empty() ? arg(0) : "");
  }
  return usage();
} catch (const std::invalid_argument& e) {
  // Configuration rejected by the library or the numeric parser (bad unit
  // prefix, zero instants, malformed numbers or ISSRTL_* values): a usage
  // error, not a runtime failure.
  std::fprintf(stderr, "error: %s\n", e.what());
  return kExitUsage;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return kExitRuntime;
}
