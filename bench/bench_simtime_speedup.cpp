// Simulation-time comparison (§4.2 "Simulation time") — the paper spent
// 25,478 CPU-hours on the RTL campaigns vs under 300 hours for the same
// number of ISS experiments (~85x). This bench times plain fault-free
// replays of one workload on the RTL core and on the functional ISS and
// prints the RTL/ISS replay-cost ratio, the per-experiment cost gap behind
// that figure.
//
//   ./bench_simtime_speedup     (ISSRTL_BENCH_MICRO_REPS: replays per side)
#include <chrono>
#include <cstdio>
#include <exception>

#include "bench/bench_util.hpp"
#include "iss/emulator.hpp"
#include "rtlcore/core.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace issrtl;

const isa::Program& prog() {
  static const isa::Program p =
      workloads::build("rspeed", {.iterations = 1, .data_seed = 1});
  return p;
}

/// Direct wall-clock comparison: same workload, same number of "injection
/// experiments" (here: plain replays) on each vehicle. Alternating min-of-N
/// timing: the two vehicles run interleaved within each rep and each keeps
/// its fastest rep, so slow clock drift or a neighbour holding the core for
/// a while biases neither side.
void report_speedup() {
  // Replays cost single-digit milliseconds, so a generous rep count is
  // free insurance against scheduler interference on a busy host.
  const int reps =
      static_cast<int>(bench::env_size("ISSRTL_BENCH_MICRO_REPS", 9));
  using Clock = std::chrono::steady_clock;
  const auto seconds = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  double rtl_best = 0.0, iss_best = 0.0;
  u64 rtl_cycles = 0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    {
      Memory mem;
      rtlcore::Leon3Core core(mem);
      core.load(prog());
      core.run();
      rtl_cycles = core.cycles();
    }
    const auto t1 = Clock::now();
    {
      Memory mem;
      iss::Emulator emu(mem);
      emu.load(prog());
      emu.run();
    }
    const auto t2 = Clock::now();
    if (r == 0 || seconds(t0, t1) < rtl_best) rtl_best = seconds(t0, t1);
    if (r == 0 || seconds(t1, t2) < iss_best) iss_best = seconds(t1, t2);
  }
  const double rtl_ns_per_cycle =
      rtl_cycles > 0 ? 1e9 * rtl_best / static_cast<double>(rtl_cycles) : 0.0;
  std::printf("--- campaign-cost comparison (rspeed, best of %d replays "
              "each) ---\n",
              reps);
  std::printf("RTL:  %.3f s (%.1f ns/cycle)   ISS: %.3f s   ratio: %.0fx\n",
              rtl_best, rtl_ns_per_cycle, iss_best,
              iss_best > 0 ? rtl_best / iss_best : 0.0);
  std::printf("paper: 25,478 CPU-hours (RTL, clusters) vs <300 h (ISS, one "
              "workstation) => ~85x\n");
}

}  // namespace

int main() try {
  report_speedup();
  return 0;
} catch (const std::exception& e) {
  // Report a failed workload build instead of std::terminate.
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
