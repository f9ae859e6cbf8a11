// Fault models applicable to RTL nodes, following the paper's fault load:
// "single hardware faults of permanent type, targeted to VHDL signals, ports
// and variables which appear at a fixed injection instant and cause either
// stuck-at-1, stuck-at-0 or an open line" (§4.1), plus a transient bit-flip
// extension (the paper's future work). Every fault is one bit of one node,
// and a SimContext holds at most one armed fault.
#pragma once

#include <cstddef>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace issrtl::rtl {

/// Node handle used by campaigns: index into the SimContext registry.
using NodeId = u32;

/// Sentinel for "no node" (a SimContext with no fault armed).
inline constexpr NodeId kNoNode = 0xFFFF'FFFFu;

enum class FaultModel : u8 {
  kStuckAt0,
  kStuckAt1,
  kOpenLine,          ///< node bit keeps the value it held at injection time
  kTransientBitFlip,  ///< single bit flip at the injection instant (extension)
  /// Not a fault model of this project: SimContext::arm_fault and
  /// fault::build_fault_list reject it. The enumerator stays only because
  /// benchmark/bench_main.cpp's model-name switch names it.
  kBridge,
};

std::string_view fault_model_name(FaultModel m);

/// The values a node showed over a stretch of a run: the raw values it
/// took (SimContext::watch) or the values its read ports returned
/// (ReadProbe). `ones` ORs the values, `zeros` ORs their complements
/// within the node's width. A bit set in both toggled.
struct BitsSeen {
  u32 ones = 0;
  u32 zeros = 0;
};

/// The values a module's read ports returned from its nodes, which are
/// registered consecutively: node `first + i` records into `seen[i]`. The
/// read-keyed counterpart of SimContext::watch, for nodes that reach the
/// rest of the design only through such ports (register-file entries,
/// cache arrays).
struct ReadProbe {
  NodeId first = 0;
  std::vector<BitsSeen> seen;

  bool covers(NodeId id) const noexcept { return id - first < seen.size(); }

  /// OR the value `v` a port returned from node `id`, of width mask
  /// `mask`, into its BitsSeen.
  void record(NodeId id, u32 v, u32 mask = 0xFFFF'FFFFu) noexcept {
    BitsSeen& s = seen[id - first];
    s.ones |= v;
    s.zeros |= ~v & mask;
  }

  /// What node `id` showed since the previous take; clears it.
  BitsSeen take(NodeId id) noexcept {
    return std::exchange(seen[id - first], {});
  }
};

/// The activation proof behind the campaign pre-screen. A fault of `model`
/// on `bit`, armed while the node's raw value is `at_arm`, whose raw values
/// afterwards showed `after`, is *activated* when some consumer could read
/// a value the fault-free run does not: a stuck-at-v bit that is !v at the
/// arm or is driven to !v later, an open-line bit that ever leaves its
/// arm-time value. Returns false only when the overlay provably never
/// differs from the raw value, so the faulty run equals the fault-free run
/// cycle for cycle. A transient flips the bit at the arm itself and is
/// always activated.
bool can_activate(FaultModel model, u8 bit, u32 at_arm,
                  BitsSeen after) noexcept;

}  // namespace issrtl::rtl
