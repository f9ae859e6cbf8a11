// Fault models applicable to RTL nodes, following the paper's fault load:
// "single hardware faults of permanent type, targeted to VHDL signals, ports
// and variables which appear at a fixed injection instant and cause either
// stuck-at-1, stuck-at-0 or an open line" (§4.1), plus a transient bit-flip
// extension (the paper's future work). Every fault is one bit of one node,
// and a SimContext holds at most one armed fault.
#pragma once

#include <string_view>

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

}  // namespace issrtl::rtl
