// The activation pass behind both backends' pre-screens, written once over
// what a backend watches: one replay of the golden run that records, per
// watched location (an RTL node, an ISS physical register) and bit, the
// last epoch in which the run showed it 1 and 0, where each distinct site
// instant opens an epoch that runs to the next one (the last runs to the
// golden halt). A site's activation question is then rtl::can_activate
// over the values seen in its own epoch or later, exact per site instant.
//
// What a backend records for a location decides what a proof covers:
//
// * Write-keyed (RTL nodes other than register-file entries and cache
//   arrays: every raw value the node takes, rtl::SimContext::watch). If
//   the overlay never differs from the raw value, every consumer reads
//   golden values and the faulty run equals the golden run cycle for
//   cycle.
// * Read-keyed (RTL register-file entries and cache tag, valid and data
//   arrays through the rtl::ReadProbe their read ports record into, ISS
//   physical registers through each instruction's source operands: every
//   value a read returns). In a single-fault run the faulted entry reaches
//   other state only through its read ports: RegFile::read_phys for the
//   register file; Cache::hit (valid, then the tag of a valid line),
//   read_word and the read half of a sub-word store for a cache. If every
//   read from the arm instant onward returns the golden value, the core
//   takes the same path, so it issues the same reads, and every other node
//   evolves as in the golden run. So does the entry's raw value: the
//   kernel keeps it in a shadow and patches the fault in as an overlay on
//   every write. The RTL end-state compare reads raw register values
//   (RegFile::peek_phys) and never a cache array, so the run is silent,
//   latency 0, with the golden halt. The ISS end state keeps the forced
//   bit, so its proof splits into silent and latent by the golden final
//   bit. The arm itself shows nothing (read_keyed_arm_value). Reads by
//   instructions the pipeline later squashes only add values, so they
//   make a proof more conservative, never wrong. Read-keyed proofs cover
//   at least the sites write-keyed ones do: every value a read returns
//   after the arm is the arm-time value or a later raw value.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <numeric>
#include <vector>

#include "common/types.hpp"
#include "rtl/fault.hpp"

namespace issrtl::engine {

/// One permanent fault site as the pass sees it: bit `bit` of watched
/// location `slot` (numbered densely from 0), under `model`, armed at
/// `instant`.
struct ActivationSite {
  std::size_t slot = 0;
  u8 bit = 0;
  rtl::FaultModel model = rtl::FaultModel::kStuckAt0;
  u64 instant = 0;
};

/// The pass's answer for one site.
struct Activation {
  bool never = false;    ///< rtl::can_activate proves it never activated
  bool arm_bit = false;  ///< the site's bit in the arm-time value
};

/// The arm-time value of a read-keyed site: the arm itself shows nothing
/// to a reader, so a stuck-at presents its forced bit and an open line the
/// bit of `raw` (the location's value at the instant) it freezes.
inline u32 read_keyed_arm_value(const ActivationSite& site, u32 raw) {
  switch (site.model) {
    case rtl::FaultModel::kStuckAt0: return 0;
    case rtl::FaultModel::kStuckAt1: return 1u << site.bit;
    default: return raw;
  }
}

/// Run the pass over `sites` on a golden replay that stands at the
/// earliest site instant, recording:
///   replay_to(u64 instant)   advance the replay to `instant` (or its halt);
///   take(std::size_t slot)   rtl::BitsSeen of the slot since the previous
///                            take, forgetting them;
///   arm_value(const ActivationSite&)  the value rtl::can_activate takes as
///                            the arm-time value, read at the site instant.
/// `end` is the golden halt instant. Memory: slots x 64 words plus O(sites),
/// whatever the number of epochs. Returns one Activation per site.
template <class ReplayTo, class Take, class ArmValue>
std::vector<Activation> screen_activation(
    const std::vector<ActivationSite>& sites, std::size_t slots, u64 end,
    ReplayTo&& replay_to, Take&& take, ArmValue&& arm_value) {
  std::vector<Activation> out(sites.size());
  if (sites.empty()) return out;
  std::vector<std::size_t> order(sites.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::ranges::stable_sort(order, {}, [&sites](std::size_t i) {
    return sites[i].instant;
  });

  // Per slot and bit: 1 + the last epoch in which the bit was seen 1
  // (ones) or 0 (zeros); 0 = never.
  struct LastSeen {
    std::array<u32, 32> ones{};
    std::array<u32, 32> zeros{};
  };
  std::vector<LastSeen> last(slots);
  const auto close_epoch = [&](u32 epoch) {
    for (std::size_t s = 0; s < slots; ++s) {
      const rtl::BitsSeen seen = take(s);
      for (u32 m = seen.ones; m != 0; m &= m - 1) {
        last[s].ones[std::countr_zero(m)] = epoch + 1;
      }
      for (u32 m = seen.zeros; m != 0; m &= m - 1) {
        last[s].zeros[std::countr_zero(m)] = epoch + 1;
      }
    }
  };

  std::vector<u32> at_arm(sites.size());  // indexed like `sites`
  std::vector<u32> epoch_of(sites.size());
  u32 epochs = 0;
  for (std::size_t k = 0; k < order.size();) {
    const u64 instant = sites[order[k]].instant;
    replay_to(instant);
    if (epochs > 0) close_epoch(epochs - 1);
    for (; k < order.size() && sites[order[k]].instant == instant; ++k) {
      at_arm[order[k]] = arm_value(sites[order[k]]);
      epoch_of[order[k]] = epochs;
    }
    ++epochs;
  }
  replay_to(end);
  close_epoch(epochs - 1);

  for (std::size_t i = 0; i < sites.size(); ++i) {
    const ActivationSite& site = sites[i];
    const LastSeen& seen = last[site.slot];
    const u32 bit = 1u << site.bit;
    const rtl::BitsSeen after{seen.ones[site.bit] > epoch_of[i] ? bit : 0u,
                              seen.zeros[site.bit] > epoch_of[i] ? bit : 0u};
    out[i].never = !rtl::can_activate(site.model, site.bit, at_arm[i], after);
    out[i].arm_bit = (at_arm[i] & bit) != 0;
  }
  return out;
}

}  // namespace issrtl::engine
