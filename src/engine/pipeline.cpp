#include "engine/pipeline.hpp"

namespace issrtl::engine {

TraceDivergence compare_suffix_writes(const std::vector<BusRecord>& golden,
                                      std::size_t prefix_writes,
                                      const std::vector<BusRecord>& suffix) {
  const std::size_t prefix = prefix_writes;
  const std::size_t mine_total = prefix + suffix.size();
  const std::size_t n = std::min(mine_total, golden.size());
  for (std::size_t i = prefix; i < n; ++i) {
    if (!suffix[i - prefix].same_payload(golden[i])) {
      return {true, i, suffix[i - prefix].cycle, {}};
    }
  }
  if (mine_total != golden.size()) {
    u64 cycle = 0;
    if (mine_total > golden.size()) {
      // Extra write(s): n >= prefix because the golden run contains the
      // whole inherited prefix.
      cycle = suffix[n - prefix].cycle;
    } else if (!suffix.empty()) {
      cycle = suffix.back().cycle;
    } else if (prefix != 0) {
      cycle = golden[prefix - 1].cycle;  // last (golden) write we emitted
    }
    return {true, n, cycle, {}};
  }
  return {};
}

}  // namespace issrtl::engine
