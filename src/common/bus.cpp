#include "common/bus.hpp"

#include <sstream>

namespace issrtl {

std::string to_string(const BusRecord& r) {
  std::ostringstream os;
  os << "W @" << std::hex << r.addr
     << " sz" << std::dec << static_cast<int>(r.size) << " =" << std::hex
     << r.data << " (cycle " << std::dec << r.cycle << ")";
  return os.str();
}

TraceDivergence OffCoreTrace::compare_writes(const OffCoreTrace& golden) const {
  const auto& mine = writes_;
  const auto& ref = golden.writes_;
  const std::size_t n = std::min(mine.size(), ref.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!mine[i].same_payload(ref[i])) {
      return {true, i, mine[i].cycle,
              "write mismatch at index " + std::to_string(i) + ": got " +
                  to_string(mine[i]) + ", expected " + to_string(ref[i])};
    }
  }
  if (mine.size() != ref.size()) {
    const u64 cyc = mine.size() > ref.size() ? mine[n].cycle
                    : (mine.empty() ? 0 : mine.back().cycle);
    return {true, n, cyc,
            mine.size() > ref.size()
                ? "extra write(s): got " + std::to_string(mine.size()) +
                      ", expected " + std::to_string(ref.size())
                : "missing write(s): got " + std::to_string(mine.size()) +
                      ", expected " + std::to_string(ref.size())};
  }
  return {};
}

}  // namespace issrtl
