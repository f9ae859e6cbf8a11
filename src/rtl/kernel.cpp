#include "rtl/kernel.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace issrtl::rtl {

std::string_view fault_model_name(FaultModel m) {
  switch (m) {
    case FaultModel::kStuckAt0: return "stuck-at-0";
    case FaultModel::kStuckAt1: return "stuck-at-1";
    case FaultModel::kOpenLine: return "open-line";
    case FaultModel::kTransientBitFlip: return "transient-bitflip";
    case FaultModel::kBridge: return "bridge";
  }
  return "?";
}

bool can_activate(FaultModel model, u8 bit, u32 at_arm,
                  BitsSeen after) noexcept {
  const bool armed_one = ((at_arm >> bit) & 1u) != 0;
  const bool later_one = ((after.ones >> bit) & 1u) != 0;
  const bool later_zero = ((after.zeros >> bit) & 1u) != 0;
  switch (model) {
    case FaultModel::kStuckAt0: return armed_one || later_one;
    case FaultModel::kStuckAt1: return !armed_one || later_zero;
    case FaultModel::kOpenLine: return armed_one ? later_zero : later_one;
    case FaultModel::kTransientBitFlip:
    case FaultModel::kBridge: return true;
  }
  return true;
}

namespace {
bool unit_matches(const std::string& unit, const std::string& prefix) {
  return prefix.empty() ||
         (unit.size() >= prefix.size() &&
          unit.compare(0, prefix.size(), prefix) == 0 &&
          (unit.size() == prefix.size() || unit[prefix.size()] == '.'));
}
}  // namespace

Sig SimContext::make(const std::string& name, const std::string& unit,
                     u8 width, NodeKind kind) {
  const NodeId id = static_cast<NodeId>(meta_.size());
  const auto [uit, uinserted] =
      unit_index_.try_emplace(unit, static_cast<u32>(units_.size()));
  if (uinserted) units_.push_back(unit);
  meta_.push_back(NodeMeta{name, uit->second, width, kind});
  cur_.push_back(0);
  nxt_.push_back(0);
  mask_.push_back(static_cast<u32>(low_mask64(width)));
  if (kind == NodeKind::kReg && !sparse_pending_) {
    if (!commit_spans_.empty() && commit_spans_.back().second == id) {
      commit_spans_.back().second = id + 1;  // extend the adjacent span
    } else {
      commit_spans_.emplace_back(id, id + 1);
    }
  }
  sparse_pending_ = false;
  return Sig(this, id);
}

u32 SimContext::raw_value(NodeId id) const {
  check_id(id);
  return id == armed_.id ? armed_.shadow : cur_[id];
}

u64 SimContext::injectable_bits(const std::string& unit_prefix) const {
  u64 bits = 0;
  for (const NodeMeta& m : meta_) {
    if (unit_matches(units_[m.unit], unit_prefix)) bits += m.width;
  }
  return bits;
}

std::vector<NodeId> SimContext::nodes_in_unit(
    const std::string& unit_prefix) const {
  std::vector<NodeId> ids;
  for (NodeId i = 0; i < meta_.size(); ++i) {
    if (unit_matches(units_[meta_[i].unit], unit_prefix)) ids.push_back(i);
  }
  return ids;
}

std::optional<NodeId> SimContext::find_node(const std::string& name) const {
  for (NodeId i = 0; i < meta_.size(); ++i) {
    if (meta_[i].name == name) return i;
  }
  return std::nullopt;
}

void SimContext::write_armed(u32 masked) noexcept {
  nxt_[armed_.id] = masked;
  armed_.shadow = masked;
  cur_[armed_.id] = (masked & ~(1u << armed_.bit)) | armed_.forced;
}

void SimContext::write_hooked(NodeId id, u32 masked) noexcept {
  if (id == armed_.id) {
    write_armed(masked);
  } else {
    cur_[id] = masked;
    nxt_[id] = masked;
  }
  if (!watch_slot_.empty() && watch_slot_[id] != kUnwatched) {
    observe(watch_slot_[id], id, masked);
  }
}

void SimContext::commit_hooked() noexcept {
  if (armed_.id != kNoNode) reapply_overlay();
  if (watch_slot_.empty()) return;
  // After the copy a register's next value is the raw value it now holds.
  for (const NodeId id : watch_span_regs_) {
    observe(watch_slot_[id], id, nxt_[id]);
  }
}

void SimContext::update_hook_window() noexcept {
  NodeId lo = armed_.id;
  NodeId hi = armed_.id;
  if (!watch_seen_.empty()) {
    lo = std::min(lo, watch_lo_);
    hi = armed_.id == kNoNode ? watch_hi_ : std::max(hi, watch_hi_);
  }
  hook_lo_ = lo == kNoNode ? 0 : lo;
  hook_span_ = lo == kNoNode ? 0 : hi - lo + 1;
}

void SimContext::watch(std::span<const NodeId> ids) {
  const auto in_commit_span = [this](NodeId id) {
    const auto it = std::ranges::upper_bound(
        commit_spans_, id, {}, [](const auto& span) { return span.first; });
    return it != commit_spans_.begin() && id < std::prev(it)->second;
  };
  for (const NodeId id : ids) {
    if (kind(id) == NodeKind::kReg && !in_commit_span(id)) {
      throw std::invalid_argument("watch: " + name(id) +
                                  " is a sparse-commit register");
    }
  }
  unwatch();
  if (ids.empty()) return;
  watch_slot_.assign(meta_.size(), kUnwatched);
  watch_lo_ = kNoNode;
  watch_hi_ = 0;
  for (const NodeId id : ids) {
    if (watch_slot_[id] != kUnwatched) continue;  // duplicate
    watch_slot_[id] = static_cast<u32>(watch_seen_.size());
    watch_seen_.emplace_back();
    if (kind(id) == NodeKind::kReg) watch_span_regs_.push_back(id);
    watch_lo_ = std::min(watch_lo_, id);
    watch_hi_ = std::max(watch_hi_, id);
  }
  update_hook_window();
}

void SimContext::unwatch() noexcept {
  watch_slot_ = {};
  watch_seen_ = {};
  watch_span_regs_ = {};
  update_hook_window();
}

BitsSeen SimContext::take_seen(NodeId id) {
  check_id(id);
  if (watch_slot_.empty() || watch_slot_[id] == kUnwatched) {
    throw std::out_of_range("take_seen: node " + name(id) + " is not watched");
  }
  BitsSeen& seen = watch_seen_[watch_slot_[id]];
  const BitsSeen out = seen;
  seen = BitsSeen{};
  return out;
}

void SimContext::reapply_overlay() noexcept {
  // The next-value array holds every node's *raw* value at each bulk-
  // operation boundary (commit copies it into cur for registers; wires keep
  // nxt == raw by the write-through discipline; the zero/load bulk ops fill
  // both arrays). The current-value slot of an armed wire still carries the
  // overlay at this point and must not leak into the shadow.
  write_armed(nxt_[armed_.id]);
}

void SimContext::arm_fault(NodeId id, FaultModel model, u8 bit) {
  if (bit >= width(id)) {
    throw std::out_of_range("arm_fault: bit out of range");
  }
  if (model == FaultModel::kBridge) {
    throw std::invalid_argument("arm_fault: the bridge model cannot be armed");
  }
  if (armed_.id != kNoNode) {
    throw std::logic_error("arm_fault: a fault is already armed on " +
                           name(armed_.id));
  }
  const u32 mask = 1u << bit;
  if (model == FaultModel::kTransientBitFlip) {
    // One-shot: disturb the stored value (and the pending next value for
    // registers, as a particle strike would hit the flop master+slave).
    cur_[id] ^= mask;
    nxt_[id] ^= mask;
    return;
  }
  const u32 raw = cur_[id];  // nothing armed: the node holds its raw value
  const u32 forced = model == FaultModel::kStuckAt1   ? mask
                     : model == FaultModel::kOpenLine ? raw & mask
                                                      : 0;
  armed_ = ArmedFault{id, bit, raw, forced};
  cur_[id] = (raw & ~mask) | forced;
  update_hook_window();
}

void SimContext::clear_faults() {
  if (armed_.id == kNoNode) return;
  cur_[armed_.id] = armed_.shadow;  // restore the raw value
  armed_ = ArmedFault{};
  update_hook_window();
}

void SimContext::zero_all() noexcept {
  if (!cur_.empty()) {
    std::memset(cur_.data(), 0, cur_.size() * sizeof(u32));
    std::memset(nxt_.data(), 0, nxt_.size() * sizeof(u32));
  }
  if (armed_.id != kNoNode) reapply_overlay();
}

void SimContext::load_values(const std::vector<u32>& values) {
  if (values.size() != meta_.size()) {
    throw std::invalid_argument(
        "load_values: checkpoint taken on a different registry");
  }
  if (!cur_.empty()) {
    std::memcpy(cur_.data(), values.data(), cur_.size() * sizeof(u32));
    std::memcpy(nxt_.data(), values.data(), nxt_.size() * sizeof(u32));
  }
  if (armed_.id != kNoNode) reapply_overlay();
}

}  // namespace issrtl::rtl
