#include "rtl/kernel.hpp"

#include <bit>
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

namespace {
bool unit_matches(const std::string& unit, const std::string& prefix) {
  return prefix.empty() ||
         (unit.size() >= prefix.size() &&
          unit.compare(0, prefix.size(), prefix) == 0 &&
          (unit.size() == prefix.size() || unit[prefix.size()] == '.'));
}
}  // namespace

u32 FaultOverlay::apply(u32 raw, u32 bridge_raw) const noexcept {
  switch (model) {
    case FaultModel::kStuckAt0: return raw & ~mask;
    case FaultModel::kStuckAt1: return raw | mask;
    case FaultModel::kOpenLine: return (raw & ~mask) | frozen;
    case FaultModel::kTransientBitFlip: return raw;  // applied once at arm
    case FaultModel::kBridge:
      return bridge_src == kNoNode ? raw : (raw & ~mask) | (bridge_raw & mask);
  }
  return raw;
}

Sig SimContext::make(const std::string& name, const std::string& unit,
                     u8 width, NodeKind kind) {
  const NodeId id = static_cast<NodeId>(meta_.size());
  const auto [uit, uinserted] =
      unit_index_.try_emplace(unit, static_cast<u32>(units_.size()));
  if (uinserted) units_.push_back(unit);
  meta_.push_back(NodeMeta{name, uit->second, width, kind});
  by_name_.try_emplace(name, id);  // first registration wins on duplicates
  cur_.push_back(0);
  nxt_.push_back(0);
  mask_.push_back(static_cast<u32>(low_mask64(width)));
  flags_.push_back(0);
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
  if (flags_[id] & kFlagOverlay) {
    for (const ArmedFault& f : armed_) {
      if (f.id == id) return f.shadow;
    }
  }
  return cur_[id];
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
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

u32 SimContext::apply_overlay(const ArmedFault& f) const noexcept {
  const u32 bridge_raw = f.overlay.bridge_src == kNoNode
                             ? 0
                             : raw_value(f.overlay.bridge_src);
  return f.overlay.apply(f.shadow, bridge_raw);
}

void SimContext::write_slow(NodeId id, u32 masked) noexcept {
  nxt_[id] = masked;
  if (flags_[id] & kFlagOverlay) {
    for (ArmedFault& f : armed_) {
      if (f.id == id) {
        f.shadow = masked;
        cur_[id] = apply_overlay(f);
        break;
      }
    }
  } else {
    cur_[id] = masked;
  }
  if (flags_[id] & kFlagBridgeSrc) refresh_bridges_from(id);
}

void SimContext::refresh_bridges_from(NodeId aggressor) noexcept {
  for (const ArmedFault& f : armed_) {
    if (f.overlay.bridge_src == aggressor) {
      cur_[f.id] = apply_overlay(f);
    }
  }
}

void SimContext::reapply_overlays() noexcept {
  // Two passes: capture all shadows first, then patch — bridge overlays
  // then read consistent aggressor raw values via raw_value(). Shadows are
  // read from the next-value array, which holds every node's *raw* value
  // at each bulk-operation boundary (commit copies it into cur for
  // registers; wires keep nxt == raw by the write-through discipline; the
  // zero/load bulk ops fill both arrays) — the current-value slot of an
  // armed wire still carries the overlay at this point and must not leak
  // into its shadow.
  for (ArmedFault& f : armed_) f.shadow = nxt_[f.id];
  for (const ArmedFault& f : armed_) {
    cur_[f.id] = apply_overlay(f);
  }
}

void SimContext::arm_fault(NodeId id, FaultModel model, u8 bit) {
  if (bit >= width(id)) {
    throw std::out_of_range("arm_fault: bit out of range");
  }
  arm_fault_mask(id, model, 1u << bit);
}

void SimContext::arm_fault_mask(NodeId id, FaultModel model, u32 mask) {
  check_id(id);
  if (model == FaultModel::kBridge) {
    throw std::invalid_argument("arm_fault_mask: use arm_bridge for bridges");
  }
  if (mask == 0 || (mask & ~mask_[id]) != 0) {
    throw std::out_of_range("arm_fault_mask: mask outside node width");
  }
  if (flags_[id] & kFlagOverlay) {
    throw std::logic_error("arm_fault: node already has a fault: " + name(id));
  }
  if (model == FaultModel::kTransientBitFlip) {
    // One-shot: disturb the stored value (and the pending next value for
    // registers, as a particle strike would hit the flop master+slave).
    cur_[id] ^= mask;
    nxt_[id] ^= mask;
    if (flags_[id] & kFlagBridgeSrc) refresh_bridges_from(id);
    return;
  }
  ArmedFault f;
  f.id = id;
  f.shadow = cur_[id];  // unfaulted until now: the node holds the raw value
  f.overlay.model = model;
  f.overlay.bit = static_cast<u8>(std::countr_zero(mask));
  f.overlay.mask = mask;
  f.overlay.frozen = f.shadow & mask;
  flags_[id] |= kFlagOverlay;
  cur_[id] = apply_overlay(f);
  armed_.push_back(f);
}

void SimContext::arm_bridge(NodeId victim, NodeId aggressor, u32 mask) {
  check_id(victim);
  check_id(aggressor);
  if (victim == aggressor) {
    throw std::invalid_argument("arm_bridge: victim == aggressor");
  }
  if (mask == 0 || (mask & ~mask_[victim]) != 0) {
    throw std::out_of_range("arm_bridge: mask outside victim width");
  }
  if (flags_[victim] & kFlagOverlay) {
    throw std::logic_error("arm_bridge: node already has a fault: " +
                           name(victim));
  }
  ArmedFault f;
  f.id = victim;
  f.shadow = cur_[victim];
  f.overlay.model = FaultModel::kBridge;
  f.overlay.bit = static_cast<u8>(std::countr_zero(mask));
  f.overlay.mask = mask;
  f.overlay.bridge_src = aggressor;
  flags_[victim] |= kFlagOverlay;
  flags_[aggressor] |= kFlagBridgeSrc;
  armed_.push_back(f);
  cur_[victim] = apply_overlay(armed_.back());
}

void SimContext::clear_faults() {
  for (const ArmedFault& f : armed_) {
    cur_[f.id] = f.shadow;  // restore the raw value
    flags_[f.id] &= static_cast<u8>(~kFlagOverlay);
    if (f.overlay.bridge_src != kNoNode) {
      flags_[f.overlay.bridge_src] &=
          static_cast<u8>(~kFlagBridgeSrc);
    }
  }
  armed_.clear();
}

void SimContext::zero_all() noexcept {
  if (!cur_.empty()) {
    std::memset(cur_.data(), 0, cur_.size() * sizeof(u32));
    std::memset(nxt_.data(), 0, nxt_.size() * sizeof(u32));
  }
  if (!armed_.empty()) reapply_overlays();
}

std::vector<u32> SimContext::save_values() const {
  std::vector<u32> values;
  save_values_into(values);
  return values;
}

void SimContext::save_values_into(std::vector<u32>& out) const {
  out.resize(cur_.size());
  if (!cur_.empty()) {
    std::memcpy(out.data(), cur_.data(), cur_.size() * sizeof(u32));
  }
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
  if (!armed_.empty()) reapply_overlays();
}

}  // namespace issrtl::rtl
