// Minimal cycle-based RTL modelling kernel.
//
// Everything the RTL core is built from is a named, bit-addressable node
// (register or wire) registered in a SimContext. That registry is the fault-
// injection surface: campaigns enumerate nodes exactly like simulator-command
// injection enumerates "signals, ports and variables" in a VHDL model [10],
// and the per-unit bit counts provide the area fractions α_m of Eq. 1.
//
// Storage is structure-of-arrays: the hot per-node state (current value, next
// value, width mask) lives in three contiguous u32 arrays indexed by NodeId,
// while names/units/kinds/widths sit in a cold side table. That makes the
// per-cycle work a dense array problem: commit_all() is a handful of memcpys
// over the register-covering spans of the next-value array (wires hold
// cur == nxt by the write-through discipline and need no copy), and the
// checkpoint / hang-fast-forward probes (save_values / values_equal) are
// memcpy/memcmp over one 4·N-byte array.
//
// Simulation discipline: single-pass combinational evaluation per cycle in
// module-defined dataflow order, followed by a register commit (two-phase,
// like a synchronous netlist with one clock).
//
// Fault discipline: a context holds at most one armed single-bit fault, the
// paper's single-fault load. The value array always holds the value
// *consumers see*, so reads are branch-free; the armed node's true raw value
// sits in a shadow slot, and the overlay is re-applied write-through at every
// point the raw value can change (w/poke on the node, commit_all, zero_all,
// load_values). A faulted node corrupts every consumer, wire or flop.
#pragma once

#include <cstring>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "rtl/fault.hpp"

namespace issrtl::rtl {

enum class NodeKind : u8 { kWire, kReg };

class SimContext;

/// Lightweight handle to a single W<=32-bit node: a (context, NodeId) pair.
/// Copyable and 16 bytes; modules store handles by value. All accessors
/// index the SimContext's packed value arrays — the unfaulted read path is
/// a single array load with no branches.
class Sig {
 public:
  Sig() = default;

  /// Read the node value as consumers see it (fault overlay pre-applied).
  u32 r() const noexcept;

  /// Read as boolean (for 1-bit control signals).
  bool rb() const noexcept { return r() != 0; }

  /// Drive a wire combinationally (visible to readers immediately).
  void w(u32 v) noexcept;

  /// Schedule a register's next value (visible after commit_all()).
  void n(u32 v) noexcept;

  /// Schedule a sparse-commit register's next value (SimContext::reg_sparse
  /// nodes): like n(), plus records the node on the dirty list so the clock
  /// edge commits it outside the span copies.
  void ns(u32 v) noexcept;

  /// Raw (un-faulted) value — used by state inspection only.
  u32 raw() const noexcept;

  /// Backdoor initialisation, bypassing the clock (sets cur and nxt).
  void poke(u32 v) noexcept;

  NodeId id() const noexcept { return id_; }

 private:
  friend class SimContext;
  Sig(SimContext* ctx, NodeId id) noexcept : ctx_(ctx), id_(id) {}

  SimContext* ctx_ = nullptr;
  NodeId id_ = 0;
};

/// Registry of all nodes plus the armed-fault bookkeeping.
class SimContext {
 public:
  SimContext() = default;
  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;
  SimContext(SimContext&&) = delete;
  SimContext& operator=(SimContext&&) = delete;

  /// Create a node. `unit` is a hierarchical tag like "iu.alu" or
  /// "cmem.dcache"; the top-level component (before the dot) groups nodes
  /// for the IU/CMEM campaigns and for α_m computation.
  Sig make(const std::string& name, const std::string& unit, u8 width,
           NodeKind kind);

  Sig wire(const std::string& name, const std::string& unit, u8 width = 32) {
    return make(name, unit, width, NodeKind::kWire);
  }
  Sig reg(const std::string& name, const std::string& unit, u8 width = 32) {
    return make(name, unit, width, NodeKind::kReg);
  }

  /// A register committed through the per-cycle dirty list instead of the
  /// span copy: writers must use Sig::ns() (next-sparse) so the pending
  /// node is recorded. The right choice for large, rarely written arrays —
  /// the register file's 136 entries see at most two writes per cycle, and
  /// copying the whole span every clock edge was the single largest share
  /// of commit_all(). Reads, faults, checkpoints and probes behave exactly
  /// like reg() nodes.
  Sig reg_sparse(const std::string& name, const std::string& unit,
                 u8 width = 32) {
    sparse_pending_ = true;
    return make(name, unit, width, NodeKind::kReg);
  }

  std::size_t node_count() const noexcept { return meta_.size(); }

  /// Handle to an existing node; throws std::out_of_range on a bad id.
  Sig node(NodeId id) {
    check_id(id);
    return Sig(this, id);
  }

  // ---- cold metadata (side table, never touched by the simulation loop) ----
  const std::string& name(NodeId id) const { return meta_.at(id).name; }
  const std::string& unit(NodeId id) const {
    return units_[meta_.at(id).unit];
  }
  u8 width(NodeId id) const { return meta_.at(id).width; }
  NodeKind kind(NodeId id) const { return meta_.at(id).kind; }

  /// Node value as consumers see it / raw (unfaulted) node value.
  u32 value(NodeId id) const { return cur_.at(id); }
  u32 raw_value(NodeId id) const;

  /// Unchecked read by NodeId — lets a module with a dense node array (e.g.
  /// the cache tag/data nodes, which are registered consecutively) index
  /// by base id plus offset without per-access handle loads.
  u32 value_at(NodeId id) const noexcept { return cur_[id]; }

  /// Total injectable bits in nodes whose unit starts with `unit_prefix`
  /// (empty prefix = whole design). This is the paper's "number of fault
  /// injection points".
  u64 injectable_bits(const std::string& unit_prefix = "") const;

  /// All node ids under a unit prefix.
  std::vector<NodeId> nodes_in_unit(const std::string& unit_prefix) const;

  /// Locate a node by exact name — O(1) via the name index built at
  /// registration time. Duplicate names (legal across units, e.g. the two
  /// caches' line arrays) resolve to the first-registered node, matching
  /// the linear scan this replaced.
  std::optional<NodeId> find_node(const std::string& name) const;

  /// Arm a single-bit fault on (node, bit). Stuck-at forces the bit;
  /// open-line holds the value the bit has now; a transient flips it once
  /// (cur and nxt are disturbed and no overlay stays armed, which is what
  /// makes the engine's golden-state convergence cut-off sound for
  /// transients).
  ///
  /// One armed fault per context: arming while a fault is armed throws
  /// std::logic_error (clear_faults() first, as GoldenReplay::position
  /// does before every site). Throws std::out_of_range for a bit outside
  /// the node's width and std::invalid_argument for FaultModel::kBridge.
  void arm_fault(NodeId id, FaultModel model, u8 bit);

  /// Remove the armed fault, if any (between campaign runs).
  void clear_faults();

  /// Commit every register (clock edge). Wires always satisfy cur == nxt —
  /// w()/poke() write through both arrays, and n() is meaningful only for
  /// registers — so the commit copies just the register-covering NodeId
  /// spans (registers cluster by construction order, so this is a handful
  /// of memcpys over a fraction of the array instead of one full-array
  /// copy), then the sparse registers on the dirty list. An armed overlay
  /// is re-applied afterwards (the copy exposes raw next values).
  void commit_all() noexcept {
    for (const auto& [begin, end] : commit_spans_) {
      std::memcpy(cur_.data() + begin, nxt_.data() + begin,
                  (end - begin) * sizeof(u32));
    }
    if (!sparse_dirty_.empty()) {
      for (const NodeId id : sparse_dirty_) cur_[id] = nxt_[id];
      sparse_dirty_.clear();
    }
    if (armed_.id != kNoNode) reapply_overlay();
  }

  /// Reset all node values to zero (does not clear faults).
  void zero_all() noexcept;

  /// Schedule zero into `count` registers starting at `begin`: nxt[begin+i]
  /// = 0 — equivalent to count n(0) calls (zero is within every width
  /// mask), as one memset. Bounds-checked.
  void zero_next_range(NodeId begin, std::size_t count) {
    if (count == 0) return;
    check_id(static_cast<NodeId>(begin + count - 1));
    std::memset(nxt_.data() + begin, 0, count * sizeof(u32));
  }

  /// Values of every node in registry order — the node half of a core
  /// checkpoint. Meaningful only at a cycle boundary (after commit_all),
  /// where registers satisfy cur == nxt. With no fault armed (the
  /// checkpoint contract) these are raw values; with a fault armed the
  /// armed node's entry is its as-read value, which is exactly what
  /// the per-cycle fixed-point probe wants to compare.
  std::vector<u32> save_values() const;

  /// Allocation-free variant for per-cycle probing (hang fast-forward).
  void save_values_into(std::vector<u32>& out) const;

  /// Comparison against a save_values() capture: one memcmp, no copy.
  /// A size mismatch (foreign registry) compares unequal.
  bool values_equal(const std::vector<u32>& values) const noexcept {
    return values.size() == cur_.size() &&
           (cur_.empty() ||
            std::memcmp(values.data(), cur_.data(),
                        cur_.size() * sizeof(u32)) == 0);
  }

  /// Schedule a ranged register copy: nxt[dst+i] = cur[src+i] for i in
  /// [0, count). Equivalent to count n() calls for module layouts where the
  /// two ranges pair nodes of equal width (current values are always within
  /// their width mask, so no re-masking is needed) — the pipeline-latch
  /// copy. Reads see the source's fault overlay (cur is the as-consumed
  /// value); an overlay on a destination register is re-applied at commit
  /// exactly like for n(). Bounds-checked; width pairing is the caller's
  /// contract.
  void copy_next_range(NodeId dst, NodeId src, std::size_t count) {
    if (count == 0) return;
    check_id(static_cast<NodeId>(dst + count - 1));
    check_id(static_cast<NodeId>(src + count - 1));
    for (std::size_t i = 0; i < count; ++i) nxt_[dst + i] = cur_[src + i];
  }

  /// Restore node values captured by save_values() on an identical registry
  /// (same module construction order). Does not touch the armed fault; callers
  /// clear_faults() first. Throws std::invalid_argument on a size mismatch.
  void load_values(const std::vector<u32>& values);

 private:
  friend class Sig;

  struct NodeMeta {
    std::string name;
    u32 unit;  ///< index into units_ (unit strings repeat heavily)
    u8 width;
    NodeKind kind;
  };

  struct ArmedFault {
    NodeId id = kNoNode;  ///< kNoNode: nothing armed
    u8 bit = 0;
    u32 shadow = 0;  ///< true raw value of the faulted node
    /// The bit's forced value, in place: 0 (stuck-at-0), 1 << bit
    /// (stuck-at-1) or the bit's value at arm time (open-line).
    u32 forced = 0;
  };

  void check_id(NodeId id) const { (void)meta_.at(id); }

  // Hot per-node write: fast path is two stores; only the armed node takes
  // the overlay slow path.
  void write(NodeId id, u32 v) noexcept {
    v &= mask_[id];
    if (id == armed_.id) [[unlikely]] {
      write_armed(v);
      return;
    }
    cur_[id] = v;
    nxt_[id] = v;
  }
  void next(NodeId id, u32 v) noexcept { nxt_[id] = v & mask_[id]; }
  void next_sparse(NodeId id, u32 v) noexcept {
    nxt_[id] = v & mask_[id];
    sparse_dirty_.push_back(id);
  }

  void write_armed(u32 masked) noexcept;
  void reapply_overlay() noexcept;

  // Hot structure-of-arrays state, indexed by NodeId.
  std::vector<u32> cur_;   ///< value consumers see (overlay pre-applied)
  std::vector<u32> nxt_;   ///< raw next value (mirrors cur_ for wires)
  std::vector<u32> mask_;  ///< low_mask64(width)
  ArmedFault armed_;       ///< read by every write(): keep it beside them

  // Cold side table + name index. Unit strings are interned: a design has
  // ~dozen distinct units across ~1k nodes, and registration cost is
  // visible in campaign setup.
  std::vector<NodeMeta> meta_;
  std::vector<std::string> units_;
  std::unordered_map<std::string, u32> unit_index_;
  std::unordered_map<std::string, NodeId> by_name_;

  // Register-covering [begin, end) NodeId spans, maintained by make():
  // the only part of the value arrays a clock edge must copy.
  std::vector<std::pair<NodeId, NodeId>> commit_spans_;

  /// Pending sparse-register commits, drained by commit_all().
  std::vector<NodeId> sparse_dirty_;
  bool sparse_pending_ = false;  ///< next make() call is a sparse register
};

inline u32 Sig::r() const noexcept { return ctx_->cur_[id_]; }
inline void Sig::w(u32 v) noexcept { ctx_->write(id_, v); }
inline void Sig::n(u32 v) noexcept { ctx_->next(id_, v); }
inline void Sig::ns(u32 v) noexcept { ctx_->next_sparse(id_, v); }
inline u32 Sig::raw() const noexcept { return ctx_->raw_value(id_); }
inline void Sig::poke(u32 v) noexcept { ctx_->write(id_, v); }

}  // namespace issrtl::rtl
