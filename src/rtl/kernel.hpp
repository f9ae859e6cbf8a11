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
// cur == nxt by the write-through discipline and need no copy), and a
// checkpoint (save_values / values_equal) is a memcpy/memcmp over one
// 4·N-byte array.
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
//
// Watch discipline: a context can also record every raw value a set of
// watched nodes takes (watch / take_seen), which is what proves a
// permanent fault never activated. The armed node and the watched nodes
// share one slow-path window of NodeIds, so an unwatched, unarmed write
// costs the same single compare whether anything is armed or watched.
// Sparse-commit registers cannot be watched: the register file, their one
// user, proves its entries on the values its read port returns instead.
#pragma once

#include <cstring>
#include <optional>
#include <span>
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
  /// of commit_all(). Reads, faults and checkpoints behave exactly like
  /// reg() nodes; watch() rejects them.
  Sig reg_sparse(const std::string& name, const std::string& unit,
                 u8 width = 32) {
    sparse_pending_ = true;
    return make(name, unit, width, NodeKind::kReg);
  }

  std::size_t node_count() const noexcept { return meta_.size(); }

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

  /// Locate a node by exact name: a linear scan of the cold side table, for
  /// examples and tests (no simulation path looks nodes up by name).
  /// Duplicate names (legal across units, e.g. the two caches' line arrays)
  /// resolve to the first-registered node.
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

  /// Start recording the raw values `ids` take, replacing any previous
  /// watch: every write() value of a watched node and, for a watched
  /// register, the value each clock edge commits into it. With the value
  /// at watch time that is every value a consumer can read from the node:
  /// next values an edge never exposes are not recorded, and
  /// zero_all/load_values reposition the run and are not recorded either.
  /// Masks accumulate per node until take_seen(). Throws
  /// std::out_of_range on a bad id and std::invalid_argument on a
  /// sparse-commit register (reg_sparse), whose edge commits are not
  /// recorded; either leaves the previous watch in place.
  void watch(std::span<const NodeId> ids);

  /// Stop recording and release the watch tables.
  void unwatch() noexcept;

  /// What watched node `id` showed since watch() or the previous
  /// take_seen(id); clears its masks. Throws std::out_of_range when `id`
  /// is not watched.
  BitsSeen take_seen(NodeId id);

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
    for (const NodeId id : sparse_dirty_) cur_[id] = nxt_[id];
    sparse_dirty_.clear();
    if (hook_span_ != 0) commit_hooked();
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
  /// armed node's entry is its as-read value.
  std::vector<u32> save_values() const { return cur_; }

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

  // Hot per-node write: fast path is two stores; only a node inside the
  // slow-path window (the armed node, the watched nodes' span) takes
  // write_hooked().
  void write(NodeId id, u32 v) noexcept {
    v &= mask_[id];
    if (id - hook_lo_ < hook_span_) [[unlikely]] {
      write_hooked(id, v);
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
  void write_hooked(NodeId id, u32 masked) noexcept;
  void commit_hooked() noexcept;
  void update_hook_window() noexcept;
  void observe(u32 slot, NodeId id, u32 raw) noexcept {
    watch_seen_[slot].ones |= raw;
    watch_seen_[slot].zeros |= ~raw & mask_[id];
  }

  // Hot structure-of-arrays state, indexed by NodeId.
  std::vector<u32> cur_;   ///< value consumers see (overlay pre-applied)
  std::vector<u32> nxt_;   ///< raw next value (mirrors cur_ for wires)
  std::vector<u32> mask_;  ///< low_mask64(width)
  ArmedFault armed_;
  // Slow-path window [hook_lo_, hook_lo_ + hook_span_): the hull of the
  // armed node and the watched nodes; span 0 when there are neither. Read
  // by every write(): keep it beside the value arrays.
  NodeId hook_lo_ = 0;
  u32 hook_span_ = 0;

  // Watch tables (empty unless watch() is active): NodeId -> slot into
  // watch_seen_, and the watched registers commit_hooked() records every
  // edge.
  static constexpr u32 kUnwatched = 0xFFFF'FFFFu;
  std::vector<u32> watch_slot_;
  std::vector<BitsSeen> watch_seen_;
  std::vector<NodeId> watch_span_regs_;
  NodeId watch_lo_ = 0;  ///< lowest / highest watched NodeId
  NodeId watch_hi_ = 0;

  // Cold side table. Unit strings are interned: a design has
  // ~dozen distinct units across ~1k nodes, and registration cost is
  // visible in campaign setup.
  std::vector<NodeMeta> meta_;
  std::vector<std::string> units_;
  std::unordered_map<std::string, u32> unit_index_;

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
