// Functional emulator: the interpreter half of the ISS (paper Fig. 1b).
//
// Executes SPARC V8 integer-unit code with exact architectural semantics:
// delayed control transfer (PC/nPC), register windows, integer condition
// codes, Y register, traps. Records the off-core write trace (the failure
// manifestation boundary) and the instruction trace that feeds the
// diversity metric. Optionally drives a TimingModel and applies ISS-level
// register-file faults.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/bus.hpp"
#include "common/memory.hpp"
#include "isa/decode.hpp"
#include "iss/state.hpp"
#include "iss/trace.hpp"

namespace issrtl::iss {

class TimingModel;  // iss/timing.hpp

/// Why the emulator stopped.
enum class HaltReason : u8 {
  kRunning = 0,
  kHalted,              ///< `ta 0` — normal program completion
  kTrap,                ///< `ta n` with n != 0 (workloads use it as "assert")
  kIllegalInstruction,
  kMisalignedAccess,
  kDivisionByZero,
  kWindowOverflow,      ///< save/restore depth exceeded (unimplemented trap)
  kStepLimit,           ///< run() watchdog expired
};

std::string_view halt_reason_name(HaltReason r);

/// Fault models applicable at the ISS level (register-file oriented, the
/// style of injection the paper cites from [7][20]).
enum class IssFaultModel : u8 { kStuckAt0, kStuckAt1, kOpenLine, kBitFlip };

/// One ISS-level fault: a bit of a *physical* register-file entry.
struct IssFault {
  unsigned phys_reg = 0;            ///< 0..ArchState::kPhysRegs-1
  unsigned bit = 0;                 ///< 0..31
  IssFaultModel model = IssFaultModel::kStuckAt0;
  /// Takes effect once this many instructions have retired: the overlay
  /// becomes visible before the (N+1)-th instruction reads its operands.
  u64 inject_at_instr = 0;
};

/// Copyable checkpoint of an Emulator at an instruction boundary. The
/// backing Memory is owned by the caller and snapshotted separately
/// (Memory::clone). The off-core trace is recorded by its prefix length
/// only; restore() rebuilds it out of a trace the caller retains. Armed
/// faults are not captured; campaign workers clear_faults() and re-arm
/// after restore. An attached TimingModel is also not captured — it is
/// borrowed, and its accumulated cycle/cache state will not rewind; detach
/// or reset it around checkpoint use.
struct EmuCheckpoint {
  ArchState state;
  InstrTrace trace;
  HaltReason halt = HaltReason::kRunning;
  u8 trap_code = 0;
  u64 instret = 0;
  std::size_t writes = 0;  ///< off-core write records at the checkpoint

  /// Bytes held outside the struct itself (none: it is fixed-size).
  std::size_t heap_bytes() const noexcept { return 0; }
};

class Emulator {
 public:
  /// The emulator borrows the memory; the caller owns it (allows snapshotting
  /// and sharing a loaded image across runs).
  explicit Emulator(Memory& mem);

  /// Load a program image and reset architectural state to its entry point.
  void load(const isa::Program& prog);

  /// Reset to an entry point without reloading memory.
  void reset(u32 entry);

  /// Execute one instruction. Returns the (possibly new) halt status.
  HaltReason step();

  /// Run until halt or `max_steps` instructions. Returns the halt reason
  /// (kStepLimit if the watchdog expired).
  HaltReason run(u64 max_steps = 10'000'000);

  /// Execute up to `max_steps` instructions without arming the kStepLimit
  /// watchdog: reaching the budget simply returns with the emulator still
  /// kRunning. The engine's prefix replay ("step to instant N, then keep
  /// going") and its faulty suffix are this, and it takes the same
  /// block-walk fast loop as run(), with or without an armed fault.
  HaltReason advance(u64 max_steps);

  // ---- observers ------------------------------------------------------------
  const ArchState& state() const noexcept { return state_; }
  const InstrTrace& trace() const noexcept { return trace_; }
  const OffCoreTrace& offcore() const noexcept { return offcore_; }
  HaltReason halt_reason() const noexcept { return halt_; }
  u8 trap_code() const noexcept { return trap_code_; }
  u64 instret() const noexcept { return instret_; }
  Memory& memory() noexcept { return mem_; }

  /// Attach a timing model (borrowed); pass nullptr to detach.
  void set_timing(TimingModel* timing) noexcept { timing_ = timing; }

  // ---- fast path (dbbcache + lscache) ---------------------------------------
  //
  // On by default. Instructions are decoded once per basic block into a
  // cache keyed by the block's entry PC (the "dbbcache", after
  // riscv-vp-plusplus), and data accesses go through a one-entry raw page
  // cache (the "lscache") instead of the Memory hash path. Both caches are
  // microarchitecturally invisible: every observable (architectural state,
  // traces, halt reasons, fault semantics) is bit-identical to the baseline
  // decode-per-instruction path, which is kept — selectable here — as the
  // reference for differential testing.
  //
  // Coherence: stores the emulator itself executes are checked against the
  // byte range covered by cached blocks (self-modifying code flushes the
  // dbbcache); every *external* event that could invalidate decoded bytes or
  // cached page pointers — stores through the Memory API, clone()/copy/move
  // re-sharing pages — bumps Memory::revision(), which step() compares once
  // per instruction (run()/advance() once per call). On a mismatch the
  // lscache pointers are dropped and every decoded block's instruction
  // words are compared against memory: the dbbcache is flushed only when
  // one differs, so restoring a clone whose code is unchanged (every ladder
  // rung and campaign site restore) keeps the decoded blocks.
  void set_fast_path(bool on);

  /// Cache introspection for tests and stats.
  std::size_t dbb_blocks() const noexcept { return dbb_.size(); }
  u64 dbb_flushes() const noexcept { return dbb_flushes_; }

  /// Capture the execution state between instructions (Memory excluded):
  /// a fixed-size snapshot that records the off-core trace by its prefix
  /// length.
  EmuCheckpoint checkpoint() const;

  /// Resume from a checkpoint. The off-core trace becomes the first
  /// ck.writes records of `trace_src`, which must extend the
  /// checkpointed emulator's trace (e.g. the golden trace for a rung taken
  /// on the golden run). The caller restores the backing Memory to the
  /// matching image and clears/re-arms faults.
  void restore(const EmuCheckpoint& ck, const OffCoreTrace& trace_src);

  /// True when this emulator will evolve exactly like one restored from
  /// `ck`: same retired count, halt status, write count and ArchState. The
  /// caller compares Memory and write payloads; the instruction-mix trace
  /// is a statistic the emulator never evolves from.
  bool matches(const EmuCheckpoint& ck) const noexcept {
    return instret_ == ck.instret && halt_ == ck.halt &&
           offcore_.writes().size() == ck.writes && state_ == ck.state;
  }

  // ---- ISS-level fault injection ---------------------------------------------
  //
  // At most one fault is armed, as in rtl::SimContext. It takes effect at
  // the first instruction boundary with instret() >= inject_at_instr: a
  // bit-flip inverts its bit once and leaves nothing armed, a stuck-at or
  // open line (its bit frozen at that boundary) becomes an and/or mask
  // that every later boundary writes into the physical register slot, on
  // the step() path and in the run()/advance() block walk alike.

  /// Arm `fault`. Throws std::logic_error while a fault is armed (call
  /// clear_faults() first) and std::out_of_range for a register or bit
  /// outside the register file.
  void arm_fault(const IssFault& fault);
  /// Disarm the fault, if any. The register keeps whatever value the
  /// fault left in it.
  void clear_faults() noexcept { fault_phase_ = FaultPhase::kNone; }

 private:
  /// One decoded basic block: straight-line decode starting at `base`,
  /// terminated by (and including) the first control-transfer instruction
  /// (branch/call/jmpl/trap), the first invalid encoding (kept as a sentinel
  /// so the executor's valid() check fires exactly as in the baseline), or
  /// the kMaxBlockInsts cap. Blocks never alias stale bytes: building reads
  /// memory directly, and invalidation (below) flushes before bytes change.
  struct DbbBlock {
    u32 base = 0;
    u32 bytes = 0;  ///< insts.size() * 4
    std::vector<isa::DecodedInst> insts;
  };
  static constexpr std::size_t kMaxBlockInsts = 64;
  static constexpr u32 kNoLsPage = ~0u;  // page indices are < 2^20

  /// Direct-mapped block-entry translation table in front of dbb_: block
  /// transitions happen every few instructions (every taken branch costs
  /// two — delay slot, then target), and the hash find dominated the
  /// profile. Entry pointers stay valid between flushes (node-based map).
  static constexpr u32 kXlatBits = 12;
  static constexpr u32 kXlatSize = 1u << kXlatBits;
  struct XlatEntry {
    u32 pc = 0;
    const DbbBlock* blk = nullptr;
  };

  /// Where the armed fault stands: nothing armed (or a bit-flip that has
  /// flipped), armed but not yet due, or enforcing its mask at every
  /// boundary.
  enum class FaultPhase : u8 { kNone, kPending, kEnforcing };

  HaltReason halt_with(HaltReason r);
  void advance_pc();
  /// The pending fault is due: flip its bit (and disarm) or build its
  /// mask (kEnforcing).
  void activate_fault();
  void enforce_fault() noexcept {
    u32& r = state_.regs[fault_.phys_reg];
    r = (r & fault_and_) | fault_or_;
  }

  HaltReason exec_memory(const isa::DecodedInst& d);
  void record_store(u32 addr, u8 size, u64 data);

  /// Execute one already-fetched, already-validated instruction: the
  /// trace/instret bookkeeping plus the big dispatch switch. The per-step
  /// halt/fault/alignment/revision checks are the caller's job — step()
  /// does them each time, the run()/advance() fast loop hoists them.
  HaltReason exec_one(const isa::DecodedInst& d, u32 pc);
  HaltReason run_loop(u64 max_steps, bool arm_step_limit);
  /// The block walk of run_loop: retires `budget` instructions unless it
  /// halts first; with kEnforce the armed fault's mask is written before
  /// each one.
  template <bool kEnforce>
  HaltReason walk_blocks(u64 budget);

  // Fast-path internals (all no-ops / pass-throughs when fast_path_ is off).
  const isa::DecodedInst* fetch_decoded(u32 pc);
  const DbbBlock& build_block(u32 pc);
  void flush_dbb();
  void drop_caches();    ///< dbb + lscache; forces a revision resync
  void resync_caches();  ///< Memory::revision() moved: external invalidation
  /// True when every decoded block's instruction words equal memory.
  bool dbb_matches_memory() const;

  /// True when [addr, addr+len) overlaps the byte range covered by cached
  /// blocks (conservative union, not per-block).
  bool touches_code(u32 addr, u32 len) const noexcept {
    return addr < code_hi_ && addr + len > code_lo_;
  }

  /// Windowed-register dispatch: arch reg -> physical slot pointers for the
  /// current window, rebuilt whenever cwp can change (reset/restore/
  /// save/restore). Entry 0 splits into a read view (always-zero slot, %g0
  /// reads as zero) and a write view (discard slot, %g0 writes vanish), so
  /// the hot path is two dependent loads with no zero-test or window
  /// arithmetic.
  void rebuild_regmap() noexcept;
  u32 rreg(unsigned r) const noexcept { return *rmap_[r]; }
  void wreg(unsigned r, u32 v) noexcept { *wmap_[r] = v; }

  // Data-access helpers: lscache when fast, Memory API otherwise. Alignment
  // is checked by exec_memory before these run, so no access crosses a page.
  u8 ld8(u32 addr);
  u16 ld16(u32 addr);
  u32 ld32(u32 addr);
  void st8(u32 addr, u8 v);
  void st16(u32 addr, u16 v);
  void st32(u32 addr, u32 v);
  const u8* rd_bytes(u32 addr);  ///< nullptr = never-written page (zero)
  u8* wr_bytes(u32 addr);

  Memory& mem_;
  ArchState state_;
  std::array<const u32*, 32> rmap_{};
  std::array<u32*, 32> wmap_{};
  u32 zero_reg_ = 0;     ///< rmap_[0]: %g0 source
  u32 discard_reg_ = 0;  ///< wmap_[0]: %g0 sink
  InstrTrace trace_;
  OffCoreTrace offcore_;
  TimingModel* timing_ = nullptr;
  IssFault fault_;
  FaultPhase fault_phase_ = FaultPhase::kNone;
  u32 fault_and_ = ~0u;  ///< kEnforcing: slot = (slot & and) | or
  u32 fault_or_ = 0;
  HaltReason halt_ = HaltReason::kRunning;
  u8 trap_code_ = 0;
  u64 instret_ = 0;

  // Fast-path state. cur_block_ relies on unordered_map node stability.
  bool fast_path_ = true;
  std::unordered_map<u32, DbbBlock> dbb_;
  std::unique_ptr<std::array<XlatEntry, kXlatSize>> xlat_;  // lazy, 64 KiB
  const DbbBlock* cur_block_ = nullptr;
  u32 code_lo_ = ~0u;  ///< [code_lo_, code_hi_): bytes covered by dbb_
  u32 code_hi_ = 0;
  /// A store landed in the cached code range; the flush is deferred to the
  /// next fetch_decoded() so in-flight DecodedInst references stay valid
  /// through the instruction that did the store (fetch-before-execute
  /// semantics, same as the baseline).
  bool dbb_stale_ = false;
  u64 dbb_flushes_ = 0;
  u32 ls_rd_index_ = kNoLsPage;
  u32 ls_wr_index_ = kNoLsPage;
  const u8* ls_rd_base_ = nullptr;
  u8* ls_wr_base_ = nullptr;
  u64 ls_revision_ = ~0ull;  ///< expected mem_.revision(); ~0 forces resync
};

}  // namespace issrtl::iss
