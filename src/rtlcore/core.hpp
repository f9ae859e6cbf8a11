// Leon3-like 7-stage pipelined SPARC V8 integer unit at RTL abstraction.
//
// Stages: FE (fetch, I-cache), DE (decode), RA (register access, scoreboard
// interlock), EX (ALU/shift/mul/div, CTI resolution, CWP update, icc/Y
// commit), ME (D-cache access, write-through stores), XC (exception/trap
// commit point), WB (register-file write). In-order, single-issue,
// stall-based interlocks, SPARC delayed control transfer with annulment.
//
// Every pipeline latch field, architectural register, datapath wire and
// cache array entry is a named node in a rtl::SimContext, so the whole
// design is a fault-injection surface comparable to a structural VHDL
// description of the Leon3 IU + CMEM (paper Fig. 2).
#pragma once

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/bus.hpp"
#include "common/memory.hpp"
#include "isa/decode.hpp"
#include "isa/program.hpp"
#include "iss/state.hpp"   // HaltReason lives with the ISS; reused for parity
#include "iss/emulator.hpp"
#include "rtl/kernel.hpp"
#include "rtlcore/cache.hpp"
#include "rtlcore/regfile.hpp"

namespace issrtl::rtlcore {

/// Trap codes carried down the pipe to the XC stage.
enum class TrapKind : u8 {
  kNone = 0,
  kHalt,      // ta 0
  kSoftTrap,  // ta n, n != 0
  kIllegal,
  kMisaligned,
  kDivZero,
  kWindow,
};

struct CoreConfig {
  CacheConfig icache;
  CacheConfig dcache;
};

/// One pipeline latch: the packet travelling between two stages. All fields
/// are injectable register nodes; `seq` is host-side bookkeeping used for
/// the kill-younger logic (a fetch-order tag, not a hardware artefact that
/// faults could target).
struct PipeSlot {
  rtl::Sig valid;
  rtl::Sig pc;
  rtl::Sig inst;
  rtl::Sig a;       ///< operand 1 value
  rtl::Sig b;       ///< operand 2 value (reg or sign-extended immediate)
  rtl::Sig sdata;   ///< store data (rd), first word
  rtl::Sig sdata2;  ///< store data second word (STD)
  rtl::Sig dphys;   ///< destination physical register index
  rtl::Sig dphys2;  ///< second destination (LDD)
  rtl::Sig wreg;    ///< writes dphys at WB
  rtl::Sig wreg2;   ///< writes dphys2 at WB
  rtl::Sig res;     ///< result value
  rtl::Sig res2;    ///< second result (LDD)
  rtl::Sig addr;    ///< effective memory address
  rtl::Sig trap;    ///< TrapKind
  rtl::Sig tcode;   ///< software trap number for ta
  u64 seq = 0;

  static PipeSlot create(rtl::SimContext& ctx, const std::string& stage);
  void bubble();               ///< schedule this latch to be empty next cycle
  /// Schedule a copy of src's packet. The 16 latch fields are consecutive
  /// registry nodes in identical order (create() registers them
  /// back-to-back), so the copy is one ranged next-array write.
  void load_from(rtl::SimContext& ctx, const PipeSlot& src);
  void hold();                 ///< keep current contents next cycle

  /// Latch fields per slot (consecutive NodeIds starting at valid.id()).
  static constexpr std::size_t kFieldCount = 16;
};

/// Copyable checkpoint of a Leon3Core at a cycle boundary: every node value
/// plus the host-side bookkeeping that is not part of the node registry.
/// The backing Memory is owned by the caller and snapshotted separately
/// (Memory::clone); campaign workers pair the two to resume a golden prefix
/// once per injection instant instead of re-simulating it per fault. The
/// off-core trace is not copied — only its prefix length, from which
/// restore() rebuilds it out of a trace the caller retains.
struct CoreCheckpoint {
  std::vector<u32> node_values;
  std::array<u64, 6> slot_seq{};  ///< fetch-order tags of de/ra/ex/me/xc/wb
  u64 cycle = 0;
  u64 instret = 0;
  u64 next_fetch_seq = 1;
  u64 redirect_after_seq = 0;
  u64 annul_seq = 0;
  iss::HaltReason halt = iss::HaltReason::kRunning;
  u8 trap_code = 0;
  std::size_t writes = 0;  ///< off-core write records at the checkpoint

  /// Bytes held outside the struct itself (the node-value array).
  std::size_t heap_bytes() const noexcept {
    return node_values.size() * sizeof(u32);
  }
};

/// The RTL core + CMEM + bus, executing the same programs as iss::Emulator.
class Leon3Core {
 public:
  explicit Leon3Core(Memory& mem, const CoreConfig& cfg = {});

  void load(const isa::Program& prog);
  void reset(u32 entry);

  /// Advance one clock cycle.
  void step() {
    if (halt_ != iss::HaltReason::kRunning) return;
    step_eval();
    ctx_.commit_all();
  }

  /// Step up to `max_cycles` cycles without arming the kStepLimit
  /// watchdog: reaching the budget simply returns with the core still
  /// kRunning (same contract as iss::Emulator::advance).
  iss::HaltReason advance(u64 max_cycles);

  /// Run until halt or the cycle watchdog expires.
  iss::HaltReason run(u64 max_cycles = 50'000'000);

  // ---- observers ----------------------------------------------------------
  iss::HaltReason halt_reason() const noexcept { return halt_; }
  u8 trap_code() const noexcept { return trap_code_; }
  u64 cycles() const noexcept { return cycle_; }
  u64 instret() const noexcept { return instret_; }
  const OffCoreTrace& offcore() const noexcept { return bus_; }
  Memory& memory() noexcept { return mem_; }
  const Memory& memory() const noexcept { return mem_; }
  rtl::SimContext& sim() noexcept { return ctx_; }
  const rtl::SimContext& sim() const noexcept { return ctx_; }

  /// One probe per module whose nodes reach the rest of the core only
  /// through read ports: the register file, the I-cache and the D-cache
  /// arrays (RegFile / Cache::read_probe), each empty.
  using ReadProbes = std::array<rtl::ReadProbe, 3>;
  ReadProbes read_probes() const {
    return {rf_->read_probe(), icache_->read_probe(), dcache_->read_probe()};
  }
  /// Start recording every value those ports return into `*probes` (from
  /// read_probes()), or stop with nullptr.
  void record_reads(ReadProbes* probes) noexcept {
    rf_->record_reads(probes != nullptr ? &(*probes)[0] : nullptr);
    icache_->record_reads(probes != nullptr ? &(*probes)[1] : nullptr);
    dcache_->record_reads(probes != nullptr ? &(*probes)[2] : nullptr);
  }
  /// Remove the armed fault, if any (SimContext::clear_faults).
  void clear_faults() { ctx_.clear_faults(); }

  /// Snapshot of the architectural state (raw, unfaulted storage) in the
  /// ISS's representation, for lockstep comparison.
  iss::ArchState arch_state() const;

  /// Capture the core state at a cycle boundary (call between step()s,
  /// with no fault armed): an O(nodes) snapshot that records the off-core
  /// trace by its prefix length. The backing Memory is not included.
  CoreCheckpoint checkpoint() const;

  /// Resume from a checkpoint taken on this core (or on a core constructed
  /// with the same config, hence an identical node registry). The off-core
  /// trace becomes the first ck.writes records of `trace_src`, which must
  /// extend the checkpointed core's trace (e.g. the golden trace for a rung
  /// taken on the golden run). The caller is responsible for
  /// restoring the backing Memory to the matching image and for
  /// clear_faults() beforehand.
  void restore(const CoreCheckpoint& ck, const OffCoreTrace& trace_src);

  /// Cycles a faulty run may lag or lead a golden rung and still be
  /// compared against it by matches() (GoldenReplay's convergence cut-off).
  static constexpr u64 kShiftWindow = 64;

  /// True when this core will evolve like one restored from `ck`, shifted
  /// in time: same halt status, write count and node values, and its nine
  /// sequence numbers (six slot tags, next fetch, redirect-after, annul)
  /// offset from the checkpoint's by one common d. The cycle and retired
  /// counts are not compared: step() only stamps bus records with cycle_
  /// and only counts instret_, and it compares sequence numbers only with
  /// each other, so from here on the core steps like the restored one
  /// does, its cycle stamps later by cycle() - ck.cycle. The exact match is
  /// the d = 0 case at ck.cycle. The caller compares Memory and write
  /// payloads.
  bool matches(const CoreCheckpoint& ck) const {
    // Inline, cheap rejects first and the most selective first: the
    // convergence cut-off asks on every suffix cycle within its window of
    // a rung, and nearly every call ends at the fetch PC. Within a mul/div
    // stall only the EX countdown tells two cycles apart.
    const rtl::NodeId pc = fetch_pc_.id();
    const rtl::NodeId busy = ex_busy_.id();
    const std::vector<u32>& nodes = ck.node_values;
    if (std::max(pc, busy) >= nodes.size() ||
        ctx_.value_at(pc) != nodes[pc] || ctx_.value_at(busy) != nodes[busy] ||
        bus_.writes().size() != ck.writes || halt_ != ck.halt) {
      return false;
    }
    // Unsigned differences: equal offsets compare equal whichever run leads.
    const u64 d = next_fetch_seq_ - ck.next_fetch_seq;
    return de_.seq - ck.slot_seq[0] == d && ra_.seq - ck.slot_seq[1] == d &&
           ex_.seq - ck.slot_seq[2] == d && me_.seq - ck.slot_seq[3] == d &&
           xc_.seq - ck.slot_seq[4] == d && wb_.seq - ck.slot_seq[5] == d &&
           redirect_after_seq_ - ck.redirect_after_seq == d &&
           annul_seq_ - ck.annul_seq == d && ctx_.values_equal(nodes);
  }

 private:
  /// Handshake reset + the seven stage evaluators (commit excluded).
  void step_eval();

  // Stage evaluators, called in reverse pipeline order each cycle.
  void eval_wb();
  bool eval_xc();   // returns false when the core halted this cycle
  void eval_me(bool xc_free);
  void eval_ex(bool me_free);
  void eval_ra(bool ex_free);
  void eval_de(bool ra_free);
  void eval_fe(bool de_free);

  void resolve_cti(const isa::DecodedInst& d, u32 pc, bool taken, u32 target);
  void gather_sources(const isa::DecodedInst& d, unsigned cwp,
                      std::array<unsigned, 4>& srcs, unsigned& n) const;
  bool scoreboard_blocks(const std::array<unsigned, 4>& srcs,
                         unsigned n) const;
  void halt_with(iss::HaltReason r, u8 code);
  void do_ex_compute(PipeSlot& s, const isa::DecodedInst& d);
  void icache_abort_();

  /// Clear the per-cycle handshake scratch (recomputed at the top of every
  /// step(); cleared after restore so a resumed core is indistinguishable
  /// from one that reached this cycle by stepping).
  void clear_cycle_scratch() noexcept {
    kill_valid_ = false;
    annul_exact_valid_ = false;
    immediate_redirect_ = false;
    me_stalled_ = false;
    ex_free_ = false;
    ra_consumed_ = false;
    de_consumed_ = false;
  }

  Memory& mem_;  ///< caller-owned image
  CoreConfig cfg_;
  rtl::SimContext ctx_;

  // Architectural / special registers.
  std::unique_ptr<RegFile> rf_;
  rtl::Sig icc_;     // 4-bit NZVC
  rtl::Sig y_;
  rtl::Sig cwp_;
  rtl::Sig wdepth_;  // save/restore depth (window overflow tracking)

  // Fetch-unit state.
  rtl::Sig fetch_pc_;
  rtl::Sig redirect_pending_;
  rtl::Sig redirect_target_;
  rtl::Sig annul_pending_;

  // Datapath wires (EX stage).
  rtl::Sig alu_a_;
  rtl::Sig alu_b_;
  rtl::Sig alu_res_;
  rtl::Sig alu_cc_;
  rtl::Sig sh_res_;
  rtl::Sig mul_lo_;
  rtl::Sig mul_hi_;
  rtl::Sig div_q_;
  rtl::Sig br_taken_;
  rtl::Sig br_target_;
  rtl::Sig agu_addr_;
  rtl::Sig ex_busy_;  // multicycle execute countdown

  // Pipeline latches (named by the stage they feed).
  PipeSlot de_, ra_, ex_, me_, xc_, wb_;

  // Host-side state outside the node registry: counters, fetch
  // bookkeeping, halt status and the off-core trace.
  u64 cycle_ = 0;
  u64 instret_ = 0;
  u64 next_fetch_seq_ = 1;
  u64 redirect_after_seq_ = 0;
  u64 annul_seq_ = 0;
  iss::HaltReason halt_ = iss::HaltReason::kRunning;
  u8 trap_code_ = 0;
  OffCoreTrace bus_;

  std::unique_ptr<Cache> icache_;
  std::unique_ptr<Cache> dcache_;

  // Decode memo: isa::decode is a pure function of the instruction word,
  // and the pipeline re-derives the decode in RA/EX/ME every cycle, so a
  // small direct-mapped cache turns the per-stage decode into a lookup.
  // Deterministic: a hit returns byte-identical fields to a fresh decode.
  struct DecodeEntry {
    u32 word = 0;
    isa::DecodedInst inst;
  };
  static constexpr std::size_t kDecodeCacheSize = 256;  // power of two
  std::array<DecodeEntry, kDecodeCacheSize> decode_cache_{};
  const isa::DecodedInst& decode_cached(u32 word) {
    DecodeEntry& e =
        decode_cache_[(word ^ (word >> 10)) & (kDecodeCacheSize - 1)];
    if (e.word != word) [[unlikely]] {
      e.word = word;
      e.inst = isa::decode(word);
    }
    return e.inst;
  }

  // Kill decisions made by EX this cycle, consumed by younger stages.
  bool kill_valid_ = false;
  u64 kill_min_seq_ = 0;
  bool annul_exact_valid_ = false;
  u64 annul_exact_seq_ = 0;
  bool immediate_redirect_ = false;
  u32 immediate_target_ = 0;
  // Per-cycle stage handshake flags.
  bool me_stalled_ = false;
  bool ex_free_ = false;
  bool ra_consumed_ = false;
  bool de_consumed_ = false;
};

}  // namespace issrtl::rtlcore
