//! The MSP430 CPU core: fetch, decode, execute, and bus-event reporting.
//!
//! [`Cpu::step`] executes exactly one instruction (or services one pending
//! interrupt) and returns a [`Step`] describing everything that happened on
//! the bus. Hardware monitors — the APEX FSM in particular — consume the
//! `Step` stream; nothing about attestation lives in this module.
//!
//! # The zero-allocation fast path
//!
//! Replay-heavy callers (the DIALED verifier, batch verification workers)
//! drive the core through [`Cpu::step_into`], which fills a caller-owned
//! [`Step`] instead of returning a fresh one. Because a `Step` embeds its
//! bus accesses in an inline [`AccessBuf`], a steady-state
//! `step_into` loop performs **zero heap allocations**.
//!
//! # Dispatch: one fast path, one oracle
//!
//! [`Cpu::step_block_into`] is the fast path. It dispatches *superblocks*:
//! straight-line runs of predecoded instructions ending at control flow,
//! SR writes, log-site break addresses or page boundaries, validated for
//! reuse by the bus's per-page write-generations, so writes into code
//! memory — from any bus master — force a re-stitch without explicit
//! invalidation hooks. The steady-state block loop touches no per-step
//! metadata at all; per-step observers still see every [`Step`] through a
//! callback.
//!
//! [`Cpu::step_into`] decodes the instruction at PC on every call. It is
//! the reference oracle, and the fallback for entries no block serves
//! (halt, interrupt entry, odd or untracked PC, undecodable opcode).
//! [`Cpu::set_superblocks_enabled`]`(false)`, or `MSP430_FORCE_STEP=1` in
//! the environment process-wide ([`superblocks_forced_off`]), makes every
//! block dispatch degrade to one `step_into`.

use crate::cycles::{insn_cycles, IRQ_CYCLES};
use crate::flags;
use crate::isa::{Cond, DecodeError, Insn, Op1, Op2, Operand, Size};
use crate::layout::RESET_VECTOR;
use crate::mem::{Access, AccessBuf, AccessKind, Bus};
use crate::regs::{Reg, RegFile};
use crate::superblock::{
    page_base, Block, BlockBreaks, BlockInsn, SuperCache, SuperblockStats, MAX_BLOCK_INSNS,
    MAX_INSN_WORDS,
};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Everything one [`Cpu::step`] did, for consumption by monitors and traces.
///
/// Contains no heap-owned data: it is `Copy` (a flat ~48-byte copy), and
/// one `Step` can be reused across an entire run via [`Cpu::step_into`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Step {
    /// PC at the start of the step (address of the executed instruction).
    pub pc: u16,
    /// PC after the step (next instruction to execute).
    pub next_pc: u16,
    /// The executed instruction; `None` when the step serviced an interrupt.
    pub insn: Option<Insn>,
    /// Cycles consumed.
    pub cycles: u32,
    /// Ordered *data* bus accesses (reads and writes).
    ///
    /// Instruction fetches are not recorded: they are fully implied by
    /// [`Step::pc`] and [`Step::insn`] (address, count and values follow
    /// from the executed instruction), and no monitor consumes them — the
    /// APEX FSM, the VRASED rules and all policies filter to data traffic.
    pub accesses: AccessBuf,
    /// Vector number when this step was an interrupt entry.
    pub irq: Option<u8>,
}

impl Step {
    /// Iterator over only the data writes of this step.
    pub fn writes(&self) -> impl Iterator<Item = &Access> {
        self.accesses.iter().filter(|a| a.kind == AccessKind::Write)
    }

    /// Iterator over only the data reads of this step.
    pub fn reads(&self) -> impl Iterator<Item = &Access> {
        self.accesses.iter().filter(|a| a.kind == AccessKind::Read)
    }

    /// Resets all fields, preparing the step for reuse.
    pub fn clear(&mut self) {
        self.pc = 0;
        self.next_pc = 0;
        self.insn = None;
        self.cycles = 0;
        self.accesses.clear();
        self.irq = None;
    }
}

/// Faults that stop the core.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CpuFault {
    /// An undecodable opcode was fetched.
    Decode {
        /// Address of the bad opcode.
        at: u16,
        /// Underlying decode error.
        err: DecodeError,
    },
    /// The CPU is halted (CPUOFF set in SR).
    Halted,
}

impl fmt::Display for CpuFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuFault::Decode { at, err } => write!(f, "decode fault at {at:#06x}: {err}"),
            CpuFault::Halted => write!(f, "cpu halted (CPUOFF)"),
        }
    }
}

impl std::error::Error for CpuFault {}

/// True when the `MSP430_FORCE_STEP` environment variable disables
/// superblock dispatch process-wide (mirroring `HACL_FORCE_SCALAR`): the
/// variable is set and not `"0"` at first query. With dispatch forced off,
/// every [`Cpu::step_block_into`] call degrades to exactly one
/// [`Cpu::step_into`], which CI uses to prove the whole verification stack
/// on the single-step path.
#[must_use]
pub fn superblocks_forced_off() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var_os("MSP430_FORCE_STEP").is_some_and(|v| !v.is_empty() && v != "0")
    })
}

/// The MSP430 CPU core.
#[derive(Clone, Debug)]
pub struct Cpu {
    /// Architectural register file.
    pub regs: RegFile,
    pending_irq: Option<u8>,
    sblocks: SuperCache,
    sblocks_enabled: bool,
}

impl Default for Cpu {
    fn default() -> Self {
        Self {
            regs: RegFile::new(),
            pending_irq: None,
            sblocks: SuperCache::default(),
            sblocks_enabled: !superblocks_forced_off(),
        }
    }
}

impl Cpu {
    /// A core with all registers zero (PC must be set before stepping).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables superblock (block-at-a-time) dispatch.
    ///
    /// Superblocks are semantically transparent (reuse is validated against
    /// live page write-generations); disabling them makes
    /// [`Cpu::step_block_into`] degrade to one decode-every-step
    /// [`Cpu::step_into`] per call — the reference oracle that differential
    /// tests and benchmarks compare against. When [`superblocks_forced_off`]
    /// reports the `MSP430_FORCE_STEP` override, dispatch stays off
    /// regardless.
    pub fn set_superblocks_enabled(&mut self, enabled: bool) {
        self.sblocks_enabled = enabled && !superblocks_forced_off();
    }

    /// Is superblock dispatch in use?
    #[must_use]
    pub fn superblocks_enabled(&self) -> bool {
        self.sblocks_enabled
    }

    /// Superblock cache hit/miss/re-stitch counters since construction.
    #[must_use]
    pub fn superblock_stats(&self) -> SuperblockStats {
        self.sblocks.stats()
    }

    /// Drops every stitched superblock (the table allocation is kept for
    /// the pages' slots; never required for correctness — blocks are
    /// generation-validated on every dispatch).
    pub fn flush_superblocks(&mut self) {
        self.sblocks.flush();
    }

    /// Installs the set of addresses at which superblocks must end, so
    /// those addresses only ever execute as block entries (where callers
    /// can observe them — the DIALED verifier's input-injection sites).
    ///
    /// A change of set — `Arc` pointer identity, so re-installing the same
    /// shared set per proof is free — flushes the stitched blocks.
    pub fn set_block_breaks(&mut self, breaks: Option<Arc<BlockBreaks>>) {
        self.sblocks.set_breaks(breaks);
    }

    /// Re-initialises the architectural state (registers and pending IRQ)
    /// while keeping the stitched superblocks warm.
    ///
    /// This is the batch-verification reuse hook: one core replays many
    /// proofs of the same operation, and the stitched blocks stay valid
    /// across proofs because every dispatch checks the code pages'
    /// write-generations.
    pub fn reset_regs(&mut self) {
        self.regs = RegFile::new();
        self.pending_irq = None;
    }

    /// Loads the PC from the reset vector, like a power-on reset.
    pub fn reset(&mut self, bus: &mut impl Bus) {
        self.regs = RegFile::new();
        let entry = bus.read_word(RESET_VECTOR);
        self.regs.set(Reg::PC, entry);
        self.pending_irq = None;
    }

    /// Reads a register.
    #[must_use]
    pub fn reg(&self, r: Reg) -> u16 {
        self.regs.get(r)
    }

    /// Writes a register.
    pub fn set_reg(&mut self, r: Reg, v: u16) {
        self.regs.set(r, v);
    }

    /// Program counter.
    #[must_use]
    pub fn pc(&self) -> u16 {
        self.regs.pc()
    }

    /// Sets the program counter.
    pub fn set_pc(&mut self, pc: u16) {
        self.regs.set(Reg::PC, pc);
    }

    /// Is a given SR flag set?
    #[must_use]
    pub fn flag(&self, mask: u16) -> bool {
        self.regs.sr() & mask != 0
    }

    /// True when CPUOFF is set (core stopped until external wake).
    #[must_use]
    pub fn halted(&self) -> bool {
        self.flag(flags::CPUOFF)
    }

    /// Latches an interrupt request for vector `vec` (0–31). It is taken at
    /// the next step boundary if GIE is set.
    pub fn raise_irq(&mut self, vec: u8) {
        self.pending_irq = Some(vec);
    }

    /// Clears any pending interrupt request.
    pub fn clear_irq(&mut self) {
        self.pending_irq = None;
    }

    /// Executes one instruction (or takes one interrupt).
    ///
    /// # Errors
    ///
    /// [`CpuFault::Halted`] when CPUOFF is set; [`CpuFault::Decode`] on an
    /// invalid opcode (PC is left pointing at the bad instruction).
    pub fn step(&mut self, bus: &mut impl Bus) -> Result<Step, CpuFault> {
        let mut step = Step::default();
        self.step_into(bus, &mut step)?;
        Ok(step)
    }

    /// Executes one instruction (or takes one interrupt) into a
    /// caller-owned [`Step`], the allocation-free form of [`Cpu::step`].
    ///
    /// Replay loops keep one `Step` for the whole run; it is cleared and
    /// refilled on every call. On error its contents are unspecified.
    ///
    /// # Errors
    ///
    /// [`CpuFault::Halted`] when CPUOFF is set; [`CpuFault::Decode`] on an
    /// invalid opcode (PC is left pointing at the bad instruction).
    pub fn step_into(&mut self, bus: &mut impl Bus, step: &mut Step) -> Result<(), CpuFault> {
        // Only the fields a success path does not overwrite are reset here;
        // on error the step's contents are unspecified.
        step.accesses.clear();
        step.irq = None;
        step.insn = None;
        if self.halted() {
            return Err(CpuFault::Halted);
        }

        let pc0 = self.regs.pc();
        step.pc = pc0;

        // Interrupt entry: push PC, push SR, clear SR (keep SCG0), vector.
        if let Some(vec) = self.pending_irq {
            if self.flag(flags::GIE) {
                self.pending_irq = None;
                let acc = &mut step.accesses;
                let mut sp = self.regs.sp();
                sp = sp.wrapping_sub(2);
                bus.write_word(sp, pc0);
                acc.push(Access { addr: sp, kind: AccessKind::Write, value: pc0, word: true });
                sp = sp.wrapping_sub(2);
                let sr = self.regs.sr();
                bus.write_word(sp, sr);
                acc.push(Access { addr: sp, kind: AccessKind::Write, value: sr, word: true });
                self.regs.set(Reg::SP, sp);
                self.regs.set(Reg::SR, sr & flags::SCG0);
                let vaddr = 0xFFE0u16.wrapping_add(u16::from(vec) * 2);
                let target = bus.read_word(vaddr);
                acc.push(Access { addr: vaddr, kind: AccessKind::Read, value: target, word: true });
                self.regs.set(Reg::PC, target);
                step.next_pc = target;
                step.cycles = IRQ_CYCLES;
                step.irq = Some(vec);
                return Ok(());
            }
        }

        let (insn, len) = decode_at(bus, pc0).map_err(|err| CpuFault::Decode { at: pc0, err })?;
        // PC advances past the instruction before it executes (PC-operand
        // semantics).
        self.regs.set(Reg::PC, pc0.wrapping_add(len * 2));
        self.execute(bus, &insn, &mut step.accesses);
        step.next_pc = self.regs.pc();
        step.insn = Some(insn);
        step.cycles = insn_cycles(&insn);
        Ok(())
    }

    /// Executes up to one superblock of instructions (at most `limit`),
    /// invoking `on_step` after each one — the block-at-a-time dispatch
    /// path beside [`Cpu::step_into`].
    ///
    /// Each executed instruction fills `step` exactly as `step_into` would
    /// (same PCs, decoded instruction, cycle count and inline access
    /// buffer) before `on_step(bus, regs, step)` runs, so per-step
    /// observers — the APEX monitor, trace recording, peripheral time —
    /// see an identical stream. What a block *skips* is the per-step
    /// metadata: one cache probe, one halt/IRQ test and one log-site check
    /// per block instead of per step.
    ///
    /// The block ends early at `stop_pc` (tested before each instruction
    /// after the first; the entry instruction always executes, matching a
    /// `step_into` call at that PC), after a store into one of the block's
    /// own code pages (possible self-modification of a later instruction),
    /// or at `limit`. Halt, pending-interrupt entry, disabled dispatch and
    /// unstitchable entries (odd PC, untracked page, undecodable opcode)
    /// all fall back to a single `step_into` with identical semantics.
    ///
    /// `on_step` receives the bus and the post-step register file; it must
    /// not execute instructions on this core (it cannot — the core is
    /// borrowed) and any bus writes it performs into the block's code pages
    /// take effect at the next block boundary.
    ///
    /// Returns the number of steps executed (≥ 1 unless `limit == 0`).
    ///
    /// # Errors
    ///
    /// Exactly those of [`Cpu::step_into`] — faults can only surface on the
    /// single-step fallback, never mid-block (blocks contain only decoded
    /// instructions, and instruction execution itself cannot fault).
    pub fn step_block_into<B: Bus>(
        &mut self,
        bus: &mut B,
        stop_pc: u16,
        limit: usize,
        step: &mut Step,
        mut on_step: impl FnMut(&mut B, &RegFile, &Step),
    ) -> Result<usize, CpuFault> {
        if limit == 0 {
            return Ok(0);
        }
        // Halt, interrupt entry and disabled dispatch funnel through the
        // single-step path so fault and IRQ semantics stay byte-identical
        // to a `step_into` loop. GIE and CPUOFF only change via explicit
        // SR writes or RETI (see `ends_block`), so mid-block re-checks are
        // unnecessary: a block never runs past the instruction that could
        // flip them.
        let single = !self.sblocks_enabled
            || self.halted()
            || (self.pending_irq.is_some() && self.flag(flags::GIE));
        if !single {
            let entry = self.regs.pc();
            if let Some(block) = self.obtain_block(bus, entry) {
                let n = block.insns.len().min(limit);
                let mut executed = 0usize;
                for bi in &block.insns[..n] {
                    if executed > 0 && bi.pc == stop_pc {
                        break;
                    }
                    step.accesses.clear();
                    step.irq = None;
                    step.pc = bi.pc;
                    step.insn = Some(bi.insn);
                    step.cycles = bi.cycles;
                    // PC advances past the instruction before it executes,
                    // exactly as step_into does (PC-operand semantics).
                    self.regs.set(Reg::PC, bi.next_pc);
                    self.execute(bus, &bi.insn, &mut step.accesses);
                    step.next_pc = self.regs.pc();
                    executed += 1;
                    on_step(bus, &self.regs, step);
                    // A store into one of the block's own code pages may
                    // have patched an instruction we are about to run:
                    // leave the block; the next dispatch re-validates.
                    if !step.accesses.is_empty() && step.writes().any(|w| block.covers(w.addr)) {
                        break;
                    }
                }
                self.sblocks.put(entry, block);
                return Ok(executed);
            }
        }
        self.step_into(bus, step)?;
        on_step(bus, &self.regs, step);
        Ok(1)
    }

    /// Returns a validated superblock entered at `entry`: a cached block
    /// whose page generations all still match, or a freshly (re-)stitched
    /// one. `None` means dispatch must fall back to single-step.
    fn obtain_block(&mut self, bus: &mut impl Bus, entry: u16) -> Option<Box<Block>> {
        match self.sblocks.take(entry) {
            Some(block) if block.is_fresh(bus) => {
                self.sblocks.note_hit();
                Some(block)
            }
            Some(_stale) => {
                let block = self.stitch_block(bus, entry);
                if block.is_some() {
                    self.sblocks.note_restitch();
                }
                block
            }
            None => {
                let block = self.stitch_block(bus, entry);
                if block.is_some() {
                    self.sblocks.note_miss();
                }
                block
            }
        }
    }

    /// Stitches a new superblock starting at `entry`: decodes forward until
    /// a terminator instruction ([`ends_block`]), a break address, the
    /// entry page's end, an undecodable opcode, or [`MAX_BLOCK_INSNS`].
    ///
    /// Returns `None` when no block can form at all — odd entry PC, the
    /// entry page is not generation-tracked, or the first instruction does
    /// not decode (the single-step fallback then reproduces the exact
    /// fault). Decode reads during stitching are confined to
    /// generation-tracked pages, whose reads are side-effect-free, so a
    /// stitch never perturbs peripherals.
    fn stitch_block(&mut self, bus: &mut impl Bus, entry: u16) -> Option<Box<Block>> {
        if entry & 1 != 0 {
            return None;
        }
        let (bus_id, entry_gen) = bus.page_generation(entry)?;
        let entry_page = page_base(entry);
        let mut block = Box::new(Block::new(bus_id, entry_page, entry_gen));
        let mut pc = entry;
        while block.insns.len() < MAX_BLOCK_INSNS {
            if pc != entry {
                // Later instructions must *start* inside the entry page
                // (their extension words may straddle into the tracked
                // second page) and must not sit on a break address — break
                // addresses are always block entries, so callers observe
                // them (input injection) before dispatch.
                if page_base(pc) != entry_page || self.sblocks.breaks_contain(pc) {
                    break;
                }
            }
            // A decode may read up to two extension words past `pc`; never
            // read speculatively from an untracked page (peripheral reads
            // can have side effects, and a re-read on fallback would
            // diverge from pure single-step execution).
            let max_last = pc.wrapping_add((MAX_INSN_WORDS as u16 - 1) * 2);
            if page_base(max_last) != entry_page
                && !matches!(bus.page_generation(max_last), Some((id, _)) if id == bus_id)
            {
                break;
            }
            let Ok((insn, len)) = decode_at(bus, pc) else {
                // Undecodable: end the block before it; the single-step
                // fallback at this PC reproduces the fault.
                break;
            };
            let last = pc.wrapping_add((len - 1) * 2);
            if page_base(last) != entry_page {
                match bus.page_generation(last) {
                    Some((id, gen)) if block.note_page(id, page_base(last), gen) => {}
                    _ => break,
                }
            }
            let next_pc = pc.wrapping_add(len * 2);
            block.insns.push(BlockInsn { pc, next_pc, insn, cycles: insn_cycles(&insn) });
            if ends_block(&insn) {
                break;
            }
            pc = next_pc;
        }
        if block.insns.is_empty() {
            None
        } else {
            Some(block)
        }
    }

    /// Runs until the PC reaches `stop_pc`, the CPU halts/faults, or
    /// `max_steps` is exceeded. Returns the executed steps.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CpuFault`]; hitting `max_steps` is reported as
    /// a fault-free return with `steps.len() == max_steps`.
    pub fn run_until(
        &mut self,
        bus: &mut impl Bus,
        stop_pc: u16,
        max_steps: usize,
    ) -> Result<Vec<Step>, CpuFault> {
        let mut steps = Vec::new();
        while self.regs.pc() != stop_pc && steps.len() < max_steps {
            steps.push(self.step(bus)?);
        }
        Ok(steps)
    }

    fn execute(&mut self, bus: &mut impl Bus, insn: &Insn, acc: &mut AccessBuf) {
        match *insn {
            Insn::Jump { cond, offset } => {
                if self.cond_true(cond) {
                    let pc = self.regs.pc();
                    self.regs.set(Reg::PC, pc.wrapping_add((offset as u16).wrapping_mul(2)));
                }
            }
            Insn::One { op, size, sd } => self.exec_format2(bus, op, size, sd, acc),
            Insn::Two { op, size, src, dst } => self.exec_format1(bus, op, size, src, dst, acc),
        }
    }

    fn cond_true(&self, cond: Cond) -> bool {
        let sr = self.regs.sr();
        let c = sr & flags::C != 0;
        let z = sr & flags::Z != 0;
        let n = sr & flags::N != 0;
        let v = sr & flags::V != 0;
        match cond {
            Cond::Nz => !z,
            Cond::Z => z,
            Cond::Nc => !c,
            Cond::C => c,
            Cond::N => n,
            Cond::Ge => n == v,
            Cond::L => n != v,
            Cond::Always => true,
        }
    }

    /// Resolves an operand to (value, effective address if memory).
    fn read_operand(
        &mut self,
        bus: &mut impl Bus,
        op: Operand,
        size: Size,
        acc: &mut AccessBuf,
    ) -> (u16, Option<u16>) {
        match op {
            Operand::Reg(r) => (self.regs.get(r) & flags::mask(size), None),
            Operand::Imm(v) => (v & flags::mask(size), None),
            Operand::Indexed(r, x) => {
                let ea = self.regs.get(r).wrapping_add(x);
                (self.load(bus, ea, size, acc), Some(ea))
            }
            Operand::Symbolic(a) | Operand::Absolute(a) => (self.load(bus, a, size, acc), Some(a)),
            Operand::Indirect(r) => {
                let ea = self.regs.get(r);
                (self.load(bus, ea, size, acc), Some(ea))
            }
            Operand::IndirectInc(r) => {
                let ea = self.regs.get(r);
                let v = self.load(bus, ea, size, acc);
                self.regs.set(r, ea.wrapping_add(size.bytes()));
                (v, Some(ea))
            }
        }
    }

    fn load(&mut self, bus: &mut impl Bus, ea: u16, size: Size, acc: &mut AccessBuf) -> u16 {
        let (v, word) = match size {
            Size::Word => (bus.read_word(ea), true),
            Size::Byte => (u16::from(bus.read_byte(ea)), false),
        };
        acc.push(Access { addr: ea, kind: AccessKind::Read, value: v, word });
        v
    }

    fn store(&mut self, bus: &mut impl Bus, ea: u16, v: u16, size: Size, acc: &mut AccessBuf) {
        match size {
            Size::Word => bus.write_word(ea, v),
            Size::Byte => bus.write_byte(ea, v as u8),
        }
        acc.push(Access {
            addr: ea,
            kind: AccessKind::Write,
            value: v & flags::mask(size),
            word: size == Size::Word,
        });
    }

    /// Writes back a result to a destination operand (register or memory EA).
    fn write_dst(
        &mut self,
        bus: &mut impl Bus,
        dst: Operand,
        ea: Option<u16>,
        v: u16,
        size: Size,
        acc: &mut AccessBuf,
    ) {
        match dst {
            // Writes to r3 (CG2) are architecturally discarded.
            Operand::Reg(Reg::R3) => {}
            Operand::Reg(r) => match size {
                Size::Word => self.regs.set(r, v),
                Size::Byte => self.regs.set_byte(r, v as u8),
            },
            _ => {
                let ea = ea.expect("memory destination must have an effective address");
                self.store(bus, ea, v, size, acc);
            }
        }
    }

    fn exec_format1(
        &mut self,
        bus: &mut impl Bus,
        op: Op2,
        size: Size,
        src: Operand,
        dst: Operand,
        acc: &mut AccessBuf,
    ) {
        let (s, _) = self.read_operand(bus, src, size, acc);
        // MOV fast path: no destination read, no ALU, no flags — and it is
        // the most frequent instruction in instrumented code (every log
        // entry is a store via MOV).
        if op == Op2::Mov {
            let ea = match dst {
                Operand::Reg(_) => None,
                Operand::Indexed(r, x) => Some(self.regs.get(r).wrapping_add(x)),
                Operand::Symbolic(a) | Operand::Absolute(a) => Some(a),
                _ => None,
            };
            self.write_dst(bus, dst, ea, s, size, acc);
            return;
        }
        // Destination EA is computed after source side effects (@Rn+).
        let (d, ea) = self.read_operand(bus, dst, size, acc);

        let sr = self.regs.sr();
        let carry = sr & flags::C != 0;
        let (out, keep_v) = match op {
            Op2::Mov => unreachable!("handled by the fast path above"),
            Op2::Add => (flags::add(d, s, false, size), false),
            Op2::Addc => (flags::add(d, s, carry, size), false),
            Op2::Sub | Op2::Cmp => (flags::sub(d, s, true, size), false),
            Op2::Subc => (flags::sub(d, s, carry, size), false),
            Op2::Dadd => (flags::dadd(d, s, carry, size), true),
            Op2::Bit | Op2::And => (flags::logic(d & s, size), false),
            Op2::Xor => (flags::xor(d, s, size), false),
            Op2::Bic => {
                (flags::AluOut { value: d & !s, c: false, z: false, n: false, v: false }, false)
            }
            Op2::Bis => {
                (flags::AluOut { value: d | s, c: false, z: false, n: false, v: false }, false)
            }
        };

        if op.writes_dst() {
            self.write_dst(bus, dst, ea, out.value, size, acc);
        }
        if op.sets_flags() {
            // Flags are applied to the (possibly just-written) SR.
            let sr_now = self.regs.sr();
            self.regs.set(Reg::SR, flags::apply(sr_now, &out, keep_v));
        }
    }

    fn exec_format2(
        &mut self,
        bus: &mut impl Bus,
        op: Op1,
        size: Size,
        sd: Operand,
        acc: &mut AccessBuf,
    ) {
        match op {
            Op1::Reti => {
                let mut sp = self.regs.sp();
                let sr = bus.read_word(sp);
                acc.push(Access { addr: sp, kind: AccessKind::Read, value: sr, word: true });
                sp = sp.wrapping_add(2);
                let pc = bus.read_word(sp);
                acc.push(Access { addr: sp, kind: AccessKind::Read, value: pc, word: true });
                sp = sp.wrapping_add(2);
                self.regs.set(Reg::SR, sr);
                self.regs.set(Reg::SP, sp);
                self.regs.set(Reg::PC, pc);
            }
            Op1::Push => {
                let (v, _) = self.read_operand(bus, sd, size, acc);
                let sp = self.regs.sp().wrapping_sub(2);
                self.regs.set(Reg::SP, sp);
                // push.b still moves SP by 2 but stores a byte.
                self.store(bus, sp, v, size, acc);
            }
            Op1::Call => {
                let (target, _) = self.read_operand(bus, sd, Size::Word, acc);
                let sp = self.regs.sp().wrapping_sub(2);
                self.regs.set(Reg::SP, sp);
                let ret = self.regs.pc();
                self.store(bus, sp, ret, Size::Word, acc);
                self.regs.set(Reg::PC, target);
            }
            Op1::Rrc | Op1::Rra | Op1::Swpb | Op1::Sxt => {
                let (v, ea) = self.read_operand(bus, sd, size, acc);
                let sr = self.regs.sr();
                let carry_in = sr & flags::C != 0;
                let sign = flags::sign_bit(size);
                let (result, out): (u16, Option<flags::AluOut>) = match op {
                    Op1::Rrc => {
                        let r = (v >> 1) | if carry_in { sign } else { 0 };
                        let o = flags::AluOut {
                            value: r & flags::mask(size),
                            c: v & 1 != 0,
                            z: r & flags::mask(size) == 0,
                            n: r & sign != 0,
                            v: false,
                        };
                        (o.value, Some(o))
                    }
                    Op1::Rra => {
                        let r = (v >> 1) | (v & sign);
                        let o = flags::AluOut {
                            value: r & flags::mask(size),
                            c: v & 1 != 0,
                            z: r & flags::mask(size) == 0,
                            n: r & sign != 0,
                            v: false,
                        };
                        (o.value, Some(o))
                    }
                    Op1::Swpb => (v.rotate_left(8), None),
                    Op1::Sxt => {
                        let r = if v & 0x80 != 0 { v | 0xFF00 } else { v & 0x00FF };
                        (r, Some(flags::logic(r, Size::Word)))
                    }
                    _ => unreachable!(),
                };
                // Write back to the same place (register or memory EA).
                match sd {
                    Operand::Reg(Reg::R3) => {}
                    Operand::Reg(r) => match size {
                        Size::Word => self.regs.set(r, result),
                        Size::Byte => self.regs.set_byte(r, result as u8),
                    },
                    Operand::Imm(_) => {} // e.g. `rrc #4` — result discarded
                    _ => {
                        let ea = ea.expect("memory operand has EA");
                        // SXT result is a word even for byte-addressed input.
                        let wsize = if op == Op1::Sxt { Size::Word } else { size };
                        self.store(bus, ea, result, wsize, acc);
                    }
                }
                if let Some(o) = out {
                    let sr_now = self.regs.sr();
                    self.regs.set(Reg::SR, flags::apply(sr_now, &o, false));
                }
            }
        }
    }
}

/// True when `insn` must terminate a superblock: it may redirect control
/// flow, or write SR.
///
/// SR writes matter because `step_into` samples CPUOFF (halt) and GIE
/// (interrupt window) only at step boundaries, and a block skips those
/// per-step samples. `flags::apply` never touches either bit, so an
/// explicit SR destination or RETI are the *only* instructions that can
/// flip them — ending blocks there makes the block-entry halt/IRQ check
/// exactly as fine-grained as the per-step one.
///
/// `One`-format ALU ops with a PC destination (`rrc pc` et al.) are caught
/// here too: they redirect control flow but predate
/// [`Insn::alters_control_flow`]'s Format-I-only PC check.
fn ends_block(insn: &Insn) -> bool {
    if insn.alters_control_flow() {
        return true;
    }
    match *insn {
        Insn::One {
            op: Op1::Rrc | Op1::Rra | Op1::Swpb | Op1::Sxt,
            sd: Operand::Reg(Reg::R0 | Reg::R2),
            ..
        } => true,
        Insn::Two { op, dst: Operand::Reg(Reg::R2), .. } => op.writes_dst(),
        _ => false,
    }
}

/// Fetches and decodes the instruction at `pc`, returning it with its
/// length in words.
fn decode_at(bus: &mut impl Bus, pc: u16) -> Result<(Insn, u16), DecodeError> {
    let mut len = 0u16;
    let mut fetch = || {
        let w = bus.read_word(pc.wrapping_add(len * 2));
        len += 1;
        w
    };
    let first = fetch();
    let insn = Insn::decode(pc, first, fetch)?;
    Ok((insn, len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Ram;

    /// Assembles a tiny program with the encoder and runs it.
    fn run(words: &[u16], steps: usize) -> (Cpu, Ram) {
        let mut ram = Ram::new();
        ram.load_words(0xE000, words);
        let mut cpu = Cpu::new();
        cpu.set_pc(0xE000);
        cpu.set_reg(Reg::SP, 0x0A00);
        for _ in 0..steps {
            cpu.step(&mut ram).expect("step ok");
        }
        (cpu, ram)
    }

    #[test]
    fn mov_imm_and_add() {
        // mov #21, r10 ; add r10, r10
        let (cpu, _) = run(&[0x403A, 0x0015, 0x5A0A], 2);
        assert_eq!(cpu.reg(Reg::R10), 42);
    }

    #[test]
    fn call_and_ret() {
        // 0xE000: call #0xE008
        // 0xE004: jmp .        (landing point after return)
        // 0xE006: (pad)
        // 0xE008: ret
        let mut ram = Ram::new();
        ram.load_words(0xE000, &[0x12B0, 0xE008, 0x3FFF, 0x4303, 0x4130]);
        let mut cpu = Cpu::new();
        cpu.set_pc(0xE000);
        cpu.set_reg(Reg::SP, 0x0A00);
        let s1 = cpu.step(&mut ram).unwrap(); // call
        assert_eq!(cpu.pc(), 0xE008);
        assert_eq!(cpu.reg(Reg::SP), 0x09FE);
        assert_eq!(ram.read_word(0x09FE), 0xE004);
        assert_eq!(s1.cycles, 5);
        let s2 = cpu.step(&mut ram).unwrap(); // ret
        assert_eq!(cpu.pc(), 0xE004);
        assert_eq!(cpu.reg(Reg::SP), 0x0A00);
        assert_eq!(s2.cycles, 3);
    }

    #[test]
    fn push_pop_word() {
        // mov #0x1234, r5 ; push r5 ; mov @sp+, r6 (pop r6)
        let (cpu, _) = run(&[0x4035, 0x1234, 0x1205, 0x4136], 3);
        assert_eq!(cpu.reg(Reg::R6), 0x1234);
        assert_eq!(cpu.reg(Reg::SP), 0x0A00);
    }

    #[test]
    fn conditional_jump_taken_and_not() {
        // mov #1, r5 ; cmp #1, r5 ; jz +4 (skip next) ; mov #0xDEAD, r6 ; mov #7, r7
        let prog = [
            0x4315, // mov #1, r5
            0x9315, // cmp #1, r5
            0x2402, // jz skip two words
            0x4036, 0xDEAD, // mov #0xDEAD, r6
            0x4037, 0x0007, // mov #7, r7
        ];
        let (cpu, _) = run(&prog, 4);
        assert_eq!(cpu.reg(Reg::R6), 0, "skipped");
        assert_eq!(cpu.reg(Reg::R7), 7);
    }

    #[test]
    fn byte_op_clears_high_byte_in_register() {
        // mov #0xBEEF, r5 ; mov.b r5, r6
        let (cpu, _) = run(&[0x4035, 0xBEEF, 0x4546], 2);
        assert_eq!(cpu.reg(Reg::R6), 0x00EF);
    }

    #[test]
    fn autoincrement_word_and_byte() {
        // mov #0x0200, r15 ; mov @r15+, r5 ; mov.b @r15+, r6
        let mut ram = Ram::new();
        ram.load_words(0x0200, &[0xCAFE]);
        ram.load_bytes(0x0202, &[0x7A]);
        ram.load_words(0xE000, &[0x403F, 0x0200, 0x4F35, 0x4F76]);
        let mut cpu = Cpu::new();
        cpu.set_pc(0xE000);
        cpu.step(&mut ram).unwrap();
        cpu.step(&mut ram).unwrap();
        assert_eq!(cpu.reg(Reg::R5), 0xCAFE);
        assert_eq!(cpu.reg(Reg::R15), 0x0202);
        cpu.step(&mut ram).unwrap();
        assert_eq!(cpu.reg(Reg::R6), 0x007A);
        assert_eq!(cpu.reg(Reg::R15), 0x0203);
    }

    #[test]
    fn indexed_store_and_load() {
        // mov #0x0300, r4 ; mov #0xABCD, r5 ; mov r5, 4(r4) ; mov 4(r4), r6
        let prog = [
            0x4034, 0x0300, // mov #0x300, r4
            0x4035, 0xABCD, // mov #0xABCD, r5
            0x4584, 0x0004, // mov r5, 4(r4)
            0x4416, 0x0004, // mov 4(r4), r6
        ];
        let (cpu, ram) = run(&prog, 4);
        let mut ram = ram;
        assert_eq!(ram.read_word(0x0304), 0xABCD);
        assert_eq!(cpu.reg(Reg::R6), 0xABCD);
    }

    #[test]
    fn symbolic_load_is_pc_relative() {
        // 0xE000: mov DATA, r5   (symbolic; DATA at 0xE006)
        // 0xE004: jmp .
        // 0xE006: .word 0x5555
        let i = Insn::Two {
            op: Op2::Mov,
            size: Size::Word,
            src: Operand::Symbolic(0xE006),
            dst: Operand::Reg(Reg::R5),
        };
        let mut words = i.encode(0xE000).unwrap();
        words.push(0x3FFF);
        words.push(0x5555);
        let (cpu, _) = run(&words, 1);
        assert_eq!(cpu.reg(Reg::R5), 0x5555);
    }

    #[test]
    fn br_via_mov_to_pc() {
        // mov #0xE006, pc ; (dead) ; mov #9, r5
        let prog = [0x4030, 0xE006, 0x4303, 0x4035, 0x0009];
        let mut ram = Ram::new();
        ram.load_words(0xE000, &prog);
        let mut cpu = Cpu::new();
        cpu.set_pc(0xE000);
        let s = cpu.step(&mut ram).unwrap();
        assert_eq!(cpu.pc(), 0xE006);
        assert_eq!(s.cycles, 3); // #N → PC
        cpu.step(&mut ram).unwrap();
        assert_eq!(cpu.reg(Reg::R5), 9);
    }

    #[test]
    fn sr_cpuoff_halts() {
        // bis #0x10, sr  → CPUOFF
        let (mut cpu, mut ram) = run(&[0xD032, 0x0010], 1);
        assert!(cpu.halted());
        assert!(matches!(cpu.step(&mut ram), Err(CpuFault::Halted)));
    }

    #[test]
    fn irq_entry_and_reti() {
        // main: bis #8, sr (GIE) ; nop-ish loop. ISR at 0xF000: reti.
        let mut ram = Ram::new();
        ram.load_words(0xE000, &[0xD232, 0x4303, 0x4303, 0x4303]); // bis #8,sr ; nops
        ram.load_words(0xF000, &[0x1300]); // reti
        ram.load_words(0xFFE0 + 2 * 9, &[0xF000]); // vector 9
        let mut cpu = Cpu::new();
        cpu.set_pc(0xE000);
        cpu.set_reg(Reg::SP, 0x0A00);
        cpu.step(&mut ram).unwrap(); // GIE on
        cpu.raise_irq(9);
        let s = cpu.step(&mut ram).unwrap();
        assert_eq!(s.irq, Some(9));
        assert_eq!(cpu.pc(), 0xF000);
        assert_eq!(s.cycles, 6);
        assert!(!cpu.flag(flags::GIE), "GIE cleared on entry");
        let s = cpu.step(&mut ram).unwrap(); // reti
        assert_eq!(cpu.pc(), 0xE002);
        assert!(cpu.flag(flags::GIE), "GIE restored");
        assert_eq!(s.cycles, 5);
        assert_eq!(cpu.reg(Reg::SP), 0x0A00);
    }

    #[test]
    fn irq_held_pending_while_gie_clear() {
        let mut ram = Ram::new();
        ram.load_words(0xE000, &[0x4303, 0x4303]);
        let mut cpu = Cpu::new();
        cpu.set_pc(0xE000);
        cpu.raise_irq(3);
        let s = cpu.step(&mut ram).unwrap();
        assert_eq!(s.irq, None, "masked while GIE clear");
        assert_eq!(cpu.pc(), 0xE002);
    }

    #[test]
    fn decode_fault_reports_address() {
        let mut ram = Ram::new();
        ram.load_words(0xE000, &[0x0000]);
        let mut cpu = Cpu::new();
        cpu.set_pc(0xE000);
        match cpu.step(&mut ram) {
            Err(CpuFault::Decode { at, .. }) => assert_eq!(at, 0xE000),
            other => panic!("expected decode fault, got {other:?}"),
        }
    }

    #[test]
    fn rrc_uses_and_sets_carry() {
        // setc (bis #1, sr) ; mov #2, r5 ; rrc r5
        let (cpu, _) = run(&[0xD312, 0x4325, 0x1005], 3);
        // carry-in 1 → msb set; bit0 of 2 = 0 → carry-out clear.
        assert_eq!(cpu.reg(Reg::R5), 0x8001);
        assert!(!cpu.flag(flags::C));
        assert!(cpu.flag(flags::N));
    }

    #[test]
    fn rra_preserves_sign() {
        // mov #0x8004, r5 ; rra r5
        let (cpu, _) = run(&[0x4035, 0x8004, 0x1105], 2);
        assert_eq!(cpu.reg(Reg::R5), 0xC002);
        assert!(cpu.flag(flags::N));
    }

    #[test]
    fn swpb_and_sxt() {
        // mov #0x1280, r5 ; swpb r5 ; sxt r5
        let (cpu, _) = run(&[0x4035, 0x1280, 0x1085, 0x1185], 3);
        // swpb → 0x8012; sxt of low byte 0x12 → 0x0012.
        assert_eq!(cpu.reg(Reg::R5), 0x0012);
    }

    #[test]
    fn dadd_bcd() {
        // clrc? use mov #0, sr ; mov #0x0199, r5 ; mov #0x0001, r6 ; dadd r5, r6
        let prog = [
            0x4302, // mov #0, sr
            0x4035, 0x0199, // mov #0x0199, r5
            0x4316, // mov #1, r6
            0xA506, // dadd r5, r6
        ];
        let (cpu, _) = run(&prog, 4);
        assert_eq!(cpu.reg(Reg::R6), 0x0200);
    }

    #[test]
    fn writes_to_r3_are_discarded() {
        // mov #0x1234, r3 — r3 must stay 0 (constant generator).
        let (cpu, _) = run(&[0x4033, 0x1234], 1);
        assert_eq!(cpu.reg(Reg::R3), 0);
    }

    #[test]
    fn step_reports_accesses() {
        // mov #0xAA55, &0x0200
        let (_, _) = run(&[], 0);
        let mut ram = Ram::new();
        ram.load_words(0xE000, &[0x40B2, 0xAA55, 0x0200]);
        let mut cpu = Cpu::new();
        cpu.set_pc(0xE000);
        let s = cpu.step(&mut ram).unwrap();
        let fetches = s.accesses.iter().filter(|a| a.kind == AccessKind::Fetch).count();
        assert_eq!(fetches, 0, "fetches are implied by pc+insn, not recorded");
        let writes: Vec<_> = s.writes().collect();
        assert_eq!(writes.len(), 1);
        assert_eq!(writes[0].addr, 0x0200);
        assert_eq!(writes[0].value, 0xAA55);
        assert_eq!(s.cycles, 5);
    }

    /// Runs one block dispatch of at most `limit` steps from `pc`,
    /// returning the last observed step.
    fn dispatch_at(cpu: &mut Cpu, ram: &mut Ram, pc: u16, limit: usize) -> Step {
        cpu.set_pc(pc);
        let mut step = Step::default();
        let mut last = Step::default();
        cpu.step_block_into(ram, 0xFFFF, limit, &mut step, |_, _, s| last = *s)
            .expect("dispatch ok");
        last
    }

    #[test]
    fn self_modifying_code_forces_redecode() {
        // Stitch `mov #1, r5` at 0xE006, then execute the store at 0xE000
        // that overwrites it with `mov #2, r6`; re-dispatching 0xE006 must
        // execute the *new* instruction from a re-stitched block.
        let mut ram = Ram::new();
        ram.load_words(0xE000, &[0x40B2, 0x4326, 0xE006]); // mov #0x4326, &0xE006
        ram.load_words(0xE006, &[0x4315, 0x3FFF]); // mov #1, r5 ; jmp .
        let mut cpu = Cpu::new();
        dispatch_at(&mut cpu, &mut ram, 0xE006, 1); // stitches 0xE006 as `mov #1, r5`
        assert_eq!(cpu.reg(Reg::R5), 1);

        dispatch_at(&mut cpu, &mut ram, 0xE000, 1); // the CPU itself patches 0xE006
        assert_eq!(ram.read_word(0xE006), 0x4326);

        let before = cpu.superblock_stats();
        let s = dispatch_at(&mut cpu, &mut ram, 0xE006, 1);
        assert_eq!(cpu.reg(Reg::R6), 2, "new instruction must execute");
        assert_eq!(cpu.reg(Reg::R5), 1, "stale instruction must not run again");
        assert_eq!(
            s.insn,
            Some(Insn::Two {
                op: Op2::Mov,
                size: Size::Word,
                src: Operand::Imm(2),
                dst: Operand::Reg(Reg::R6),
            })
        );
        if !superblocks_forced_off() {
            let after = cpu.superblock_stats();
            assert_eq!(after.restitches, before.restitches + 1, "stale block must re-stitch");
        }
    }

    #[test]
    fn external_write_to_code_forces_redecode() {
        // Mutation that bypasses the CPU entirely (DMA / debugger / image
        // reload): the page write-generation check still catches it.
        let mut ram = Ram::new();
        ram.load_words(0xE000, &[0x5A0A, 0x3FFF]); // add r10, r10 ; jmp .
        let mut cpu = Cpu::new();
        cpu.set_reg(Reg::R10, 21);
        dispatch_at(&mut cpu, &mut ram, 0xE000, 1);
        assert_eq!(cpu.reg(Reg::R10), 42);
        ram.load_words(0xE000, &[0x4A0B]); // mov r10, r11
        let before = cpu.superblock_stats();
        let s = dispatch_at(&mut cpu, &mut ram, 0xE000, 1);
        assert_eq!(cpu.reg(Reg::R10), 42, "old add must not run again");
        assert_eq!(cpu.reg(Reg::R11), 42);
        assert!(matches!(s.insn, Some(Insn::Two { op: Op2::Mov, .. })));
        if !superblocks_forced_off() {
            let after = cpu.superblock_stats();
            assert_eq!(after.restitches, before.restitches + 1, "stale block must re-stitch");
        }
    }

    #[test]
    fn write_straddling_last_byte_of_cached_insn_forces_redecode() {
        // `mov #0xAA55, &0x0200` is three words (0xE000..=0xE005). After
        // stitching it, rewrite only its LAST byte (0xE005, the high byte
        // of the destination address): re-execution must store to the new
        // destination, not the stitched one.
        let mut ram = Ram::new();
        ram.load_words(0xE000, &[0x40B2, 0xAA55, 0x0200, 0x3FFF]);
        let mut cpu = Cpu::new();
        dispatch_at(&mut cpu, &mut ram, 0xE000, 1);
        assert_eq!(ram.read_word(0x0200), 0xAA55);

        ram.load_bytes(0xE005, &[0x03]); // &0x0200 → &0x0300
        let before = cpu.superblock_stats();
        let s = dispatch_at(&mut cpu, &mut ram, 0xE000, 1);
        assert_eq!(ram.read_word(0x0300), 0xAA55, "store must follow the patched operand");
        let w: Vec<_> = s.writes().collect();
        assert_eq!(w[0].addr, 0x0300);
        if !superblocks_forced_off() {
            let after = cpu.superblock_stats();
            assert_eq!(after.hits, before.hits, "a straddled patch can never hit");
            assert_eq!(after.restitches, before.restitches + 1, "stale block must re-stitch");
        }
    }

    #[test]
    fn step_into_reuses_one_step() {
        let mut ram = Ram::new();
        ram.load_words(0xE000, &[0x403A, 0x0015, 0x5A0A]); // mov #21, r10 ; add r10, r10
        let mut cpu = Cpu::new();
        cpu.set_pc(0xE000);
        let mut step = Step::default();
        cpu.step_into(&mut ram, &mut step).unwrap();
        assert_eq!(step.pc, 0xE000);
        assert_eq!(step.insn.unwrap().len_words(), 2);
        cpu.step_into(&mut ram, &mut step).unwrap();
        assert_eq!(step.pc, 0xE004, "step must be fully refilled");
        assert!(step.accesses.is_empty(), "stale accesses must be cleared");
        assert_eq!(cpu.reg(Reg::R10), 42);
    }

    #[test]
    fn cloned_cpu_starts_cold_but_behaves_identically() {
        let mut ram = Ram::new();
        ram.load_words(0xE000, &[0x5A0A]);
        let mut cpu = Cpu::new();
        cpu.set_reg(Reg::R10, 3);
        cpu.set_pc(0xE000);
        cpu.step(&mut ram).unwrap();
        cpu.set_pc(0xE000);
        let mut fork = cpu.clone();
        let a = cpu.step(&mut ram).unwrap();
        let b = fork.step(&mut ram).unwrap();
        assert_eq!(a, b);
    }

    /// Drives `cpu` for exactly `steps` instructions through the block
    /// dispatcher, collecting every observed step.
    fn drive_blocks(cpu: &mut Cpu, ram: &mut Ram, steps: usize) -> Vec<Step> {
        let mut out = Vec::new();
        let mut step = Step::default();
        let mut left = steps;
        while left > 0 {
            let n = cpu
                .step_block_into(ram, 0xFFFF, left, &mut step, |_, _, s| out.push(*s))
                .expect("block step ok");
            left -= n;
        }
        out
    }

    #[test]
    fn superblock_dispatch_matches_step_into() {
        // Busy loop: add ; store ; load ; jmp — the block core and a plain
        // step_into core must produce identical step streams and state.
        let words = [0x5A0A, 0x4A82, 0x0200, 0x4211, 0x0200, 0x3FFA];
        let mut ram_a = Ram::new();
        ram_a.load_words(0xE000, &words);
        let mut ram_b = ram_a.clone();
        let mut a = Cpu::new();
        let mut b = Cpu::new();
        for cpu in [&mut a, &mut b] {
            cpu.set_pc(0xE000);
            cpu.set_reg(Reg::R10, 1);
        }
        let blocked = drive_blocks(&mut a, &mut ram_a, 100);
        let mut step = Step::default();
        for s in &blocked {
            b.step_into(&mut ram_b, &mut step).unwrap();
            assert_eq!(s, &step);
        }
        assert_eq!(a.regs, b.regs);
        assert_eq!(ram_a.as_slice(), ram_b.as_slice());
        if !superblocks_forced_off() {
            let st = a.superblock_stats();
            assert!(st.hits > 0, "looping program must reuse its blocks: {st:?}");
            assert_eq!(st.restitches, 0);
        }
    }

    #[test]
    fn insn_straddling_page_boundary_inside_block_revalidates() {
        if superblocks_forced_off() {
            return;
        }
        // Block entered at 0xE3F8; the `mov #imm, r7` at 0xE3FE keeps its
        // extension word at 0xE400 — the *next* generation page. Patching
        // that word must force a re-stitch even though the entry page is
        // untouched.
        let mut ram = Ram::new();
        ram.load_words(0xE3F8, &[0x4315, 0x4326, 0x4303, 0x4037, 0x1234]);
        let mut cpu = Cpu::new();
        cpu.set_pc(0xE3F8);
        let steps = drive_blocks(&mut cpu, &mut ram, 4);
        assert_eq!(steps.len(), 4);
        assert_eq!(cpu.reg(Reg::R7), 0x1234);
        assert_eq!(cpu.superblock_stats().misses, 1);

        ram.load_words(0xE400, &[0x5678]); // patch the straddled word
        cpu.set_pc(0xE3F8);
        drive_blocks(&mut cpu, &mut ram, 4);
        assert_eq!(cpu.reg(Reg::R7), 0x5678, "patched immediate must be used");
        assert_eq!(cpu.superblock_stats().restitches, 1);
    }

    #[test]
    fn store_into_own_page_mid_block_exits_early() {
        if superblocks_forced_off() {
            return;
        }
        // The first instruction patches the second one (same code page,
        // same block). The block must stop after the store so the patched
        // instruction — not the stitched copy — executes next.
        let mut ram = Ram::new();
        ram.load_words(0xE000, &[0x40B2, 0x4326, 0xE006]); // mov #0x4326, &0xE006
        ram.load_words(0xE006, &[0x4315]); // mov #1, r5 (about to be patched)
        ram.load_words(0xE008, &[0x4303]); // nop
        let mut cpu = Cpu::new();
        cpu.set_pc(0xE000);
        let mut step = Step::default();
        let n = cpu.step_block_into(&mut ram, 0xFFFF, 10, &mut step, |_, _, _| {}).unwrap();
        assert_eq!(n, 1, "block must exit right after the self-patching store");
        assert_eq!(cpu.pc(), 0xE006);
        let n = cpu.step_block_into(&mut ram, 0xFFFF, 10, &mut step, |_, _, _| {}).unwrap();
        assert!(n >= 1);
        assert_eq!(cpu.reg(Reg::R5), 0, "stitched-but-stale insn must not run");
        assert_eq!(cpu.reg(Reg::R6), 2, "patched insn must run");
    }

    #[test]
    fn break_is_allowed_on_entry_pc_but_splits_mid_block() {
        if superblocks_forced_off() {
            return;
        }
        // Break addresses at 0xE000 (an entry — allowed inside its own
        // block) and 0xE004 (must split the straight line).
        let mut ram = Ram::new();
        // mov #1, r5 ; mov #2, r6 ; mov r5, r7 ; jmp 0xE000
        ram.load_words(0xE000, &[0x4315, 0x4326, 0x4507, 0x3FFC]);
        let mut breaks = BlockBreaks::new();
        breaks.insert(0xE000);
        breaks.insert(0xE004);
        let mut cpu = Cpu::new();
        cpu.set_block_breaks(Some(Arc::new(breaks)));
        cpu.set_pc(0xE000);
        let mut step = Step::default();
        let n1 = cpu.step_block_into(&mut ram, 0xFFFF, 100, &mut step, |_, _, _| {}).unwrap();
        assert_eq!(n1, 2, "block must end before the 0xE004 break");
        assert_eq!(cpu.pc(), 0xE004);
        let n2 = cpu.step_block_into(&mut ram, 0xFFFF, 100, &mut step, |_, _, _| {}).unwrap();
        assert_eq!(n2, 2, "a break on the entry PC itself does not shrink the block");
        assert_eq!(cpu.pc(), 0xE000);
        assert_eq!((cpu.reg(Reg::R5), cpu.reg(Reg::R6), cpu.reg(Reg::R7)), (1, 2, 1));
        // Second loop iteration is served from the cache.
        drive_blocks(&mut cpu, &mut ram, 4);
        assert!(cpu.superblock_stats().hits >= 2);
    }

    #[test]
    fn changing_break_set_flushes_blocks() {
        if superblocks_forced_off() {
            return;
        }
        let mut ram = Ram::new();
        ram.load_words(0xE000, &[0x5A0A, 0x3FFE]); // add ; jmp -2
        let mut cpu = Cpu::new();
        cpu.set_pc(0xE000);
        drive_blocks(&mut cpu, &mut ram, 10);
        let before = cpu.superblock_stats();
        assert!(before.hits > 0);
        cpu.set_block_breaks(Some(Arc::new(BlockBreaks::new())));
        drive_blocks(&mut cpu, &mut ram, 10);
        assert!(cpu.superblock_stats().misses > before.misses, "flush must force a re-stitch");
    }

    #[test]
    fn disabled_superblocks_fall_back_to_single_steps() {
        let mut ram = Ram::new();
        ram.load_words(0xE000, &[0x5A0A, 0x3FFE]);
        let mut cpu = Cpu::new();
        cpu.set_superblocks_enabled(false);
        assert!(!cpu.superblocks_enabled());
        cpu.set_pc(0xE000);
        let mut step = Step::default();
        for _ in 0..10 {
            let n = cpu.step_block_into(&mut ram, 0xFFFF, 100, &mut step, |_, _, _| {}).unwrap();
            assert_eq!(n, 1, "disabled dispatch degrades to one step per call");
        }
        assert_eq!(cpu.superblock_stats(), SuperblockStats::default());
    }

    #[test]
    fn block_path_services_interrupts_like_step_into() {
        let mut ram_a = Ram::new();
        ram_a.load_words(0xE000, &[0xD232, 0x4303, 0x4303, 0x4303]); // bis #8,sr ; nops
        ram_a.load_words(0xF000, &[0x1300]); // reti
        ram_a.load_words(0xFFE0 + 2 * 9, &[0xF000]); // vector 9
        let mut ram_b = ram_a.clone();
        let mut a = Cpu::new();
        let mut b = Cpu::new();
        for cpu in [&mut a, &mut b] {
            cpu.set_pc(0xE000);
            cpu.set_reg(Reg::SP, 0x0A00);
        }
        // `bis #8, sr` writes SR, so it terminates its block; the pending
        // IRQ is then taken at the next dispatch, exactly like step_into.
        let blocked = {
            a.raise_irq(9);
            drive_blocks(&mut a, &mut ram_a, 4)
        };
        b.raise_irq(9);
        let mut step = Step::default();
        for s in &blocked {
            b.step_into(&mut ram_b, &mut step).unwrap();
            assert_eq!(s, &step);
        }
        assert_eq!(blocked[1].irq, Some(9), "IRQ entry must follow the GIE-setting insn");
        assert_eq!(a.regs, b.regs);
    }

    #[test]
    fn stop_pc_mid_block_halts_dispatch_before_the_instruction() {
        if superblocks_forced_off() {
            return;
        }
        let mut ram = Ram::new();
        ram.load_words(0xE000, &[0x4315, 0x4326, 0x4337, 0x4303]); // 4 straight movs
        let mut cpu = Cpu::new();
        cpu.set_pc(0xE000);
        let mut step = Step::default();
        let n = cpu.step_block_into(&mut ram, 0xE004, 100, &mut step, |_, _, _| {}).unwrap();
        assert_eq!(n, 2, "dispatch must stop before the stop_pc instruction");
        assert_eq!(cpu.pc(), 0xE004);
        assert_eq!(cpu.reg(Reg::R7), 0, "the stop_pc instruction must not execute");
    }

    #[test]
    fn run_until_stops_at_address() {
        // mov #1, r5 ; mov #2, r6 ; jmp .
        let mut ram = Ram::new();
        ram.load_words(0xE000, &[0x4315, 0x4326, 0x3FFF]);
        let mut cpu = Cpu::new();
        cpu.set_pc(0xE000);
        let steps = cpu.run_until(&mut ram, 0xE004, 100).unwrap();
        assert_eq!(steps.len(), 2);
        assert_eq!(cpu.pc(), 0xE004);
    }
}
