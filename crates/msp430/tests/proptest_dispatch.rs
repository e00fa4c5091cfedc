//! Differential property test for the emulator's two dispatch paths.
//!
//! Random programs are run in lockstep on two cores over identical
//! memories: one forced onto the decode-every-step path (the oracle), and
//! one with superblock dispatch (block-at-a-time fast path). Every
//! [`Step`] — instruction, cycle count, PCs, and the full ordered
//! bus-access list — must be identical, as must any fault, the final
//! register file, and the final memory image.
//!
//! Programs end in a jump back to their base so the block core re-enters
//! stitched blocks, and random absolute/indexed stores occasionally land
//! inside the program itself (self-modifying code), exercising the
//! superblock layer's write-generation revalidation and mid-block SMC
//! early exit. A strategy-chosen step may additionally reload the pristine
//! image over the (possibly self-modified) program mid-run, modelling a
//! device image reload.
//!
//! The superblock core runs *ahead* by whole blocks: its steps are queued
//! by the dispatch callback and drained one per lockstep iteration. The
//! dispatch budget is capped at the reload boundary so both cores observe
//! the reload between the same two steps.

use std::collections::VecDeque;

use msp430::cpu::{Cpu, Step};
use msp430::flags;
use msp430::isa::{Cond, Insn, Op1, Op2, Operand, Size};
use msp430::mem::Ram;
use msp430::regs::Reg;
use msp430::superblocks_forced_off;
use msp430::CpuFault;
use proptest::prelude::*;

const BASE: u16 = 0xE000;

/// Registers legal as general-purpose operand bases (no PC/SR/CG2).
fn gp_reg() -> impl Strategy<Value = Reg> {
    (4u16..16).prop_map(Reg::from_index)
}

fn any_size() -> impl Strategy<Value = Size> {
    prop_oneof![Just(Size::Word), Just(Size::Byte)]
}

/// Addresses that sometimes overlap the program (self-modifying code) and
/// sometimes plain data memory.
fn mem_addr() -> impl Strategy<Value = u16> {
    prop_oneof![0xE000u16..0xE040, 0x0200u16..0x0400, any::<u16>()]
}

fn src_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        gp_reg().prop_map(Operand::Reg),
        Just(Operand::Reg(Reg::SP)),
        (gp_reg(), any::<u16>()).prop_map(|(r, x)| Operand::Indexed(r, x)),
        mem_addr().prop_map(Operand::Symbolic),
        mem_addr().prop_map(Operand::Absolute),
        gp_reg().prop_map(Operand::Indirect),
        gp_reg().prop_map(Operand::IndirectInc),
        any::<u16>().prop_map(Operand::Imm),
    ]
}

fn dst_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        gp_reg().prop_map(Operand::Reg),
        (gp_reg(), any::<u16>()).prop_map(|(r, x)| Operand::Indexed(r, x)),
        mem_addr().prop_map(Operand::Symbolic),
        mem_addr().prop_map(Operand::Absolute),
    ]
}

fn op2() -> impl Strategy<Value = Op2> {
    prop_oneof![
        Just(Op2::Mov),
        Just(Op2::Add),
        Just(Op2::Addc),
        Just(Op2::Subc),
        Just(Op2::Sub),
        Just(Op2::Cmp),
        Just(Op2::Dadd),
        Just(Op2::Bit),
        Just(Op2::Bic),
        Just(Op2::Bis),
        Just(Op2::Xor),
        Just(Op2::And),
    ]
}

fn op1() -> impl Strategy<Value = Op1> {
    prop_oneof![Just(Op1::Rrc), Just(Op1::Swpb), Just(Op1::Rra), Just(Op1::Sxt), Just(Op1::Push),]
}

fn cond() -> impl Strategy<Value = Cond> {
    prop_oneof![
        Just(Cond::Nz),
        Just(Cond::Z),
        Just(Cond::Nc),
        Just(Cond::C),
        Just(Cond::Ge),
        Just(Cond::L),
    ]
}

fn any_insn() -> impl Strategy<Value = Insn> {
    prop_oneof![
        (op2(), any_size(), src_operand(), dst_operand())
            .prop_map(|(op, size, src, dst)| Insn::Two { op, size, src, dst }),
        (op1(), src_operand()).prop_map(|(op, sd)| {
            let size = if op.allows_byte() { Size::Byte } else { Size::Word };
            Insn::One { op, size, sd }
        }),
        (op1(), src_operand()).prop_map(|(op, sd)| Insn::One { op, size: Size::Word, sd }),
        // Short forward jumps keep control flow inside the program.
        (cond(), 0i16..6).prop_map(|(cond, offset)| Insn::Jump { cond, offset }),
    ]
}

/// Encodes a random instruction list at `BASE`, closed by a jump back to
/// `BASE` so re-execution re-enters stitched blocks.
fn build_program(insns: &[Insn]) -> Vec<u16> {
    let mut words = Vec::new();
    let mut at = BASE;
    for insn in insns {
        if let Ok(w) = insn.encode(at) {
            at = at.wrapping_add(2 * w.len() as u16);
            words.extend(w);
        }
    }
    if let Ok(j) = Insn::jump_to(Cond::Always, at, BASE) {
        words.extend(j.encode(at).expect("loop jump encodes"));
    }
    words
}

/// A PC-shaped value no program counter can hold (word writes to PC clear
/// bit 0), so block dispatch never stops early on it.
const NO_STOP: u16 = 0xFFFF;

const STEPS: usize = 500;

proptest! {
    /// The decode-every-step oracle and the superblock block-at-a-time
    /// path produce identical step streams, faults, cycle totals,
    /// registers and memory for random (often self-modifying) programs,
    /// including across a mid-run image reload.
    #[test]
    fn forced_and_superblock_streams_match(
        insns in proptest::collection::vec(any_insn(), 1..10),
        seed_regs in proptest::array::uniform8(any::<u16>()),
        sp in (0x0280u16..0x04F0).prop_map(|a| a * 2),
        sr in 0u16..0x0200,
        reload_raw in 0usize..960,
    ) {
        // Half the cases reload the pristine image mid-run; the other half
        // never reload (the vendored proptest has no `option::of`).
        let reload_at = (reload_raw < 480).then(|| reload_raw.max(1));
        let words = build_program(&insns);
        prop_assume!(!words.is_empty());

        let mut ram_slow = Ram::new();
        ram_slow.load_words(BASE, &words);
        let mut ram_block = ram_slow.clone();

        let mut slow = Cpu::new();
        let mut block = Cpu::new();
        slow.set_superblocks_enabled(false);
        for cpu in [&mut slow, &mut block] {
            cpu.set_pc(BASE);
            cpu.set_reg(Reg::SP, sp);
            cpu.set_reg(Reg::SR, sr & (flags::C | flags::Z | flags::N | flags::V));
            for (i, v) in seed_regs.iter().enumerate() {
                cpu.set_reg(Reg::from_index(8 + i as u16), *v);
            }
        }

        let mut slow_step = Step::default();
        let mut block_scratch = Step::default();
        // The superblock core runs ahead by whole blocks; the queue holds
        // the steps it has executed that the lockstep loop has not yet
        // consumed.
        let mut block_queue: VecDeque<Step> = VecDeque::new();
        let (mut slow_cycles, mut block_cycles) = (0u64, 0u64);
        let mut stopped_early = false;
        for n in 0..STEPS {
            if reload_at == Some(n) {
                // Dispatch budgets are capped at the reload boundary, so
                // the block core cannot have run past it.
                prop_assert!(block_queue.is_empty(), "block core overran the reload boundary");
                ram_slow.load_words(BASE, &words);
                ram_block.load_words(BASE, &words);
            }

            let rs = slow.step_into(&mut ram_slow, &mut slow_step);
            let rb: Result<Step, CpuFault> = match block_queue.pop_front() {
                Some(s) => Ok(s),
                None => {
                    let limit = match reload_at {
                        Some(r) if r > n => r - n,
                        _ => STEPS - n,
                    };
                    block
                        .step_block_into(&mut ram_block, NO_STOP, limit, &mut block_scratch,
                            |_, _, s| block_queue.push_back(*s))
                        .map(|executed| {
                            assert!(executed > 0, "dispatch with budget must execute");
                            block_queue.pop_front().expect("executed steps are queued")
                        })
                }
            };
            match (rs, rb) {
                (Ok(()), Ok(block_step)) => {
                    prop_assert_eq!(&block_step, &slow_step, "superblock step {} diverged", n);
                    slow_cycles += u64::from(slow_step.cycles);
                    block_cycles += u64::from(block_step.cycles);
                }
                (Err(es), Err(eb)) => {
                    prop_assert_eq!(eb, es, "superblock fault diverged at step {}", n);
                    stopped_early = true;
                    break;
                }
                (rs, rb) => {
                    return Err(TestCaseError::fail(format!(
                        "paths disagreed on faulting at step {n}: slow={rs:?} block={rb:?}"
                    )));
                }
            }
        }

        prop_assert_eq!(block_cycles, slow_cycles);
        for r in Reg::ALL {
            prop_assert_eq!(block.reg(r), slow.reg(r), "superblock {} diverged", r);
        }
        prop_assert_eq!(ram_block.as_slice(), ram_slow.as_slice(), "superblock memory diverged");
        // Superblock *hits* are not guaranteed — heavy SMC can keep every
        // block generation-stale — but the first dispatch of a run is
        // always a miss.
        if !stopped_early && !superblocks_forced_off() {
            let s = block.superblock_stats();
            prop_assert!(s.misses > 0, "superblock core never dispatched a block");
        }
    }
}
