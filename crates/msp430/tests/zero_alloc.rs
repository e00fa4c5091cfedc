//! Proof that the steady-state emulation fast path performs **zero heap
//! allocations** — the ISSUE 2 acceptance criterion for the `step_into`
//! refactor, extended to superblock dispatch (block construction may
//! allocate once; block *reuse* may not) — measured with a counting
//! global allocator.
//!
//! The workspace otherwise denies `unsafe_code`; this test binary opts out
//! locally because the shared counting-allocator harness (see
//! `tests/support/counting_alloc.rs`) implements `GlobalAlloc`.

#![allow(unsafe_code)]

use msp430::cpu::{Cpu, Step};
use msp430::mem::Ram;
use msp430::regs::Reg;

include!("support/counting_alloc.rs");

/// Runs without the libtest harness (see `Cargo.toml`): the measurement
/// must be the only thing executing in the process, since harness threads
/// allocate concurrently and would pollute the counters.
fn main() {
    steady_state_step_loop_is_allocation_free();
    steady_state_superblock_dispatch_is_allocation_free();
    println!("zero_alloc: ok");
}

fn steady_state_step_loop_is_allocation_free() {
    // A self-contained busy loop mixing ALU, memory traffic and a jump:
    //   add r10, r10 ; mov r10, &0x0200 ; mov &0x0200, r11 ; jmp -6
    let mut ram = Ram::new();
    ram.load_words(0xE000, &[0x5A0A, 0x4A82, 0x0200, 0x4211, 0x0200, 0x3FFA]);

    // The decode-every-step path (the dispatch oracle) must not allocate:
    // decoding reads straight from the bus into the caller's `Step`.
    let mut cpu = Cpu::new();
    cpu.set_superblocks_enabled(false);
    cpu.set_pc(0xE000);
    cpu.set_reg(Reg::R10, 1);
    let mut step = Step::default();

    for _ in 0..64 {
        cpu.step_into(&mut ram, &mut step).expect("warm-up step");
    }
    let before = allocations();
    for _ in 0..100_000 {
        cpu.step_into(&mut ram, &mut step).expect("steady-state step");
    }
    assert_eq!(allocations() - before, 0, "forced decode path must not allocate");

    // Sanity: the harness actually counts (one boxed value = ≥1 count).
    let before = allocations();
    let boxed = std::hint::black_box(Box::new(0xABu8));
    assert!(allocations() > before, "counting allocator must observe allocations");
    drop(boxed);
}

fn steady_state_superblock_dispatch_is_allocation_free() {
    // The same busy loop, dispatched block-at-a-time. Stitching a block
    // allocates (its instruction vector, once per block); *reusing* a
    // stitched block must not — the generation check, the take/put slot
    // swap and the per-instruction execute loop all run on existing
    // storage.
    let mut ram = Ram::new();
    ram.load_words(0xE000, &[0x5A0A, 0x4A82, 0x0200, 0x4211, 0x0200, 0x3FFA]);

    let mut cpu = Cpu::new();
    if !cpu.superblocks_enabled() {
        // MSP430_FORCE_STEP: the dispatch below degrades to `step_into`,
        // already covered above.
        return;
    }
    cpu.set_pc(0xE000);
    cpu.set_reg(Reg::R10, 1);
    let mut step = Step::default();

    // Warm-up: stitches the loop's blocks.
    let mut warmed = 0usize;
    while warmed < 64 {
        warmed += cpu
            .step_block_into(&mut ram, 0xFFFF, 64 - warmed, &mut step, |_, _, _| {})
            .expect("warm-up dispatch");
    }

    let before = allocations();
    let mut steps = 0usize;
    while steps < 100_000 {
        steps += cpu
            .step_block_into(&mut ram, 0xFFFF, 100_000 - steps, &mut step, |_, _, _| {})
            .expect("steady-state dispatch");
    }
    assert_eq!(allocations() - before, 0, "superblock block reuse must not allocate");
    let stats = cpu.superblock_stats();
    assert!(stats.hits > 0, "steady state must be served from stitched blocks");
}
