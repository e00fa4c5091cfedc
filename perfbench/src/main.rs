//! End-to-end and per-layer benchmark of the DIALED attestation service.
//!
//! DIALED's price is paid by the verifier, which re-executes every
//! attested operation over the device's OR log. The numbers an operator
//! cares about are how many devices the service attests per second and
//! how long a device waits for its verdict. This program drives the
//! service from outside — over TCP loopback or through the in-process
//! `Fleet` API — and checks every verdict.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload registers the three paper apps with 342 devices each
//! (1,026 devices), default `FleetConfig` / `NetConfig`. The load comes
//! from one process with at most two client threads and connections.
//! Device proofs are precomputed off the clock by a generator twin
//! ([`gen`]); every grant is checked byte for byte against it.
//!
//! # Workloads
//!
//! * `tcp-full-saturate` — closed loop over TCP against a durable fleet
//!   (WAL and snapshots in a fresh state dir), all ops in Full (DIALED)
//!   mode, two connections with one client thread each; each device starts
//!   its next Issue → Grant → Submit → Verdict as soon as its verdict
//!   arrives. *Why:* the service's capacity on the paper's full data-flow
//!   path. Abstract emulation is most of the verify CPU, and the population
//!   is twice `drain_pending`, so drains are triggered by load rather than
//!   the timer. Emulation, MAC, batch-scheduling and core-thread changes
//!   all move `attest_per_s` here.
//! * `tcp-pox-paced` — open loop over TCP against a durable fleet with the
//!   same apps registered in Original mode (APEX PoX only: MAC + EXEC, no
//!   abstract execution); Poisson arrivals at a mean 2,000 attest/s over
//!   one connection driven by a writer and a reader thread. *Why:*
//!   verification costs microseconds, so latency is set by the drain
//!   timer, the single core thread, the WAL commit and the sockets.
//!   Drain-policy, net and WAL changes show here; emulation changes are
//!   predicted to show none.
//! * `fleet-attack-mix` — the in-process `Fleet` API, no sockets, an
//!   in-memory fleet, all ops in Full mode. Each round issues to every
//!   device, submits, drains and prunes. Submissions are a seeded mix:
//!   50% honest (clean), 10% tag bit flip (reject `mac`), 10% OR bit flip
//!   (reject `mac`), 5% OR truncation (reject `or-length`), 15% CF-Log
//!   splice resealed under the device key at a ControlFlow slot from
//!   `DialedVerifier::or_slot_classes` (Attack with `LogDivergence`, after
//!   full emulation), 10% replay of the device's last accepted submission
//!   on its fresh session (reject `session` before any crypto; the honest
//!   proof then follows on that session). *Why:* it bypasses `fleet::net`
//!   and `fleet::store`, isolating session, ingest, batch and verifier; it
//!   puts reject paths that skip emulation or crypto beside the full
//!   honest path, so trading one for the other shows; its 1,026-proof
//!   drains make lane MACs and shard × worker scheduling matter most.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! The timed `--seconds` are split into six sub-phases, each on a freshly
//! set-up service; rates, latency percentiles and `setup_s` are medians
//! over them. On a host shared with other guests, those guests slow the
//! service in bursts (by more than the CPU time they steal), so a
//! disturbed sub-phase — more than 4% of the host's CPU time stolen
//! (`/proc/stat`), or more than 15% slower than the fastest sub-phase — is
//! followed by another, up to eighteen in all, and the medians are taken
//! over the six fastest. A run on a busy host can thus take up to three
//! times `--seconds`. Every sub-phase prints its figures and steal share.
//!
//! * `attest_per_s` — completed attestations per second of timed wall
//!   time. An attestation is complete when its verdict arrives, or when an
//!   adversarial submission gets its expected reject.
//! * `attest_p50_ms`, `attest_p99_ms` — scheduled Issue time → verdict. On
//!   the open loop the schedule is the Poisson clock; on the closed loops
//!   a device is due when its previous verdict arrives; in-process, an
//!   item is due at its `Fleet::issue` call. The sample count is printed.
//! * `ok_ratio` — operations with the expected outcome ÷ operations
//!   attempted, i.e. 1 − the failure ratio (reported this way round so
//!   the metric is never 0). Failures are `Overloaded` sheds, expiries and
//!   wrong outcomes; a wrong outcome, a protocol or socket error, a server
//!   thread panic or a reject-class count that disagrees with
//!   `NetStats::rejects_by_class` also fails the run.
//! * `setup_s` — median of the kept sub-phases' set-ups: build the three
//!   ops, create the fleet (durable where the workload says so), register
//!   ops and devices, spawn the server, one warm-up round. Proof
//!   precomputation excluded.
//! * `heap_peak_mb` — the run's peak live heap attributable to the
//!   service: over every set-up and sub-phase (disturbed ones too), the
//!   peak less the live heap just before that set-up, once the proof pool
//!   is built and the previous service is gone. The benchmark's global
//!   allocator ([`heap`]) counts the bytes. The peak is the most of them,
//!   not a median, because it is set by queue capacities the set-up's
//!   warm-up burst grows to one of a few sizes depending on drain timing
//!   (on `tcp-pox-paced` about 4.3, 5.1 or 6.7 MB); the run's most is
//!   steady. It counts heap bytes rather than resident memory because for
//!   this ~5 MB service glibc's arena and page reuse moved the resident
//!   peak ±12% between runs of the same code; the process's peak resident
//!   size is still printed.
//!
//! # Per-layer metrics (`--trace 1`) and what they should move
//!
//! Metrics marked † are printed but kept off the result line (see below).
//!
//! | layer | metrics | moves |
//! |---|---|---|
//! | `fleet::net` | `net.grant_rtt_p50_ms`†, `net.grant_rtt_p99_ms`†, `net.proofs_per_drain`†, `net.drains_per_s`†, `net.frames_in`, `net.frames_out`, `net.shed`, `net.expired`, `net.protocol_errors`, `net.overhead_share` | `attest_p50_ms`/`attest_p99_ms` on `tcp-pox-paced`, `attest_per_s` on `tcp-full-saturate`; none on `fleet-attack-mix` |
//! | `fleet` | `fleet.issue_us`, `fleet.submit_us`, `fleet.prune_us`, `fleet.drain_us_per_proof`, `fleet.proofs_per_drain`, `fleet.drain_efficiency` | `attest_per_s` on `tcp-full-saturate` and `fleet-attack-mix` |
//! | `fleet::store` | `wal.append_us`, `wal.bytes_per_attest`, `wal.submit_overhead_us` | `attest_p99_ms` on `tcp-pox-paced`, `attest_per_s` on `tcp-full-saturate`; none on `fleet-attack-mix` |
//! | `fleet::wire` | `wire.encode_us`, `wire.decode_us`, `wire.proof_frame_bytes` | `attest_per_s` on both TCP workloads |
//! | `dialed::batch` | `batch.us_per_proof`, `batch.efficiency` | `attest_per_s` on `tcp-full-saturate` and `fleet-attack-mix` |
//! | MAC (`apex`/`vrased`/`hacl`) | `mac.check_us`, `mac.lanes_us_per_proof`, `mac.er_digest_hit_rate` | `attest_per_s` on `tcp-full-saturate` and `fleet-attack-mix` |
//! | `dialed::verifier` | `emu.us_per_proof`†, `emu.ns_per_insn`†, `emu.insns_per_proof` | `attest_per_s` on `tcp-full-saturate` and `fleet-attack-mix`; none on `tcp-pox-paced` |
//! | `dialed::policy` | `policy.us_per_proof`† | as `dialed::verifier` |
//! | `msp430` | `msp430.superblock_hit_rate`, `msp430.restitches` | `emu.ns_per_insn` |
//! | outcomes | `verdict.clean`, `verdict.attack`, `reject.<class>` | correctness oracle: exact counts per seed |
//! | generator | `gen.lag_p99_ms`†, `gen.precompute_s` | validity of the run only |
//! | split | `share.<layer>`, `share.residual`, `trace.overhead` | where the wall time goes |
//!
//! Timings that exist on only some workloads (grant round trips, drain
//! rate, emulation and policy time, generator lag) are printed, with the
//! reason where they do not apply, but kept off the result line, which
//! carries the same metric set for every workload. See [`trace`] for how
//! self times are attributed.
//!
//! Runs keep their durable state in a fresh directory under
//! `.perfbench-state/`, removed when the run ends, also on failure.

mod gen;
mod heap;
mod host;
mod inproc;
mod stats;
mod tcp;
mod trace;
mod world;

use dialed::pipeline::InstrumentMode;
use gen::Pool;
use stats::{median, percentile, Outcome, Tally};
use std::process::ExitCode;
use world::{StateDir, DEVICES, PHASES};

/// Upper bound on attestations per second any workload is expected to
/// reach; it sizes the closed loops' proof pools. A faster service
/// exhausts the pool and ends its timed phase early (reported).
const RATE_CAP: f64 = 40_000.0;

/// The open loop's mean arrival rate.
const PACED_RATE: f64 = 2_000.0;

/// The open loop is invalid when its generator fell behind its schedule:
/// when even its median issue is this late (two mean inter-arrival gaps).
/// A late wake-up now and then (a host stall) only shows in the p99 lag,
/// and costs the run nothing: latency counts from the scheduled time.
const LAG_LIMIT_MS: f64 = 1.0;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    TcpFullSaturate,
    TcpPoxPaced,
    FleetAttackMix,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "tcp-full-saturate" => Some(Self::TcpFullSaturate),
            "tcp-pox-paced" => Some(Self::TcpPoxPaced),
            "fleet-attack-mix" => Some(Self::FleetAttackMix),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::TcpFullSaturate => "tcp-full-saturate",
            Self::TcpPoxPaced => "tcp-pox-paced",
            Self::FleetAttackMix => "fleet-attack-mix",
        }
    }

    fn mode(self) -> InstrumentMode {
        match self {
            Self::TcpPoxPaced => InstrumentMode::Original,
            _ => InstrumentMode::Full,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut it = std::env::args().skip(1);
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
                "--trace" => trace = value == "1",
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err("--seconds must be in (0, 120]".to_string());
        }
        Ok(Self { workload, seed, seconds, trace })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut state = match StateDir::new(args.workload.name()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create state dir: {e}");
            return ExitCode::FAILURE;
        }
    };
    let host = host::Host::probe(state.path());
    println!("host: {host} fingerprint={:016x}", host.id());
    println!(
        "workload: {} seed={} seconds={} trace={} population={DEVICES} devices (3 apps x {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        world::DEVICES_PER_APP
    );
    let result = match args.workload {
        Workload::FleetAttackMix => run_mix(&args, &host, &mut state),
        _ => run_tcp(&args, &host, &mut state),
    };
    drop(state);
    match result {
        Ok((out, first_mismatch)) => {
            if let Some(m) = &first_mismatch {
                println!("WRONG OUTCOME: {m}");
            }
            println!("{}", out.json());
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

type RunResult = Result<(Outcome, Option<String>), String>;

fn pool_rounds(seconds: f64) -> usize {
    1 + (seconds * RATE_CAP / DEVICES as f64).ceil() as usize
}

/// One timed sub-phase's end-to-end figures.
struct Sub {
    rate: f64,
    p50: f64,
    p99: f64,
    samples: usize,
    tally: Tally,
    /// Share of host CPU time stolen by other guests during the sub-phase.
    steal: f64,
    /// Wall time of the set-up that preceded it.
    setup: f64,
    /// Peak live-heap growth over the set-up and the sub-phase, in MiB.
    heap: f64,
}

impl Sub {
    fn new(tally: Tally, lat_ms: &mut [f64], wall: f64, steal: f64, setup: f64, heap: f64) -> Self {
        let sub = Self {
            rate: tally.completed as f64 / wall,
            p50: percentile(lat_ms, 0.5),
            p99: percentile(lat_ms, 0.99),
            samples: lat_ms.len(),
            tally,
            steal,
            setup,
            heap,
        };
        println!(
            "  sub-phase: {:.1} attest/s over {wall:.3} s, p50 {:.3} ms, p99 {:.3} ms ({} samples), host steal {:.1}%, set-up {setup:.4} s, peak heap +{heap:.3} MB",
            sub.rate, sub.p50, sub.p99, sub.samples, 100.0 * steal
        );
        sub
    }
}

/// Most sub-phases a run measures, disturbed ones included.
const MAX_PHASES: usize = 3 * PHASES;

/// Host steal above which a sub-phase counts as disturbed.
const STEAL_LIMIT: f64 = 0.04;

/// A sub-phase slower than this share of the fastest one so far counts as
/// disturbed.
const SLOW_LIMIT: f64 = 0.85;

/// Runs timed sub-phases, each on a freshly set-up service, until `PHASES`
/// of them are undisturbed (or `3 × PHASES` ran); returns them fastest
/// first, and the metrics are medians over the first `PHASES`. A sub-phase is disturbed when other guests stole more than
/// `STEAL_LIMIT` of the host's CPU time during it, or when it ran slower
/// than `SLOW_LIMIT` of the fastest sub-phase — a shared host also slows
/// guests without accounting it as steal. Speed is the attestation rate on
/// a closed loop and the inverse median latency on the open loop, whose
/// rate the schedule fixes.
fn sub_phases(
    open_loop: bool,
    mut run: impl FnMut(usize) -> Result<Sub, String>,
) -> Result<Vec<Sub>, String> {
    let speed = |s: &Sub| if open_loop { 1.0 / s.p50 } else { s.rate };
    let mut subs: Vec<Sub> = Vec::new();
    for k in 0..MAX_PHASES {
        let best = subs.iter().map(speed).fold(0.0, f64::max);
        let calm =
            subs.iter().filter(|s| s.steal <= STEAL_LIMIT && speed(s) >= SLOW_LIMIT * best).count();
        if calm >= PHASES {
            break;
        }
        subs.push(run(k)?);
    }
    subs.sort_by(|a, b| speed(b).total_cmp(&speed(a)));
    Ok(subs)
}

/// End-to-end metrics: medians over the kept sub-phases and their
/// set-ups; `ok_ratio` and `heap_peak_mb` over every sub-phase run.
fn end_to_end(out: &mut Outcome, all: &[Sub]) {
    let subs = &all[..PHASES.min(all.len())];
    let med = |f: fn(&Sub) -> f64| median(&mut subs.iter().map(f).collect::<Vec<_>>());
    let (rate, p50, p99) = (med(|s| s.rate), med(|s| s.p50), med(|s| s.p99));
    let mut t = Tally::default();
    for s in all {
        t.merge(s.tally.clone());
    }
    let ok = t.completed as f64 / t.attempted.max(1) as f64;
    let samples: usize = subs.iter().map(|s| s.samples).sum();
    let kept: u64 = subs.iter().map(|s| s.tally.completed).sum();
    let setup = med(|s| s.setup);
    let heap = all.iter().map(|s| s.heap).fold(0.0, f64::max);
    println!(
        "attest_per_s = {rate:.1} (median of the {} kept of {} sub-phases; {kept} completed; \
         population {DEVICES} devices)",
        subs.len(),
        all.len()
    );
    println!(
        "attest_p50_ms = {p50:.4}, attest_p99_ms = {p99:.4} (sub-phase medians; {samples} samples)"
    );
    println!(
        "ok_ratio = {ok:.6} ({} attempted: {} shed, {} expired, {} wrong)",
        t.attempted, t.shed, t.expired, t.mismatches
    );
    println!(
        "setup_s = {setup:.4} (median of {} set-ups), heap_peak_mb = {heap:.3} (most of {}; \
         process peak resident size {:.1} MB)",
        subs.len(),
        all.len(),
        host::mem_mib("VmHWM")
    );
    out.push("attest_per_s", rate, "1/s");
    out.push("attest_p50_ms", p50, "ms");
    out.push("attest_p99_ms", p99, "ms");
    out.push("ok_ratio", ok, "ratio");
    out.push("setup_s", setup, "s");
    out.push("heap_peak_mb", heap, "MB");
}

fn run_tcp(args: &Args, host: &host::Host, state: &mut StateDir) -> RunResult {
    let w = args.workload;
    let mode = w.mode();
    let paced = w == Workload::TcpPoxPaced;
    let conns = if paced { 1 } else { 2 };
    let len = args.seconds / PHASES as f64;
    let schedules: Vec<(Vec<tcp::Arrival>, usize)> = if paced {
        (0..MAX_PHASES as u64)
            .map(|k| tcp::poisson_schedule(args.seed ^ (k << 32), PACED_RATE, len))
            .collect()
    } else {
        Vec::new()
    };
    let rounds = schedules.iter().map(|(_, r)| r + 1).max().unwrap_or_else(|| pool_rounds(len));
    let pool = Pool::build(mode, args.seed, rounds, false);
    println!("gen.precompute_s = {:.3} ({} rounds per device)", pool.precompute_s, pool.rounds);
    let mut all = Tally::default();

    // One timed sub-phase on a freshly set-up service.
    let phase = |svc: &mut tcp::Service, k: usize, trace: bool| -> Result<tcp::Phase, String> {
        let s0 = svc.stats();
        let mut p = match schedules.get(k) {
            Some((sched, _)) => tcp::open_loop(&mut svc.conns[0], &pool, sched, trace),
            None => tcp::closed_loop(&mut svc.conns, &pool, 1, Some(len), trace),
        }
        .map_err(|e| format!("client: {e}"))?;
        let s1 = svc.stats();
        svc.seen.merge(p.tally.clone());
        if p.exhausted {
            println!("note: proof pool exhausted before the deadline; sub-phase shortened");
        }
        println!(
            "  net.proofs_per_drain = {:.1} ({} submitted over {} drains)",
            (s1.submitted - s0.submitted) as f64 / (s1.drains - s0.drains).max(1) as f64,
            s1.submitted - s0.submitted,
            s1.drains - s0.drains
        );
        check_lag(&mut p)?;
        Ok(p)
    };
    let setup = |state: &mut StateDir| {
        tcp::setup(&pool, mode, args.seed, state, conns).map_err(|e| format!("set-up: {e}"))
    };
    let finish = |svc: tcp::Service, all: &mut Tally| {
        all.merge(svc.seen.clone());
        svc.shutdown()
    };

    if !args.trace {
        let subs = sub_phases(paced, |k| {
            let heap_base = heap::reset_peak();
            let (mut svc, t) = setup(state)?;
            let st0 = host::steal_ticks();
            let mut p = phase(&mut svc, k, false)?;
            let steal = host::steal_share(st0);
            let heap = heap::peak_mib_since(heap_base);
            let (_, stats) = finish(svc, &mut all)?;
            println!("  server: {stats}");
            Ok(Sub::new(p.tally, &mut p.lat_ms, p.wall, steal, t, heap))
        })?;
        let mut out = Outcome::new(&all);
        end_to_end(&mut out, &subs);
        return Ok((out, all.first_mismatch));
    }

    // Traced run: an untraced sub-phase as the overhead baseline, then a
    // traced one on a fresh service.
    let (mut svc, _) = setup(state)?;
    let st0 = host::steal_ticks();
    let untraced = phase(&mut svc, 0, false)?;
    let steal_untraced = host::steal_share(st0);
    finish(svc, &mut all)?;

    let (mut svc, _) = setup(state)?;
    let sb0 = msp430::process_superblock_stats();
    let s0 = svc.stats();
    let st0 = host::steal_ticks();
    let mut traced = phase(&mut svc, 1.min(schedules.len().saturating_sub(1)), true)?;
    print_steal(steal_untraced, host::steal_share(st0));
    let s1 = svc.stats();
    let sb1 = msp430::process_superblock_stats();
    let (digest, _) = finish(svc, &mut all)?;

    let per_drain =
        ((s1.submitted - s0.submitted) / (s1.drains - s0.drains).max(1)).max(1) as usize;
    let dir = state.fresh();
    let (fleet_spans, batches) =
        inproc::replay(&pool, mode, args.seed, Some(&dir), &traced.traffic, per_drain, &mut all);
    StateDir::discard(&dir);
    let (alt_spans, _) =
        inproc::replay(&pool, mode, args.seed, None, &traced.traffic, per_drain, &mut all);
    let rv = trace::reverify(&pool, mode, args.seed, &batches, state.path(), &mut all);

    let mut out = Outcome::new(&all);
    trace::Inputs {
        nproc: host.nproc,
        durable: true,
        wall: traced.wall,
        rate_untraced: untraced.tally.completed as f64 / untraced.wall,
        rate_traced: traced.tally.completed as f64 / traced.wall,
        tally: &traced.tally,
        net: Some(trace::NetTrace {
            rtt_ms: std::mem::take(&mut traced.rtt_ms),
            frames_in: s1.frames_in - s0.frames_in,
            frames_out: s1.frames_out - s0.frames_out,
            shed: s1.shed - s0.shed,
            expired: s1.expired - s0.expired,
            protocol_errors: s1.protocol_errors - s0.protocol_errors,
            submitted: s1.submitted - s0.submitted,
            drains: s1.drains - s0.drains,
        }),
        fleet: fleet_spans,
        alt: alt_spans,
        rv,
        superblocks: delta(sb0, sb1),
        digest_hit_rate: digest.hit_rate(),
        precompute_s: pool.precompute_s,
        lag_ms: paced.then(|| std::mem::take(&mut traced.lag_ms)),
    }
    .report(&mut out);
    Ok((out, all.first_mismatch))
}

/// Reports the open loop's generator lag and fails a run whose generator
/// fell behind its schedule.
fn check_lag(p: &mut tcp::Phase) -> Result<(), String> {
    if p.lag_ms.is_empty() {
        return Ok(());
    }
    let (p50, p99) = (percentile(&mut p.lag_ms, 0.5), percentile(&mut p.lag_ms, 0.99));
    println!("  gen.lag_p99_ms = {p99:.4} (p50 {p50:.4}, {} arrivals)", p.lag_ms.len());
    if p50 > LAG_LIMIT_MS {
        return Err(format!(
            "invalid run: the generator fell behind its schedule (median issue {p50:.3} ms late)"
        ));
    }
    Ok(())
}

fn delta(a: msp430::SuperblockStats, b: msp430::SuperblockStats) -> msp430::SuperblockStats {
    msp430::SuperblockStats {
        hits: b.hits - a.hits,
        misses: b.misses - a.misses,
        restitches: b.restitches - a.restitches,
    }
}

fn run_mix(args: &Args, host: &host::Host, state: &mut StateDir) -> RunResult {
    let mode = InstrumentMode::Full;
    let len = args.seconds / PHASES as f64;
    let pool = Pool::build(mode, args.seed, pool_rounds(len), true);
    println!(
        "gen.precompute_s = {:.3} ({} rounds per device; mix: {})",
        pool.precompute_s,
        pool.rounds,
        gen::mix_description()
    );
    let mut all = Tally::default();
    let phase = |fleet: &mut fleet::Fleet, trace: bool| {
        let p = inproc::mix_phase(fleet, &pool, len, trace);
        if p.exhausted {
            println!("note: proof pool exhausted before the deadline; sub-phase shortened");
        }
        print_outcomes(&p.tally);
        p
    };

    if !args.trace {
        let subs = sub_phases(false, |_| {
            let heap_base = heap::reset_peak();
            let t = std::time::Instant::now();
            let mut fleet = inproc::setup(&pool, mode, args.seed, None, &mut all);
            let t = t.elapsed().as_secs_f64();
            let st0 = host::steal_ticks();
            let mut p = phase(&mut fleet, false);
            let steal = host::steal_share(st0);
            let heap = heap::peak_mib_since(heap_base);
            drop(fleet);
            all.merge(p.tally.clone());
            Ok(Sub::new(p.tally, &mut p.lat_ms, p.wall, steal, t, heap))
        })?;
        let mut out = Outcome::new(&all);
        end_to_end(&mut out, &subs);
        return Ok((out, all.first_mismatch));
    }

    let mut fleet = inproc::setup(&pool, mode, args.seed, None, &mut all);
    let st0 = host::steal_ticks();
    let untraced = phase(&mut fleet, false);
    let steal_untraced = host::steal_share(st0);
    all.merge(untraced.tally.clone());
    drop(fleet);

    let mut fleet = inproc::setup(&pool, mode, args.seed, None, &mut all);
    let sb0 = msp430::process_superblock_stats();
    let st0 = host::steal_ticks();
    let traced = phase(&mut fleet, true);
    print_steal(steal_untraced, host::steal_share(st0));
    let sb1 = msp430::process_superblock_stats();
    let digest = fleet.digest_cache_stats();
    drop(fleet);
    all.merge(traced.tally.clone());

    // The durable comparison pass (for the WAL's submit overhead) replays
    // the first rounds of the same traffic.
    let first: Vec<(u32, u32)> = traced.batches.iter().take(16).flatten().copied().collect();
    let dir = state.fresh();
    let (alt, _) = inproc::replay(&pool, mode, args.seed, Some(&dir), &first, DEVICES, &mut all);
    StateDir::discard(&dir);
    let rv = trace::reverify(&pool, mode, args.seed, &traced.batches, state.path(), &mut all);

    let mut out = Outcome::new(&all);
    trace::Inputs {
        nproc: host.nproc,
        durable: false,
        wall: traced.wall,
        rate_untraced: untraced.tally.completed as f64 / untraced.wall,
        rate_traced: traced.tally.completed as f64 / traced.wall,
        tally: &traced.tally,
        net: None,
        fleet: traced.spans,
        alt,
        rv,
        superblocks: delta(sb0, sb1),
        digest_hit_rate: digest.hit_rate(),
        precompute_s: pool.precompute_s,
        lag_ms: None,
    }
    .report(&mut out);
    Ok((out, all.first_mismatch))
}

/// The host steal behind the tracing-overhead comparison.
fn print_steal(untraced: f64, traced: f64) {
    println!(
        "host steal: untraced phase {:.1}%, traced phase {:.1}% (the tracing overhead below \
         compares the two phases)",
        100.0 * untraced,
        100.0 * traced
    );
}

fn print_outcomes(t: &Tally) {
    let rejects: Vec<String> = dialed::report::RejectClass::ALL
        .iter()
        .filter(|c| t.rejects[c.index()] > 0)
        .map(|c| format!("{} {}", c.label(), t.rejects[c.index()]))
        .collect();
    println!("  outcomes: clean {}, attack {}, rejects: {}", t.clean, t.attack, rejects.join(", "));
}
