//! Host fingerprint and resident-memory probes. Results whose fingerprints
//! differ are not comparable: core count, SIMD paths, dispatch overrides
//! and the state directory's filesystem all move the numbers.

use std::fmt;
use std::path::Path;

pub struct Host {
    pub nproc: usize,
    cpu: String,
    avx2: bool,
    sha_ni: bool,
    mb_backend: &'static str,
    superblocks_off: bool,
    force_scalar: Option<String>,
    force_step: Option<String>,
    state_fs: String,
}

impl Host {
    pub fn probe(state_dir: &Path) -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split(':').nth(1)))
            .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string());
        #[cfg(target_arch = "x86_64")]
        let (avx2, sha_ni) = (
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("sha"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, sha_ni) = (false, false);
        Self {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            cpu,
            avx2,
            sha_ni,
            mb_backend: hacl::sha256_mb::backend().label(),
            superblocks_off: msp430::superblocks_forced_off(),
            force_scalar: std::env::var("HACL_FORCE_SCALAR").ok(),
            force_step: std::env::var("MSP430_FORCE_STEP").ok(),
            state_fs: filesystem_of(state_dir),
        }
    }

    /// A short hash of the fingerprint, for comparing result lines.
    pub fn id(&self) -> u64 {
        self.to_string()
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let env = |v: &Option<String>| v.clone().unwrap_or_else(|| "unset".to_string());
        write!(
            f,
            "nproc={} cpu=\"{}\" avx2={} sha_ni={} sha256_mb={} superblocks_forced_off={} \
             HACL_FORCE_SCALAR={} MSP430_FORCE_STEP={} state_fs={}",
            self.nproc,
            self.cpu,
            self.avx2,
            self.sha_ni,
            self.mb_backend,
            self.superblocks_off,
            env(&self.force_scalar),
            env(&self.force_step),
            self.state_fs,
        )
    }
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in the mount table).
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else { return "unknown".to_string() };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let (_, point, fs) = (it.next()?, it.next()?, it.next()?);
            path.starts_with(point).then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`) in MiB.
pub fn mem_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host CPU time the hypervisor gave to other guests: cumulative
/// `(steal, total)` ticks over every CPU, from `/proc/stat`.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(cpu) = stat.lines().next().and_then(|l| l.strip_prefix("cpu ")) else {
        return (0, 0);
    };
    let ticks: Vec<u64> = cpu.split_whitespace().filter_map(|t| t.parse().ok()).collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().take(8).sum())
}

/// Share of all CPU time since `since` (a [`steal_ticks`] reading) that
/// the hypervisor gave to other guests.
pub fn steal_share(since: (u64, u64)) -> f64 {
    let now = steal_ticks();
    (now.0 - since.0) as f64 / (now.1 - since.1).max(1) as f64
}
