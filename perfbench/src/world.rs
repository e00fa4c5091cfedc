//! The service under test as every workload builds it: the three paper
//! apps, 342 devices each, default `FleetConfig`, plus the run's state
//! directory and small shared helpers.

use dialed::pipeline::{InstrumentMode, InstrumentedOp};
use dialed::policy::Policy;
use fleet::{DeviceId, Fleet, FleetConfig};
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// Devices registered per paper app.
pub const DEVICES_PER_APP: usize = 342;

/// The whole device population (three apps).
pub const DEVICES: usize = 3 * DEVICES_PER_APP;

/// Timed sub-phases per run, each on a freshly set-up service; the
/// end-to-end metrics are medians over them (and over the set-ups).
pub const PHASES: usize = 6;

/// Where runs keep their durable state, relative to the working directory.
pub const STATE_ROOT: &str = ".perfbench-state";

/// One paper app as the service registers it.
pub struct App {
    pub name: &'static str,
    pub op: InstrumentedOp,
    pub args: [u16; 8],
    pub feed: fn(&mut msp430::platform::Platform),
    pub policies: fn() -> Vec<Box<dyn Policy>>,
}

/// Builds the three instrumented ops in `apps::scenarios()` order.
pub fn build_apps(mode: InstrumentMode) -> Vec<App> {
    apps::scenarios()
        .into_iter()
        .map(|s| App {
            name: s.name,
            op: s.build(mode),
            args: s.args,
            feed: s.feed,
            policies: s.policies,
        })
        .collect()
}

/// Provisioning key seed of device `index` (registration order) under
/// the run's seed.
pub fn key_seed(seed: u64, index: usize) -> u64 {
    SplitMix64::new(seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Creates a fleet (durable under `dir` when given), registers the ops in
/// app order and `DEVICES_PER_APP` devices per op. The generator's twin
/// calls this with the same seed, so labels, op order, device order and
/// key seeds all match the service's.
pub fn build_fleet(apps: Vec<App>, seed: u64, dir: Option<&Path>) -> (Fleet, Vec<DeviceId>) {
    let config = FleetConfig::default();
    let mut fleet = match dir {
        Some(dir) => Fleet::durable(dir, config).expect("fresh state dir opens as a durable fleet"),
        None => Fleet::new(config),
    };
    let mut devices = Vec::with_capacity(DEVICES);
    for app in apps {
        let op = fleet.register_op(app.name, app.op, (app.policies)());
        for _ in 0..DEVICES_PER_APP {
            let seed = key_seed(seed, devices.len());
            devices.push(fleet.register_device(op, seed).expect("op just registered"));
        }
    }
    (fleet, devices)
}

/// App index of device `index` (registration order).
pub fn app_of(index: usize) -> usize {
    index / DEVICES_PER_APP
}

/// A fresh per-run state directory under [`STATE_ROOT`], removed on drop
/// — also when the run fails or panics.
pub struct StateDir {
    path: PathBuf,
    next: usize,
}

impl StateDir {
    pub fn new(workload: &str) -> std::io::Result<Self> {
        let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos());
        let path = Path::new(STATE_ROOT).join(format!("{workload}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path, next: 0 })
    }

    /// A new, empty subdirectory for one fleet's WAL and snapshots.
    pub fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        let dir = self.path.join(format!("fleet-{}", self.next));
        std::fs::create_dir_all(&dir).expect("create fleet state dir");
        dir
    }

    /// Deletes a fleet directory handed out by [`fresh`](Self::fresh) once
    /// its fleet is gone, so repeated set-ups do not pile up WAL segments.
    pub fn discard(dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Only succeeds when no other run is using the root.
        let _ = std::fs::remove_dir(STATE_ROOT);
    }
}

/// SplitMix64: the benchmark's only random source, seeded from `--seed`.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
