//! Host-speed calibration.
//!
//! The host is a share of a machine whose speed changes by up to 2× over
//! minutes (see the README), and that drift, not the program, sets the
//! spread of raw wall-clock figures between runs. Each run therefore also
//! times a fixed calibration task — the benchmark's own code, sharing none
//! with the program — interleaved with the measured operations, and
//! reports its timing metrics scaled to the speed at which the task takes
//! [`REFERENCE_US`]: latencies are divided, and throughput multiplied, by
//! the median task time over `REFERENCE_US`.
//!
//! The task does what the code generator does most: it allocates small
//! vectors, inserts into and probes a hash map and an ordered map, and
//! sorts, on a few hundred KB of data.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Median time of one calibration task on the host the bounds were set
/// on (2-core x86-64 container, release build), in µs. The timing
/// metrics read as if every run had been made at that speed.
pub const REFERENCE_US: f64 = 460.0;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One calibration task; returns a checksum so that it cannot be
/// optimised away.
pub fn task() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut acc = 0u64;
    for _ in 0..1500 {
        let v = xorshift(&mut x);
        buckets.entry(v % 1024).or_default().push(v as u32);
        if let Some(b) = buckets.get(&((v >> 20) % 1024)) {
            acc += b.len() as u64;
        }
    }
    let mut all: Vec<u32> = buckets.into_values().flatten().collect();
    all.sort_unstable();
    acc += u64::from(all[all.len() / 2]);
    let mut ordered = BTreeMap::new();
    for _ in 0..600 {
        let v = xorshift(&mut x);
        ordered.insert(v % 4096, vec![v as u8; (v % 48) as usize]);
        if v.is_multiple_of(3) {
            ordered.remove(&((v >> 8) % 4096));
        }
    }
    acc + ordered.len() as u64
}

/// Run the task once; returns its time in µs.
pub fn timed_task() -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(task());
    t0.elapsed().as_secs_f64() * 1e6
}

/// Times of the calibration tasks of one run.
#[derive(Debug, Default, Clone)]
pub struct Calibration {
    /// Every task's time, in µs.
    pub samples_us: Vec<f64>,
}

impl Calibration {
    /// Run the task once and keep its time.
    pub fn sample(&mut self) {
        self.samples_us.push(timed_task());
    }

    /// Run the task `n` times.
    pub fn burst(&mut self, n: usize) {
        for _ in 0..n {
            self.sample();
        }
    }

    /// Median task time, in µs (`NaN` without samples).
    pub fn median_us(&self) -> f64 {
        crate::stats::median(&self.samples_us)
    }

    /// Total time spent in the task, in s.
    pub fn total_s(&self) -> f64 {
        self.samples_us.iter().sum::<f64>() / 1e6
    }

    /// How much slower than the reference the host ran: divide a time by
    /// this (multiply a rate) to scale it to the reference speed.
    pub fn slowdown(&self) -> f64 {
        self.median_us() / REFERENCE_US
    }
}
