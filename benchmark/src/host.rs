//! Host-speed calibration.
//!
//! The reference host is shared: its speed drifts by up to a third over
//! minutes with its neighbours' load, and the drift moves every time the
//! benchmark takes alike — in one ten-run set the raw DPA rate spread
//! 27 % between quartiles. So a fixed kernel of the benchmark's own is
//! timed between operations, when no thread of the system is alive, and
//! throughput and latency are reported at the speed the host had when
//! the kernel took [`REFERENCE_S`]: host time × [`REFERENCE_S`] ÷ the
//! run's median kernel time. The kernel calls no code of the system, so
//! no change to the system can move it. The raw values are reported
//! beside the calibrated ones.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host (2-CPU Xeon VM) when quiet.
pub const REFERENCE_S: f64 = 0.075;

/// Iterations each of the two kernel threads runs.
const ITERATIONS: u64 = 6_000_000;

/// A 64 KiB table: a simulator's working set, in L1/L2.
const TABLE: usize = 1 << 14;

/// One thread's share of the kernel: seeded hashing, table reads and
/// writes, data-dependent branches and float accumulation — the mix of
/// the pipeline simulator and energy model, in code that is not theirs.
fn kernel_thread(seed: u64) -> f64 {
    let mut table: Vec<u32> = (0..TABLE as u32).collect();
    let t = Instant::now();
    let (mut x, mut acc) = (seed, 0.0f64);
    for _ in 0..ITERATIONS {
        x = crate::workloads::mix(x);
        let i = (x as usize) & (TABLE - 1);
        match x >> 62 {
            0 => table[i] ^= x as u32,
            1 => table[i] = table[i].wrapping_add(table[(i + 7) & (TABLE - 1)]),
            2 => acc += f64::from(table[i]) * 1e-3,
            _ => acc *= 0.999,
        }
    }
    black_box((table, acc));
    t.elapsed().as_secs_f64()
}

/// The kernel on both CPUs at once, as the workloads run; the mean of
/// the two threads' own times, so thread start-up is not in it.
pub fn kernel_s() -> f64 {
    let times: Vec<f64> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..2).map(|t| s.spawn(move || kernel_thread(t))).collect();
        threads.into_iter().map(|t| t.join().unwrap_or(f64::NAN)).collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// The kernel times of one run.
#[derive(Debug, Clone, Default)]
pub struct Calibration(Vec<f64>);

impl Calibration {
    /// Times the kernel once more.
    pub fn sample(&mut self) {
        self.0.push(kernel_s());
    }

    /// The run's median kernel time, seconds.
    pub fn kernel_s(&self) -> f64 {
        median(&self.0)
    }

    /// What a host time of this run is multiplied by to give the time at
    /// reference speed; 1 when nothing was sampled.
    pub fn factor(&self) -> f64 {
        let k = self.kernel_s();
        if k.is_finite() && k > 0.0 {
            REFERENCE_S / k
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_to_the_reference_speed() {
        assert_eq!(Calibration::default().factor(), 1.0);
        let slow = Calibration(vec![2.0 * REFERENCE_S, 2.0 * REFERENCE_S, 9.0]);
        assert_eq!(slow.factor(), 0.5);
        let mut real = Calibration::default();
        real.sample();
        assert!(real.kernel_s() > 0.0 && real.factor().is_finite());
    }
}
