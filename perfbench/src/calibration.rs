//! The host's speed through a run, from calibration-kernel bursts timed
//! by a background thread while the run measures.
//!
//! On a shared host the same code runs 20–40% slower for seconds to
//! minutes at a time while neighbours contend for the cores and caches,
//! and no number of repetitions within a run averages that out. So while
//! a run measures, a sampler thread times a fixed kernel burst (about
//! 6 ms of CPU) every [`SAMPLE_EVERY`], and every host time is divided by
//! the slowdown the bursts measured while it was taken. Bursts are timed
//! in thread CPU time, which the hypervisor's steal does not inflate;
//! steal is taken out of wall times separately.
//!
//! Sampling *during* the work, rather than between repetitions, is what
//! makes this track the host: a burst between two eight-second Table 2
//! repetitions says little about the contention inside them. The sampler
//! takes about 3% of one CPU, the same on every commit.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::stats::spread;
use crate::sys;
use crate::workload::Check;

/// Period of the sampler.
pub const SAMPLE_EVERY: Duration = Duration::from_millis(200);

/// One kernel burst.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Start, since the run's origin.
    at: Duration,
    /// CPU seconds the burst took.
    seconds: f64,
    checksum: u64,
}

/// The samples of one run.
#[derive(Debug)]
pub struct Calibration {
    samples: Vec<Sample>,
}

/// CPU time the sampler has used so far, to subtract from process CPU
/// times measured while it runs.
#[derive(Debug, Default)]
pub struct SamplerCpu(AtomicU64);

impl SamplerCpu {
    /// The sampler's CPU seconds so far.
    pub fn seconds(&self) -> f64 {
        self.0.load(Ordering::SeqCst) as f64 * 1e-9
    }
}

/// Runs `measure` while a sampler thread times kernel bursts, and returns
/// its result with the samples. Timestamps count from `origin`; `measure`
/// receives the sampler's CPU time so far.
pub fn sampled<T>(origin: Instant, measure: impl FnOnce(&SamplerCpu) -> T) -> (T, Calibration) {
    let stop = AtomicBool::new(false);
    let cpu = SamplerCpu::default();
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut kernel = sys::Kernel::default();
            let mut samples = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                let at = origin.elapsed();
                let (seconds, checksum) = kernel.burst();
                cpu.0.fetch_add((seconds * 1e9) as u64, Ordering::SeqCst);
                samples.push(Sample { at, seconds, checksum });
                std::thread::park_timeout(SAMPLE_EVERY);
            }
            samples
        });
        let out = measure(&cpu);
        stop.store(true, Ordering::SeqCst);
        sampler.thread().unpark();
        let samples = sampler.join().expect("the sampler does not panic");
        (out, Calibration { samples })
    })
}

impl Calibration {
    fn median_seconds(&self, samples: impl Iterator<Item = f64>) -> Option<f64> {
        let seconds: Vec<f64> = samples.collect();
        (!seconds.is_empty()).then(|| spread(&seconds).median)
    }

    /// The host's slowdown against the reference over the whole run
    /// (above 1 on a slower host): the median burst over the reference.
    pub fn slowdown(&self) -> f64 {
        self.median_seconds(self.samples.iter().map(|s| s.seconds))
            .map_or(1.0, |s| s / sys::KERNEL_REF_S)
    }

    /// The slowdown while `from..to` (since the run's origin) was timed:
    /// the median of the bursts within one sampling period of it, or the
    /// run's when there are none.
    pub fn slowdown_over(&self, from: Duration, to: Duration) -> f64 {
        self.median_seconds(
            self.samples
                .iter()
                .filter(|s| s.at + SAMPLE_EVERY >= from && s.at <= to + SAMPLE_EVERY)
                .map(|s| s.seconds),
        )
        .map_or_else(|| self.slowdown(), |s| s / sys::KERNEL_REF_S)
    }

    /// Every burst did the same work.
    pub fn check(&self) -> Check {
        let same = self.samples.windows(2).all(|w| w[0].checksum == w[1].checksum);
        Check::new(
            "host_calibration",
            same,
            format!(
                "{} kernel bursts, median {:.3} CPU ms (reference {} ms): host speed {:.4}",
                self.samples.len(),
                self.slowdown() * sys::KERNEL_REF_S * 1e3,
                sys::KERNEL_REF_S * 1e3,
                1.0 / self.slowdown()
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_cover_the_measured_interval() {
        let origin = Instant::now();
        let ((), calibration) = sampled(origin, |cpu| {
            std::thread::sleep(SAMPLE_EVERY * 3);
            assert!(cpu.seconds() > 0.0);
        });
        assert!(calibration.samples.len() >= 2);
        assert!(calibration.check().passed);
        let whole = calibration.slowdown();
        assert!(whole > 0.0);
        // An interval long after the run has no bursts near it.
        let late = Duration::from_secs(3600);
        assert_eq!(calibration.slowdown_over(late, late), whole);
        let near = calibration.slowdown_over(Duration::ZERO, SAMPLE_EVERY);
        assert!(near > 0.0);
    }
}
