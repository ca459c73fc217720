//! One measuring child process: the timed run (end-to-end metrics, no
//! tracing) or the traced run (per-layer metrics).

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::calibration::{sampled, SamplerCpu};
use crate::layers::{self, LayerInputs, TracedRep};
use crate::metrics::{Measured, WorkloadReport};
use crate::stats::{spread, Spread};
use crate::sys;
use crate::workload::{run_engine, verify, Check, Inputs, Output, Workload};

/// What one child measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time; repetitions stop once the next one would overrun
    /// it (and at least [`Workload::min_reps`] have run).
    pub seconds: u64,
    /// Worker threads.
    pub threads: usize,
    /// Reduced-size inputs, two timed repetitions and one traced one.
    pub smoke: bool,
}

impl RunConfig {
    fn min_reps(&self, traced: bool) -> usize {
        match (self.smoke, traced) {
            (true, false) => 2,
            (_, true) => 1,
            (false, false) => self.workload.min_reps(),
        }
    }

    /// An empty report naming the workload, its seeds and its minimum
    /// repetitions.
    pub fn report(&self) -> WorkloadReport {
        WorkloadReport {
            workload: self.workload.name().to_string(),
            seed: self.seed,
            held_out_seed: self.workload.held_out_seed(),
            min_reps: self.workload.min_reps(),
            ..WorkloadReport::default()
        }
    }

    /// Whether another repetition fits: always below the minimum, else
    /// only if one more of the last one's length stays within `seconds`.
    fn another(&self, traced: bool, reps: usize, elapsed: Duration, last: Duration) -> bool {
        reps < self.min_reps(traced)
            || (!self.smoke && elapsed + last <= Duration::from_secs(self.seconds))
    }
}

fn measured(name: &str, spread: Spread) -> Measured {
    Measured { name: name.to_string(), spread }
}

fn finish(report: &mut WorkloadReport, checks: Vec<Check>, error_records: u64) {
    let failed_checks = checks.iter().filter(|c| !c.passed).count() as u64;
    report.failed = error_records + failed_checks;
    report.checks = checks.into_iter().map(|c| (c.name, c.passed, c.detail)).collect();
}

/// CPU seconds per input set-up at reference host speed: the set-up is
/// repeated in batches long enough to time precisely, each batch scaled
/// by kernel bursts taken right before and after it, and the batches'
/// spread is returned. The set-up runs on one thread, so its CPU time is
/// the wall time it takes on an idle host. It is timed before the
/// sampler starts: a burst on the other core would slow a 20 ms batch
/// it overlaps with and make the batches scatter.
fn measure_setup(config: &RunConfig) -> Spread {
    let (batches, batch_s) = if config.smoke { (1, 0.001) } else { (25, 0.020) };
    let setup = || black_box(config.workload.inputs(black_box(config.seed), config.smoke));
    let time = |k: usize| {
        let start = sys::thread_cpu_seconds();
        for _ in 0..k {
            drop(setup());
        }
        (sys::thread_cpu_seconds() - start) / k as f64
    };
    let mut k = 1;
    while time(k) * (k as f64) < batch_s {
        k *= 2;
    }
    let mut kernel = sys::Kernel::default();
    let mut before = kernel.burst().0;
    let mut samples = Vec::with_capacity(batches);
    for _ in 0..batches {
        let seconds = time(k);
        let after = kernel.burst().0;
        samples.push(seconds * 2.0 * sys::KERNEL_REF_S / (before + after));
        before = after;
    }
    spread(&samples)
}

/// Host time one timed repetition used.
#[derive(Debug, Clone, Copy)]
struct RepTime {
    /// Start, since the run's origin.
    from: Duration,
    /// End, since the run's origin.
    to: Duration,
    /// Process CPU seconds of the engine's threads.
    cpu: f64,
    /// Seconds stolen from the machine's virtual CPUs.
    steal: f64,
}

impl RepTime {
    /// Wall seconds with the steal each worker suffered taken out. The
    /// workers cannot have used more CPU than they had wall time, which
    /// bounds the correction.
    fn unstolen_wall(&self, threads: usize) -> f64 {
        let threads = threads as f64;
        let wall = (self.to - self.from).as_secs_f64();
        (wall - self.steal / threads).max(self.cpu / threads)
    }
}

/// What the warm-up and the timed repetitions produced.
struct TimedReps {
    /// Checks on the warm-up's output.
    checks: Vec<Check>,
    reps: Vec<RepTime>,
    /// Timed repetitions whose output hashed differently from the warm-up's.
    diverged: usize,
    /// The warm-up output's hash.
    digest: u64,
    /// Error records over the warm-up and every repetition.
    error_records: u64,
}

/// One discarded warm-up engine call, then timed engine calls until the
/// measuring time is spent.
fn timed_reps(
    config: &RunConfig,
    inputs: &Inputs,
    origin: Instant,
    sampler: &SamplerCpu,
) -> TimedReps {
    let warm_up = run_engine(inputs, config.threads);
    let digest = warm_up.digest();
    let (checks, _) = verify(config.workload, inputs, &warm_up);
    let mut error_records = warm_up.error_count();
    drop(warm_up);

    let mut reps = Vec::new();
    let mut diverged = 0;
    let measuring = Instant::now();
    loop {
        let (cpu, steal) = (sys::cpu_seconds() - sampler.seconds(), sys::steal_seconds());
        let from = origin.elapsed();
        let output = run_engine(inputs, config.threads);
        let to = origin.elapsed();
        let cpu = sys::cpu_seconds() - sampler.seconds() - cpu;
        let steal = sys::steal_seconds() - steal;
        reps.push(RepTime { from, to, cpu, steal });
        error_records += output.error_count();
        diverged += usize::from(output.digest() != digest);
        if !config.another(false, reps.len(), measuring.elapsed(), to - from) {
            break;
        }
    }
    TimedReps { checks, reps, diverged, digest, error_records }
}

/// The timed run: set-up timing, then one discarded warm-up engine call
/// and timed engine calls until the measuring time is spent, under the
/// calibration sampler. Reports the end-to-end metrics, host times at
/// reference speed.
pub fn timed_run(config: &RunConfig) -> WorkloadReport {
    let mut report = config.report();
    let setup = measure_setup(config);
    let inputs = config.workload.inputs(config.seed, config.smoke);
    let scenarios = inputs.scenario_count();
    let origin = Instant::now();
    let (timed, calibration) =
        sampled(origin, |sampler| timed_reps(config, &inputs, origin, sampler));
    let TimedReps { mut checks, reps, diverged, digest, error_records } = timed;
    let slowdown = |r: &RepTime| calibration.slowdown_over(r.from, r.to);

    checks.push(calibration.check());
    checks.push(Check::new(
        "reps_repeat_output",
        diverged == 0,
        format!(
            "{} of {} timed reps hash to the warm-up's {digest:016x}",
            reps.len() - diverged,
            reps.len()
        ),
    ));
    let n = scenarios as f64;
    let rates: Vec<f64> =
        reps.iter().map(|r| n / r.unstolen_wall(config.threads) * slowdown(r)).collect();
    let cpu_ms: Vec<f64> = reps.iter().map(|r| r.cpu * 1e3 / n / slowdown(r)).collect();
    report.metrics = vec![
        measured("scenarios_per_s", spread(&rates)),
        measured("cpu_ms_per_scenario", spread(&cpu_ms)),
        measured("setup_s", setup),
    ];
    report.attempted = (1 + reps.len() as u64) * scenarios as u64;
    finish(&mut report, checks, error_records);
    report
}

fn median_ns(walls: &[u64]) -> u64 {
    let mut sorted = walls.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

/// What the traced repetitions produced.
struct TracedReps {
    reps: Vec<TracedRep>,
    engine_walls: Vec<u64>,
    /// Traced repetitions whose output differed from the reference.
    mismatched: usize,
    error_records: u64,
}

/// Engine and traced repetitions in alternation until the measuring time
/// is spent, each traced output compared with `reference`.
fn traced_reps(config: &RunConfig, inputs: &Inputs, reference: &Output) -> TracedReps {
    let start = Instant::now();
    let mut out =
        TracedReps { reps: Vec::new(), engine_walls: Vec::new(), mismatched: 0, error_records: 0 };
    loop {
        let rep_start = Instant::now();
        let engine = run_engine(inputs, config.threads);
        out.engine_walls.push(u64::try_from(rep_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        out.error_records += engine.error_count();
        let (output, mut rep) = layers::traced_rep(inputs, config.threads);
        out.mismatched += usize::from(output != *reference);
        if !out.reps.is_empty() {
            // The same in every repetition (the counts check covers the
            // rest); only the first one's are kept for the LP replay.
            rep.lp_cases = Vec::new();
        }
        let last = rep_start.elapsed();
        out.reps.push(rep);
        if !config.another(true, out.reps.len(), start.elapsed(), last) {
            return out;
        }
    }
}

/// The traced run: one engine call on one worker for reference (which
/// counts the heap: on one worker the peak is a function of the inputs),
/// then engine and traced repetitions on the run's workers in
/// alternation under the calibration sampler, the traced pipeline's output
/// checked against the reference every time. Reports the per-layer
/// metrics and writes the median traced repetition's spans to
/// `trace_dir/trace-<workload>.jsonl`.
pub fn traced_run(config: &RunConfig, trace_dir: Option<&Path>) -> WorkloadReport {
    let mut report = config.report();
    let inputs = config.workload.inputs(config.seed, config.smoke);
    let scenarios = inputs.scenario_count() as u64;

    let (reference, peak_heap) = sys::peak_heap_bytes(|| run_engine(&inputs, 1));
    let (mut checks, comm_cost) = verify(config.workload, &inputs, &reference);
    let reference = reference.without_times();
    let (traced, calibration) =
        sampled(Instant::now(), |_| traced_reps(config, &inputs, &reference));
    let TracedReps { reps, engine_walls, mismatched, error_records } = traced;
    let error_records = error_records + reference.error_count();

    checks.push(calibration.check());
    checks.push(Check::new(
        "trace_matches_engine",
        mismatched == 0,
        format!(
            "{} of {} traced reps on {} workers equal the one-worker engine output",
            reps.len() - mismatched,
            reps.len(),
            config.threads
        ),
    ));
    let counts_repeat = reps.iter().all(|r| r.counts == reps[0].counts);
    checks.push(Check::new(
        "counts_repeat",
        counts_repeat,
        format!("work counts identical across {} traced reps", reps.len()),
    ));

    let traced_walls: Vec<u64> = reps.iter().map(|r| r.wall_ns).collect();
    let median_wall = median_ns(&traced_walls);
    let rep = reps.iter().find(|r| r.wall_ns == median_wall).expect("median is one of the reps");
    let lp = layers::replay_lp(&reps[0].lp_cases);
    checks.push(Check::new(
        "lp_replay_matches",
        lp.mismatches == 0,
        format!(
            "{} of {} replayed LP solves (cold and warm-chained) reproduce the timed solution",
            2 * lp.solves - lp.mismatches,
            2 * lp.solves
        ),
    ));
    let scenario_ms: Vec<f64> =
        reps.iter().flat_map(|r| layers::layer_times(&r.spans).scenario_ms).collect();
    report.metrics = layers::per_layer_metrics(&LayerInputs {
        rep,
        scenario_ms: &scenario_ms,
        lp,
        engine_wall_ns: median_ns(&engine_walls),
        traced_wall_ns: median_wall,
        slowdown: calibration.slowdown(),
        peak_heap_bytes: peak_heap,
        comm_cost,
    });

    if let Some(dir) = trace_dir {
        let path = dir.join(format!("trace-{}.jsonl", config.workload.name()));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, crate::trace::to_jsonl(&rep.spans)));
        checks.push(Check::new(
            "trace_written",
            written.is_ok(),
            match written {
                Ok(()) => format!("{} spans in {}", rep.spans.len(), path.display()),
                Err(e) => format!("{}: {e}", path.display()),
            },
        ));
    }
    report.attempted = (1 + 2 * reps.len() as u64) * scenarios;
    finish(&mut report, checks, error_records);
    report
}
