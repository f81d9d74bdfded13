//! The closed-loop throughput measurement: whole runs one after another
//! until the time budget is spent, with set-up samples spread among them
//! and passes of the host reference kernel between them.

use std::time::{Duration, Instant};

use pcdlb_sim::{PhaseTimes, RunConfig, WireBytes};

use crate::host::HostRef;
use crate::run::{check, guarded, run_once, Summary};
use crate::stats::median;
use crate::workload::{Engine, Workload};

/// Set-up samples taken before the first measured run; every run adds
/// one more. `setup_s` is the median of all of them.
pub const SETUP_SAMPLES_FIRST: usize = 6;
/// Fewest measured runs, however long they take.
pub const MIN_RUNS: usize = 4;
/// Reference-kernel passes in one gauge of the host's speed; a gauge is
/// taken before each set-up sample and each run, and after the last run.
pub const HOST_PASSES: usize = 8;

/// Result of one throughput measurement.
#[derive(Default)]
pub struct Speed {
    /// Median over runs of steps per wall second, set-up excluded, each
    /// run scaled to the reference host speed (see [`measure`]).
    pub steps_per_s: f64,
    /// Median set-up seconds (config to first step), each sample scaled
    /// to the reference host speed.
    pub setup_s: f64,
    /// Simulations attempted: set-up samples plus measured runs.
    pub attempted: u64,
    /// Simulations that panicked or failed a check.
    pub failed: u64,
    /// The first failure, if any.
    pub first_error: Option<String>,
    /// Summary of the first completed run of each configuration.
    pub summaries: Vec<Option<Summary>>,
    /// Phase times summed over the measured runs.
    pub phases: Option<PhaseTimes>,
    /// Wire bytes of the first run of each configuration (deterministic,
    /// unlike the phase times, so they are not summed over a
    /// budget-dependent number of runs).
    pub wires: Vec<Option<WireBytes>>,
    /// Wall seconds summed over the runs that reported phases.
    pub phased_wall_s: f64,
    /// Steps summed over the runs that reported phases.
    pub phased_steps: u64,
}

impl Speed {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.first_error.is_none() {
            eprintln!("run failed: {e}");
            self.first_error = Some(e);
        }
    }

    /// Take one set-up sample of `cfg` into `setups`, with the index of
    /// the gauge taken just before it.
    fn sample_setup(
        &mut self,
        setups: &mut Vec<(f64, usize)>,
        gauge: usize,
        w: &Workload,
        cfg: &RunConfig,
    ) {
        self.attempted += 1;
        match setup_sample(w, cfg) {
            Ok(s) => setups.push((s, gauge)),
            Err(e) => self.fail(e),
        }
    }

    /// The first-run summaries of every configuration taken together, if
    /// every configuration completed a run.
    pub fn summary(&self) -> Option<Summary> {
        let all: Option<Vec<Summary>> = self.summaries.iter().copied().collect();
        all.filter(|v| !v.is_empty()).map(|v| Summary::combine(&v))
    }
}

/// Seconds from configuration to the first completed step: building the
/// serial simulator, or a whole 1-step SPMD run (spawn, initial state,
/// first step, snapshot gather, join).
fn setup_sample(w: &Workload, cfg: &RunConfig) -> Result<f64, String> {
    if w.engine == Engine::Serial {
        let start = Instant::now();
        let sim = guarded(|| std::hint::black_box(pcdlb_sim::serial_sim(cfg)))?;
        let s = start.elapsed().as_secs_f64();
        drop(sim);
        return Ok(s);
    }
    let mut one = cfg.clone();
    one.steps = 1;
    let out = guarded(|| run_once(w, &one, false))?;
    check(&one, &out, None, None)?;
    Ok(out.wall_s)
}

/// Measure `w` on `cfgs` for about `seconds`: [`SETUP_SAMPLES_FIRST`]
/// set-ups, then whole runs, cycling through the configurations, until
/// the budget is spent (at least [`MIN_RUNS`]). Each run adds one more
/// set-up sample, so the samples span the whole window as the runs do:
/// the serial run's own `serial_sim`, or a 1-step run just before an SPMD
/// run. Every run is checked against its configuration's entry in
/// `oracles` and against that configuration's first run. `phase_timed`
/// runs pillar workloads through the phase-timed entry point, which
/// returns no snapshot to check.
///
/// A gauge of the host's speed precedes each set-up sample and each run,
/// and one more follows the last run: the median of [`HOST_PASSES`]
/// reference-kernel passes over the workload's nominal pass
/// ([`Workload::host_pass_ms`]), above 1 when the host runs slower than
/// the reference host. Each sample is scaled by the mean of the gauges
/// just before and just after it: rates are multiplied by it, set-up
/// times divided by it. So a change in host speed cancels even when it
/// lasts only a few runs.
pub fn measure(
    w: &Workload,
    cfgs: &[RunConfig],
    oracles: &[Option<u64>],
    seconds: f64,
    phase_timed: bool,
) -> Speed {
    let mut speed = Speed {
        summaries: vec![None; cfgs.len()],
        wires: vec![None; cfgs.len()],
        ..Speed::default()
    };
    // The reference kernel runs on as many threads as the workload has
    // ranks, meeting at barriers, so it feels a slower or busier host the
    // way the rank threads do.
    let host = HostRef::new();
    let nominal_s = w.host_pass_ms * 1e-3;
    let mut gauges = Vec::new();
    let gauge = |gauges: &mut Vec<f64>| {
        let passes: Vec<f64> = (0..HOST_PASSES).map(|_| host.time_pass(w.p)).collect();
        gauges.push(median(&passes) / nominal_s);
    };
    let mut setups = Vec::new();
    for i in 0..SETUP_SAMPLES_FIRST {
        gauge(&mut gauges);
        speed.sample_setup(&mut setups, gauges.len() - 1, w, &cfgs[i % cfgs.len()]);
    }
    if speed.failed == SETUP_SAMPLES_FIRST as u64 {
        return speed;
    }

    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    // Serial runs time their own set-up; SPMD runs subtract the median
    // set-up, known only once every sample is in.
    let (mut rates, mut spmd_walls) = (Vec::new(), Vec::new());
    let mut runs = 0usize;
    while runs < MIN_RUNS.max(cfgs.len()) || start.elapsed() < budget {
        let k = runs % cfgs.len();
        let cfg = &cfgs[k];
        runs += 1;
        gauge(&mut gauges);
        let g = gauges.len() - 1;
        if w.engine != Engine::Serial {
            speed.sample_setup(&mut setups, g, w, cfg);
        }
        speed.attempted += 1;
        let out = match guarded(|| run_once(w, cfg, phase_timed)) {
            Ok(out) => out,
            Err(e) => {
                speed.fail(e);
                continue;
            }
        };
        if let Err(e) = check(cfg, &out, oracles[k], speed.summaries[k].as_ref()) {
            speed.fail(e);
            continue;
        }
        if w.engine == Engine::Serial {
            setups.push((out.setup_s, g));
            rates.push((cfg.steps as f64 / (out.wall_s - out.setup_s), g));
        } else {
            spmd_walls.push((cfg.steps, out.wall_s, g));
        }
        speed.summaries[k].get_or_insert(out.summary);
        if let Some((ph, wire)) = out.phases {
            speed.phases.get_or_insert_with(Default::default).merge(&ph);
            speed.wires[k].get_or_insert(wire);
            speed.phased_wall_s += out.wall_s;
            speed.phased_steps += cfg.steps;
        }
    }
    gauge(&mut gauges);
    if setups.is_empty() {
        return speed;
    }
    let raw_setup_s = median(&setups.iter().map(|s| s.0).collect::<Vec<_>>());
    for (steps, wall_s, g) in spmd_walls {
        // The 1-step set-up run already paid for everything but the
        // remaining steps.
        let rate = (steps - 1) as f64 / (wall_s - raw_setup_s);
        if rate.is_finite() && rate > 0.0 {
            rates.push((rate, g));
        } else {
            speed.fail(format!("run of {wall_s} s is shorter than its set-up"));
        }
    }
    let scale = |g: usize| 0.5 * (gauges[g] + gauges[g + 1]);
    let scaled_setups: Vec<f64> = setups.iter().map(|&(s, g)| s / scale(g)).collect();
    speed.setup_s = median(&scaled_setups);
    eprintln!(
        "set-up samples (s, raw): {:.4?}",
        setups.iter().map(|s| s.0).collect::<Vec<_>>()
    );
    eprintln!(
        "steps/s per run (raw): {:.1?}",
        rates.iter().map(|r| r.0).collect::<Vec<_>>()
    );
    eprintln!(
        "host scale per gauge (nominal pass {} ms): {gauges:.3?}",
        w.host_pass_ms
    );
    if !rates.is_empty() {
        let scaled: Vec<f64> = rates.iter().map(|&(r, g)| r * scale(g)).collect();
        speed.steps_per_s = median(&scaled);
    }
    speed
}
