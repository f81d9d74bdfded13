//! One simulation of a workload, its deterministic summary, and the
//! checks every run's output must pass.

use std::time::Instant;

use pcdlb_md::Particle;
use pcdlb_sim::plane::run_plane_with_snapshot;
use pcdlb_sim::{
    digest_particles, run_serial, run_with_phase_times, run_with_snapshot, serial_sim, LoadMetric,
    PhaseTimes, RunConfig, RunReport, WireBytes,
};

use crate::workload::{Engine, Workload};

/// Largest allowed total-energy drift per particle between two
/// thermostat firings of the serial gas, in reduced units. Correct runs
/// drift by about 2×10⁻⁵.
pub const MAX_ENERGY_DRIFT: f64 = 1e-3;

/// The deterministic figures of one run: every field repeats bit for bit
/// across runs of one configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Steps completed.
    pub steps: u64,
    /// Candidate pair checks over all steps and PEs (full-shell units).
    pub pair_checks: u64,
    /// Steps that rebuilt the binning.
    pub rebuilds: u64,
    /// DLB ownership transfers over all steps.
    pub transfers: u64,
    /// Messages sent, summed over PEs.
    pub msgs: u64,
    /// Bytes sent (content wire size), summed over PEs.
    pub bytes: u64,
    /// Link-layer retransmissions, summed over PEs.
    pub retransmits: u64,
    /// Modelled T3E communication seconds, summed over PEs.
    pub comm_model_s: f64,
    /// Mean modelled T3E step time `Tt`, milliseconds.
    pub t_step_model_ms: f64,
    /// Mean `f_max / f_ave`.
    pub load_imbalance: f64,
    /// Largest cell count any PE owned at any step.
    pub max_cells: usize,
}

impl Summary {
    /// The figures of several runs taken together: counts add up, the
    /// modelled means average (every run has the same step count), the
    /// cell maximum is the largest.
    pub fn combine(runs: &[Summary]) -> Summary {
        let k = runs.len() as f64;
        let sum = |f: fn(&Summary) -> u64| runs.iter().map(f).sum();
        let mean = |f: fn(&Summary) -> f64| runs.iter().map(f).sum::<f64>() / k;
        Summary {
            steps: sum(|s| s.steps),
            pair_checks: sum(|s| s.pair_checks),
            rebuilds: sum(|s| s.rebuilds),
            transfers: sum(|s| s.transfers),
            msgs: sum(|s| s.msgs),
            bytes: sum(|s| s.bytes),
            retransmits: sum(|s| s.retransmits),
            comm_model_s: runs.iter().map(|s| s.comm_model_s).sum(),
            t_step_model_ms: mean(|s| s.t_step_model_ms),
            load_imbalance: mean(|s| s.load_imbalance),
            max_cells: runs.iter().map(|s| s.max_cells).max().unwrap_or(0),
        }
    }
}

/// What one run returns.
pub struct RunOut {
    /// The deterministic figures.
    pub summary: Summary,
    /// Final particles, sorted by id (absent for phase-timed runs:
    /// `run_with_phase_times` does not gather them).
    pub snapshot: Option<Vec<Particle>>,
    /// Per-phase wall times and wire bytes summed over ranks (pillar
    /// runs through `run_with_phase_times` only).
    pub phases: Option<(PhaseTimes, WireBytes)>,
    /// Wall seconds from configuration to the end of the run.
    pub wall_s: f64,
    /// Serial runs: wall seconds spent in `serial_sim` (set-up).
    pub setup_s: f64,
    /// Serial runs: largest total-energy drift per particle between two
    /// thermostat firings. 0 for SPMD runs.
    pub energy_drift: f64,
}

fn sec_per_pair(cfg: &RunConfig) -> f64 {
    match cfg.load_metric {
        LoadMetric::WorkModel { sec_per_pair } => sec_per_pair,
        LoadMetric::WallClock => panic!("the benchmark runs the deterministic work model"),
    }
}

fn summarize(report: &RunReport) -> Summary {
    let recs = &report.records;
    let n = recs.len() as f64;
    Summary {
        steps: recs.len() as u64,
        pair_checks: recs.iter().map(|r| r.pair_checks).sum(),
        rebuilds: recs.iter().filter(|r| r.rebuilt).count() as u64,
        transfers: recs.iter().map(|r| r.transfers as u64).sum(),
        msgs: report.msgs_sent,
        bytes: report.bytes_sent,
        retransmits: report.retransmits,
        comm_model_s: report.comm_virtual_s,
        t_step_model_ms: recs.iter().map(|r| r.t_step).sum::<f64>() / n * 1e3,
        load_imbalance: recs.iter().map(|r| r.f_max / r.f_ave).sum::<f64>() / n,
        max_cells: recs.iter().map(|r| r.max_cells).max().unwrap_or(0),
    }
}

/// Run `cfg` once on the workload's engine. `phase_timed` routes pillar
/// runs through `run_with_phase_times` (no snapshot); otherwise SPMD runs
/// gather the final snapshot for the parity check.
pub fn run_once(w: &Workload, cfg: &RunConfig, phase_timed: bool) -> RunOut {
    let start = Instant::now();
    match w.engine {
        Engine::Serial => run_serial_engine(cfg, start),
        Engine::Pillar if phase_timed => {
            let (report, phases, wire) = run_with_phase_times(cfg);
            spmd_out(&report, None, Some((phases, wire)), start)
        }
        Engine::Pillar => {
            let (report, snap) = run_with_snapshot(cfg);
            spmd_out(&report, Some(snap), None, start)
        }
        Engine::Plane => {
            let (report, snap) = run_plane_with_snapshot(cfg);
            spmd_out(&report, Some(snap), None, start)
        }
    }
}

fn spmd_out(
    report: &RunReport,
    snapshot: Option<Vec<Particle>>,
    phases: Option<(PhaseTimes, WireBytes)>,
    start: Instant,
) -> RunOut {
    let wall_s = start.elapsed().as_secs_f64();
    RunOut {
        summary: summarize(report),
        snapshot,
        phases,
        wall_s,
        setup_s: 0.0,
        energy_drift: 0.0,
    }
}

fn run_serial_engine(cfg: &RunConfig, start: Instant) -> RunOut {
    let mut sim = serial_sim(cfg);
    let setup_s = start.elapsed().as_secs_f64();
    let n = cfg.n_particles as f64;
    let (mut pair_checks, mut rebuilds) = (0u64, 0u64);
    let mut window_start: Option<f64> = None;
    let mut energy_drift = 0.0f64;
    for _ in 0..cfg.steps {
        let info = sim.step();
        pair_checks += info.work.pair_checks;
        rebuilds += sim.last_step_rebuilt() as u64;
        let e = info.kinetic + info.potential;
        if info.rescaled {
            window_start = None;
        } else if let Some(e0) = window_start {
            energy_drift = energy_drift.max((e - e0).abs() / n);
        }
        if window_start.is_none() {
            window_start = Some(e);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let steps = cfg.steps;
    let summary = Summary {
        steps,
        pair_checks,
        rebuilds,
        transfers: 0,
        msgs: 0,
        bytes: 0,
        retransmits: 0,
        comm_model_s: 0.0,
        // One PE: Tt is the modelled force time, f_max = f_ave.
        t_step_model_ms: pair_checks as f64 / steps as f64 * sec_per_pair(cfg) * 1e3,
        load_imbalance: 1.0,
        max_cells: cfg.total_cells(),
    };
    RunOut {
        summary,
        snapshot: Some(sim.snapshot()),
        phases: None,
        wall_s,
        setup_s,
        energy_drift,
    }
}

/// The serial parity oracle of an SPMD workload: the digest of the
/// serial reference's final particles for the same configuration. `None`
/// for the serial workload, which is checked by invariants instead.
pub fn oracle(w: &Workload, cfg: &RunConfig) -> Option<u64> {
    (w.engine != Engine::Serial).then(|| digest_particles(&run_serial(cfg)))
}

/// Check one run's output. `first` is the summary of the first run of the
/// same configuration, which every later run must repeat exactly.
pub fn check(
    cfg: &RunConfig,
    out: &RunOut,
    oracle: Option<u64>,
    first: Option<&Summary>,
) -> Result<(), String> {
    if out.summary.steps != cfg.steps {
        return Err(format!("ran {} of {} steps", out.summary.steps, cfg.steps));
    }
    if let Some(first) = first {
        if *first != out.summary {
            return Err(format!(
                "run summary differs from the first run at this seed: {:?} vs {:?}",
                out.summary, first
            ));
        }
    }
    if let Some(snap) = &out.snapshot {
        if snap.len() != cfg.n_particles {
            return Err(format!(
                "{} particles, expected {}",
                snap.len(),
                cfg.n_particles
            ));
        }
        if snap.iter().enumerate().any(|(i, p)| p.id != i as u64) {
            return Err("particle ids are not exactly 0..N".into());
        }
        if let Some(want) = oracle {
            let got = digest_particles(snap);
            if got != want {
                return Err(format!(
                    "final particles digest {got:#018x} differs from the serial oracle {want:#018x}"
                ));
            }
        }
    }
    if out.energy_drift > MAX_ENERGY_DRIFT {
        return Err(format!(
            "energy drift {} per particle between thermostat firings exceeds {MAX_ENERGY_DRIFT}",
            out.energy_drift
        ));
    }
    Ok(())
}

/// Run `f`, turning a panic (a failed assertion, a protocol error, a
/// watchdog abort) into an error message.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "run panicked".into())
    })
}
