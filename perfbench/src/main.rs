//! `pcdlb-perfbench` — one benchmark run of one workload at one seed.
//!
//! ```text
//! pcdlb-perfbench --workload <name> --seed <n> --seconds <s> --mode e2e|layers
//! pcdlb-perfbench --describe --seed <n>
//! ```
//!
//! `e2e` prints the end-to-end metrics; `layers` (built with the `traced`
//! feature) prints the per-layer metrics. Either way the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `perfbench/run.py` drives both modes; see
//! `perfbench/README.md`.

use pcdlb_perfbench::layers::{self, DlbLayer};
use pcdlb_perfbench::measure::{measure, Speed};
use pcdlb_perfbench::run::{check, guarded, oracle, run_once};
use pcdlb_perfbench::stats::{peak_rss_mb, result_json, Metric};
use pcdlb_perfbench::workload::{Engine, Workload, WORKLOADS};
use pcdlb_sim::{RunConfig, WireBytes};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    mode: String,
    describe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        mode: "e2e".into(),
        describe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--describe" {
            args.describe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--mode" => args.mode = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn per_step(total: f64, steps: u64) -> f64 {
    total / steps as f64
}

/// End-to-end metrics: throughput and set-up from untraced runs, the
/// modelled figures from the first run of each configuration, peak memory
/// of this process.
fn e2e(
    w: &Workload,
    cfgs: &[RunConfig],
    oracles: &[Option<u64>],
    seconds: f64,
) -> (Speed, Vec<Metric>) {
    let speed = measure(w, cfgs, oracles, seconds, false);
    let s = speed.summary().unwrap_or_default();
    let completed = (speed.attempted - speed.failed) as f64 / speed.attempted as f64;
    let metrics = vec![
        m("steps_per_s", speed.steps_per_s, "1/s"),
        m("setup_s", speed.setup_s, "s"),
        m("t_step_model_ms", s.t_step_model_ms, "ms"),
        m("load_imbalance", s.load_imbalance, "ratio"),
        m("peak_rss_mb", peak_rss_mb(), "MiB"),
        m("completed_run_share", completed, "share"),
    ];
    (speed, metrics)
}

/// Per-layer metrics: one checked run of the first configuration for the
/// snapshot the kernels are timed on, phase-timed runs of every
/// configuration for the `sim` spans and the counts, then the layer calls.
fn per_layer(
    w: &Workload,
    cfgs: &[RunConfig],
    oracles: &[Option<u64>],
    seconds: f64,
    attempted: &mut u64,
    failed: &mut u64,
) -> Result<Vec<Metric>, String> {
    let cfg = &cfgs[0];
    *attempted += 1;
    let checked = guarded(|| run_once(w, cfg, false)).and_then(|out| {
        check(cfg, &out, oracles[0], None)?;
        Ok(out)
    });
    let checked = checked.inspect_err(|_| *failed += 1)?;
    let snapshot = checked
        .snapshot
        .as_deref()
        .expect("checked runs gather a snapshot");

    let speed = measure(w, cfgs, oracles, seconds, true);
    *attempted += speed.attempted;
    *failed += speed.failed;
    if let Some(e) = &speed.first_error {
        return Err(e.clone());
    }
    let s = speed.summary().ok_or("no configuration completed a run")?;
    let steps = s.steps;

    let md = layers::md_layer(cfg, snapshot);
    let mean_msg = s.bytes.checked_div(s.msgs).unwrap_or(0) as usize;
    let mp = layers::mp_layer(w, mean_msg);
    let dlb = if cfg.dlb {
        layers::dlb_layer(cfg, snapshot)?
    } else {
        let ownership_check_us = if w.engine == Engine::Pillar {
            layers::ownership_check_s(&layers::initial_ownership(cfg))? * 1e6
        } else {
            0.0
        };
        DlbLayer {
            dlb_round_us: 0.0,
            transfers_per_round: 0.0,
            ownership_check_us,
        }
    };
    let dlb_limit = if cfg.dlb {
        pcdlb_core::theory::dlb_limit_ratio(cfg.m())
    } else {
        1.0
    };

    let phases = speed.phases.unwrap_or_default();
    let mut wire = WireBytes::default();
    speed.wires.iter().flatten().for_each(|w| wire.merge(w));
    let phased_steps = speed.phased_steps.max(1);
    let unattributed = if speed.phased_wall_s > 0.0 {
        1.0 - phases.total() / (cfg.p as f64 * speed.phased_wall_s)
    } else {
        1.0
    };
    let ghost_ratio = if wire.ghost == 0 {
        0.0
    } else {
        wire.ghost_baseline as f64 / wire.ghost as f64
    };

    Ok(vec![
        m("md.verlet_replay_ms", md.verlet_replay_ms, "ms"),
        m("md.force_walk_ms", md.force_walk_ms, "ms"),
        m("md.verlet_build_ms", md.verlet_build_ms, "ms"),
        m("md.rebin_ms", md.rebin_ms, "ms"),
        m("md.integrate_ms", md.integrate_ms, "ms"),
        m(
            "md.pair_checks_per_step",
            per_step(s.pair_checks as f64, steps),
            "count",
        ),
        m("md.useful_pair_ratio", md.useful_pair_ratio, "ratio"),
        m(
            "md.rebuild_share",
            per_step(s.rebuilds as f64, steps),
            "share",
        ),
        m("mp.world_spawn_ms", mp.world_spawn_ms, "ms"),
        m("mp.allreduce_us", mp.allreduce_us, "us"),
        m("mp.halo_exchange_us", mp.halo_exchange_us, "us"),
        m("mp.msgs_per_step", per_step(s.msgs as f64, steps), "count"),
        m("mp.bytes_per_step", per_step(s.bytes as f64, steps), "B"),
        m(
            "mp.comm_model_ms_per_step",
            per_step(s.comm_model_s * 1e3, steps),
            "ms",
        ),
        m("mp.retransmits", s.retransmits as f64, "count"),
        m("core.dlb_round_us", dlb.dlb_round_us, "us"),
        m(
            "core.transfers_per_step",
            per_step(s.transfers as f64, steps),
            "count",
        ),
        m("core.transfers_per_round", dlb.transfers_per_round, "count"),
        m(
            "domain.max_cells_ratio",
            s.max_cells as f64 / layers::home_cells(cfg),
            "ratio",
        ),
        m("domain.dlb_limit_ratio", dlb_limit, "ratio"),
        m("domain.ownership_check_us", dlb.ownership_check_us, "us"),
        m("sim.steps_per_s_traced", speed.steps_per_s, "1/s"),
        m(
            "sim.force_s_per_step",
            per_step(phases.force, phased_steps),
            "s/step",
        ),
        m(
            "sim.ghost_s_per_step",
            per_step(phases.ghost, phased_steps),
            "s/step",
        ),
        m(
            "sim.migrate_s_per_step",
            per_step(phases.migrate, phased_steps),
            "s/step",
        ),
        m(
            "sim.dlb_s_per_step",
            per_step(phases.dlb, phased_steps),
            "s/step",
        ),
        m(
            "sim.ghost_bytes_per_step",
            per_step(wire.ghost as f64, steps),
            "B",
        ),
        m("sim.ghost_ratio", ghost_ratio, "ratio"),
        m("sim.unattributed_share", unattributed, "share"),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pcdlb-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.describe {
        for w in &WORKLOADS {
            println!("{}", w.describe(args.seed));
        }
        return;
    }
    let name = args.workload.unwrap_or_default();
    let Some(w) = Workload::by_name(&name) else {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("pcdlb-perfbench: unknown workload {name:?}; one of {names:?}");
        std::process::exit(2);
    };
    let cfgs = w.configs(args.seed);
    eprintln!("{}", w.describe(args.seed));

    // The serial oracles are computed once per configuration, outside
    // every timing, one thread per configuration.
    let (mut attempted, mut failed) = (0u64, 0u64);
    let computed: Vec<Result<Option<u64>, String>> = std::thread::scope(|sc| {
        let hs: Vec<_> = cfgs
            .iter()
            .map(|cfg| sc.spawn(move || guarded(|| oracle(w, cfg))))
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("oracle threads catch their panics"))
            .collect()
    });
    let oracles: Vec<Option<u64>> = computed
        .into_iter()
        .map(|r| {
            attempted += 1;
            r.unwrap_or_else(|e| {
                eprintln!("oracle failed: {e}");
                failed += 1;
                None
            })
        })
        .collect();
    let (ok, metrics) = match args.mode.as_str() {
        "e2e" => {
            let (speed, metrics) = e2e(w, &cfgs, &oracles, args.seconds);
            attempted += speed.attempted;
            failed += speed.failed;
            (speed.failed == 0, metrics)
        }
        "layers" => {
            if !cfg!(feature = "traced") {
                eprintln!("warning: built without the `traced` feature; sim.* phase times read 0");
            }
            match per_layer(
                w,
                &cfgs,
                &oracles,
                args.seconds,
                &mut attempted,
                &mut failed,
            ) {
                Ok(metrics) => (true, metrics),
                Err(e) => {
                    eprintln!("per-layer run failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        other => {
            eprintln!("pcdlb-perfbench: unknown mode {other:?} (e2e or layers)");
            std::process::exit(2);
        }
    };
    println!(
        "{}",
        result_json(ok && failed == 0, attempted, failed, &metrics)
    );
}
