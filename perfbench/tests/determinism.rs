//! Determinism self-test: two runs of a workload at one seed give
//! bit-identical counts and modelled figures, so later changes can cite
//! them as exact counts. Runs are shortened to 120 steps, which still
//! crosses the pillar gas's checkpoint (100) and sentinel (50) cadences.

use pcdlb_perfbench::run::{check, oracle, run_once, Summary};
use pcdlb_perfbench::workload::{Workload, WORKLOADS};

const STEPS: u64 = 120;
const SEED: u64 = 7;

fn short_run(w: &Workload, seed: u64) -> (pcdlb_sim::RunConfig, pcdlb_perfbench::run::RunOut) {
    let mut cfg = w.config(seed);
    cfg.steps = STEPS;
    let out = run_once(w, &cfg, false);
    (cfg, out)
}

fn assert_identical(name: &str, a: &Summary, b: &Summary) {
    assert_eq!(a.pair_checks, b.pair_checks, "{name}: pair_checks");
    assert_eq!(a.msgs, b.msgs, "{name}: msgs");
    assert_eq!(a.bytes, b.bytes, "{name}: bytes");
    assert_eq!(a.transfers, b.transfers, "{name}: transfers");
    assert_eq!(a.rebuilds, b.rebuilds, "{name}: rebuilds");
    assert_eq!(
        a.t_step_model_ms.to_bits(),
        b.t_step_model_ms.to_bits(),
        "{name}: t_step_model_ms"
    );
    assert_eq!(
        a.load_imbalance.to_bits(),
        b.load_imbalance.to_bits(),
        "{name}: load_imbalance"
    );
    assert_eq!(a, b, "{name}: summary");
}

#[test]
fn two_runs_at_one_seed_repeat_every_count_exactly() {
    for w in &WORKLOADS {
        let (cfg, first) = short_run(w, SEED);
        let (_, second) = short_run(w, SEED);
        assert_identical(w.name, &first.summary, &second.summary);
        let want = oracle(w, &cfg);
        check(&cfg, &first, want, None).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        check(&cfg, &second, want, Some(&first.summary))
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    }
}

#[test]
fn the_seed_alone_selects_the_inputs() {
    for w in &WORKLOADS {
        assert_eq!(w.config(3), w.config(3), "{}", w.name);
        let (a, b) = (w.config(3), w.config(4));
        assert_ne!(a, b, "{}", w.name);
        assert_eq!(a.steps, w.steps, "{}", w.name);
        let mut b = b;
        b.seed = a.seed;
        assert_eq!(a, b, "{}: only the seed may differ", w.name);
    }
}

#[test]
fn pillar_gas_crosses_its_checkpoint_and_sentinel_cadences() {
    let w = Workload::by_name("gas_pillar_p4").expect("workload exists");
    let cfg = w.config(SEED);
    assert!(cfg.checkpoint_interval > 0 && cfg.checkpoint_interval <= STEPS);
    assert!(cfg.sentinel_interval > 0 && cfg.sentinel_interval <= STEPS);
    assert!(
        w.steps / cfg.checkpoint_interval >= 2,
        "checkpoint fires several times per run"
    );
    assert!(
        w.steps / cfg.sentinel_interval >= 2,
        "sentinel fires several times per run"
    );
}
