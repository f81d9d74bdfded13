//! Golden values for the pillar, plane and cube SPMD paths: each row pins
//! the run digest (snapshot, step records incl. `t_step`, message and byte
//! totals) and the modelled communication time, bit for bit. A change
//! that alters what the ranks send, how the cost model charges it, or the
//! trajectory itself moves one of these numbers.

use pcdlb_md::Particle;
use pcdlb_sim::cube::run_cube_with_snapshot;
use pcdlb_sim::plane::run_plane_with_snapshot;
use pcdlb_sim::{digest_run, run_with_snapshot, RunConfig, RunReport};

#[derive(Debug, Clone, Copy)]
enum Engine {
    Pillar,
    Plane,
    Cube,
}

struct Case {
    engine: Engine,
    p: usize,
    nc: usize,
    steps: u64,
    dlb: bool,
    seed: u64,
    digest: u64,
    comm_virtual_s_bits: u64,
}

/// Supercooled gas at cell size ≈2.56 ≥ r_c, thermostat every 10 steps.
fn cfg(c: &Case) -> RunConfig {
    let density = 0.25;
    let n = (density * (2.56 * c.nc as f64).powi(3)).round() as usize;
    let mut cfg = RunConfig::new(n, c.nc, c.p, density);
    cfg.steps = c.steps;
    cfg.dlb = c.dlb;
    cfg.seed = c.seed;
    cfg.thermostat_interval = 10;
    cfg
}

fn run(c: &Case) -> (RunReport, Vec<Particle>) {
    let cfg = cfg(c);
    match c.engine {
        Engine::Pillar => run_with_snapshot(&cfg),
        Engine::Plane => run_plane_with_snapshot(&cfg),
        Engine::Cube => run_cube_with_snapshot(&cfg),
    }
}

const CASES: &[Case] = &[
    Case {
        engine: Engine::Pillar,
        p: 4,
        nc: 6,
        steps: 30,
        dlb: false,
        seed: 11,
        digest: 0x51f6_4be6_e619_93cb,
        comm_virtual_s_bits: 0x3f9f_992c_530b_dd36,
    },
    Case {
        engine: Engine::Pillar,
        p: 9,
        nc: 6,
        steps: 30,
        dlb: true,
        seed: 11,
        digest: 0xfab2_e8fb_ad20_80ad,
        comm_virtual_s_bits: 0x3fc4_d96f_55dc_8ee9,
    },
    Case {
        engine: Engine::Pillar,
        p: 16,
        nc: 8,
        steps: 30,
        dlb: true,
        seed: 11,
        digest: 0xb1bb_c2e8_5b19_ebaf,
        comm_virtual_s_bits: 0x3fd3_2ae7_e023_96e7,
    },
    Case {
        engine: Engine::Plane,
        p: 4,
        nc: 8,
        steps: 40,
        dlb: true,
        seed: 13,
        digest: 0x8d7a_d95b_82c7_4c16,
        comm_virtual_s_bits: 0x3fa9_badf_0e98_ca1b,
    },
    Case {
        engine: Engine::Cube,
        p: 8,
        nc: 4,
        steps: 25,
        dlb: false,
        seed: 17,
        digest: 0xa8c0_74de_8e49_cc53,
        comm_virtual_s_bits: 0x3fcd_6981_cecc_aba7,
    },
    Case {
        engine: Engine::Cube,
        p: 27,
        nc: 6,
        steps: 25,
        dlb: false,
        seed: 17,
        digest: 0xc42e_7e86_a3fe_ea3e,
        comm_virtual_s_bits: 0x3fe8_dd75_e762_cfb0,
    },
];

#[test]
fn spmd_paths_reproduce_golden_digests_and_comm_time() {
    let mut mismatches = Vec::new();
    for c in CASES {
        let (report, snapshot) = run(c);
        let digest = digest_run(&report, &snapshot, cfg(c).load_metric);
        let comm_bits = report.comm_virtual_s.to_bits();
        if digest != c.digest || comm_bits != c.comm_virtual_s_bits {
            mismatches.push(format!(
                "{:?} P = {}: digest {digest:#018x} (want {:#018x}), \
                 comm_virtual_s bits {comm_bits:#018x} (want {:#018x})",
                c.engine, c.p, c.digest, c.comm_virtual_s_bits
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
