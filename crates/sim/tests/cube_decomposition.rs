//! Validation of the cube-domain decomposition (paper Fig. 2(c)): the
//! third independent implementation of the same physics must agree with
//! the serial reference bitwise, across PE-grid sizes including the
//! degenerate k = 2 torus where opposite neighbours coincide.

use pcdlb_md::Particle;
use pcdlb_sim::cube::{run_cube, run_cube_with_snapshot};
use pcdlb_sim::{run_serial, RunConfig};

fn cfg(p: usize, nc: usize, steps: u64) -> RunConfig {
    let density = 0.25;
    let n = (density * (2.56 * nc as f64).powi(3)).round() as usize;
    let mut cfg = RunConfig::new(n, nc, p, density);
    cfg.steps = steps;
    cfg.dlb = false;
    cfg.seed = 17;
    cfg.thermostat_interval = 10;
    cfg
}

fn assert_bitwise_equal(a: &[Particle], b: &[Particle]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert!(
            x.id == y.id && x.pos == y.pos && x.vel == y.vel,
            "particle {} diverged",
            x.id
        );
    }
}

#[test]
fn eight_blocks_match_serial_bitwise() {
    // k = 2: every direction's neighbour is the same small set of ranks;
    // the direction-tagged exchanges must stay unambiguous.
    let c = cfg(8, 4, 25);
    let (_, snap) = run_cube_with_snapshot(&c);
    assert_bitwise_equal(&snap, &run_serial(&c));
}

#[test]
fn twenty_seven_blocks_match_serial_bitwise() {
    let c = cfg(27, 6, 25);
    let (_, snap) = run_cube_with_snapshot(&c);
    assert_bitwise_equal(&snap, &run_serial(&c));
}

#[test]
fn cube_conserves_particles_and_energy_shape() {
    let mut c = cfg(8, 4, 120);
    c.thermostat_interval = 0; // NVE
    let (rep, snap) = run_cube_with_snapshot(&c);
    assert_eq!(snap.len(), c.n_particles);
    let e0 = rep.records[0].kinetic + rep.records[0].potential;
    let e1 = {
        let r = rep.records.last().unwrap();
        r.kinetic + r.potential
    };
    assert!(
        ((e1 - e0) / e0.abs().max(1.0)).abs() < 2e-3,
        "NVE drift through the cube stack: {e0} → {e1}"
    );
}

#[test]
fn cube_and_pillar_agree_on_the_same_workload() {
    // Different decomposition, same physics: both bitwise-match serial,
    // hence each other. P must satisfy both shapes: 4-PE pillar (2×2,
    // DDM-only) vs 8-PE cube on the same nc requires separate configs —
    // compare through the serial snapshot instead.
    let c_cube = cfg(8, 8, 20);
    let mut c_pillar = c_cube.clone();
    c_pillar.p = 4;
    let (_, snap_cube) = run_cube_with_snapshot(&c_cube);
    let (_, snap_pillar) = pcdlb_sim::run_with_snapshot(&c_pillar);
    assert_bitwise_equal(&snap_cube, &snap_pillar);
}

#[test]
fn cube_trades_message_count_for_volume_as_the_model_predicts() {
    // The Fig. 2 trade measured on real traffic: the cube sends many more
    // messages (26 neighbours vs the ring's 2) but each carries a much
    // smaller slab, so total bytes stay in the same ballpark even at a
    // size where the analytic model says the two are close
    // (nc = 8, P = 8: plane 2·64 = 128 cells vs cube 10³−8³·(1/8)… ≈ 152).
    let c = cfg(8, 8, 10);
    let rep_cube = run_cube(&c);
    let rep_plane = pcdlb_sim::plane::run_plane(&c);
    assert!(
        rep_cube.msgs_sent > 3 * rep_plane.msgs_sent,
        "cube {} msgs vs plane {} msgs",
        rep_cube.msgs_sent,
        rep_plane.msgs_sent
    );
    let per_msg_cube = rep_cube.bytes_sent as f64 / rep_cube.msgs_sent as f64;
    let per_msg_plane = rep_plane.bytes_sent as f64 / rep_plane.msgs_sent as f64;
    assert!(
        per_msg_cube < 0.5 * per_msg_plane,
        "cube messages should be much smaller: {per_msg_cube:.0} vs {per_msg_plane:.0} bytes"
    );
    assert!(
        rep_cube.bytes_sent < 3 * rep_plane.bytes_sent,
        "total volumes stay comparable: cube {} vs plane {}",
        rep_cube.bytes_sent,
        rep_plane.bytes_sent
    );
}

#[test]
#[should_panic(expected = "P = k³")]
fn non_cube_pe_count_rejected() {
    let c = cfg(9, 6, 5);
    let _ = run_cube(&c);
}

#[test]
#[should_panic(expected = "DDM-only")]
fn dlb_flag_rejected() {
    let mut c = cfg(8, 4, 5);
    c.dlb = true;
    let _ = run_cube(&c);
}
