//! Validation of the plane-domain 1-D baseline simulator: it must
//! reproduce the serial reference bitwise (like the pillar simulator) and
//! its moving-boundary balancer must actually balance.

use pcdlb_md::Particle;
use pcdlb_sim::plane::{run_plane, run_plane_with_snapshot};
use pcdlb_sim::{run_serial, Lattice, RunConfig};

fn cfg(p: usize, nc: usize, steps: u64, dlb: bool) -> RunConfig {
    let density = 0.25;
    let n = (density * (2.56 * nc as f64).powi(3)).round() as usize;
    let mut cfg = RunConfig::new(n, nc, p, density);
    cfg.steps = steps;
    cfg.dlb = dlb;
    cfg.seed = 13;
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
fn single_pe_plane_matches_serial_bitwise() {
    let c = cfg(1, 4, 20, false);
    let (_, snap) = run_plane_with_snapshot(&c);
    assert_bitwise_equal(&snap, &run_serial(&c));
}

#[test]
fn ring_of_three_matches_serial_bitwise() {
    let c = cfg(3, 6, 25, false);
    let (_, snap) = run_plane_with_snapshot(&c);
    assert_bitwise_equal(&snap, &run_serial(&c));
}

#[test]
fn ring_of_two_matches_serial_bitwise() {
    // p = 2 is the degenerate ring where prev == next; the UP/DOWN tag
    // split must keep the two directions apart.
    let c = cfg(2, 4, 25, false);
    let (_, snap) = run_plane_with_snapshot(&c);
    assert_bitwise_equal(&snap, &run_serial(&c));
}

#[test]
fn moving_boundaries_do_not_change_physics() {
    // 1-D DLB on vs off: identical trajectories (ownership only).
    let on = cfg(4, 8, 40, true);
    let mut off = on.clone();
    off.dlb = false;
    let (rep_on, snap_on) = run_plane_with_snapshot(&on);
    let (_, snap_off) = run_plane_with_snapshot(&off);
    assert_bitwise_equal(&snap_on, &snap_off);
    assert_bitwise_equal(&snap_on, &run_serial(&on));
    // Boundedness: every record still partitions all cells.
    let c_total = on.total_cells();
    for r in &rep_on.records {
        assert!(r.max_cells < c_total);
    }
}

#[test]
fn plane_dlb_balances_a_slab_imbalance() {
    // All particles clustered in low-x slabs: exactly the imbalance a
    // 1-D balancer can fix. Fmax/Fave must improve materially.
    let mut c = cfg(4, 8, 150, true);
    c.lattice = Lattice::Cluster { fill: 0.5 };
    c.density = 0.05;
    let rep = run_plane(&c);
    let early = rep.records[2].f_max / rep.records[2].f_ave;
    let late = {
        let r = rep.records.last().unwrap();
        r.f_max / r.f_ave
    };
    assert!(
        late < early * 0.8,
        "1-D DLB should fix a slab imbalance: early {early:.2}, late {late:.2}"
    );
    let transfers: u32 = rep.records.iter().map(|r| r.transfers).sum();
    assert!(transfers > 0);
}

#[test]
fn every_pe_keeps_at_least_one_plane() {
    // Extreme imbalance must not squeeze any PE to zero planes (the
    // run would panic in ghost exchange if it did; also check stats).
    let mut c = cfg(6, 6, 120, true);
    c.lattice = Lattice::Cluster { fill: 0.3 };
    c.density = 0.03;
    let rep = run_plane(&c);
    let min_cells = c.nc * c.nc; // one plane
    for r in &rep.records {
        // max_cells is the max; the min isn't recorded directly, but the
        // run completing at all proves no PE lost its last plane, and the
        // busiest PE can hold at most nc − (P − 1) planes.
        assert!(r.max_cells <= (c.nc - (c.p - 1)) * min_cells);
    }
}

#[test]
fn plane_and_pillar_agree_bitwise_on_the_same_workload() {
    // Two completely different decompositions and balancers, one
    // physics: both must match the serial reference, hence each other.
    let mut c = cfg(4, 8, 30, true);
    c.central_pull = 0.05;
    let (_, snap_plane) = run_plane_with_snapshot(&c);
    let mut c2 = c.clone();
    c2.p = 4; // 2×2 torus is DDM-only for the pillar path
    c2.dlb = false;
    let (_, snap_pillar) = pcdlb_sim::run_with_snapshot(&c2);
    assert_bitwise_equal(&snap_plane, &snap_pillar);
}
