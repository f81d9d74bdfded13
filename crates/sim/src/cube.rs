//! Cube-domain decomposition (paper Fig. 2(c)) — the third domain shape,
//! "suitable for large-scale MD simulations on massively parallel
//! computers". PEs form a 3-D torus of side `k` (`P = k³`); each owns an
//! `s³` block of cells (`s = nc/k`) and exchanges ghosts with its 26
//! neighbours.
//!
//! The paper notes that "the number of neighbouring PEs with cube domain
//! is large and DLB becomes more difficult" — matching that scope, this
//! implementation is DDM only (no balancer); it exists to complete the
//! domain-shape comparison with *measured* communication volumes (the
//! `shapes` analysis validated against a real implementation) and as a
//! third independent check of the physics: like the pillar and plane
//! simulators, it reproduces the serial reference **bitwise**.
//!
//! Storage is a halo array: `(s+2)³` cells, own cells in the interior and
//! ghost copies in the one-cell shell. Ghost particles are stored with
//! their canonical (unshifted) positions together with their global cell
//! coordinates, and periodic shifts are applied at force time from
//! integer cell arithmetic — the same convention as the serial grid, so
//! the floating-point force sums are identical.

use std::sync::Arc;

use pcdlb_md::cells::HALF_OFFSETS_13;
use pcdlb_md::force::{PairKernel, WorkCounters};
use pcdlb_md::integrate::{kick, kick_drift, kick_drift_nowrap};
use pcdlb_md::observe;
use pcdlb_md::vec3::Vec3;
use pcdlb_md::verlet::{self, DispTracker, SegAction, SegKind, VerletList};
use pcdlb_md::{axis_bin, Particle, SoaField};
use pcdlb_mp::{collectives, BufferPool, Comm, CostModel, Torus3d, World};

use crate::clock::WallTimer;
use crate::config::{LoadMetric, RunConfig};
use crate::frame::{GhostPart, GhostShellFrame};
use crate::pe::initial_particles;
use crate::report::{RunReport, StepRecord};
use crate::stats::StatsPacket;

mod tags {
    /// 26 direction-indexed tags per phase keep duplicate neighbours on
    /// small tori (k = 2) unambiguous.
    pub const MIGRATE_BASE: u64 = 100;
    pub const GHOST_BASE: u64 = 140;
    pub const KE_GATHER: u64 = 60;
    pub const KE_BCAST: u64 = 61;
    pub const SNAPSHOT: u64 = 62;
    pub const REBUILD_GATHER: u64 = 63;
    pub const REBUILD_BCAST: u64 = 64;
}

/// An integer cell-coordinate triple.
type I3 = (i64, i64, i64);

/// The 26 neighbour directions in canonical lexicographic order.
const DIRS26: [(i64, i64, i64); 26] = {
    let mut out = [(0i64, 0i64, 0i64); 26];
    let mut n = 0;
    let mut dx = -1i64;
    while dx <= 1 {
        let mut dy = -1i64;
        while dy <= 1 {
            let mut dz = -1i64;
            while dz <= 1 {
                if !(dx == 0 && dy == 0 && dz == 0) {
                    out[n] = (dx, dy, dz);
                    n += 1;
                }
                dz += 1;
            }
            dy += 1;
        }
        dx += 1;
    }
    out
};

/// Mutable references to two distinct per-cell force arrays.
fn two_forces(forces: &mut [Vec<Vec3>], a: usize, b: usize) -> (&mut [Vec3], &mut [Vec3]) {
    assert_ne!(a, b, "a cell cannot neighbour itself");
    if a < b {
        let (lo, hi) = forces.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = forces.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

fn dir_index(d: (i64, i64, i64)) -> u64 {
    DIRS26
        .iter()
        .position(|&x| x == d)
        .expect("direction in DIRS26") as u64
}

/// Wire class codes for recorded Verlet segments: own vs shell cell.
const OWNED: u8 = 0;
const GHOST: u8 = 1;

/// Route sentinel for a decoded ghost this rank skipped (not bordered,
/// echoed own cell, or claimed by another direction).
const SKIP: u32 = u32::MAX;

/// Replay policy for the cube's single fused pass: store into interior
/// sides only, crediting each pair's energy with the `0.5 × owned sides`
/// weight the live walk's `accumulate_pair` uses.
fn cube_replay_action(seg: &verlet::Segment) -> Option<SegAction> {
    match seg.kind {
        SegKind::Intra | SegKind::Pull => Some(SegAction {
            sa: true,
            sb: true,
            run_home: true,
            credit: None,
        }),
        SegKind::Pair => {
            let sa = seg.ca == OWNED;
            let sb = seg.cb == OWNED;
            debug_assert!(sa || sb, "shell×shell segments are never recorded");
            Some(SegAction {
                sa,
                sb,
                run_home: false,
                credit: Some(0.5 * (sa as u64 + sb as u64) as f64),
            })
        }
    }
}

/// Validate a config for the cube decomposition: `P` a perfect cube whose
/// side divides `nc`.
pub fn validate_cube(cfg: &RunConfig) {
    assert!(cfg.n_particles > 1 && cfg.density > 0.0 && cfg.t_ref > 0.0);
    assert!(cfg.dt > 0.0 && cfg.steps > 0);
    let k = (cfg.p as f64).cbrt().round() as usize;
    assert_eq!(
        k * k * k,
        cfg.p,
        "cube decomposition needs P = k³, got {}",
        cfg.p
    );
    assert!(
        cfg.nc.is_multiple_of(k),
        "nc = {} must be a multiple of k = {k}",
        cfg.nc
    );
    assert!(
        cfg.cell_len() >= cfg.lj.rcut - 1e-12,
        "cell length {:.4} below cutoff {}",
        cfg.cell_len(),
        cfg.lj.rcut
    );
    assert!(cfg.skin >= 0.0, "skin must be non-negative");
    assert!(
        !cfg.verlet || cfg.skin > 0.0,
        "verlet replay requires skin > 0"
    );
    if cfg.skin > 0.0 {
        assert!(
            cfg.cell_len() >= cfg.lj.rcut + cfg.skin - 1e-12,
            "cell length {:.4} below widened reach {} (rcut {} + skin {}): \
             the one-cell halo shell would go stale mid-epoch",
            cfg.cell_len(),
            cfg.lj.rcut + cfg.skin,
            cfg.lj.rcut,
            cfg.skin
        );
    }
    assert!(
        k >= 2,
        "cube decomposition needs at least 2 blocks per axis"
    );
    let s = cfg.nc / k;
    assert!(
        !(k == 2 && s == 1),
        "nc = 2 with k = 2 makes a halo slot ambiguous; use nc >= 4"
    );
    assert!(
        !cfg.dlb,
        "the cube decomposition is DDM-only (see module docs)"
    );
}

struct CubePe {
    cfg: RunConfig,
    rank: usize,
    torus: Torus3d,
    /// Block side in cells.
    s: usize,
    nc: usize,
    box_len: f64,
    cell_len: f64,
    /// Global cell coordinates of the block's low corner.
    origin: (usize, usize, usize),
    kernel: PairKernel,
    /// Halo array: (s+2)³ cells, local index −1..=s per axis (+1 offset).
    cells: Vec<Vec<Particle>>,
    /// Forces for own cells only, indexed like the interior of `cells`.
    forces: Vec<Vec<Vec3>>,
    /// Pooled ghost-frame send buffers, reused across steps.
    ghost_pool: BufferPool<GhostShellFrame>,
    /// Per-halo-cell claim stamps for the receive scatter (`1 + dir`):
    /// on a `k = 2` torus the same canonical cell arrives from several
    /// directions with identical content, so the first direction to
    /// deliver into a halo slot claims it and later directions skip.
    halo_seen: Vec<u8>,
    /// Displacement tracker driving the skin-epoch rebuild schedule.
    tracker: DispTracker,
    /// Whether the current step re-binds the world (always `true` with
    /// `skin == 0`, the historical every-step behaviour).
    rebuild_now: bool,
    /// SoA position/force mirror the Verlet replay runs over.
    soa: SoaField,
    /// Recorded Verlet segment list (`verlet` mode only).
    vlist: VerletList,
    /// SoA base of each halo cell (`usize::MAX` until the first rebuild
    /// lays the field out); interior cells first in `force_index` order,
    /// shell cells appended — frozen between rebuilds.
    soa_cell_base: Vec<usize>,
    /// Per-direction mid-epoch ghost routes, recorded at rebuild: for
    /// each decode position, the halo cell it was stored in and its slot
    /// there (`(SKIP, 0)` for entries this rank dropped).
    ghost_routes: Vec<Vec<(u32, u32)>>,
    /// Flat owned-force buffer the SoA fold lands in before the per-cell
    /// scatter (`verlet` mode only).
    fold_buf: Vec<Vec3>,
    last_work: WorkCounters,
    last_force_virtual: f64,
    last_force_wall: f64,
    last_comm_virtual: f64,
}

impl CubePe {
    fn new(rank: usize, cfg: &RunConfig) -> Self {
        let k = (cfg.p as f64).cbrt().round() as usize;
        let torus = Torus3d::new(k, k, k);
        let s = cfg.nc / k;
        let (bx, by, bz) = torus.coords(rank);
        let halo = (s + 2) * (s + 2) * (s + 2);
        let mut pe = Self {
            cfg: cfg.clone(),
            rank,
            torus,
            s,
            nc: cfg.nc,
            box_len: cfg.box_len(),
            cell_len: cfg.cell_len(),
            origin: (bx * s, by * s, bz * s),
            kernel: PairKernel::new(cfg.lj),
            cells: vec![Vec::new(); halo],
            forces: vec![Vec::new(); s * s * s],
            ghost_pool: BufferPool::new(),
            halo_seen: vec![0; halo],
            tracker: DispTracker::new(),
            rebuild_now: true,
            soa: SoaField::new(),
            vlist: VerletList::new(),
            soa_cell_base: vec![usize::MAX; halo],
            ghost_routes: vec![Vec::new(); 26],
            fold_buf: Vec::new(),
            last_work: WorkCounters::default(),
            last_force_virtual: 0.0,
            last_force_wall: 0.0,
            last_comm_virtual: 0.0,
        };
        for q in initial_particles(cfg) {
            let g = pe.global_cell(q.pos);
            if let Some(local) = pe.local_of_global(g) {
                if pe.is_interior(local) {
                    let idx = pe.halo_index(local);
                    pe.cells[idx].push(q);
                }
            }
        }
        pe.sort_all_cells();
        pe
    }

    fn axis(&self, v: f64) -> usize {
        axis_bin(v, self.cell_len, self.nc)
    }

    fn global_cell(&self, pos: Vec3) -> (usize, usize, usize) {
        (self.axis(pos.x), self.axis(pos.y), self.axis(pos.z))
    }

    /// Map a global cell to local halo coordinates (`−1..=s` per axis) if
    /// it lies in this block or its one-cell shell.
    fn local_of_global(&self, g: (usize, usize, usize)) -> Option<(i64, i64, i64)> {
        let map1 = |g: usize, o: usize| -> Option<i64> {
            let rel = (g + self.nc - o) % self.nc;
            if rel < self.s {
                Some(rel as i64)
            } else if rel == self.nc - 1 {
                Some(-1)
            } else if rel == self.s {
                Some(self.s as i64)
            } else {
                None
            }
        };
        Some((
            map1(g.0, self.origin.0)?,
            map1(g.1, self.origin.1)?,
            map1(g.2, self.origin.2)?,
        ))
    }

    fn is_interior(&self, l: (i64, i64, i64)) -> bool {
        let s = self.s as i64;
        (0..s).contains(&l.0) && (0..s).contains(&l.1) && (0..s).contains(&l.2)
    }

    fn halo_index(&self, l: (i64, i64, i64)) -> usize {
        let w = (self.s + 2) as i64;
        debug_assert!((-1..=self.s as i64).contains(&l.0));
        (((l.0 + 1) * w + (l.1 + 1)) * w + (l.2 + 1)) as usize
    }

    fn force_index(&self, l: (i64, i64, i64)) -> usize {
        debug_assert!(self.is_interior(l));
        ((l.0 as usize * self.s) + l.1 as usize) * self.s + l.2 as usize
    }

    fn sort_all_cells(&mut self) {
        for cell in &mut self.cells {
            cell.sort_unstable_by_key(|q| q.id);
        }
    }

    fn interior_locals(&self) -> impl Iterator<Item = (i64, i64, i64)> + '_ {
        let s = self.s as i64;
        (0..s).flat_map(move |i| (0..s).flat_map(move |j| (0..s).map(move |l| (i, j, l))))
    }

    fn num_particles(&self) -> usize {
        self.interior_locals()
            .map(|l| self.cells[self.halo_index(l)].len())
            .sum()
    }

    /// Phase 1: half-kick + drift. Mid-epoch (frozen binning) the drift
    /// skips the periodic wrap — the frozen halo shifts already account
    /// for images, and the rebuild step re-wraps everything.
    fn kick_drift_all(&mut self) {
        let dt = self.cfg.dt;
        let box_len = self.box_len;
        let wrap = self.rebuild_now;
        let locals: Vec<_> = self.interior_locals().collect();
        for l in locals {
            let fi = self.force_index(l);
            let ci = self.halo_index(l);
            let fs = std::mem::take(&mut self.forces[fi]);
            for (q, f) in self.cells[ci].iter_mut().zip(&fs) {
                if wrap {
                    kick_drift(q, *f, dt, box_len);
                } else {
                    kick_drift_nowrap(q, *f, dt);
                }
            }
            self.forces[fi] = fs;
        }
    }

    /// Rebuild-decision collective (`skin > 0` only): fold the owned
    /// particles' predicted per-step travel into a local max, gather to
    /// rank 0, fold with `f64::max` (order-independent, so the global
    /// max is bitwise the serial whole-system max), broadcast, and
    /// advance the replicated displacement tracker. Every rank — and the
    /// serial reference — picks the identical rebuild-step sequence.
    fn rebuild_decide(&mut self, comm: &mut Comm, step: u64) -> bool {
        if self.cfg.skin == 0.0 {
            return true;
        }
        let mut local = 0.0f64;
        let locals: Vec<_> = self.interior_locals().collect();
        for l in locals {
            let fi = self.force_index(l);
            let ci = self.halo_index(l);
            local = local.max(verlet::max_predicted_travel2(
                &self.cells[ci],
                &self.forces[fi],
                self.cfg.dt,
            ));
        }
        let root = collectives::gather(comm, tags::REBUILD_GATHER, local)
            .map(|locals| locals.into_iter().fold(0.0f64, f64::max));
        let gmax2 = collectives::bcast(comm, tags::REBUILD_BCAST, root);
        self.tracker.advance(gmax2, self.cfg.dt);
        let forced =
            self.cfg.checkpoint_interval > 0 && step.is_multiple_of(self.cfg.checkpoint_interval);
        let rebuild = forced || self.tracker.exceeds(self.cfg.skin);
        if rebuild {
            self.tracker.reset();
        }
        self.rebuild_now = rebuild;
        rebuild
    }

    /// Phase 2: migration to the 26 neighbours.
    fn migrate(&mut self, comm: &mut Comm) {
        let mut local_moves: Vec<Particle> = Vec::new();
        let mut outgoing: Vec<Vec<Particle>> = vec![Vec::new(); 26];
        let k = self.torus;
        let my = k.coords(self.rank);
        let s = self.s;
        let locals: Vec<_> = self.interior_locals().collect();
        for l in locals {
            let ci = self.halo_index(l);
            let mut i = 0;
            while i < self.cells[ci].len() {
                let q = self.cells[ci][i];
                let g = self.global_cell(q.pos);
                let dest_block = (g.0 / s, g.1 / s, g.2 / s);
                if dest_block == my {
                    // Still ours; move between interior cells if needed.
                    let nl = self
                        .local_of_global(g)
                        .expect("own block cell is always local");
                    if self.halo_index(nl) == ci {
                        i += 1;
                        continue;
                    }
                    self.cells[ci].swap_remove(i);
                    local_moves.push(q);
                } else {
                    self.cells[ci].swap_remove(i);
                    let side = (self.nc / s) as i64;
                    let fold = |d: i64| -> i64 {
                        let d = d.rem_euclid(side);
                        if d > side / 2 {
                            d - side
                        } else {
                            d
                        }
                    };
                    let d = (
                        fold(dest_block.0 as i64 - my.0 as i64),
                        fold(dest_block.1 as i64 - my.1 as i64),
                        fold(dest_block.2 as i64 - my.2 as i64),
                    );
                    assert!(
                        d.0.abs() <= 1 && d.1.abs() <= 1 && d.2.abs() <= 1,
                        "rank {}: particle {} jumped more than one block ({d:?})",
                        self.rank,
                        q.id
                    );
                    outgoing[dir_index(d) as usize].push(q);
                }
            }
        }
        for q in local_moves {
            let g = self.global_cell(q.pos);
            let nl = self.local_of_global(g).expect("local move");
            let idx = self.halo_index(nl);
            self.cells[idx].push(q);
        }
        for (di, d) in DIRS26.iter().enumerate() {
            let mut payload = std::mem::take(&mut outgoing[di]);
            payload.sort_unstable_by_key(|q| q.id);
            let peer = k.neighbor(self.rank, d.0, d.1, d.2);
            comm.send(peer, tags::MIGRATE_BASE + di as u64, payload);
        }
        for d in DIRS26 {
            let peer = k.neighbor(self.rank, d.0, d.1, d.2);
            let opp = dir_index((-d.0, -d.1, -d.2));
            let incoming: Vec<Particle> = comm.recv(peer, tags::MIGRATE_BASE + opp);
            for q in incoming {
                let g = self.global_cell(q.pos);
                let nl = self.local_of_global(g).expect("migrated into our block");
                assert!(self.is_interior(nl), "migration landed in the halo");
                let idx = self.halo_index(nl);
                self.cells[idx].push(q);
            }
        }
        self.sort_all_cells();
    }

    /// Phase 3: ghost exchange with all 26 neighbours. Each direction
    /// ships a boundary-shell [`GhostShellFrame`] of id-sorted `(id, pos)`
    /// pairs — no block directory, no velocities, nothing for empty
    /// cells. The receiver re-bins each ghost by its position
    /// (the same `axis_bin` the sender binned it with, so the mapping is
    /// exact) and re-derives the halo slot via `local_of_global`.
    fn exchange_ghosts(&mut self, comm: &mut Comm, rebuild: bool) {
        let s = self.s as i64;
        if rebuild {
            // Clear the halo shell and the per-step claim stamps.
            let shell: Vec<usize> = (-1..=s)
                .flat_map(|i| {
                    (-1..=s).flat_map(move |j| {
                        (-1..=s).filter_map(move |l| {
                            let on_shell =
                                i == -1 || i == s || j == -1 || j == s || l == -1 || l == s;
                            on_shell.then_some((i, j, l))
                        })
                    })
                })
                .map(|l| self.halo_index(l))
                .collect();
            for idx in shell {
                self.cells[idx].clear();
            }
            self.halo_seen.iter_mut().for_each(|x| *x = 0);
        }

        let k = self.torus;
        for (di, d) in DIRS26.iter().enumerate() {
            // Slab of own cells the neighbour in direction d needs.
            let range1 = |da: i64| -> std::ops::Range<i64> {
                match da {
                    -1 => 0..1,
                    1 => s - 1..s,
                    _ => 0..s,
                }
            };
            let w = s + 2;
            let halo_at =
                |l: (i64, i64, i64)| (((l.0 + 1) * w + (l.1 + 1)) * w + (l.2 + 1)) as usize;
            let mut buf = self.ghost_pool.checkout();
            let frame = Arc::get_mut(&mut buf).expect("fresh pool checkout is uniquely owned");
            let cells = &self.cells;
            frame.fill(range1(d.0).flat_map(|i| {
                range1(d.1).flat_map(move |j| {
                    range1(d.2).map(move |l| cells[halo_at((i, j, l))].as_slice())
                })
            }));
            let peer = k.neighbor(self.rank, d.0, d.1, d.2);
            comm.send(peer, tags::GHOST_BASE + di as u64, Arc::clone(&buf));
            self.ghost_pool.checkin(buf);
        }
        let record_routes = rebuild && self.cfg.skin > 0.0;
        for (di, d) in DIRS26.iter().enumerate() {
            let peer = k.neighbor(self.rank, d.0, d.1, d.2);
            let opp = dir_index((-d.0, -d.1, -d.2));
            let frame: Arc<GhostShellFrame> = comm.recv(peer, tags::GHOST_BASE + opp);
            if !rebuild {
                // Frozen epoch: same ids in the same frame order (the
                // sender's boundary cells are frozen too) — refresh the
                // claimed ghosts' positions in place through the routes
                // recorded at the last rebuild.
                debug_assert_eq!(frame.parts.len(), self.ghost_routes[di].len());
                for (&GhostPart { id, pos }, &(idx, slot)) in
                    frame.parts.iter().zip(&self.ghost_routes[di])
                {
                    if idx == SKIP {
                        continue;
                    }
                    let q = &mut self.cells[idx as usize][slot as usize];
                    debug_assert_eq!(q.id, id, "ghost stream membership changed mid-epoch");
                    q.pos = pos;
                }
                continue;
            }
            if record_routes {
                self.ghost_routes[di].clear();
            }
            for &GhostPart { id, pos } in &frame.parts {
                let stored = 'store: {
                    let g = self.global_cell(pos);
                    let Some(nl) = self.local_of_global(g) else {
                        break 'store None; // a shared slab cell this rank doesn't border
                    };
                    if self.is_interior(nl) {
                        break 'store None; // own cell echoed back on tiny tori
                    }
                    let idx = self.halo_index(nl);
                    // On a k = 2 torus the same canonical cell arrives from
                    // several directions with identical content; the first
                    // direction to deliver into a slot claims it, so no
                    // ghost is stored twice. Frame order is ascending id,
                    // so each claimed cell ends id-sorted — the same order
                    // the block frames used to deliver.
                    let claim = di as u8 + 1;
                    if self.halo_seen[idx] == 0 {
                        self.halo_seen[idx] = claim;
                    } else if self.halo_seen[idx] != claim {
                        break 'store None;
                    }
                    let slot = self.cells[idx].len() as u32;
                    self.cells[idx].push(Particle::at_rest(id, pos));
                    Some((idx as u32, slot))
                };
                if record_routes {
                    self.ghost_routes[di].push(stored.unwrap_or((SKIP, 0)));
                }
            }
        }
    }

    /// Phase 4: forces — canonical half-shell order over every halo cell,
    /// with integer-derived periodic shifts.
    ///
    /// Home cells run over the whole `(s+2)³` halo — own cells and ghost
    /// shell alike — sorted by canonical *global* cell coordinates, so the
    /// visit order is the serial one restricted to the cells this PE can
    /// see. Each pair is evaluated once at its canonical half-shell home,
    /// storing into whichever side(s) are interior; shell×shell pairs are
    /// other PEs' work. The shift comes from wrapping the canonical global
    /// home coordinate, exactly like `CellGrid::wrap_neighbor`.
    fn compute_forces(&mut self) {
        if self.cfg.verlet {
            return self.compute_forces_verlet();
        }
        let t0 = WallTimer::start();
        let mut work = WorkCounters::default();
        let pull = self.cfg.pull();
        let box_len = self.box_len;
        let nc = self.nc as i64;
        let kernel = self.kernel;
        let origin = (
            self.origin.0 as i64,
            self.origin.1 as i64,
            self.origin.2 as i64,
        );
        let s = self.s as i64;
        let su = self.s;
        let w = s + 2;
        let halo_index = |l: (i64, i64, i64)| -> usize {
            (((l.0 + 1) * w + (l.1 + 1)) * w + (l.2 + 1)) as usize
        };
        let interior = |l: (i64, i64, i64)| {
            (0..s).contains(&l.0) && (0..s).contains(&l.1) && (0..s).contains(&l.2)
        };
        let force_index = |l: (i64, i64, i64)| -> usize {
            ((l.0 as usize * su) + l.1 as usize) * su + l.2 as usize
        };
        // Canonical global coordinate of a halo local, wrapped into the box.
        let global1 = |o: i64, loc: i64| (o + loc).rem_euclid(nc);
        // Periodic shift of a forward neighbour from the canonical global
        // home coordinate — the same wrap rule as `CellGrid::wrap_neighbor`.
        let shift1 = |g: i64, d: i64| -> f64 {
            let v = g + d;
            if v < 0 {
                -box_len
            } else if v >= nc {
                box_len
            } else {
                0.0
            }
        };
        let cells = &self.cells;
        let forces = &mut self.forces;
        let mut homes: Vec<(I3, I3)> = Vec::new();
        for i in -1..=s {
            for j in -1..=s {
                for l in -1..=s {
                    let loc = (i, j, l);
                    let g = (
                        global1(origin.0, i),
                        global1(origin.1, j),
                        global1(origin.2, l),
                    );
                    homes.push((g, loc));
                }
            }
        }
        homes.sort_unstable_by_key(|&(g, _)| g);
        for &(_, loc) in &homes {
            if interior(loc) {
                forces[force_index(loc)] = vec![Vec3::ZERO; cells[halo_index(loc)].len()];
            }
        }
        for &(g, loc) in &homes {
            let targets = &cells[halo_index(loc)];
            if targets.is_empty() {
                continue;
            }
            let own_home = interior(loc);
            if own_home {
                kernel.accumulate_intra(targets, &mut forces[force_index(loc)], &mut work);
            }
            for &(dx, dy, dz) in HALF_OFFSETS_13.iter() {
                let nl = (loc.0 + dx, loc.1 + dy, loc.2 + dz);
                let in_halo = (-1..=s).contains(&nl.0)
                    && (-1..=s).contains(&nl.1)
                    && (-1..=s).contains(&nl.2);
                if !in_halo {
                    debug_assert!(!own_home, "interior home must have all halo neighbours");
                    continue;
                }
                let own_nb = interior(nl);
                if !own_home && !own_nb {
                    continue; // both on the shell: another PE's pairs
                }
                let neighbors = &cells[halo_index(nl)];
                if neighbors.is_empty() {
                    continue;
                }
                let shift = Vec3::new(shift1(g.0, dx), shift1(g.1, dy), shift1(g.2, dz));
                match (own_home, own_nb) {
                    (true, true) => {
                        let (fa, fb) = two_forces(forces, force_index(loc), force_index(nl));
                        kernel.accumulate_pair(
                            targets,
                            Some(fa),
                            neighbors,
                            Some(fb),
                            shift,
                            &mut work,
                        );
                    }
                    (true, false) => kernel.accumulate_pair(
                        targets,
                        Some(&mut forces[force_index(loc)]),
                        neighbors,
                        None,
                        shift,
                        &mut work,
                    ),
                    (false, true) => kernel.accumulate_pair(
                        targets,
                        None,
                        neighbors,
                        Some(&mut forces[force_index(nl)]),
                        shift,
                        &mut work,
                    ),
                    (false, false) => unreachable!(),
                }
            }
            if own_home && !pull.is_none() {
                let fs = &mut forces[force_index(loc)];
                for (q, f) in targets.iter().zip(fs.iter_mut()) {
                    *f += pull.force(q.pos, box_len);
                    work.potential += pull.energy(q.pos, box_len);
                }
            }
        }
        self.last_work = work;
        self.last_force_wall = t0.elapsed_s();
        self.last_force_virtual = match self.cfg.load_metric {
            LoadMetric::WorkModel { sec_per_pair } => work.pair_checks as f64 * sec_per_pair,
            LoadMetric::WallClock => self.last_force_wall,
        };
    }

    /// Phase 4, `verlet` mode: replay the segment list recorded at the
    /// last rebuild over the SoA mirror, then fold the flat owned forces
    /// and scatter them back into the per-cell arrays. Rebuild steps
    /// re-record the list with the exact walk [`CubePe::compute_forces`]
    /// performs (reach widened to `r_c + skin`); mid-epoch passes just
    /// refresh the frozen-layout positions.
    fn compute_forces_verlet(&mut self) {
        let t0 = WallTimer::start();
        if self.rebuild_now {
            self.rebuild_verlet();
        } else {
            self.soa.zero_forces();
            for idx in 0..self.cells.len() {
                let b = self.soa_cell_base[idx];
                if b != usize::MAX {
                    self.soa.load_positions(b, &self.cells[idx]);
                }
            }
        }
        let pull = self.cfg.pull();
        let mut work = [WorkCounters::default()];
        self.vlist.replay(
            &self.kernel,
            &pull,
            self.box_len,
            &mut self.soa,
            cube_replay_action,
            &mut work,
        );
        let mut fold = std::mem::take(&mut self.fold_buf);
        self.soa.fold_forces(&mut fold);
        let locals: Vec<_> = self.interior_locals().collect();
        for l in locals {
            let fi = self.force_index(l);
            let ci = self.halo_index(l);
            let b = self.soa_cell_base[ci];
            let n = self.cells[ci].len();
            self.forces[fi].clear();
            self.forces[fi].extend_from_slice(&fold[b..b + n]);
        }
        self.fold_buf = fold;
        self.last_work = work[0];
        self.last_force_wall = t0.elapsed_s();
        self.last_force_virtual = match self.cfg.load_metric {
            LoadMetric::WorkModel { sec_per_pair } => work[0].pair_checks as f64 * sec_per_pair,
            LoadMetric::WallClock => self.last_force_wall,
        };
    }

    /// Re-record the Verlet segment list at a rebuild step: lay the SoA
    /// out over the halo (interior cells first in `force_index` order —
    /// the fold layout — shell cells appended in canonical home order),
    /// then run the exact canonical-global-order walk of
    /// [`CubePe::compute_forces`] with the widened reach, recording
    /// every kernel block with its interior/shell side classes.
    fn rebuild_verlet(&mut self) {
        let s = self.s as i64;
        let nc = self.nc as i64;
        let box_len = self.box_len;
        let origin = (
            self.origin.0 as i64,
            self.origin.1 as i64,
            self.origin.2 as i64,
        );
        let w = s + 2;
        let halo_index = |l: (i64, i64, i64)| -> usize {
            (((l.0 + 1) * w + (l.1 + 1)) * w + (l.2 + 1)) as usize
        };
        let interior = |l: (i64, i64, i64)| {
            (0..s).contains(&l.0) && (0..s).contains(&l.1) && (0..s).contains(&l.2)
        };
        let global1 = |o: i64, loc: i64| (o + loc).rem_euclid(nc);
        let shift1 = |g: i64, d: i64| -> f64 {
            let v = g + d;
            if v < 0 {
                -box_len
            } else if v >= nc {
                box_len
            } else {
                0.0
            }
        };
        let mut homes: Vec<(I3, I3)> = Vec::new();
        for i in -1..=s {
            for j in -1..=s {
                for l in -1..=s {
                    let loc = (i, j, l);
                    let g = (
                        global1(origin.0, i),
                        global1(origin.1, j),
                        global1(origin.2, l),
                    );
                    homes.push((g, loc));
                }
            }
        }
        homes.sort_unstable_by_key(|&(g, _)| g);
        // SoA layout: interior cells in force_index order (= the fold
        // scatter order), then shell cells in canonical home order.
        self.soa_cell_base.iter_mut().for_each(|b| *b = usize::MAX);
        let mut total = 0usize;
        for i in 0..s {
            for j in 0..s {
                for l in 0..s {
                    let idx = halo_index((i, j, l));
                    self.soa_cell_base[idx] = total;
                    total += self.cells[idx].len();
                }
            }
        }
        let n_owned = total;
        for &(_, loc) in &homes {
            if !interior(loc) {
                let idx = halo_index(loc);
                self.soa_cell_base[idx] = total;
                total += self.cells[idx].len();
            }
        }
        self.soa.reset(n_owned, total);
        for idx in 0..self.cells.len() {
            let b = self.soa_cell_base[idx];
            if b != usize::MAX {
                self.soa.load_positions(b, &self.cells[idx]);
            }
        }
        self.vlist.clear();
        let reach = self.kernel.lj.rcut + self.cfg.skin;
        let reach2 = reach * reach;
        let cells = &self.cells;
        let soa_cell_base = &self.soa_cell_base;
        for &(g, loc) in &homes {
            let hi = halo_index(loc);
            let hlen = cells[hi].len();
            if hlen == 0 {
                continue;
            }
            let hb = soa_cell_base[hi];
            let own_home = interior(loc);
            let hcode = if own_home { OWNED } else { GHOST };
            let habs = hb..hb + hlen;
            if own_home {
                self.vlist
                    .record_intra(&self.soa, habs.clone(), reach2, hcode, 0);
            }
            for &(dx, dy, dz) in HALF_OFFSETS_13.iter() {
                let nl = (loc.0 + dx, loc.1 + dy, loc.2 + dz);
                let in_halo = (-1..=s).contains(&nl.0)
                    && (-1..=s).contains(&nl.1)
                    && (-1..=s).contains(&nl.2);
                if !in_halo {
                    debug_assert!(!own_home, "interior home must have all halo neighbours");
                    continue;
                }
                let own_nb = interior(nl);
                if !own_home && !own_nb {
                    continue; // both on the shell: another PE's pairs
                }
                let ni = halo_index(nl);
                let nlen = cells[ni].len();
                if nlen == 0 {
                    continue;
                }
                let nb = soa_cell_base[ni];
                let shift = Vec3::new(shift1(g.0, dx), shift1(g.1, dy), shift1(g.2, dz));
                self.vlist.record_pair(
                    &self.soa,
                    habs.clone(),
                    nb..nb + nlen,
                    shift,
                    reach2,
                    hcode,
                    if own_nb { OWNED } else { GHOST },
                    0,
                );
            }
            if own_home {
                self.vlist.record_pull(habs, hcode, 0);
            }
        }
    }

    fn kick_all(&mut self) {
        let dt = self.cfg.dt;
        let locals: Vec<_> = self.interior_locals().collect();
        for l in locals {
            let fi = self.force_index(l);
            let ci = self.halo_index(l);
            let fs = std::mem::take(&mut self.forces[fi]);
            for (q, f) in self.cells[ci].iter_mut().zip(&fs) {
                kick(q, *f, dt);
            }
            self.forces[fi] = fs;
        }
    }

    fn thermostat(&mut self, comm: &mut Comm, step: u64) {
        let th = self.cfg.thermostat();
        if !th.fires_at(step) {
            return;
        }
        let kes: Vec<(u64, f64)> = self
            .interior_locals()
            .flat_map(|l| self.cells[self.halo_index(l)].iter())
            .map(|q| (q.id, 0.5 * q.vel.norm2()))
            .collect();
        let gathered = collectives::gather(comm, tags::KE_GATHER, kes);
        let scale = gathered.map(|chunks| {
            let mut all: Vec<(u64, f64)> = chunks.into_iter().flatten().collect();
            all.sort_unstable_by_key(|&(id, _)| id);
            let ke: f64 = all.iter().map(|&(_, k)| k).sum();
            th.scale_factor(observe::temperature_from_ke(ke, self.cfg.n_particles))
        });
        let sfac = collectives::bcast(comm, tags::KE_BCAST, scale);
        let locals: Vec<_> = self.interior_locals().collect();
        for l in locals {
            let ci = self.halo_index(l);
            for q in self.cells[ci].iter_mut() {
                q.vel = q.vel * sfac;
            }
        }
    }

    fn step(&mut self, comm: &mut Comm, step: u64) -> Option<StepRecord> {
        let t0 = WallTimer::start();
        // Rebuild decision first — a pure function of replicated state,
        // evaluated on the pre-kick velocities and last step's forces,
        // exactly as the serial reference does.
        let rebuild = self.rebuild_decide(comm, step);
        self.kick_drift_all();
        // Mid-epoch the binning and halo membership are frozen.
        if rebuild {
            self.migrate(comm);
        }
        self.exchange_ghosts(comm, rebuild);
        self.compute_forces();
        self.kick_all();
        self.thermostat(comm, step);
        let wall = t0.elapsed_s();

        let comm_virtual = comm.stats().virtual_comm_s;
        let comm_delta = comm_virtual - self.last_comm_virtual;
        self.last_comm_virtual = comm_virtual;
        let empty: usize = self
            .interior_locals()
            .filter(|l| self.cells[self.halo_index(*l)].is_empty())
            .count();
        let kinetic: f64 = self
            .interior_locals()
            .flat_map(|l| self.cells[self.halo_index(l)].iter())
            .map(|q| 0.5 * q.vel.norm2())
            .sum();
        let packet = StatsPacket {
            cells: (self.s * self.s * self.s) as u64,
            empty_cells: empty as u64,
            particles: self.num_particles() as u64,
            force_virtual: self.last_force_virtual,
            force_wall: self.last_force_wall,
            comm_virtual_delta: comm_delta,
            pair_checks: self.last_work.pair_checks,
            potential: self.last_work.potential,
            kinetic,
            transferred: 0,
        };
        crate::stats::collect_step_record(comm, &self.cfg, step, packet, wall, self.rebuild_now)
    }

    fn gather_snapshot(&self, comm: &mut Comm) -> Option<Vec<Particle>> {
        let own: Vec<Particle> = self
            .interior_locals()
            .flat_map(|l| self.cells[self.halo_index(l)].iter().copied())
            .collect();
        collectives::gather(comm, tags::SNAPSHOT, own).map(|chunks| {
            let mut all: Vec<Particle> = chunks.into_iter().flatten().collect();
            all.sort_unstable_by_key(|q| q.id);
            all
        })
    }
}

/// Run the cube-domain simulator; rank 0's report with comm totals.
pub fn run_cube(cfg: &RunConfig) -> RunReport {
    run_cube_inner(cfg, false).0
}

/// Like [`run_cube`] but also gathers the final particle state.
pub fn run_cube_with_snapshot(cfg: &RunConfig) -> (RunReport, Vec<Particle>) {
    let (rep, snap) = run_cube_inner(cfg, true);
    (rep, snap.expect("snapshot requested"))
}

fn run_cube_inner(cfg: &RunConfig, want_snapshot: bool) -> (RunReport, Option<Vec<Particle>>) {
    validate_cube(cfg);
    let world = World::new(cfg.p)
        .with_cost_model(CostModel::t3e(None))
        .with_comm_config(&cfg.comm);
    struct R {
        report: Option<RunReport>,
        snapshot: Option<Vec<Particle>>,
        comm: pcdlb_mp::CommStats,
    }
    let mut results: Vec<R> = world.run(|comm| {
        let run_start = WallTimer::start();
        let mut pe = CubePe::new(comm.rank(), cfg);
        pe.exchange_ghosts(comm, true);
        pe.compute_forces();
        pe.last_comm_virtual = comm.stats().virtual_comm_s;
        let mut records = Vec::new();
        for step in 1..=cfg.steps {
            if let Some(rec) = pe.step(comm, step) {
                records.push(rec);
            }
        }
        let snapshot = if want_snapshot {
            pe.gather_snapshot(comm)
        } else {
            None
        };
        R {
            report: (comm.rank() == 0).then(|| RunReport {
                records,
                comm_virtual_s: 0.0,
                msgs_sent: 0,
                bytes_sent: 0,
                retransmits: 0,
                suspicions: 0,
                wall_s: run_start.elapsed_s(),
            }),
            snapshot,
            comm: comm.stats(),
        }
    });
    let comm_virtual: f64 = results.iter().map(|r| r.comm.virtual_comm_s).sum();
    let msgs: u64 = results.iter().map(|r| r.comm.msgs_sent).sum();
    let bytes: u64 = results.iter().map(|r| r.comm.bytes_sent).sum();
    let retransmits: u64 = results.iter().map(|r| r.comm.retransmits).sum();
    let suspicions: u64 = results.iter().map(|r| r.comm.suspicions).sum();
    let rank0 = results.swap_remove(0);
    let mut report = rank0.report.expect("rank 0 report");
    report.comm_virtual_s = comm_virtual;
    report.msgs_sent = msgs;
    report.bytes_sent = bytes;
    report.retransmits = retransmits;
    report.suspicions = suspicions;
    (report, rank0.snapshot)
}
