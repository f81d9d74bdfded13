//! Plane-domain baseline: 1-D domain decomposition with a discrete
//! moving-boundary load balancer.
//!
//! This is the prior art the paper positions itself against (Sec. 1,
//! refs. \[4\] Brugé & Fornili and \[5\] Kohring): slice the box along one
//! axis into slabs of whole cell *planes*, connect the PEs as a ring, and
//! balance load by shifting slab boundaries one plane at a time toward
//! the more loaded side. It extends to 3-D trivially — but balances along
//! a single axis only and at whole-plane granularity, which is exactly
//! why the paper's 2-D-torus permanent-cell scheme wins on concentrated
//! loads (the `baseline1d` bench quantifies this).
//!
//! Implementation notes:
//! - PE `r` owns planes `[b_r, b_{r+1})` of the `nc` planes; `b_0 = 0`
//!   and `b_P = nc` are fixed (the periodic seam), interior boundaries
//!   move. Every PE keeps at least one plane.
//! - A boundary `i` may move only on steps with matching parity
//!   (`(i + step) % 2 == 0`), the classic trick that stops a one-plane PE
//!   from being squeezed from both sides in the same step.
//! - The force loop visits home cells — owned and ghost planes alike —
//!   in the same canonical half-shell order as `pcdlb_md::serial` and
//!   `crate::pe`, evaluating each pair once at its canonical home, so
//!   this simulator is also **bitwise identical** to the serial
//!   reference.

use std::collections::BTreeMap;
use std::sync::Arc;

use pcdlb_md::cells::CellSlab;
use pcdlb_md::force::{disjoint_ranges_mut, PairKernel, WorkCounters};
use pcdlb_md::integrate::{kick, kick_drift, kick_drift_nowrap};
use pcdlb_md::observe;
use pcdlb_md::vec3::Vec3;
use pcdlb_md::verlet::{self, DispTracker, SegAction, SegKind, VerletList};
use pcdlb_md::{axis_bin, Particle, SoaField};
use pcdlb_mp::{collectives, BufferPool, Comm, CostModel, World};

use crate::clock::WallTimer;
use crate::config::{LoadMetric, RunConfig};
use crate::frame::{GhostPart, GhostShellFrame};
use crate::pe::initial_particles;
use crate::report::{RunReport, StepRecord};
use crate::stats::StatsPacket;

mod tags {
    pub const LOAD_UP: u64 = 21;
    pub const LOAD_DOWN: u64 = 22;
    pub const XFER_UP: u64 = 23;
    pub const XFER_DOWN: u64 = 24;
    pub const MIGRATE_UP: u64 = 25;
    pub const MIGRATE_DOWN: u64 = 26;
    pub const GHOST_UP: u64 = 27;
    pub const GHOST_DOWN: u64 = 28;
    pub const KE_GATHER: u64 = 30;
    pub const KE_BCAST: u64 = 31;
    pub const SNAPSHOT: u64 = 32;
    pub const REBUILD_GATHER: u64 = 33;
    pub const REBUILD_BCAST: u64 = 34;
}

/// The forward (dy, dz) groups within the home plane (`dx = 0`): together
/// with the full 3×3 sweep of the `dx = 1` plane they enumerate
/// `pcdlb_md::cells::HALF_OFFSETS_13` in canonical order.
const FORWARD_YZ_SAME_PLANE: [(i64, &[i64]); 2] = [(0, &[1]), (1, &[-1, 0, 1])];

/// Wire class codes for recorded Verlet segments: owned vs ghost plane.
const OWNED: u8 = 0;
const GHOST: u8 = 1;

/// Replay policy for the plane baseline's single fused pass: store into
/// owned sides only, and credit each pair's energy with the same
/// `0.5 × owned sides` weight the live walk's `accumulate_pair` uses.
fn plane_replay_action(seg: &verlet::Segment) -> Option<SegAction> {
    match seg.kind {
        // Intra triangles and the external pull are only ever recorded
        // for owned home planes.
        SegKind::Intra | SegKind::Pull => Some(SegAction {
            sa: true,
            sb: true,
            run_home: true,
            credit: None,
        }),
        SegKind::Pair => {
            let sa = seg.ca == OWNED;
            let sb = seg.cb == OWNED;
            debug_assert!(sa || sb, "both-ghost segments are never recorded");
            Some(SegAction {
                sa,
                sb,
                run_home: false,
                credit: Some(0.5 * (sa as u64 + sb as u64) as f64),
            })
        }
    }
}

/// Validate a config for the plane decomposition (which, unlike the
/// square pillar, accepts any `P ≤ nc`, square or not).
pub fn validate_plane(cfg: &RunConfig) {
    assert!(cfg.n_particles > 1 && cfg.density > 0.0 && cfg.t_ref > 0.0);
    assert!(cfg.dt > 0.0 && cfg.steps > 0 && cfg.dlb_interval > 0);
    assert!(cfg.p >= 1, "need at least one PE");
    assert!(
        cfg.p <= cfg.nc,
        "plane decomposition needs at least one plane per PE (P = {}, nc = {})",
        cfg.p,
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
             the one-plane ghost shell would go stale mid-epoch",
            cfg.cell_len(),
            cfg.lj.rcut + cfg.skin,
            cfg.lj.rcut,
            cfg.skin
        );
    }
}

/// Per-PE state of the plane simulator.
struct PlanePe {
    cfg: RunConfig,
    rank: usize,
    p: usize,
    nc: usize,
    box_len: f64,
    cell_len: f64,
    kernel: PairKernel,
    /// Owned plane range `[lo, hi)`.
    lo: usize,
    hi: usize,
    /// Neighbour ranges, refreshed in the load exchange.
    prev_range: (usize, usize),
    next_range: (usize, usize),
    /// Owned planes: contiguous (cell, id)-sorted storage with `nc²`
    /// cells per plane, indexed by `cy·nc + cz`.
    planes: BTreeMap<usize, CellSlab>,
    /// Flat force storage: owned planes concatenated in ascending plane
    /// order, aligned with each slab's particle order.
    forces: Vec<Vec3>,
    ghosts: BTreeMap<usize, CellSlab>,
    /// Pooled boundary-shell ghost send buffers.
    ghost_pool: BufferPool<GhostShellFrame>,
    /// Displacement tracker driving the skin-epoch rebuild schedule.
    tracker: DispTracker,
    /// Whether the current step re-binds the world (always `true` with
    /// `skin == 0`, the historical every-step behaviour).
    rebuild_now: bool,
    /// SoA position/force mirror the Verlet replay runs over.
    soa: SoaField,
    /// Recorded Verlet segment list (`verlet` mode only).
    vlist: VerletList,
    /// SoA base offset of each home plane — owned planes first (the flat
    /// force layout), ghost planes appended — frozen between rebuilds.
    soa_base: BTreeMap<usize, usize>,
    /// Per-direction mid-epoch ghost routes: the ghost-slab slot of each
    /// decode position, recorded at rebuild while membership is frozen.
    ghost_routes: [Vec<u32>; 2],
    last_work: WorkCounters,
    last_force_virtual: f64,
    last_force_wall: f64,
    last_comm_virtual: f64,
}

impl PlanePe {
    fn new(rank: usize, cfg: &RunConfig) -> Self {
        let p = cfg.p;
        let nc = cfg.nc;
        let lo = rank * nc / p;
        let hi = (rank + 1) * nc / p;
        let mut pe = Self {
            cfg: cfg.clone(),
            rank,
            p,
            nc,
            box_len: cfg.box_len(),
            cell_len: cfg.cell_len(),
            kernel: PairKernel::new(cfg.lj),
            lo,
            hi,
            prev_range: ((rank + p - 1) % p * nc / p, rank * nc / p),
            next_range: ((rank + 1) % p * nc / p, ((rank + 1) % p + 1) * nc / p),
            planes: BTreeMap::new(),
            forces: Vec::new(),
            ghosts: BTreeMap::new(),
            ghost_pool: BufferPool::new(),
            tracker: DispTracker::new(),
            rebuild_now: true,
            soa: SoaField::new(),
            vlist: VerletList::new(),
            soa_base: BTreeMap::new(),
            ghost_routes: [Vec::new(), Vec::new()],
            last_work: WorkCounters::default(),
            last_force_virtual: 0.0,
            last_force_wall: 0.0,
            last_comm_virtual: 0.0,
        };
        let mut staging: BTreeMap<usize, Vec<Particle>> =
            (lo..hi).map(|cx| (cx, Vec::new())).collect();
        for part in initial_particles(cfg) {
            let cx = pe.axis(part.pos.x);
            if cx >= lo && cx < hi {
                staging.get_mut(&cx).expect("own plane").push(part);
            }
        }
        pe.planes = staging
            .into_iter()
            .map(|(cx, v)| (cx, pe.build_plane(v)))
            .collect();
        pe
    }

    fn axis(&self, v: f64) -> usize {
        axis_bin(v, self.cell_len, self.nc)
    }

    /// Bin a flat particle list into one plane's `nc²` cells.
    fn build_plane(&self, parts: Vec<Particle>) -> CellSlab {
        let cell_len = self.cell_len;
        let nc = self.nc;
        let axis = move |v: f64| axis_bin(v, cell_len, nc);
        CellSlab::build(nc * nc, parts, move |q| axis(q.pos.y) * nc + axis(q.pos.z))
    }

    fn prev(&self) -> usize {
        (self.rank + self.p - 1) % self.p
    }

    fn next(&self) -> usize {
        (self.rank + 1) % self.p
    }

    fn num_planes(&self) -> usize {
        self.hi - self.lo
    }

    fn num_particles(&self) -> usize {
        self.planes.values().map(CellSlab::len).sum()
    }

    fn last_load(&self) -> f64 {
        match self.cfg.load_metric {
            LoadMetric::WorkModel { .. } => self.last_force_virtual,
            LoadMetric::WallClock => self.last_force_wall,
        }
    }

    /// Phase 1: half-kick and drift. Mid-epoch (frozen binning) the
    /// drift skips the periodic wrap — the frozen cell shifts already
    /// account for images, and the rebuild step re-wraps everything.
    fn kick_drift_all(&mut self) {
        let dt = self.cfg.dt;
        let box_len = self.box_len;
        let wrap = self.rebuild_now;
        let mut base = 0usize;
        for slab in self.planes.values_mut() {
            let n = slab.len();
            for (q, f) in slab
                .particles_mut()
                .iter_mut()
                .zip(&self.forces[base..base + n])
            {
                if wrap {
                    kick_drift(q, *f, dt, box_len);
                } else {
                    kick_drift_nowrap(q, *f, dt);
                }
            }
            base += n;
        }
        debug_assert_eq!(base, self.forces.len());
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
        let mut base = 0usize;
        for slab in self.planes.values() {
            let n = slab.len();
            local = local.max(verlet::max_predicted_travel2(
                slab.particles(),
                &self.forces[base..base + n],
                self.cfg.dt,
            ));
            base += n;
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

    /// Phase 2: rebin, shipping plane-crossers to the ring neighbours.
    fn migrate(&mut self, comm: &mut Comm) {
        let mut staging: BTreeMap<usize, Vec<Particle>> =
            self.planes.keys().map(|&cx| (cx, Vec::new())).collect();
        let mut up: Vec<Particle> = Vec::new();
        let mut down: Vec<Particle> = Vec::new();
        let (lo, hi, nc) = (self.lo, self.hi, self.nc);
        for slab in std::mem::take(&mut self.planes).into_values() {
            for q in slab.into_particles() {
                let ncx = self.axis(q.pos.x);
                if ncx >= lo && ncx < hi {
                    staging.get_mut(&ncx).expect("own plane").push(q);
                } else if ncx + 1 == lo || (lo == 0 && ncx == nc - 1) {
                    down.push(q);
                } else if ncx == hi || (hi == nc && ncx == 0) {
                    up.push(q);
                } else {
                    panic!(
                        "rank {}: particle {} jumped to plane {ncx} \
                         (range {lo}..{hi}) — time step too large",
                        self.rank, q.id
                    );
                }
            }
        }
        if self.p > 1 {
            up.sort_unstable_by_key(|q| q.id);
            down.sort_unstable_by_key(|q| q.id);
            comm.send(self.next(), tags::MIGRATE_UP, up);
            comm.send(self.prev(), tags::MIGRATE_DOWN, down);
            let from_prev: Vec<Particle> = comm.recv(self.prev(), tags::MIGRATE_UP);
            let from_next: Vec<Particle> = comm.recv(self.next(), tags::MIGRATE_DOWN);
            for q in from_prev.into_iter().chain(from_next) {
                let ncx = self.axis(q.pos.x);
                debug_assert!(
                    ncx >= lo && ncx < hi,
                    "rank {}: received particle {} for plane {ncx} outside {lo}..{hi}",
                    self.rank,
                    q.id
                );
                staging.get_mut(&ncx).expect("own plane").push(q);
            }
        }
        self.planes = staging
            .into_iter()
            .map(|(cx, v)| (cx, self.build_plane(v)))
            .collect();
    }

    /// Phase 3: 1-D moving-boundary balancing. Returns planes sent.
    fn dlb(&mut self, comm: &mut Comm, step: u64) -> u64 {
        if !self.cfg.dlb || self.p < 2 {
            return 0;
        }
        // Exchange (lo, hi, load) with both ring neighbours.
        let mine = (self.lo as u64, self.hi as u64, self.last_load());
        comm.send(self.next(), tags::LOAD_UP, mine);
        comm.send(self.prev(), tags::LOAD_DOWN, mine);
        let from_prev: (u64, u64, f64) = comm.recv(self.prev(), tags::LOAD_UP);
        let from_next: (u64, u64, f64) = comm.recv(self.next(), tags::LOAD_DOWN);
        self.prev_range = (from_prev.0 as usize, from_prev.1 as usize);
        self.next_range = (from_next.0 as usize, from_next.1 as usize);

        let gain = self.cfg.dlb_min_gain.max(0.0);
        let heavier = |a: f64, b: f64| a > b * (1.0 + gain) && a > b;
        let mut sent = 0u64;

        // Boundary at my `lo` (index = rank; interior iff rank > 0).
        let lo_active = self.rank > 0 && (self.rank as u64 + step).is_multiple_of(2);
        if lo_active {
            let (plo, phi, pload) = from_prev;
            let my_load = self.last_load();
            let my_planes = self.num_planes();
            let prev_planes = (phi - plo) as usize;
            if heavier(pload, my_load) && prev_planes > 1 {
                // Previous rank sheds its top plane to me.
                let plane: Vec<Particle> = comm.recv(self.prev(), tags::XFER_UP);
                let cx = self.lo - 1;
                self.adopt_plane(cx, plane);
                self.lo = cx;
            } else if heavier(my_load, pload) && my_planes > 1 {
                // I shed my bottom plane to the previous rank.
                let data = self.remove_plane(self.lo);
                comm.send(self.prev(), tags::XFER_DOWN, data);
                self.lo += 1;
                sent += 1;
            }
        }
        // Boundary at my `hi` (index = rank + 1; interior iff rank < p-1).
        let hi_active = self.rank + 1 < self.p && (self.rank as u64 + 1 + step).is_multiple_of(2);
        if hi_active {
            let (nlo, nhi, nload) = from_next;
            let my_load = self.last_load();
            let my_planes = self.num_planes();
            let next_planes = (nhi - nlo) as usize;
            if heavier(nload, my_load) && next_planes > 1 {
                let plane: Vec<Particle> = comm.recv(self.next(), tags::XFER_DOWN);
                let cx = self.hi;
                self.adopt_plane(cx, plane);
                self.hi = cx + 1;
            } else if heavier(my_load, nload) && my_planes > 1 {
                let data = self.remove_plane(self.hi - 1);
                comm.send(self.next(), tags::XFER_UP, data);
                self.hi -= 1;
                sent += 1;
            }
        }
        sent
    }

    fn remove_plane(&mut self, cx: usize) -> Vec<Particle> {
        let slab = self.planes.remove(&cx).expect("own plane");
        let mut flat = slab.into_particles();
        flat.sort_unstable_by_key(|q| q.id);
        flat
    }

    fn adopt_plane(&mut self, cx: usize, flat: Vec<Particle>) {
        debug_assert!(flat.iter().all(|q| self.axis(q.pos.x) == cx));
        let slab = self.build_plane(flat);
        self.planes.insert(cx, slab);
    }

    /// Phase 4: ghost planes from the ring neighbours, shipped as
    /// boundary-shell [`GhostShellFrame`]s of id-sorted `(id, pos)` pairs.
    /// No plane index travels: slabs are
    /// contiguous, so the plane a stream carries is always `lo − 1`
    /// (from below) or `hi` (from above), wrapped at the seam.
    ///
    /// On rebuild steps the received planes are re-binned from scratch
    /// and (with `skin > 0`) the frame-order → slab-slot routes are
    /// recorded; mid-epoch the membership and binning are frozen, so the
    /// received positions are written through those routes in place.
    fn exchange_ghosts(&mut self, comm: &mut Comm, rebuild: bool) {
        if rebuild {
            self.ghosts.clear();
        }
        if self.p < 2 {
            return; // all planes are local
        }
        for (cx, dst, tag) in [
            (self.hi - 1, self.next(), tags::GHOST_UP),
            (self.lo, self.prev(), tags::GHOST_DOWN),
        ] {
            let mut buf = self.ghost_pool.checkout();
            let frame = Arc::get_mut(&mut buf).expect("fresh pool checkout is uniquely owned");
            frame.fill([self.planes[&cx].particles()]);
            comm.send(dst, tag, Arc::clone(&buf));
            self.ghost_pool.checkin(buf);
        }
        let record_routes = rebuild && self.cfg.skin > 0.0;
        for (ci, (src, tag, cx)) in [
            (
                self.prev(),
                tags::GHOST_UP,
                (self.lo + self.nc - 1) % self.nc,
            ),
            (self.next(), tags::GHOST_DOWN, self.hi % self.nc),
        ]
        .into_iter()
        .enumerate()
        {
            let frame: Arc<GhostShellFrame> = comm.recv(src, tag);
            if !rebuild {
                // Frozen epoch: same ids in the same frame order (the
                // sender's slab is frozen too) — refresh positions in
                // place through the recorded routes.
                let slab = self.ghosts.get_mut(&cx).expect("frozen ghost plane");
                let parts = slab.particles_mut();
                debug_assert_eq!(frame.parts.len(), self.ghost_routes[ci].len());
                for (&GhostPart { id, pos }, &slot) in
                    frame.parts.iter().zip(&self.ghost_routes[ci])
                {
                    let q = &mut parts[slot as usize];
                    debug_assert_eq!(q.id, id, "ghost stream membership changed mid-epoch");
                    q.pos = pos;
                }
                continue;
            }
            // Ghost velocities are never read: the force pass only needs
            // positions, and the thermostat/KE sums walk owned planes.
            let parts: Vec<Particle> = frame
                .parts
                .iter()
                .map(|g| Particle::at_rest(g.id, g.pos))
                .collect();
            debug_assert!(parts.iter().all(|q| self.axis(q.pos.x) == cx));
            let slab = self.build_plane(parts);
            if record_routes {
                let mut by_id: Vec<(u64, u32)> = slab
                    .particles()
                    .iter()
                    .enumerate()
                    .map(|(slot, q)| (q.id, slot as u32))
                    .collect();
                by_id.sort_unstable_by_key(|&(id, _)| id);
                let routes = &mut self.ghost_routes[ci];
                routes.clear();
                routes.extend(frame.parts.iter().map(|g| {
                    let at = by_id
                        .binary_search_by_key(&g.id, |&(i, _)| i)
                        .expect("received ghost is in the rebuilt slab");
                    by_id[at].1
                }));
            }
            self.ghosts.insert(cx, slab);
        }
    }

    /// Phase 5: forces in the canonical half-shell order. Home cells run
    /// over owned *and* ghost planes in ascending global order; a ghost
    /// home stores only into owned forward neighbours, and a pair between
    /// two ghost cells is another PE's work.
    fn compute_forces(&mut self) {
        if self.cfg.verlet {
            return self.compute_forces_verlet();
        }
        let t0 = WallTimer::start();
        let mut work = WorkCounters::default();
        let nc = self.nc;
        let box_len = self.box_len;
        let pull = self.cfg.pull();
        // Flat force storage over owned planes, ascending plane order.
        let mut base_of: BTreeMap<usize, usize> = BTreeMap::new();
        let mut total = 0usize;
        for (cx, slab) in &self.planes {
            base_of.insert(*cx, total);
            total += slab.len();
        }
        let mut forces = vec![Vec3::ZERO; total];
        let mut homes: Vec<(usize, &CellSlab)> = self
            .planes
            .iter()
            .chain(self.ghosts.iter())
            .map(|(cx, s)| (*cx, s))
            .collect();
        homes.sort_unstable_by_key(|&(cx, _)| cx);
        for (cx, slab) in homes {
            let hbase = base_of.get(&cx).copied();
            // The forward plane (dx = 1), when visible; a ghost home may
            // have none (those pairs belong to another PE).
            let (fcx, sx) = wrap1(nc, box_len, cx, 1);
            let fwd = self
                .planes
                .get(&fcx)
                .or_else(|| self.ghosts.get(&fcx))
                .map(|s| (s, base_of.get(&fcx).copied()));
            assert!(
                fwd.is_some() || hbase.is_none(),
                "rank {}: missing plane {fcx} next to {cx}",
                self.rank
            );
            for cy in 0..nc {
                for cz in 0..nc {
                    let idx = cy * nc + cz;
                    let hr = slab.range(idx);
                    if hr.is_empty() {
                        continue;
                    }
                    let targets = slab.cell(idx);
                    if let Some(hb) = hbase {
                        self.kernel.accumulate_intra(
                            targets,
                            &mut forces[hb + hr.start..hb + hr.end],
                            &mut work,
                        );
                    }
                    // dx = 0: the two forward (dy, dz) groups in the home
                    // plane — owned homes only (ghost×ghost otherwise).
                    if let Some(hb) = hbase {
                        for &(dy, dzs) in &FORWARD_YZ_SAME_PLANE {
                            let (ny, sy) = wrap1(nc, box_len, cy, dy);
                            for &dz in dzs {
                                let (nz, sz) = wrap1(nc, box_len, cz, dz);
                                let nidx = ny * nc + nz;
                                let nr = slab.range(nidx);
                                if nr.is_empty() {
                                    continue;
                                }
                                let (fa, fb) = disjoint_ranges_mut(
                                    &mut forces,
                                    hb + hr.start..hb + hr.end,
                                    hb + nr.start..hb + nr.end,
                                );
                                self.kernel.accumulate_pair(
                                    targets,
                                    Some(fa),
                                    slab.cell(nidx),
                                    Some(fb),
                                    Vec3::new(0.0, sy, sz),
                                    &mut work,
                                );
                            }
                        }
                    }
                    // dx = 1: the full 3×3 sweep of the forward plane.
                    let Some((fslab, fbase)) = fwd else {
                        continue;
                    };
                    if hbase.is_none() && fbase.is_none() {
                        continue; // both planes ghost: another PE's pairs
                    }
                    for dy in -1i64..=1 {
                        let (ny, sy) = wrap1(nc, box_len, cy, dy);
                        for dz in -1i64..=1 {
                            let (nz, sz) = wrap1(nc, box_len, cz, dz);
                            let nidx = ny * nc + nz;
                            let nr = fslab.range(nidx);
                            if nr.is_empty() {
                                continue;
                            }
                            let neighbors = fslab.cell(nidx);
                            let shift = Vec3::new(sx, sy, sz);
                            match (hbase, fbase) {
                                (Some(hb), Some(nb)) => {
                                    let (fa, fb) = disjoint_ranges_mut(
                                        &mut forces,
                                        hb + hr.start..hb + hr.end,
                                        nb + nr.start..nb + nr.end,
                                    );
                                    self.kernel.accumulate_pair(
                                        targets,
                                        Some(fa),
                                        neighbors,
                                        Some(fb),
                                        shift,
                                        &mut work,
                                    );
                                }
                                (Some(hb), None) => self.kernel.accumulate_pair(
                                    targets,
                                    Some(&mut forces[hb + hr.start..hb + hr.end]),
                                    neighbors,
                                    None,
                                    shift,
                                    &mut work,
                                ),
                                (None, Some(nb)) => self.kernel.accumulate_pair(
                                    targets,
                                    None,
                                    neighbors,
                                    Some(&mut forces[nb + nr.start..nb + nr.end]),
                                    shift,
                                    &mut work,
                                ),
                                (None, None) => unreachable!(),
                            }
                        }
                    }
                    if let Some(hb) = hbase {
                        if !pull.is_none() {
                            for (q, f) in targets
                                .iter()
                                .zip(forces[hb + hr.start..hb + hr.end].iter_mut())
                            {
                                *f += pull.force(q.pos, box_len);
                                work.potential += pull.energy(q.pos, box_len);
                            }
                        }
                    }
                }
            }
        }
        self.forces = forces;
        self.last_work = work;
        self.last_force_wall = t0.elapsed_s();
        self.last_force_virtual = match self.cfg.load_metric {
            LoadMetric::WorkModel { sec_per_pair } => work.pair_checks as f64 * sec_per_pair,
            LoadMetric::WallClock => self.last_force_wall,
        };
    }

    /// Phase 5, `verlet` mode: replay the segment list recorded at the
    /// last rebuild over the SoA mirror. Rebuild steps re-record the
    /// list with the exact walk [`PlanePe::compute_forces`] performs
    /// (reach widened to `r_c + skin`); mid-epoch passes just refresh
    /// the frozen-layout positions from the authoritative slabs.
    fn compute_forces_verlet(&mut self) {
        let t0 = WallTimer::start();
        if self.rebuild_now {
            self.rebuild_verlet();
        } else {
            self.soa.zero_forces();
            for (cx, slab) in self.planes.iter().chain(self.ghosts.iter()) {
                self.soa.load_positions(self.soa_base[cx], slab.particles());
            }
        }
        let pull = self.cfg.pull();
        let mut work = [WorkCounters::default()];
        self.vlist.replay(
            &self.kernel,
            &pull,
            self.box_len,
            &mut self.soa,
            plane_replay_action,
            &mut work,
        );
        self.soa.fold_forces(&mut self.forces);
        self.last_work = work[0];
        self.last_force_wall = t0.elapsed_s();
        self.last_force_virtual = match self.cfg.load_metric {
            LoadMetric::WorkModel { sec_per_pair } => work[0].pair_checks as f64 * sec_per_pair,
            LoadMetric::WallClock => self.last_force_wall,
        };
    }

    /// Re-record the Verlet segment list at a rebuild step: lay the SoA
    /// out over the home planes (owned planes reuse the flat force
    /// layout, ghost planes appended), then run the exact canonical
    /// half-shell walk of [`PlanePe::compute_forces`] with the widened
    /// reach, recording every kernel block with its owned/ghost side
    /// classes.
    fn rebuild_verlet(&mut self) {
        self.soa_base.clear();
        let mut total = 0usize;
        for (cx, slab) in &self.planes {
            self.soa_base.insert(*cx, total);
            total += slab.len();
        }
        let n_owned = total;
        for (cx, slab) in &self.ghosts {
            self.soa_base.insert(*cx, total);
            total += slab.len();
        }
        self.soa.reset(n_owned, total);
        for (cx, slab) in self.planes.iter().chain(self.ghosts.iter()) {
            self.soa.load_positions(self.soa_base[cx], slab.particles());
        }
        self.vlist.clear();
        let reach = self.kernel.lj.rcut + self.cfg.skin;
        let reach2 = reach * reach;
        let nc = self.nc;
        let box_len = self.box_len;
        let planes = &self.planes;
        let ghosts = &self.ghosts;
        let soa_base = &self.soa_base;
        let mut homes: Vec<(usize, &CellSlab, bool)> = planes
            .iter()
            .map(|(cx, s)| (*cx, s, true))
            .chain(ghosts.iter().map(|(cx, s)| (*cx, s, false)))
            .collect();
        homes.sort_unstable_by_key(|&(cx, _, _)| cx);
        for &(cx, slab, owned_home) in &homes {
            let hb = soa_base[&cx];
            let hcode = if owned_home { OWNED } else { GHOST };
            let (fcx, sx) = wrap1(nc, box_len, cx, 1);
            let fwd = planes
                .get(&fcx)
                .map(|s| (s, true))
                .or_else(|| ghosts.get(&fcx).map(|s| (s, false)));
            assert!(
                fwd.is_some() || !owned_home,
                "rank {}: missing plane {fcx} next to {cx}",
                self.rank
            );
            for cy in 0..nc {
                for cz in 0..nc {
                    let idx = cy * nc + cz;
                    let hr = slab.range(idx);
                    if hr.is_empty() {
                        continue;
                    }
                    let habs = hb + hr.start..hb + hr.end;
                    if owned_home {
                        self.vlist
                            .record_intra(&self.soa, habs.clone(), reach2, hcode, 0);
                        for &(dy, dzs) in &FORWARD_YZ_SAME_PLANE {
                            let (ny, sy) = wrap1(nc, box_len, cy, dy);
                            for &dz in dzs {
                                let (nz, sz) = wrap1(nc, box_len, cz, dz);
                                let nidx = ny * nc + nz;
                                let nr = slab.range(nidx);
                                if nr.is_empty() {
                                    continue;
                                }
                                self.vlist.record_pair(
                                    &self.soa,
                                    habs.clone(),
                                    hb + nr.start..hb + nr.end,
                                    Vec3::new(0.0, sy, sz),
                                    reach2,
                                    OWNED,
                                    OWNED,
                                    0,
                                );
                            }
                        }
                    }
                    if let Some((fslab, fwd_owned)) = fwd {
                        if owned_home || fwd_owned {
                            let fb = soa_base[&fcx];
                            let fcode = if fwd_owned { OWNED } else { GHOST };
                            for dy in -1i64..=1 {
                                let (ny, sy) = wrap1(nc, box_len, cy, dy);
                                for dz in -1i64..=1 {
                                    let (nz, sz) = wrap1(nc, box_len, cz, dz);
                                    let nidx = ny * nc + nz;
                                    let nr = fslab.range(nidx);
                                    if nr.is_empty() {
                                        continue;
                                    }
                                    self.vlist.record_pair(
                                        &self.soa,
                                        habs.clone(),
                                        fb + nr.start..fb + nr.end,
                                        Vec3::new(sx, sy, sz),
                                        reach2,
                                        hcode,
                                        fcode,
                                        0,
                                    );
                                }
                            }
                        }
                    }
                    if owned_home {
                        self.vlist.record_pull(habs, hcode, 0);
                    }
                }
            }
        }
    }

    /// Phase 6: second half-kick.
    fn kick_all(&mut self) {
        let dt = self.cfg.dt;
        let mut base = 0usize;
        for slab in self.planes.values_mut() {
            let n = slab.len();
            for (q, f) in slab
                .particles_mut()
                .iter_mut()
                .zip(&self.forces[base..base + n])
            {
                kick(q, *f, dt);
            }
            base += n;
        }
        debug_assert_eq!(base, self.forces.len());
    }

    /// Phase 7: id-ordered global thermostat (bitwise identical to the
    /// serial reference and the pillar simulator).
    fn thermostat(&mut self, comm: &mut Comm, step: u64) {
        let th = self.cfg.thermostat();
        if !th.fires_at(step) {
            return;
        }
        let kes: Vec<(u64, f64)> = self
            .planes
            .values()
            .flat_map(|slab| slab.particles())
            .map(|q| (q.id, 0.5 * q.vel.norm2()))
            .collect();
        let gathered = collectives::gather(comm, tags::KE_GATHER, kes);
        let scale = gathered.map(|chunks| {
            let mut all: Vec<(u64, f64)> = chunks.into_iter().flatten().collect();
            all.sort_unstable_by_key(|&(id, _)| id);
            let ke: f64 = all.iter().map(|&(_, k)| k).sum();
            th.scale_factor(observe::temperature_from_ke(ke, self.cfg.n_particles))
        });
        let s = collectives::bcast(comm, tags::KE_BCAST, scale);
        for slab in self.planes.values_mut() {
            for q in slab.particles_mut() {
                q.vel = q.vel * s;
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
        // Mid-epoch the binning, ownership, and ghost membership are all
        // frozen: no migration, no boundary moves.
        if rebuild {
            self.migrate(comm);
        }
        let transferred = if rebuild && step.is_multiple_of(self.cfg.dlb_interval) {
            self.dlb(comm, step)
        } else {
            0
        };
        self.exchange_ghosts(comm, rebuild);
        self.compute_forces();
        self.kick_all();
        self.thermostat(comm, step);
        let wall = t0.elapsed_s();

        let comm_virtual = comm.stats().virtual_comm_s;
        let comm_delta = comm_virtual - self.last_comm_virtual;
        self.last_comm_virtual = comm_virtual;
        let empty: usize = self.planes.values().map(CellSlab::empty_cells).sum();
        let kinetic: f64 = self
            .planes
            .values()
            .flat_map(|slab| slab.particles())
            .map(|q| 0.5 * q.vel.norm2())
            .sum();
        let packet = StatsPacket {
            cells: (self.num_planes() * self.nc * self.nc) as u64,
            empty_cells: empty as u64,
            particles: self.num_particles() as u64,
            force_virtual: self.last_force_virtual,
            force_wall: self.last_force_wall,
            comm_virtual_delta: comm_delta,
            pair_checks: self.last_work.pair_checks,
            potential: self.last_work.potential,
            kinetic,
            transferred,
        };
        crate::stats::collect_step_record(comm, &self.cfg, step, packet, wall, self.rebuild_now)
    }

    fn gather_snapshot(&self, comm: &mut Comm) -> Option<Vec<Particle>> {
        let own: Vec<Particle> = self
            .planes
            .values()
            .flat_map(|slab| slab.particles().iter().copied())
            .collect();
        collectives::gather(comm, tags::SNAPSHOT, own).map(|chunks| {
            let mut all: Vec<Particle> = chunks.into_iter().flatten().collect();
            all.sort_unstable_by_key(|q| q.id);
            all
        })
    }
}

/// Wrap a single coordinate index by one step with a periodic shift.
fn wrap1(nc: usize, box_len: f64, c: usize, d: i64) -> (usize, f64) {
    let n = nc as i64;
    let v = c as i64 + d;
    if v < 0 {
        ((v + n) as usize, -box_len)
    } else if v >= n {
        ((v - n) as usize, box_len)
    } else {
        (v as usize, 0.0)
    }
}

/// Run the plane-domain simulator; rank 0's report, comm totals filled.
pub fn run_plane(cfg: &RunConfig) -> RunReport {
    run_plane_inner(cfg, false).0
}

/// Like [`run_plane`] but also gathers the final particle state.
pub fn run_plane_with_snapshot(cfg: &RunConfig) -> (RunReport, Vec<Particle>) {
    let (rep, snap) = run_plane_inner(cfg, true);
    (rep, snap.expect("snapshot requested"))
}

fn run_plane_inner(cfg: &RunConfig, want_snapshot: bool) -> (RunReport, Option<Vec<Particle>>) {
    validate_plane(cfg);
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
        let mut pe = PlanePe::new(comm.rank(), cfg);
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
