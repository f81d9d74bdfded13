//! The per-rank SPMD program (paper Sec. 3): DDM molecular dynamics with
//! optional permanent-cell DLB.
//!
//! Each PE owns a set of cell *columns* (square-pillar decomposition) and
//! advances the same velocity-Verlet step as the serial reference, with
//! communication phases in between:
//!
//! 1. half-kick + drift (positions move);
//! 2. **round 1** — one coalesced [`StepFrame`] per neighbour under
//!    `tags::STEP_FRAME`: particles that crossed into a neighbour-owned
//!    column are shipped to their new owner, with the sender's last-step
//!    force time riding along on DLB steps;
//! 3. **DLB** (optional) — from the round-1 loads, pick the fastest PE
//!    locally, apply the Case 1–3 rules, broadcast the decision, and
//!    transfer the moved column's particles;
//! 4. **ghost exchange (round 2)** — the boundary-shell ghosts of every
//!    owned column adjacent to a neighbour-owned column are sent to that
//!    neighbour as one id-sorted `(id, pos)` frame (see [`crate::frame`]);
//! 5. force computation over own + ghost cells (work counted). By
//!    default this is *overlapped* with phase 4: after the ghost sends
//!    are posted, forces among **interior** columns (whose half-shell
//!    stencil touches no ghost column) are computed while the neighbour
//!    payloads are in flight; the receives are drained only then, and a
//!    second pass finishes the **frontier** pairs. See
//!    [`RunConfig::overlap`] and the pass rules on `force_pass`;
//! 6. second half-kick;
//! 7. periodic thermostat (id-ordered global kinetic-energy sum, so the
//!    scale factor is bitwise identical to the serial reference);
//! 8. statistics gather to rank 0.
//!
//! Determinism: every receive names its source, particle storage is kept
//! (cell, id)-sorted, and the force pass visits home cells — owned *and*
//! ghost — in ascending global cell order, evaluating each unordered pair
//! exactly once at the canonical half-shell home (the same order as
//! `pcdlb_md::serial`). Every owned particle therefore accumulates its
//! force terms in exactly the serial sequence: the parallel trajectory is
//! **bitwise identical** to the serial one for any `P`, with or without
//! DLB. Work counters still report the paper's full-shell directed-pair
//! counts (a both-sides half-shell evaluation counts as two checks), so
//! the load model and DLB decisions match the full-shell seed kernel.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use pcdlb_core::protocol::{DlbDecision, DlbProtocol};
use pcdlb_domain::{Col, OwnershipMap, PillarLayout};
use pcdlb_md::cells::CellSlab;
use pcdlb_md::checkpoint::Checkpoint;
use pcdlb_md::force::{disjoint_ranges_mut, PairKernel, WorkCounters};
use pcdlb_md::integrate::{kick, kick_drift, kick_drift_nowrap};
use pcdlb_md::observe;
use pcdlb_md::vec3::Vec3;
use pcdlb_md::verlet::{self, DispTracker, SegAction, SegKind, Segment, VerletList};
use pcdlb_md::{axis_bin, init, Particle, SoaField};
use pcdlb_mp::{collectives, BufferPool, Comm, WireSize};

use crate::clock::WallTimer;
use crate::config::{Lattice, LoadMetric, RunConfig};
use crate::frame::{GhostPart, ParticleFrame, StepFrame};
use crate::recover::SimCheckpoint;
use crate::report::{PhaseTimes, RunReport, StepRecord, WireBytes};
use crate::stats::StatsPacket;

// Wire tags live next to the protocol rules in `pcdlb-core`, where the
// static verifier (`pcdlb-check`) reads the same table this simulator
// sends with.
use pcdlb_core::protocol::tags;

/// The forward (dx, dy) cross-section groups of the half shell: paired
/// with their dz lists ([1] for the home column, [-1, 0, 1] otherwise)
/// they enumerate `pcdlb_md::cells::HALF_OFFSETS_13` in canonical order.
const FORWARD_XY: [(i64, i64); 5] = [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1)];

/// How a column relates to this PE's ghost frontier. Derived purely from
/// the ownership map, so it only changes when ownership does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColClass {
    /// Owned, and all 8 cross-section neighbours are owned too: none of
    /// its pairs involve ghost data, so its forces can be computed while
    /// ghost payloads are still in flight.
    Interior,
    /// Owned, but at least one cross-section neighbour is a ghost column:
    /// its pairs must wait for the ghost receive.
    Frontier,
    /// Not owned; mirrored from a neighbour each step.
    Ghost,
}

/// Which force pass is running. `Fused` is the sequenced single pass
/// (`overlap = false`); `Interior` + `Boundary` together are the
/// overlapped schedule and produce bitwise-identical results: every pair
/// is *stored* at the same canonical per-slot position either way, and
/// its energy is credited by exactly one pass with the fused weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ForcePass {
    Fused,
    Interior,
    Boundary,
}

/// Which pass stores force contributions into a column of this class.
fn stores_in(pass: ForcePass, class: ColClass) -> bool {
    match pass {
        ForcePass::Fused => class != ColClass::Ghost,
        ForcePass::Interior => class == ColClass::Interior,
        ForcePass::Boundary => class == ColClass::Frontier,
    }
}

/// Whether a home column of `class` runs its own-home work — the
/// intra-cell triangle, the external pull, and the energy credit for its
/// ring pairs — in `pass`. Exactly one of `Interior`/`Boundary` is true
/// for every class, so the overlapped schedule credits each pair's
/// energy once, at its canonical home position.
fn home_runs_in(pass: ForcePass, class: ColClass) -> bool {
    match pass {
        ForcePass::Fused => true,
        ForcePass::Interior => class == ColClass::Interior,
        ForcePass::Boundary => class != ColClass::Interior,
    }
}

/// Wire form of a [`ColClass`] for the recorded Verlet segments.
fn class_code(class: ColClass) -> u8 {
    match class {
        ColClass::Interior => 0,
        ColClass::Frontier => 1,
        ColClass::Ghost => 2,
    }
}

/// Inverse of [`class_code`].
fn code_class(code: u8) -> ColClass {
    match code {
        0 => ColClass::Interior,
        1 => ColClass::Frontier,
        _ => ColClass::Ghost,
    }
}

/// The per-pass replay policy: maps a recorded segment (with its home and
/// neighbour class codes) to the stores/credit the walk in `pass` would
/// apply — the same `stores_in`/`home_runs_in` rules as the live walk, so
/// replaying the fused recording per pass reproduces the walk bitwise,
/// including the full-shell `pair_checks` accounting.
fn replay_action(pass: ForcePass, seg: &Segment) -> Option<SegAction> {
    let ca = code_class(seg.ca);
    match seg.kind {
        SegKind::Intra | SegKind::Pull => home_runs_in(pass, ca).then_some(SegAction {
            sa: true,
            sb: true,
            run_home: true,
            credit: None,
        }),
        SegKind::Pair => {
            let cb = code_class(seg.cb);
            let sa = stores_in(pass, ca);
            let sb = stores_in(pass, cb);
            if !sa && !sb {
                return None;
            }
            let owned_sides = (ca != ColClass::Ghost) as u64 + (cb != ColClass::Ghost) as u64;
            Some(SegAction {
                sa,
                sb,
                run_home: false,
                credit: home_runs_in(pass, ca).then_some(0.5 * owned_sides as f64),
            })
        }
    }
}

/// A resolved forward neighbour column in the force pass: its slab, x/y
/// periodic shifts, its force-array base (when owned), and its class.
struct ColRef<'a> {
    slab: &'a CellSlab,
    sx: f64,
    sy: f64,
    base: Option<usize>,
    class: ColClass,
}

/// What each rank hands back to the driver when the run finishes.
pub struct PeResult {
    /// Rank 0: the assembled run report.
    pub report: Option<RunReport>,
    /// Rank 0, when a snapshot was requested: all particles by id.
    pub snapshot: Option<Vec<Particle>>,
    /// This rank's communication counters.
    pub comm_stats: pcdlb_mp::CommStats,
    /// This rank's accumulated wall-clock phase breakdown (all zeros
    /// without the `wallclock-instrumentation` feature).
    pub phase_times: PhaseTimes,
    /// This rank's per-phase actual-vs-baseline byte counts.
    pub wire_bytes: WireBytes,
}

/// Generate the full initial particle set for a config — deterministic,
/// shared by the parallel PEs (each keeps its own slice) and the serial
/// baseline (keeps everything).
pub fn initial_particles(cfg: &RunConfig) -> Vec<Particle> {
    let mut ps = match cfg.lattice {
        Lattice::SimpleCubic => init::simple_cubic(cfg.n_particles, cfg.box_len()),
        Lattice::Fcc => init::fcc(cfg.n_particles, cfg.box_len()),
        Lattice::Cluster { fill } => {
            assert!(fill > 0.0 && fill <= 1.0, "cluster fill must be in (0, 1]");
            init::simple_cubic(cfg.n_particles, fill * cfg.box_len())
        }
        Lattice::SlabY { fill } => {
            assert!(fill > 0.0 && fill <= 1.0, "slab fill must be in (0, 1]");
            let mut ps = init::simple_cubic(cfg.n_particles, cfg.box_len());
            for q in &mut ps {
                q.pos.y *= fill;
            }
            ps
        }
    };
    init::maxwell_boltzmann(&mut ps, cfg.t_ref, cfg.seed);
    ps
}

/// The state of one PE.
pub struct PeState {
    cfg: RunConfig,
    layout: PillarLayout,
    rank: usize,
    nc: usize,
    box_len: f64,
    cell_len: f64,
    kernel: PairKernel,
    protocol: Option<DlbProtocol>,
    /// This PE's (windowed) ownership view.
    ownership: OwnershipMap,
    /// Distinct torus 8-neighbours, ascending.
    neighbors: Vec<usize>,
    /// Owned columns: contiguous (cell, id)-sorted particle storage with
    /// `nc` cells per column, indexed by the z cell index.
    columns: BTreeMap<Col, CellSlab>,
    /// Flat force storage: owned columns concatenated in ascending column
    /// order, aligned with each slab's particle order. Valid from
    /// `compute_forces` until the next `migrate` reshuffles particles.
    forces: Vec<Vec3>,
    ghosts: BTreeMap<Col, CellSlab>,
    last_work: WorkCounters,
    last_force_virtual: f64,
    last_force_wall: f64,
    /// The load value fed to the DLB decision. Equal to
    /// `last_force_virtual` except on a heterogeneous machine balancing
    /// with the work-based baseline metric (`speed_aware = false`), where
    /// reporting shows *time* but the balancer still sees raw work.
    last_balance: f64,
    /// The step currently being computed (the checkpointed step after a
    /// restore, before the first live step). Feeds the speed schedule so
    /// drifting speeds replay bitwise across restarts and takeovers.
    cur_step: u64,
    /// True when ownership (or the owned-column set) changed since the
    /// ownership-derived caches below were rebuilt.
    routes_dirty: bool,
    /// Per-neighbour ghost routing (parallel to `neighbors`): the owned
    /// columns each neighbour needs as ghosts, ascending, deduplicated.
    ghost_routes: Vec<Vec<Col>>,
    /// Home columns this PE sees — owned ∪ ghost, ascending — with each
    /// column's frontier class. The force passes iterate this list; the
    /// ghost entries' keys double as the expected ghost-receive set.
    home_cols: Vec<(Col, ColClass)>,
    /// Per-home force-array base offsets (`None` for ghost homes),
    /// parallel to `home_cols`; refilled by `force_prologue` each step.
    home_base: Vec<Option<usize>>,
    /// Per-home work-counter buckets, parallel to `home_cols`, folded
    /// ascending into `last_work` — the same fold in both schedules, so
    /// fused and overlapped energy sums are bitwise identical.
    col_work: Vec<WorkCounters>,
    /// Retained-particle staging for migration; key set kept equal to
    /// `columns`' so the per-step rebinning reuses every allocation.
    migrate_staging: BTreeMap<Col, Vec<Particle>>,
    /// Per-neighbour emigrant staging, parallel to `neighbors`.
    migrate_out: Vec<Vec<Particle>>,
    /// DLB neighbour-load scratch, filled from the round-1 step frames.
    nbr_loads: Vec<(usize, f64)>,
    /// Retained ghost re-binning staging; key set kept equal to
    /// `ghosts`' so the per-step scatter reuses every allocation.
    ghost_staging: BTreeMap<Col, Vec<Particle>>,
    /// Deterministic accumulated-displacement tracker driving the
    /// rebuild decision (`cfg.skin > 0` only). Fed the *global* max
    /// predicted travel via the rebuild collective, so every rank holds
    /// the identical value and rebuilds on the same step.
    tracker: DispTracker,
    /// True when the step being computed is a rebuild step (re-bin,
    /// migrate, DLB, ghost-membership refresh, list re-record). Always
    /// true with `cfg.skin == 0` — the legacy every-step schedule.
    rebuild_now: bool,
    /// SoA position/force field for the Verlet replay: owned slots in
    /// the flat force layout, ghost slots appended in ascending
    /// ghost-column order. Rebuilt each epoch, positions refreshed each
    /// step.
    soa: SoaField,
    /// The recorded half-shell walk replayed between rebuilds.
    vlist: VerletList,
    /// Per-home SoA base offsets (owned *and* ghost), parallel to
    /// `home_cols`; frozen across a skin epoch.
    soa_base: Vec<usize>,
    /// Ghost id → (column, slot) index, sorted by id; recorded at each
    /// rebuild step to derive the in-place update routes below.
    ghost_index: Vec<(u64, Col, u32)>,
    /// Per-neighbour ghost-frame id order as decoded at the last rebuild
    /// step (scratch for the route recording), parallel to `neighbors`.
    ghost_ids: Vec<Vec<u64>>,
    /// Per-neighbour in-place ghost update routes, parallel to
    /// `neighbors`: frame position `k` → the (column, slot) where that
    /// ghost lives in the frozen slabs. Mid-epoch ghost frames carry the
    /// identical membership in the identical order (nothing migrates or
    /// re-bins between rebuilds), so each decoded position is written
    /// straight through the route — no re-binning, no sorting.
    ghost_slot_routes: Vec<Vec<(Col, u32)>>,
    /// Pooled coalesced step-message send buffers, reused across steps.
    step_pool: BufferPool<StepFrame>,
    /// Pooled flat-particle send buffers (cell transfer).
    part_pool: BufferPool<ParticleFrame>,
    /// Per-phase actual-vs-baseline byte accounting for this rank.
    wire: WireBytes,
    /// Wall time of the current step's force pass(es) so far.
    force_wall_accum: f64,
    /// Accumulated per-phase wall times over the run.
    phase: PhaseTimes,
}

impl PeState {
    /// Build the PE's state and take ownership of its home-tile particles.
    pub fn new(rank: usize, cfg: &RunConfig) -> Self {
        let mut pe = Self::scaffold(rank, cfg);
        let layout = pe.layout;
        let mut staging: BTreeMap<Col, Vec<Particle>> =
            layout.tile_columns(rank).map(|c| (c, Vec::new())).collect();
        for p in initial_particles(cfg) {
            let col = pe.col_of(p.pos);
            if layout.home_rank(col) == rank {
                staging.get_mut(&col).expect("home column exists").push(p);
            }
        }
        pe.columns = staging
            .into_iter()
            .map(|(c, v)| (c, pe.build_column(v)))
            .collect();
        pe
    }

    /// Rebuild a PE's state from a distributed checkpoint: replay the
    /// checkpointed ownership into this rank's readable window and stage
    /// the checkpointed particles into the columns this rank owns.
    ///
    /// Forces are *not* stored in the checkpoint — the caller recomputes
    /// them, which reproduces the checkpointed run's force array bitwise:
    /// the saved positions are exactly the positions those forces were
    /// evaluated at (velocity Verlet only touches velocities after the
    /// force pass).
    pub fn from_checkpoint(rank: usize, cfg: &RunConfig, ck: &SimCheckpoint) -> Self {
        let mut pe = Self::scaffold(rank, cfg);
        assert_eq!(
            ck.md.particles.len(),
            cfg.n_particles,
            "checkpoint particle count does not match the configuration"
        );
        for &(col, owner) in &ck.ownership {
            if pe.in_window(col) {
                pe.ownership.set_owner(col, owner);
            }
        }
        let mut staging: BTreeMap<Col, Vec<Particle>> = pe
            .ownership
            .owned_columns(rank)
            .into_iter()
            .map(|c| (c, Vec::new()))
            .collect();
        for p in &ck.md.particles {
            let col = pe.col_of(p.pos);
            if pe.ownership.owner_of(col) == rank {
                staging.get_mut(&col).expect("owned column exists").push(*p);
            }
        }
        pe.columns = staging
            .into_iter()
            .map(|(c, v)| (c, pe.build_column(v)))
            .collect();
        // The initial force pass after a restore recomputes the
        // checkpointed step's forces — with drifting speeds, its
        // published load numbers must use the checkpointed step too.
        pe.cur_step = ck.md.step;
        pe
    }

    /// The state shell shared by [`PeState::new`] and
    /// [`PeState::from_checkpoint`]: everything but the particle columns.
    fn scaffold(rank: usize, cfg: &RunConfig) -> Self {
        let layout = PillarLayout::new(cfg.nc, cfg.torus());
        let ownership = OwnershipMap::initial(layout);
        let protocol = cfg
            .dlb
            .then(|| DlbProtocol::new(layout, rank).with_min_relative_gain(cfg.dlb_min_gain));
        let neighbors = layout.torus().distinct_neighbors8(rank);
        let n_nbrs = neighbors.len();
        Self {
            cfg: cfg.clone(),
            layout,
            rank,
            nc: cfg.nc,
            box_len: cfg.box_len(),
            cell_len: cfg.cell_len(),
            kernel: PairKernel::new(cfg.lj),
            protocol,
            ownership,
            neighbors,
            columns: BTreeMap::new(),
            forces: Vec::new(),
            ghosts: BTreeMap::new(),
            last_work: WorkCounters::default(),
            last_force_virtual: 0.0,
            last_force_wall: 0.0,
            last_balance: 0.0,
            cur_step: 0,
            routes_dirty: true,
            ghost_routes: vec![Vec::new(); n_nbrs],
            home_cols: Vec::new(),
            home_base: Vec::new(),
            col_work: Vec::new(),
            migrate_staging: BTreeMap::new(),
            migrate_out: vec![Vec::new(); n_nbrs],
            nbr_loads: Vec::new(),
            ghost_staging: BTreeMap::new(),
            tracker: DispTracker::new(),
            rebuild_now: true,
            soa: SoaField::new(),
            vlist: VerletList::new(),
            soa_base: Vec::new(),
            ghost_index: Vec::new(),
            ghost_ids: vec![Vec::new(); n_nbrs],
            ghost_slot_routes: vec![Vec::new(); n_nbrs],
            step_pool: BufferPool::new(),
            part_pool: BufferPool::new(),
            wire: WireBytes::default(),
            force_wall_accum: 0.0,
            phase: PhaseTimes::default(),
        }
    }

    /// Number of particles this PE currently owns.
    pub fn num_particles(&self) -> usize {
        self.columns.values().map(CellSlab::len).sum()
    }

    fn col_of(&self, pos: Vec3) -> Col {
        let f = |v: f64| axis_bin(v, self.cell_len, self.nc);
        Col::new(f(pos.x), f(pos.y))
    }

    /// Bin a flat particle list into one column's `nc` z cells.
    fn build_column(&self, parts: Vec<Particle>) -> CellSlab {
        let cell_len = self.cell_len;
        let nc = self.nc;
        CellSlab::build(nc, parts, move |p| axis_bin(p.pos.z, cell_len, nc))
    }

    /// True when `col`'s home tile lies in this PE's readable 3×3 tile
    /// window (own tile ± 1 in each torus direction).
    fn in_window(&self, col: Col) -> bool {
        let home = self.layout.home_rank(col);
        let (di, dj) = self.layout.tile_delta(self.rank, home);
        di.abs() <= 1 && dj.abs() <= 1
    }

    /// The load value fed to the balancer (per the configured metric and
    /// speed-awareness; see the `last_balance` field).
    fn last_load(&self) -> f64 {
        self.last_balance
    }

    // ------------------------------------------------------------------
    // Phases
    // ------------------------------------------------------------------

    /// Phase 1: half-kick with current forces, then drift. The flat
    /// force array is the owned columns concatenated in ascending column
    /// order, so a running base index realigns it. The periodic wrap is
    /// applied on rebuild steps only: between rebuilds the cell binning
    /// is frozen, and wrapping a drifted boundary particle would
    /// teleport it across the box while its frozen cell (and the
    /// recorded shift vectors) stay put. With `skin == 0` every step is
    /// a rebuild step and this is the legacy wrap-every-step schedule.
    pub(crate) fn kick_drift_all(&mut self) {
        let dt = self.cfg.dt;
        let box_len = self.box_len;
        let wrap = self.rebuild_now;
        let mut base = 0usize;
        for slab in self.columns.values_mut() {
            let n = slab.len();
            for (p, f) in slab
                .particles_mut()
                .iter_mut()
                .zip(&self.forces[base..base + n])
            {
                if wrap {
                    kick_drift(p, *f, dt, box_len);
                } else {
                    kick_drift_nowrap(p, *f, dt);
                }
            }
            base += n;
        }
        debug_assert_eq!(base, self.forces.len());
    }

    /// Rebuild-decision collective, gather half (`skin > 0` only —
    /// returns `None` with `skin == 0`, where every step re-bins and no
    /// messages flow, keeping the legacy wire sequence byte-identical).
    ///
    /// Each rank folds its owned particles' predicted per-step travel
    /// into a local max and gathers it to rank 0 under
    /// `tags::REBUILD_GATHER`; the root folds the per-rank maxima
    /// (`f64::max` is order-independent, so the result equals the serial
    /// reference's whole-system max bitwise). Feed the result to
    /// [`PeState::rebuild_apply`].
    pub(crate) fn rebuild_gather(&mut self, comm: &mut Comm) -> Option<Option<f64>> {
        if self.cfg.skin == 0.0 {
            return None;
        }
        let mut local = 0.0f64;
        let mut base = 0usize;
        for slab in self.columns.values() {
            let n = slab.len();
            local = local.max(verlet::max_predicted_travel2(
                slab.particles(),
                &self.forces[base..base + n],
                self.cfg.dt,
            ));
            base += n;
        }
        let gathered = collectives::gather(comm, tags::REBUILD_GATHER, local);
        Some(gathered.map(|locals| locals.into_iter().fold(0.0f64, f64::max)))
    }

    /// Rebuild-decision collective, broadcast-and-decide half: broadcast
    /// the global max predicted travel from rank 0, advance the
    /// displacement tracker, and decide whether this step re-binds the
    /// world. The decision is a pure function of replicated state
    /// (tracker + global max + the checkpoint cadence), so every rank —
    /// and the serial reference — picks the identical step sequence.
    /// Checkpoint-cadence steps are *forced* rebuild steps whether or
    /// not a checkpoint is actually taken: restores re-bin from wrapped
    /// positions, so the cadence itself must be a rebuild boundary in
    /// every schedule that could be compared against.
    pub(crate) fn rebuild_apply(
        &mut self,
        comm: &mut Comm,
        step: u64,
        root_max: Option<f64>,
    ) -> bool {
        let gmax2 = collectives::bcast(comm, tags::REBUILD_BCAST, root_max);
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

    fn ownership_owner(&self, col: Col) -> usize {
        debug_assert!(self.in_window(col), "reading owner outside window");
        self.ownership.owner_of(col)
    }

    /// Rebuild the ownership-derived caches when ownership (or the
    /// owned-column set) changed: the per-neighbour ghost routes, the
    /// classified home-column list, and the ghost/staging key sets. Cold
    /// path — runs at startup and after a DLB transfer, never in the
    /// steady state, so its allocations stay off the hot path.
    fn refresh_caches(&mut self) {
        if !self.routes_dirty {
            return;
        }
        self.routes_dirty = false;
        let grid = self.layout.grid();
        for r in &mut self.ghost_routes {
            r.clear();
        }
        self.home_cols.clear();
        let mut ghost_cols: BTreeSet<Col> = BTreeSet::new();
        for &col in self.columns.keys() {
            let mut class = ColClass::Interior;
            for n in grid.neighbors8(col) {
                let owner = self.ownership_owner(n);
                if owner != self.rank {
                    class = ColClass::Frontier;
                    ghost_cols.insert(n);
                    let i = self.neighbors.binary_search(&owner).unwrap_or_else(|_| {
                        panic!(
                            "rank {}: ghost target {owner} is not a neighbour",
                            self.rank
                        )
                    });
                    // `columns.keys()` is ascending, so deduplicating
                    // against the route's tail keeps it sorted and unique.
                    if self.ghost_routes[i].last() != Some(&col) {
                        self.ghost_routes[i].push(col);
                    }
                }
            }
            self.home_cols.push((col, class));
        }
        // Keep the ghost slabs' (and ghost staging's) key sets equal to
        // the expected receive set, preserving the allocations of
        // surviving columns.
        let nc = self.nc;
        self.ghosts.retain(|c, _| ghost_cols.contains(c));
        self.ghost_staging.retain(|c, _| ghost_cols.contains(c));
        for &c in &ghost_cols {
            self.ghosts.entry(c).or_insert_with(|| CellSlab::empty(nc));
            self.ghost_staging.entry(c).or_default();
            self.home_cols.push((c, ColClass::Ghost));
        }
        self.home_cols.sort_unstable_by_key(|&(c, _)| c);
        // Keep the migration staging key set equal to the owned columns'.
        let columns = &self.columns;
        self.migrate_staging.retain(|c, _| columns.contains_key(c));
        for &c in columns.keys() {
            self.migrate_staging.entry(c).or_default();
        }
    }

    /// Phase 2 (+ the DLB load ride-along), send half: rebin locally and
    /// ship one round-1 [`StepFrame`] — emigrants, plus this PE's
    /// last-step load on DLB steps — to each neighbour owner under
    /// `tags::STEP_FRAME`; retained particles stay staged in
    /// `migrate_staging` for [`PeState::step_recv_round1`]. Splitting the
    /// phase lets a thread running two virtual ranks post *both* ranks'
    /// sends before either blocks in a receive. Allocation-free in the
    /// steady state: the staging lists, per-neighbour outboxes, and
    /// pooled send frames are all reused across steps.
    /// `migrate` is false on mid-epoch steps (`skin > 0`, no rebuild):
    /// the binning is frozen, so nothing is restaged and the round-1
    /// frames ship empty migrant sections — but they still flow, because
    /// the comm pattern rides on them.
    pub(crate) fn step_send_round1(&mut self, comm: &mut Comm, dlb_now: bool, migrate: bool) {
        self.refresh_caches();
        let t0 = WallTimer::start();
        if migrate {
            for v in self.migrate_staging.values_mut() {
                v.clear();
            }
            for v in &mut self.migrate_out {
                v.clear();
            }
            let (cell_len, nc, rank) = (self.cell_len, self.nc, self.rank);
            let col_at = move |pos: Vec3| {
                let f = |v: f64| axis_bin(v, cell_len, nc);
                Col::new(f(pos.x), f(pos.y))
            };
            let columns = &self.columns;
            let ownership = &self.ownership;
            let neighbors = &self.neighbors;
            let staging = &mut self.migrate_staging;
            let out = &mut self.migrate_out;
            for slab in columns.values() {
                for p in slab.particles() {
                    let ncol = col_at(p.pos);
                    let owner = ownership.owner_of(ncol);
                    if owner == rank {
                        staging
                            .get_mut(&ncol)
                            .unwrap_or_else(|| {
                                panic!("rank {rank}: missing storage for owned column {ncol:?}")
                            })
                            .push(*p);
                    } else {
                        let i = neighbors.binary_search(&owner).unwrap_or_else(|_| {
                            panic!(
                                "rank {rank}: particle {} jumped to column {ncol:?} owned by \
                                 non-neighbour {owner} — time step too large",
                                p.id
                            )
                        });
                        out[i].push(*p);
                    }
                }
            }
        }
        let load = dlb_now.then(|| self.last_load());
        for (i, &nb) in self.neighbors.iter().enumerate() {
            let mut buf = self.step_pool.checkout();
            let frame = Arc::get_mut(&mut buf).expect("fresh pool checkout is uniquely owned");
            frame.begin_round1(load);
            if migrate {
                frame.migrants.parts.extend_from_slice(&self.migrate_out[i]);
                // Deterministic payloads: order emigrants by id.
                frame.migrants.parts.sort_unstable_by_key(|p| p.id);
            }
            self.wire.migrate += frame.wire_size() as u64;
            // Pre-diet layout: one flat particle message, plus a separate
            // 8-byte load message on DLB steps.
            self.wire.migrate_baseline +=
                (8 + 56 * frame.migrants.parts.len() as u64) + if dlb_now { 8 } else { 0 };
            comm.send(nb, tags::STEP_FRAME, Arc::clone(&buf));
            self.step_pool.checkin(buf);
        }
        self.phase.migrate += t0.elapsed_s();
    }

    /// Phase 2, receive half: collect immigrants (and, on DLB steps, the
    /// neighbour loads riding in the same frames) and rebuild the columns
    /// in place, reusing every slab's storage.
    pub(crate) fn step_recv_round1(&mut self, comm: &mut Comm, dlb_now: bool, migrate: bool) {
        let t0 = WallTimer::start();
        let rank = self.rank;
        self.nbr_loads.clear();
        for &nb in &self.neighbors {
            let incoming: Arc<StepFrame> = comm.recv(nb, tags::STEP_FRAME);
            debug_assert!(
                incoming.has_migrants && !incoming.has_ghosts,
                "rank {rank}: round-1 frame from {nb} has the wrong sections"
            );
            if dlb_now {
                let load = incoming
                    .load
                    .expect("round-1 frame on a DLB step carries the sender's load");
                self.nbr_loads.push((nb, load));
            }
            if !migrate {
                debug_assert!(
                    incoming.migrants.parts.is_empty(),
                    "rank {rank}: mid-epoch round-1 frame from {nb} carries migrants"
                );
                continue;
            }
            for p in &incoming.migrants.parts {
                let ncol = self.col_of(p.pos);
                debug_assert_eq!(
                    self.ownership.owner_of(ncol),
                    rank,
                    "rank {rank}: received particle {} for column {ncol:?} it does not own",
                    p.id
                );
                self.migrate_staging
                    .get_mut(&ncol)
                    .unwrap_or_else(|| {
                        panic!("rank {rank}: missing storage for owned column {ncol:?}")
                    })
                    .push(*p);
            }
        }
        if migrate {
            let (cell_len, nc) = (self.cell_len, self.nc);
            let zbin = move |p: &Particle| axis_bin(p.pos.z, cell_len, nc);
            let staging = &mut self.migrate_staging;
            for (col, slab) in self.columns.iter_mut() {
                let staged = staging
                    .get_mut(col)
                    .expect("staging key set matches the owned columns");
                slab.rebuild_from(nc, staged, zbin);
            }
        }
        self.phase.migrate += t0.elapsed_s();
    }

    /// Phase 3 (DLB), steps 2–3: from the neighbour loads collected in
    /// round 1, find the fastest PE and apply the case rules — purely
    /// local now that the loads ride the round-1 frames. Returns this
    /// PE's decision in wire form, ready for
    /// [`PeState::dlb_send_decision`]. All DLB halves are no-ops when DLB
    /// is off.
    pub(crate) fn dlb_decide(&mut self) -> Option<(Col, u64, u64)> {
        let protocol = self.protocol?;
        let t0 = WallTimer::start();
        let own_load = self.last_load();
        debug_assert_eq!(self.nbr_loads.len(), self.neighbors.len());
        let fastest = protocol.fastest_pe(own_load, &self.nbr_loads);
        let my_decision = protocol.decide(&self.ownership, fastest);
        if let Some(d) = &my_decision {
            debug_assert!(DlbProtocol::validate(&self.layout, &self.ownership, d).is_ok());
        }
        self.phase.dlb += t0.elapsed_s();
        my_decision.map(|d| (d.col, d.from as u64, d.to as u64))
    }

    /// Phase 3, step 4 send half: broadcast this PE's decision to the
    /// neighbourhood (`None` travels too — every neighbour expects one
    /// message).
    pub(crate) fn dlb_send_decision(&mut self, comm: &mut Comm, wire: Option<(Col, u64, u64)>) {
        if self.protocol.is_none() {
            return;
        }
        let t0 = WallTimer::start();
        for &nb in &self.neighbors {
            self.wire.dlb += wire.wire_size() as u64;
            comm.send(nb, tags::DECISION, wire);
        }
        self.phase.dlb += t0.elapsed_s();
    }

    /// Phase 3, step 4 receive half: collect the neighbourhood's
    /// decisions, merge this PE's own, and apply the ownership updates in
    /// deterministic order (the windowed view ignores decisions about
    /// unreadable columns). Returns the merged decision list for the
    /// cell-transfer halves.
    pub(crate) fn dlb_recv_decisions(
        &mut self,
        comm: &mut Comm,
        wire: Option<(Col, u64, u64)>,
    ) -> Vec<DlbDecision> {
        if self.protocol.is_none() {
            return Vec::new();
        }
        let t0 = WallTimer::start();
        let to_decision = |(col, from, to): (Col, u64, u64)| DlbDecision {
            col,
            from: from as usize,
            to: to as usize,
        };
        let mut decisions: Vec<DlbDecision> = wire.map(to_decision).into_iter().collect();
        for &nb in &self.neighbors {
            if let Some(w) = comm.recv::<Option<(Col, u64, u64)>>(nb, tags::DECISION) {
                decisions.push(to_decision(w));
            }
        }
        decisions.sort_unstable_by_key(|d| d.from);
        for d in &decisions {
            if self.in_window(d.col) {
                self.ownership.set_owner(d.col, d.to);
            }
        }
        // Ownership moved: the routing/class caches must be rebuilt
        // before the next ghost exchange or force pass.
        if !decisions.is_empty() {
            self.routes_dirty = true;
        }
        self.phase.dlb += t0.elapsed_s();
        decisions
    }

    /// Phase 3, data-movement send half: ship the particles of columns
    /// this PE gave away. Returns the number of transfers sent.
    pub(crate) fn dlb_send_cells(&mut self, comm: &mut Comm, decisions: &[DlbDecision]) -> u64 {
        let t0 = WallTimer::start();
        let mut sent = 0u64;
        for d in decisions {
            if d.from == self.rank {
                let slab = self
                    .columns
                    .remove(&d.col)
                    .expect("sender owns the column data");
                let mut buf = self.part_pool.checkout();
                let frame = Arc::get_mut(&mut buf).expect("fresh pool checkout is uniquely owned");
                frame.parts.clear();
                frame.parts.extend_from_slice(slab.particles());
                frame.parts.sort_unstable_by_key(|p| p.id);
                self.wire.dlb += frame.wire_size() as u64;
                comm.send(d.to, tags::CELL_XFER, Arc::clone(&buf));
                self.part_pool.checkin(buf);
                sent += 1;
            }
        }
        self.phase.dlb += t0.elapsed_s();
        sent
    }

    /// Phase 3, data-movement receive half: collect columns granted to
    /// this PE (ordered by sender rank).
    pub(crate) fn dlb_recv_cells(&mut self, comm: &mut Comm, decisions: &[DlbDecision]) {
        let t0 = WallTimer::start();
        for d in decisions {
            if d.to == self.rank {
                let flat: Arc<ParticleFrame> = comm.recv(d.from, tags::CELL_XFER);
                debug_assert!(flat.parts.iter().all(|p| self.col_of(p.pos) == d.col));
                let slab = self.build_column(flat.parts.clone());
                self.columns.insert(d.col, slab);
            }
        }
        self.phase.dlb += t0.elapsed_s();
    }

    /// Phase 4 (round 2), send half: post the boundary-shell ghosts to
    /// the 8 neighbours, one pooled round-2 [`StepFrame`] per neighbour
    /// along the cached routes. Each frame ships `(id, pos)` pairs only,
    /// ascending id — no velocities, no column directory, nothing for
    /// empty cells.
    pub(crate) fn ghosts_send(&mut self, comm: &mut Comm) {
        self.refresh_caches();
        let t0 = WallTimer::start();
        for (i, &nb) in self.neighbors.iter().enumerate() {
            let mut buf = self.step_pool.checkout();
            let frame = Arc::get_mut(&mut buf).expect("fresh pool checkout is uniquely owned");
            frame.begin_round2();
            let routes = &self.ghost_routes[i];
            let columns = &self.columns;
            frame
                .ghosts
                .fill(routes.iter().map(|col| columns[col].particles()));
            self.wire.ghost += frame.wire_size() as u64;
            // Pre-diet layout: full particles with a per-column directory.
            self.wire.ghost_baseline +=
                8 + 24 * routes.len() as u64 + 56 * frame.ghosts.parts.len() as u64;
            comm.send(nb, tags::STEP_FRAME, Arc::clone(&buf));
            self.step_pool.checkin(buf);
        }
        self.phase.ghost += t0.elapsed_s();
    }

    /// Phase 4 (round 2), receive half. On rebuild steps (`rebin` true —
    /// every step with `skin == 0`): re-bin each ghost of the
    /// neighbours' frames by its position into the retained staging
    /// lists, and rebuild the ghost slabs in place — same `(cell, id)`
    /// order as before, no allocation in the steady state. Mid-epoch
    /// (`rebin` false): the frames carry the identical membership in the
    /// identical order, so each position is written straight into its
    /// frozen slab slot through the routes recorded at the last rebuild.
    pub(crate) fn ghosts_recv(&mut self, comm: &mut Comm, rebin: bool) {
        let t0 = WallTimer::start();
        let rank = self.rank;
        let (cell_len, nc) = (self.cell_len, self.nc);
        let col_at = move |pos: Vec3| {
            let f = |v: f64| axis_bin(v, cell_len, nc);
            Col::new(f(pos.x), f(pos.y))
        };
        if rebin {
            for v in self.ghost_staging.values_mut() {
                v.clear();
            }
        }
        let record_routes = rebin && self.cfg.skin > 0.0;
        for (i, &nb) in self.neighbors.iter().enumerate() {
            let frame: Arc<StepFrame> = comm.recv(nb, tags::STEP_FRAME);
            debug_assert!(
                frame.has_ghosts && !frame.has_migrants,
                "rank {rank}: round-2 frame from {nb} has the wrong sections"
            );
            let shell = &frame.ghosts.parts;
            if record_routes {
                self.ghost_ids[i].clear();
                self.ghost_ids[i].extend(shell.iter().map(|g| g.id));
            }
            if rebin {
                for &GhostPart { id, pos } in shell {
                    let col = col_at(pos);
                    self.ghost_staging
                        .get_mut(&col)
                        .unwrap_or_else(|| {
                            panic!("rank {rank}: received unexpected ghost column {col:?}")
                        })
                        .push(Particle::at_rest(id, pos));
                }
            } else {
                // Frozen epoch: positions-only refresh through the
                // recorded routes.
                let route = &self.ghost_slot_routes[i];
                debug_assert_eq!(
                    shell.len(),
                    route.len(),
                    "rank {rank}: mid-epoch ghost frame from {nb} changed membership"
                );
                for (&GhostPart { id, pos }, &(col, slot)) in shell.iter().zip(route) {
                    let slab = self
                        .ghosts
                        .get_mut(&col)
                        .expect("route targets an expected ghost column");
                    let p = &mut slab.particles_mut()[slot as usize];
                    debug_assert_eq!(p.id, id, "rank {rank}: ghost route out of order");
                    p.pos = pos;
                }
            }
        }
        if rebin {
            let zbin = move |p: &Particle| axis_bin(p.pos.z, cell_len, nc);
            let staging = &mut self.ghost_staging;
            for (col, slab) in self.ghosts.iter_mut() {
                let staged = staging
                    .get_mut(col)
                    .expect("ghost staging key set matches the expected ghost columns");
                slab.rebuild_from(nc, staged, zbin);
            }
        }
        if record_routes {
            // Index the freshly (cell, id)-sorted ghost slabs by id, then
            // translate each neighbour's frame order into slab slots —
            // the in-place update routes for the rest of the epoch. All
            // buffers are retained, so steady-state rebuilds stop
            // allocating once capacities have grown.
            self.ghost_index.clear();
            for (&col, slab) in &self.ghosts {
                for (slot, p) in slab.particles().iter().enumerate() {
                    self.ghost_index.push((p.id, col, slot as u32));
                }
            }
            self.ghost_index.sort_unstable_by_key(|&(id, _, _)| id);
            let index = &self.ghost_index;
            for (ids, route) in self.ghost_ids.iter().zip(&mut self.ghost_slot_routes) {
                route.clear();
                for &id in ids {
                    let k = index
                        .binary_search_by_key(&id, |&(id, _, _)| id)
                        .expect("decoded ghost id is present in a ghost slab");
                    let (_, col, slot) = index[k];
                    route.push((col, slot));
                }
            }
        }
        self.phase.ghost += t0.elapsed_s();
    }

    /// Lay out the flat force array over the owned columns (home-column
    /// order, ghost entries skipped — the same ascending concatenation as
    /// before) and reset the per-home work buckets. Runs at the start of
    /// a `Fused` or `Interior` pass; a `Boundary` pass continues the
    /// arrays its `Interior` pass laid out.
    fn force_prologue(&mut self) {
        self.home_base.clear();
        self.home_base.resize(self.home_cols.len(), None);
        let mut total = 0usize;
        for (i, &(col, class)) in self.home_cols.iter().enumerate() {
            if class != ColClass::Ghost {
                self.home_base[i] = Some(total);
                total += self.columns[&col].len();
            }
        }
        self.forces.clear();
        self.forces.resize(total, Vec3::ZERO);
        self.col_work.clear();
        self.col_work
            .resize(self.home_cols.len(), WorkCounters::default());
        self.force_wall_accum = 0.0;
    }

    /// Phase 5: one force pass in the canonical half-shell order (see
    /// module docs); counts full-shell work and measures wall time.
    ///
    /// Home cells are all columns this PE can see — owned *and* ghost — in
    /// ascending global order; each home runs its intra-cell triangle
    /// (owned homes only) and then the 13 forward offsets, storing into
    /// whichever side(s) of each pair this PE owns. Pairs between two
    /// ghost cells are other PEs' work and are skipped.
    ///
    /// `Fused` does all of that in one pass. `Interior` + `Boundary`
    /// split it for the overlapped schedule: the `Interior` pass stores
    /// only into interior columns (which by definition touch no ghost
    /// data) and so can run while ghost payloads are in flight; the
    /// `Boundary` pass stores the frontier remainder after `ghosts_recv`.
    /// A pair that straddles the frontier (interior home or neighbour,
    /// frontier other side) is *evaluated* in both passes — each pass
    /// stores only its own side, at the identical slot position the fused
    /// pass would use, and exactly one pass credits the pair's energy
    /// (decided by `home_runs_in`, always with the fused ½·sides weight)
    /// into the home's [`WorkCounters`] bucket. Folding the buckets in
    /// ascending home order then reproduces the fused pass's sums
    /// *bitwise*: same addends, same order, per force slot and per energy
    /// bucket.
    fn force_pass(&mut self, pass: ForcePass) {
        self.refresh_caches();
        if self.cfg.verlet {
            return self.force_pass_verlet(pass);
        }
        let t0 = WallTimer::start();
        if pass != ForcePass::Boundary {
            self.force_prologue();
        }
        let nc = self.nc;
        let box_len = self.box_len;
        let pull = self.cfg.pull();
        let rank = self.rank;
        let kernel = &self.kernel;
        let columns = &self.columns;
        let ghosts = &self.ghosts;
        let home_cols = &self.home_cols;
        let home_base = &self.home_base;
        let forces = &mut self.forces;
        let col_work = &mut self.col_work;
        let slab_of = |col: Col, class: ColClass| -> &CellSlab {
            match class {
                ColClass::Ghost => &ghosts[&col],
                _ => &columns[&col],
            }
        };
        for (hi, &(col, class)) in home_cols.iter().enumerate() {
            if pass == ForcePass::Interior && class == ColClass::Ghost {
                // A ghost home's pairs all involve ghost data: nothing to
                // do before the receive. (Frontier homes DO run here —
                // their pairs with interior neighbours must store the
                // interior side now, at its canonical slot position.)
                continue;
            }
            let home_here = home_runs_in(pass, class);
            let store_h = stores_in(pass, class);
            let slab = slab_of(col, class);
            let hbase = home_base[hi];
            let w = &mut col_work[hi];
            // Prefetch the forward cross-section columns with their
            // periodic shifts, classes, and (if owned) force bases. A
            // ghost home may lack forward neighbours — those pairs belong
            // to other PEs; an owned home never may.
            let ring: [Option<ColRef>; 5] = std::array::from_fn(|g| {
                let (dx, dy) = FORWARD_XY[g];
                let (ncol, sx, sy) = wrap_col(nc, box_len, col, dx, dy);
                match home_cols.binary_search_by_key(&ncol, |&(c, _)| c) {
                    Ok(ni) => {
                        let nclass = home_cols[ni].1;
                        Some(ColRef {
                            slab: slab_of(ncol, nclass),
                            sx,
                            sy,
                            base: home_base[ni],
                            class: nclass,
                        })
                    }
                    Err(_) => {
                        assert!(
                            hbase.is_none(),
                            "rank {rank}: missing neighbour column {ncol:?} of {col:?}"
                        );
                        None
                    }
                }
            });
            for cz in 0..nc {
                let hr = slab.range(cz);
                if hr.is_empty() {
                    continue;
                }
                let targets = slab.cell(cz);
                if home_here {
                    if let Some(hb) = hbase {
                        kernel.accumulate_intra(
                            targets,
                            &mut forces[hb + hr.start..hb + hr.end],
                            w,
                        );
                    }
                }
                for (gi, entry) in ring.iter().enumerate() {
                    let Some(nref) = entry else {
                        continue;
                    };
                    let store_n = stores_in(pass, nref.class);
                    if !store_h && !store_n {
                        // Nothing of this pair is stored in this pass:
                        // either both sides are ghost (another PE's pair,
                        // skipped in every pass) or the other pass owns
                        // both stores.
                        continue;
                    }
                    // Exactly one pass runs the home's side of the ring
                    // (`home_here`) and credits the pair's energy with
                    // the weight the fused pass would use.
                    let owned_sides =
                        (class != ColClass::Ghost) as u64 + (nref.class != ColClass::Ghost) as u64;
                    let credit = home_here.then_some(0.5 * owned_sides as f64);
                    let dzs: &[i64] = if gi == 0 { &[1] } else { &[-1, 0, 1] };
                    for &dz in dzs {
                        let (nz, sz) = wrap_z(nc, box_len, cz, dz);
                        let nr = nref.slab.range(nz);
                        if nr.is_empty() {
                            continue;
                        }
                        let neighbors = nref.slab.cell(nz);
                        let shift = Vec3::new(nref.sx, nref.sy, sz);
                        let ha = store_h.then(|| hbase.expect("stored home column is owned"));
                        let na = store_n.then(|| nref.base.expect("stored neighbour is owned"));
                        match (ha, na) {
                            (Some(hb), Some(nb)) => {
                                let (fa, fb) = disjoint_ranges_mut(
                                    forces,
                                    hb + hr.start..hb + hr.end,
                                    nb + nr.start..nb + nr.end,
                                );
                                kernel.accumulate_pair_credited(
                                    targets,
                                    Some(fa),
                                    neighbors,
                                    Some(fb),
                                    shift,
                                    credit,
                                    w,
                                );
                            }
                            (Some(hb), None) => kernel.accumulate_pair_credited(
                                targets,
                                Some(&mut forces[hb + hr.start..hb + hr.end]),
                                neighbors,
                                None,
                                shift,
                                credit,
                                w,
                            ),
                            (None, Some(nb)) => kernel.accumulate_pair_credited(
                                targets,
                                None,
                                neighbors,
                                Some(&mut forces[nb + nr.start..nb + nr.end]),
                                shift,
                                credit,
                                w,
                            ),
                            (None, None) => unreachable!("pair with no stored side was skipped"),
                        }
                    }
                }
                if home_here {
                    if let Some(hb) = hbase {
                        if !pull.is_none() {
                            for (p, f) in targets
                                .iter()
                                .zip(forces[hb + hr.start..hb + hr.end].iter_mut())
                            {
                                *f += pull.force(p.pos, box_len);
                                w.potential += pull.energy(p.pos, box_len);
                            }
                        }
                    }
                }
            }
        }
        self.force_epilogue(pass, t0);
    }

    /// Phase 5, Verlet replay path (`cfg.verlet`): on rebuild steps
    /// re-record the fused walk over the fresh binning (ghosts included,
    /// reach `r_c + skin`), then — every step — replay the recording
    /// against positions refreshed from the authoritative slabs, with
    /// the per-pass store/credit policy of [`replay_action`]. The
    /// replayed sums are bitwise identical to the live walk over the
    /// same frozen binning, in both the fused and the overlapped
    /// schedule.
    fn force_pass_verlet(&mut self, pass: ForcePass) {
        let t0 = WallTimer::start();
        if pass != ForcePass::Boundary {
            self.force_prologue();
        }
        if self.rebuild_now && pass != ForcePass::Boundary {
            // Rebuild step: fresh binning, fresh SoA layout, fresh list.
            // (Under the overlapped schedule the caller drains the ghost
            // receive before this pass on rebuild steps, so the ghosts
            // recorded here are this step's.)
            self.rebuild_verlet();
        } else {
            if pass != ForcePass::Boundary {
                self.soa.zero_forces();
            }
            self.reload_soa(pass);
        }
        let box_len = self.box_len;
        let pull = self.cfg.pull();
        self.vlist.replay(
            &self.kernel,
            &pull,
            box_len,
            &mut self.soa,
            |seg| replay_action(pass, seg),
            &mut self.col_work,
        );
        if pass != ForcePass::Interior {
            self.soa.fold_forces(&mut self.forces);
        }
        self.force_epilogue(pass, t0);
    }

    /// Refresh the SoA positions a replay pass needs from the
    /// authoritative slabs: the owned region for `Fused`/`Interior`
    /// passes, the ghost region for `Fused`/`Boundary` (an `Interior`
    /// pass touches no ghost slots, and under the overlapped schedule it
    /// runs before the ghost refresh lands).
    fn reload_soa(&mut self, pass: ForcePass) {
        for (hi, &(col, class)) in self.home_cols.iter().enumerate() {
            if class == ColClass::Ghost {
                if pass != ForcePass::Interior {
                    self.soa
                        .load_positions(self.soa_base[hi], self.ghosts[&col].particles());
                }
            } else if pass != ForcePass::Boundary {
                self.soa
                    .load_positions(self.soa_base[hi], self.columns[&col].particles());
            }
        }
    }

    /// Re-record the Verlet list at a rebuild step: lay the SoA out over
    /// the home columns (owned slots reuse the flat force layout, ghost
    /// slots are appended in ascending ghost-column order) and run the
    /// exact fused half-shell walk with the widened reach `r_c + skin`,
    /// recording every kernel block — classes and work buckets ride
    /// along so the overlapped schedule can replay the same recording
    /// with complementary stores. Assumes `force_prologue` has laid out
    /// `home_base` for this step.
    fn rebuild_verlet(&mut self) {
        self.soa_base.clear();
        self.soa_base.resize(self.home_cols.len(), 0);
        let n_owned = self.forces.len();
        let mut total = n_owned;
        for (hi, &(col, _)) in self.home_cols.iter().enumerate() {
            match self.home_base[hi] {
                Some(b) => self.soa_base[hi] = b,
                None => {
                    self.soa_base[hi] = total;
                    total += self.ghosts[&col].len();
                }
            }
        }
        self.soa.reset(n_owned, total);
        for (hi, &(col, class)) in self.home_cols.iter().enumerate() {
            let slab = match class {
                ColClass::Ghost => &self.ghosts[&col],
                _ => &self.columns[&col],
            };
            self.soa.load_positions(self.soa_base[hi], slab.particles());
        }
        self.vlist.clear();
        let reach = self.kernel.lj.rcut + self.cfg.skin;
        let reach2 = reach * reach;
        let nc = self.nc;
        let box_len = self.box_len;
        let rank = self.rank;
        let home_cols = &self.home_cols;
        let soa_base = &self.soa_base;
        let columns = &self.columns;
        let ghosts = &self.ghosts;
        let slab_of = |col: Col, class: ColClass| -> &CellSlab {
            match class {
                ColClass::Ghost => &ghosts[&col],
                _ => &columns[&col],
            }
        };
        for (hi, &(col, class)) in home_cols.iter().enumerate() {
            let slab = slab_of(col, class);
            let hb = soa_base[hi];
            let owned_home = class != ColClass::Ghost;
            let bucket = hi as u32;
            // The same forward-ring resolution as the live walk: a ghost
            // home may lack forward neighbours (other PEs' pairs).
            let ring: [Option<(usize, f64, f64)>; 5] = std::array::from_fn(|g| {
                let (dx, dy) = FORWARD_XY[g];
                let (ncol, sx, sy) = wrap_col(nc, box_len, col, dx, dy);
                match home_cols.binary_search_by_key(&ncol, |&(c, _)| c) {
                    Ok(ni) => Some((ni, sx, sy)),
                    Err(_) => {
                        assert!(
                            !owned_home,
                            "rank {rank}: missing neighbour column {ncol:?} of {col:?}"
                        );
                        None
                    }
                }
            });
            for cz in 0..nc {
                let hr = slab.range(cz);
                if hr.is_empty() {
                    continue;
                }
                let habs = hb + hr.start..hb + hr.end;
                if owned_home {
                    self.vlist.record_intra(
                        &self.soa,
                        habs.clone(),
                        reach2,
                        class_code(class),
                        bucket,
                    );
                }
                for (gi, entry) in ring.iter().enumerate() {
                    let Some((ni, sx, sy)) = *entry else {
                        continue;
                    };
                    let (ncol, nclass) = home_cols[ni];
                    if !owned_home && nclass == ColClass::Ghost {
                        // Both sides ghost: another PE's pair, skipped in
                        // every pass (and never counted).
                        continue;
                    }
                    let nslab = slab_of(ncol, nclass);
                    let nb = soa_base[ni];
                    let dzs: &[i64] = if gi == 0 { &[1] } else { &[-1, 0, 1] };
                    for &dz in dzs {
                        let (nz, sz) = wrap_z(nc, box_len, cz, dz);
                        let nr = nslab.range(nz);
                        if nr.is_empty() {
                            continue;
                        }
                        self.vlist.record_pair(
                            &self.soa,
                            habs.clone(),
                            nb + nr.start..nb + nr.end,
                            Vec3::new(sx, sy, sz),
                            reach2,
                            class_code(class),
                            class_code(nclass),
                            bucket,
                        );
                    }
                }
                if owned_home {
                    self.vlist.record_pull(habs, class_code(class), bucket);
                }
            }
        }
    }

    /// Shared tail of every force pass: accumulate wall time and — on
    /// the step's final pass — fold the per-home buckets in ascending
    /// order (the identical fold for both schedules) and publish the
    /// step's load numbers.
    fn force_epilogue(&mut self, pass: ForcePass, t0: WallTimer) {
        let dt = t0.elapsed_s();
        self.force_wall_accum += dt;
        self.phase.force += dt;
        if pass != ForcePass::Interior {
            let mut work = WorkCounters::default();
            for w in &self.col_work {
                work.merge(w);
            }
            self.last_work = work;
            self.last_force_wall = self.force_wall_accum;
            // Raw metric value: modelled work seconds or measured wall.
            let raw = match self.cfg.load_metric {
                LoadMetric::WorkModel { sec_per_pair } => work.pair_checks as f64 * sec_per_pair,
                LoadMetric::WallClock => self.last_force_wall,
            };
            // On a heterogeneous machine the *reported* force time is the
            // modelled elapsed time on this step's processor speed; the
            // *balanced* quantity is that time only under the speed-aware
            // metric, raw work under the paper's baseline.
            self.last_force_virtual = match &self.cfg.speed {
                Some(s) => raw / s.speed(self.rank, self.cur_step),
                None => raw,
            };
            self.last_balance = if self.cfg.speed_aware {
                self.last_force_virtual
            } else {
                raw
            };
        }
    }

    /// Phase 5, sequenced: the whole force computation in one pass.
    pub(crate) fn compute_forces(&mut self) {
        self.force_pass(ForcePass::Fused);
    }

    /// Phase 5a (overlap): interior pairs only — touches no ghost data,
    /// so it runs while the ghost payloads are still in flight.
    pub(crate) fn compute_forces_interior(&mut self) {
        self.force_pass(ForcePass::Interior);
    }

    /// Phase 5b (overlap): the frontier remainder, after [`PeState::ghosts_recv`].
    pub(crate) fn compute_forces_boundary(&mut self) {
        self.force_pass(ForcePass::Boundary);
    }

    /// This PE's accumulated wall-clock phase breakdown (all zeros
    /// without the `wallclock-instrumentation` feature).
    pub fn phase_times(&self) -> PhaseTimes {
        self.phase
    }

    /// This PE's accumulated per-phase actual-vs-baseline byte counts.
    pub fn wire_bytes(&self) -> WireBytes {
        self.wire
    }

    /// Mark the step about to be computed (feeds the per-step speed
    /// schedule). Called at the top of every step by both the single-role
    /// and the dual-role drivers.
    pub(crate) fn begin_step(&mut self, step: u64) {
        self.cur_step = step;
    }

    /// Phase 6: second half-kick with the fresh forces.
    pub(crate) fn kick_all(&mut self) {
        let dt = self.cfg.dt;
        let mut base = 0usize;
        for slab in self.columns.values_mut() {
            let n = slab.len();
            for (p, f) in slab
                .particles_mut()
                .iter_mut()
                .zip(&self.forces[base..base + n])
            {
                kick(p, *f, dt);
            }
            base += n;
        }
        debug_assert_eq!(base, self.forces.len());
    }

    /// Phase 7, gather half: periodic global velocity rescale via an
    /// id-ordered kinetic energy sum (bitwise identical to the serial
    /// reference). Returns `None` when the thermostat does not fire this
    /// step, otherwise `Some(scale)` where `scale` is the factor computed
    /// on the gather root (rank 0) and `None` elsewhere — feed it to
    /// [`PeState::thermostat_apply`].
    pub(crate) fn thermostat_gather(&mut self, comm: &mut Comm, step: u64) -> Option<Option<f64>> {
        let th = self.cfg.thermostat();
        if !th.fires_at(step) {
            return None;
        }
        let kes: Vec<(u64, f64)> = self
            .columns
            .values()
            .flat_map(|slab| slab.particles())
            .map(|p| (p.id, 0.5 * p.vel.norm2()))
            .collect();
        let gathered = collectives::gather(comm, tags::KE_GATHER, kes);
        Some(gathered.map(|chunks| {
            let mut all: Vec<(u64, f64)> = chunks.into_iter().flatten().collect();
            all.sort_unstable_by_key(|&(id, _)| id);
            debug_assert_eq!(all.len(), self.cfg.n_particles);
            let ke: f64 = all.iter().map(|&(_, k)| k).sum();
            let t_now = observe::temperature_from_ke(ke, self.cfg.n_particles);
            th.scale_factor(t_now)
        }))
    }

    /// Phase 7, broadcast-and-apply half: broadcast the scale factor from
    /// rank 0 and rescale this PE's velocities.
    pub(crate) fn thermostat_apply(&mut self, comm: &mut Comm, scale: Option<f64>) {
        let s = collectives::bcast(comm, tags::KE_BCAST, scale);
        for slab in self.columns.values_mut() {
            for p in slab.particles_mut() {
                p.vel = p.vel * s;
            }
        }
    }

    /// Phase 8: gather per-PE statistics; rank 0 assembles the record.
    pub(crate) fn collect_stats(
        &mut self,
        comm: &mut Comm,
        step: u64,
        transferred: u64,
        wall_s: f64,
    ) -> Option<StepRecord> {
        // Lap accumulator, not a running-total subtraction: the delta for
        // an identical message sequence is bitwise identical no matter
        // what was charged before it (checkpoint gathers shift the
        // running total's rounding base; laps always start from 0.0).
        let comm_delta = comm.lap_virtual_comm();

        let empty: usize = self.columns.values().map(CellSlab::empty_cells).sum();
        let kinetic: f64 = self
            .columns
            .values()
            .flat_map(|slab| slab.particles())
            .map(|p| 0.5 * p.vel.norm2())
            .sum();
        let packet = StatsPacket {
            cells: (self.columns.len() * self.nc) as u64,
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
        let rec = crate::stats::collect_step_record(
            comm,
            &self.cfg,
            step,
            packet,
            wall_s,
            self.rebuild_now,
        );
        // The stats gather itself is bookkeeping, not simulation
        // communication: charge it to no step, so each step's comm delta
        // covers exactly its own phases. A restored run (which re-runs no
        // past gathers) then reproduces every t_step bitwise.
        let _ = comm.lap_virtual_comm();
        rec
    }

    /// Run one full step on a single-role rank. Returns `Some(record)` on
    /// rank 0. The dual-role degraded path in [`crate::takeover`] drives
    /// the same halves in its interleaved order; this is the reference
    /// single-role sequence.
    pub fn step(&mut self, comm: &mut Comm, step: u64) -> Option<StepRecord> {
        let t0 = WallTimer::start();
        self.begin_step(step);
        // Rebuild decision first (skin > 0): a collective pure function
        // of replicated state, so every rank picks the same schedule.
        // With skin == 0 every step rebuilds and no messages flow.
        let rebuild = match self.rebuild_gather(comm) {
            None => true,
            Some(root) => self.rebuild_apply(comm, step, root),
        };
        // Migration, DLB, and ghost-membership changes only happen on
        // rebuild steps — mid-epoch the binning (and hence the recorded
        // list and the ghost routes) is frozen.
        let dlb_now = self.cfg.dlb && step.is_multiple_of(self.cfg.dlb_interval) && rebuild;
        self.kick_drift_all();
        self.step_send_round1(comm, dlb_now, rebuild);
        self.step_recv_round1(comm, dlb_now, rebuild);
        let transferred = if dlb_now {
            let wire = self.dlb_decide();
            self.dlb_send_decision(comm, wire);
            let decisions = self.dlb_recv_decisions(comm, wire);
            let sent = self.dlb_send_cells(comm, &decisions);
            self.dlb_recv_cells(comm, &decisions);
            sent
        } else {
            0
        };
        self.ghosts_send(comm);
        if self.cfg.overlap && !(self.cfg.verlet && rebuild) {
            // Overlapped schedule: interior pairs run while the ghost
            // payloads posted above are still in flight; the receive is
            // drained only when the frontier remainder needs it.
            self.compute_forces_interior();
            self.ghosts_recv(comm, rebuild);
            self.compute_forces_boundary();
        } else if self.cfg.overlap {
            // Verlet rebuild step under the overlapped schedule: the
            // list must be recorded over this step's ghosts, so the
            // receive is drained first; the split passes still replay
            // with complementary stores (the wire sequence is unchanged
            // — the sends were posted above — and split == fused holds
            // bitwise).
            self.ghosts_recv(comm, rebuild);
            self.compute_forces_interior();
            self.compute_forces_boundary();
        } else {
            self.ghosts_recv(comm, rebuild);
            self.compute_forces();
        }
        self.kick_all();
        if let Some(scale) = self.thermostat_gather(comm, step) {
            self.thermostat_apply(comm, scale);
        }
        let wall = t0.elapsed_s();
        self.collect_stats(comm, step, transferred, wall)
    }

    /// Gather a restartable distributed checkpoint to rank 0
    /// (collective; every rank must call it at the same step). `records`
    /// is rank 0's per-step series so far, embedded so a restore can
    /// reproduce the full report. The gather's virtual comm cost is
    /// excluded from the next step's delta, so checkpointing never
    /// changes any reported `t_step`.
    pub(crate) fn take_checkpoint(
        &mut self,
        comm: &mut Comm,
        step: u64,
        records: &[StepRecord],
    ) -> Option<SimCheckpoint> {
        let own_cols: Vec<Col> = self.columns.keys().copied().collect();
        let own_parts: Vec<Particle> = self
            .columns
            .values()
            .flat_map(|slab| slab.particles().iter().copied())
            .collect();
        let gathered = collectives::gather(comm, tags::CKPT_GATHER, (own_parts, own_cols));
        let ck = gathered.map(|chunks| {
            let mut particles = Vec::new();
            let mut ownership = Vec::new();
            for (rank, (parts, cols)) in chunks.into_iter().enumerate() {
                particles.extend(parts);
                ownership.extend(cols.into_iter().map(|c| (c, rank)));
            }
            ownership.sort_unstable_by_key(|&(c, _)| c);
            SimCheckpoint {
                md: Checkpoint::new(step, self.box_len, particles),
                ownership,
                records: records.to_vec(),
            }
        });
        let _ = comm.lap_virtual_comm();
        ck
    }

    /// Runtime invariant sentinel: every `cfg.sentinel_interval` steps
    /// (collective; 0 disables), gather each rank's particle count and
    /// owned-column set to rank 0 and check the two global invariants the
    /// whole scheme rests on — particle-count conservation and the
    /// ownership map being an exact partition of the `nc²` columns. A
    /// violation means state corruption that checkpoints would silently
    /// propagate, so the world is aborted with a structured diagnostic;
    /// under the recovery/takeover drivers that escalates to a rollback
    /// (relaunch from the last checkpoint). Digest-neutral: the gather's
    /// lap cost is discarded like the checkpoint gather's.
    pub(crate) fn sentinel_check(&mut self, comm: &mut Comm, step: u64) {
        if self.cfg.sentinel_interval == 0 || !step.is_multiple_of(self.cfg.sentinel_interval) {
            return;
        }
        let own_cols: Vec<Col> = self.columns.keys().copied().collect();
        let count = self.num_particles() as u64;
        #[cfg(feature = "check")]
        pcdlb_mp::check::emit(pcdlb_mp::check::ProtocolEvent::Sentinel {
            rank: comm.rank(),
            step,
            count,
        });
        if let Some(chunks) = collectives::gather(comm, tags::SENTINEL, (count, own_cols)) {
            if let Err(report) = validate_sentinel(&self.cfg, step, &chunks) {
                // Raise the abort flag first: this panic is an intentional
                // escalation, not a rank death — a takeover world must
                // tear down and relaunch, not adopt the sentinel's rank.
                comm.abort_world();
                panic!("{report}");
            }
        }
        let _ = comm.lap_virtual_comm();
    }

    /// Gather the full particle set to rank 0, sorted by id.
    pub fn gather_snapshot(&self, comm: &mut Comm) -> Option<Vec<Particle>> {
        let own: Vec<Particle> = self
            .columns
            .values()
            .flat_map(|slab| slab.particles().iter().copied())
            .collect();
        collectives::gather(comm, tags::SNAPSHOT, own).map(|chunks| {
            let mut all: Vec<Particle> = chunks.into_iter().flatten().collect();
            all.sort_unstable_by_key(|p| p.id);
            all
        })
    }
}

/// Canonical cross-section neighbour of a column with periodic shift.
fn wrap_col(nc: usize, box_len: f64, c: Col, dx: i64, dy: i64) -> (Col, f64, f64) {
    let n = nc as i64;
    let wrap1 = |v: i64| -> (usize, f64) {
        if v < 0 {
            ((v + n) as usize, -box_len)
        } else if v >= n {
            ((v - n) as usize, box_len)
        } else {
            (v as usize, 0.0)
        }
    };
    let (cx, sx) = wrap1(c.cx as i64 + dx);
    let (cy, sy) = wrap1(c.cy as i64 + dy);
    (Col::new(cx, cy), sx, sy)
}

/// Canonical z neighbour of a cell with periodic shift.
fn wrap_z(nc: usize, box_len: f64, cz: usize, dz: i64) -> (usize, f64) {
    let n = nc as i64;
    let v = cz as i64 + dz;
    if v < 0 {
        ((v + n) as usize, -box_len)
    } else if v >= n {
        ((v - n) as usize, box_len)
    } else {
        (v as usize, 0.0)
    }
}

/// A sentinel violation: which global invariant broke, at which step,
/// with enough context to localise the corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SentinelReport {
    /// Step at which the sentinel fired.
    pub step: u64,
    /// What broke, per violated invariant (non-empty).
    pub violations: Vec<String>,
}

impl std::fmt::Display for SentinelReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sentinel violation at step {}: {}",
            self.step,
            self.violations.join("; ")
        )
    }
}

/// Check the gathered per-rank `(particle count, owned columns)` chunks
/// against the two global invariants: the counts sum to `cfg.n_particles`
/// and the owned-column sets form an exact partition of the `nc²`
/// columns. Pure so it unit-tests without a world.
pub(crate) fn validate_sentinel(
    cfg: &RunConfig,
    step: u64,
    chunks: &[(u64, Vec<Col>)],
) -> Result<(), SentinelReport> {
    let mut violations = Vec::new();
    let total: u64 = chunks.iter().map(|(n, _)| n).sum();
    if total != cfg.n_particles as u64 {
        violations.push(format!(
            "global particle count {total} != configured {} (per-rank: {:?})",
            cfg.n_particles,
            chunks.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        ));
    }
    let mut owners: BTreeMap<Col, Vec<usize>> = BTreeMap::new();
    for (rank, (_, cols)) in chunks.iter().enumerate() {
        for &c in cols {
            owners.entry(c).or_default().push(rank);
        }
    }
    for (c, ranks) in &owners {
        if ranks.len() > 1 {
            violations.push(format!("column {c:?} owned by multiple ranks {ranks:?}"));
        }
    }
    let owned = owners.len();
    let expect = cfg.nc * cfg.nc;
    if owned != expect || owners.keys().any(|c| c.cx >= cfg.nc || c.cy >= cfg.nc) {
        violations.push(format!(
            "ownership covers {owned} distinct columns, expected the full {expect} ({}×{}) grid",
            cfg.nc, cfg.nc
        ));
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(SentinelReport { step, violations })
    }
}

/// The SPMD entry point: run the whole simulation on this rank.
pub fn pe_main(comm: &mut Comm, cfg: &RunConfig, want_snapshot: bool) -> PeResult {
    pe_main_recoverable(comm, cfg, want_snapshot, None, None)
}

/// [`pe_main`] with checkpoint/restart hooks: `start` resumes from a
/// distributed checkpoint (every rank must pass the same one), and when
/// `cfg.checkpoint_interval > 0` the ranks gather a fresh checkpoint to
/// rank 0 every interval, deposited into `sink`. The trajectory, the
/// per-step records, and the final snapshot are bitwise identical to an
/// uninterrupted, uncheckpointed run.
pub(crate) fn pe_main_recoverable(
    comm: &mut Comm,
    cfg: &RunConfig,
    want_snapshot: bool,
    start: Option<&SimCheckpoint>,
    sink: Option<&Mutex<Option<SimCheckpoint>>>,
) -> PeResult {
    // One role — this rank's own. The multi-role loop degenerates to
    // exactly the historical single-role phase order, message for
    // message, so digests are unchanged.
    let roles = [comm.rank()];
    let mut out = crate::takeover::run_roles(comm, cfg, &roles, start, sink, want_snapshot, false);
    out.swap_remove(0).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcdlb_md::cells::HALF_OFFSETS_13;

    #[test]
    fn forward_groups_enumerate_the_half_shell_in_order() {
        let mut offsets = Vec::new();
        for (gi, &(dx, dy)) in FORWARD_XY.iter().enumerate() {
            let dzs: &[i64] = if gi == 0 { &[1] } else { &[-1, 0, 1] };
            for &dz in dzs {
                offsets.push([dx, dy, dz]);
            }
        }
        let expect: Vec<[i64; 3]> = HALF_OFFSETS_13.iter().map(|&(x, y, z)| [x, y, z]).collect();
        assert_eq!(offsets, expect);
    }

    #[test]
    fn wrap_col_shifts_match_cell_grid_convention() {
        // nc = 4, L = 8: stepping off either edge wraps with ±L.
        let (c, sx, sy) = wrap_col(4, 8.0, Col::new(0, 3), -1, 1);
        assert_eq!(c, Col::new(3, 0));
        assert_eq!((sx, sy), (-8.0, 8.0));
        let (c2, sx2, sy2) = wrap_col(4, 8.0, Col::new(2, 2), 1, -1);
        assert_eq!(c2, Col::new(3, 1));
        assert_eq!((sx2, sy2), (0.0, 0.0));
    }

    #[test]
    fn wrap_z_is_periodic() {
        assert_eq!(wrap_z(6, 12.0, 0, -1), (5, -12.0));
        assert_eq!(wrap_z(6, 12.0, 5, 1), (0, 12.0));
        assert_eq!(wrap_z(6, 12.0, 3, 1), (4, 0.0));
    }

    #[test]
    fn pe_state_takes_exactly_its_tile_particles() {
        let cfg = {
            let mut c = RunConfig::from_p_m_density(9, 2, 0.2);
            c.seed = 3;
            c
        };
        let total: usize = (0..9).map(|r| PeState::new(r, &cfg).num_particles()).sum();
        assert_eq!(total, cfg.n_particles, "tiles must partition the particles");
    }

    #[test]
    fn in_window_covers_exactly_the_3x3_tiles() {
        let cfg = RunConfig::from_p_m_density(16, 2, 0.2); // 4×4 torus
        let pe = PeState::new(5, &cfg); // tile (1,1)
        let l = pe.layout;
        // A column in tile (1,1) and all 8 neighbouring tiles: in window.
        for (di, dj) in [(0i64, 0i64), (-1, 0), (1, 1), (0, -1)] {
            let rank = l.torus().rank_wrapped(1 + di, 1 + dj);
            let col = l.tile_origin(rank);
            assert!(
                pe.in_window(col),
                "tile delta ({di},{dj}) should be in window"
            );
        }
        // Tile (3,3) is two steps away on a 4×4 torus: out of window.
        let far = l.tile_origin(l.torus().rank_wrapped(3, 3));
        assert!(!pe.in_window(far));
    }

    #[test]
    fn initial_particles_deterministic_and_lattice_dependent() {
        let mut a = RunConfig::from_p_m_density(9, 2, 0.2);
        a.seed = 9;
        let p1 = initial_particles(&a);
        let p2 = initial_particles(&a);
        assert_eq!(p1, p2);
        let mut b = a.clone();
        b.lattice = Lattice::Cluster { fill: 0.5 };
        let p3 = initial_particles(&b);
        assert_ne!(p1, p3);
        // Cluster really is confined to the corner.
        let half = 0.5 * b.box_len();
        assert!(p3
            .iter()
            .all(|q| q.pos.x < half + 1e-9 && q.pos.y < half + 1e-9 && q.pos.z < half + 1e-9));
    }

    #[test]
    fn sentinel_accepts_an_exact_partition_with_conserved_count() {
        let cfg = RunConfig::new(216, 4, 4, 0.2);
        // 4 ranks, 16 columns split 4/4/4/4, counts summing to 216.
        let chunks: Vec<(u64, Vec<Col>)> = (0..4)
            .map(|r| {
                let cols = (0..4).map(|i| Col::new(r, i)).collect();
                (54, cols)
            })
            .collect();
        assert_eq!(validate_sentinel(&cfg, 7, &chunks), Ok(()));
    }

    #[test]
    fn sentinel_flags_lost_particles_and_broken_partitions() {
        let cfg = RunConfig::new(216, 4, 4, 0.2);
        let good: Vec<(u64, Vec<Col>)> = (0..4)
            .map(|r| (54, (0..4).map(|i| Col::new(r, i)).collect()))
            .collect();
        // Lost particles.
        let mut lost = good.clone();
        lost[2].0 = 53;
        let e = validate_sentinel(&cfg, 9, &lost).unwrap_err();
        assert_eq!(e.step, 9);
        assert!(e.to_string().contains("particle count 215"), "{e}");
        // A column claimed twice (and therefore one missing).
        let mut dup = good.clone();
        dup[0].1[0] = Col::new(1, 0);
        let e = validate_sentinel(&cfg, 9, &dup).unwrap_err();
        assert!(e.to_string().contains("owned by multiple ranks"), "{e}");
        assert!(e.to_string().contains("15 distinct columns"), "{e}");
        // A column off the grid.
        let mut off = good;
        off[3].1[3] = Col::new(9, 9);
        let e = validate_sentinel(&cfg, 9, &off).unwrap_err();
        assert!(e.to_string().contains("expected the full 16"), "{e}");
    }

    #[test]
    fn slab_lattice_compresses_y_only() {
        let mut c = RunConfig::from_p_m_density(9, 2, 0.2);
        c.lattice = Lattice::SlabY { fill: 0.4 };
        let ps = initial_particles(&c);
        let l = c.box_len();
        assert!(ps.iter().all(|q| q.pos.y < 0.4 * l + 1e-9));
        assert!(ps.iter().any(|q| q.pos.x > 0.6 * l));
        assert!(ps.iter().any(|q| q.pos.z > 0.6 * l));
    }
}
