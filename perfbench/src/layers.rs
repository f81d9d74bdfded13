//! Per-layer timings, made from outside each crate by calling its public
//! functions on the workload's own data: the `md` kernels on the grid of
//! the run's final particles, the `mp` primitives in a world of the
//! workload's P at its mean message size, the `core` DLB round over the
//! run's column loads, and the `domain` ownership checks on the map that
//! round leaves behind.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pcdlb_core::DlbProtocol;
use pcdlb_domain::{OwnershipMap, PillarLayout};
use pcdlb_md::cells::HALF_OFFSETS_13;
use pcdlb_md::integrate::{kick, kick_drift};
use pcdlb_md::serial::compute_forces_half_shell;
use pcdlb_md::{
    CellGrid, PairKernel, Particle, SegAction, SoaField, Vec3, VerletList, WorkCounters,
};
use pcdlb_mp::{collectives, Comm, Torus2d, World};
use pcdlb_sim::RunConfig;

use crate::stats::{median, time_calls};
use crate::workload::{Engine, Workload};

/// Calls timed per kernel at least; more while the budget lasts.
const MIN_CALLS: usize = 10;
/// Time budget per timed call site.
const BUDGET: Duration = Duration::from_millis(300);

/// The `md` layer on one particle configuration.
pub struct MdLayer {
    /// One Verlet replay pass (position reload, replay, force fold), ms.
    pub verlet_replay_ms: f64,
    /// One half-shell cell-walk force pass, ms.
    pub force_walk_ms: f64,
    /// One Verlet list build at reach `r_c + skin`, ms.
    pub verlet_build_ms: f64,
    /// One rebin of every particle into its cell, ms.
    pub rebin_ms: f64,
    /// One velocity-Verlet integration of every particle (both
    /// half-kicks and the drift), ms.
    pub integrate_ms: f64,
    /// Pairs within the cutoff per candidate pair check of the walk.
    pub useful_pair_ratio: f64,
}

/// The cell grid of `particles`, positions wrapped into the box (a
/// skin-epoch snapshot may hold unwrapped positions).
pub fn grid_of(cfg: &RunConfig, particles: &[Particle]) -> CellGrid {
    let box_len = cfg.box_len();
    let mut grid = CellGrid::new(cfg.nc, box_len);
    for p in particles {
        let mut q = *p;
        q.pos = q.pos.rem_euclid(box_len);
        grid.insert(q);
    }
    grid.canonicalize();
    grid
}

fn build_verlet(grid: &CellGrid, soa: &mut SoaField, vlist: &mut VerletList, reach2: f64) {
    let n = grid.num_particles();
    soa.reset(n, n);
    soa.load_positions(0, grid.particles());
    vlist.clear();
    for idx in 0..grid.total_cells() {
        let hr = grid.cell_range(idx);
        if hr.is_empty() {
            continue;
        }
        let home = grid.coord_of(idx);
        vlist.record_intra(soa, hr.clone(), reach2, 0, 0);
        for offset in HALF_OFFSETS_13 {
            let (ncell, shift) = grid.wrap_neighbor(home, offset);
            let nr = grid.cell_range(grid.index(ncell));
            vlist.record_pair(soa, hr.clone(), nr, shift, reach2, 0, 0, 0);
        }
        vlist.record_pull(hr, 0, 0);
    }
}

/// Time the `md` kernels on `particles`, with the workload's cutoff,
/// skin, pull and time step.
pub fn md_layer(cfg: &RunConfig, particles: &[Particle]) -> MdLayer {
    let mut grid = grid_of(cfg, particles);
    let kernel = PairKernel::new(cfg.lj);
    let pull = cfg.pull();
    let box_len = grid.box_len();
    let mut forces: Vec<Vec3> = Vec::new();

    let mut work = WorkCounters::default();
    let force_walk = time_calls(MIN_CALLS, BUDGET, || {
        work = compute_forces_half_shell(&grid, &kernel, &pull, &mut forces);
    });
    let useful_pair_ratio = work.interacting_pairs as f64 / work.pair_checks as f64;

    let reach2 = (cfg.lj.rcut + cfg.skin).powi(2);
    let mut soa = SoaField::new();
    let mut vlist = VerletList::new();
    let verlet_build = time_calls(MIN_CALLS, BUDGET, || {
        build_verlet(&grid, &mut soa, &mut vlist, reach2);
    });
    let mut replay_forces: Vec<Vec3> = Vec::new();
    let verlet_replay = time_calls(MIN_CALLS, BUDGET, || {
        soa.load_positions(0, grid.particles());
        soa.zero_forces();
        let mut w = [WorkCounters::default()];
        vlist.replay(
            &kernel,
            &pull,
            box_len,
            &mut soa,
            |_| Some(SegAction::fused()),
            &mut w,
        );
        soa.fold_forces(&mut replay_forces);
        std::hint::black_box(&w);
    });

    // Integrate and rebin alternately, as a rebuild step does: the drift
    // moves particles, so every rebin has real work.
    let dt = cfg.dt;
    let (mut integrate, mut rebin) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while integrate.len() < MIN_CALLS || start.elapsed() < 2 * BUDGET {
        let t = Instant::now();
        for (p, f) in grid.particles_mut().iter_mut().zip(&forces) {
            kick_drift(p, *f, dt, box_len);
            kick(p, *f, dt);
        }
        integrate.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        grid.rebin();
        rebin.push(t.elapsed().as_secs_f64());
    }
    MdLayer {
        verlet_replay_ms: verlet_replay * 1e3,
        force_walk_ms: force_walk * 1e3,
        verlet_build_ms: verlet_build * 1e3,
        rebin_ms: median(&rebin) * 1e3,
        integrate_ms: median(&integrate) * 1e3,
        useful_pair_ratio,
    }
}

/// The `mp` layer in a world of the workload's P.
pub struct MpLayer {
    /// Spawning and joining a world of P rank threads, ms.
    pub world_spawn_ms: f64,
    /// One f64-sum allreduce, µs (rank 0's view).
    pub allreduce_us: f64,
    /// One exchange of a message of the workload's mean size with every
    /// halo neighbour, µs (rank 0's view).
    pub halo_exchange_us: f64,
}

/// Distinct halo neighbours of `rank` in the workload's decomposition.
fn halo_neighbors(w: &Workload, rank: usize) -> Vec<usize> {
    match w.engine {
        Engine::Serial => Vec::new(),
        Engine::Pillar => Torus2d::square(w.p).distinct_neighbors8(rank),
        Engine::Plane => {
            let mut v = vec![(rank + 1) % w.p, (rank + w.p - 1) % w.p];
            v.sort_unstable();
            v.dedup();
            v.retain(|&r| r != rank);
            v
        }
    }
}

/// Ops per timed batch in the message-passing loops.
const BATCH: usize = 200;
/// Timed batches; the median batch is reported.
const BATCHES: usize = 15;
const TAG_REDUCE: u64 = 9001;
const TAG_HALO: u64 = 9002;
const TAG_BARRIER: u64 = 9003;

/// Median per-op seconds over [`BATCHES`] batches of [`BATCH`] calls of
/// `op`, all ranks entering each batch together; rank 0's timings.
fn time_in_world(p: usize, op: impl Fn(&mut Comm) + Sync) -> f64 {
    let per_rank = World::new(p).run(|comm| {
        let mut batches = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            collectives::barrier(comm, TAG_BARRIER);
            let t = Instant::now();
            for _ in 0..BATCH {
                op(comm);
            }
            batches.push(t.elapsed().as_secs_f64() / BATCH as f64);
        }
        median(&batches)
    });
    per_rank[0]
}

/// Time the `mp` primitives for workload `w`, whose runs send messages
/// of `mean_msg_bytes` on average.
pub fn mp_layer(w: &Workload, mean_msg_bytes: usize) -> MpLayer {
    let world_spawn = time_calls(MIN_CALLS, BUDGET, || {
        std::hint::black_box(World::new(w.p).run(|comm| comm.rank()));
    });
    let allreduce = time_in_world(w.p, |comm| {
        let x = comm.rank() as f64;
        std::hint::black_box(collectives::allreduce(comm, TAG_REDUCE, x, |a, b| a + b));
    });
    let payload = Arc::new(vec![0u8; mean_msg_bytes]);
    let halo = time_in_world(w.p, |comm| {
        let nbrs = halo_neighbors(w, comm.rank());
        for &n in &nbrs {
            comm.send(n, TAG_HALO, Arc::clone(&payload));
        }
        for &n in &nbrs {
            std::hint::black_box(comm.recv::<Arc<Vec<u8>>>(n, TAG_HALO));
        }
    });
    MpLayer {
        world_spawn_ms: world_spawn * 1e3,
        allreduce_us: allreduce * 1e6,
        halo_exchange_us: halo * 1e6,
    }
}

/// The `core` and `domain` layers of a DLB workload.
pub struct DlbLayer {
    /// One DLB round for the whole torus: every PE's `fastest_pe` and
    /// `decide`, then `validate` and `apply` of every decision, µs.
    pub dlb_round_us: f64,
    /// Transfers per round over the timed rounds.
    pub transfers_per_round: f64,
    /// `OwnershipMap::check_all` on the balanced map, µs.
    pub ownership_check_us: f64,
}

/// Rounds run from the initial map before it is reset: the span over
/// which a fresh map keeps transferring on a concentrated load.
const ROUNDS_PER_RESET: usize = 20;
/// Resets timed.
const RESETS: usize = 10;

/// Modelled load of every column: full-shell pair checks of its cells
/// (`n_cell × n` over the 27-cell neighbourhood), the unit the work
/// model charges.
fn column_loads(grid: &CellGrid) -> Vec<f64> {
    let nc = grid.nc();
    let counts: Vec<usize> = (0..grid.total_cells())
        .map(|i| grid.cell_range(i).len())
        .collect();
    let mut loads = vec![0.0; nc * nc];
    for idx in 0..grid.total_cells() {
        let home = grid.coord_of(idx);
        let mut nbr = 0usize;
        for dx in -1..=1 {
            for dy in -1..=1 {
                for dz in -1..=1 {
                    let (c, _) = grid.wrap_neighbor(home, (dx, dy, dz));
                    nbr += counts[grid.index(c)];
                }
            }
        }
        loads[home.cx * nc + home.cy] += (counts[idx] * nbr) as f64;
    }
    loads
}

/// One DLB round over `loads` (indexed like `ColumnGrid::index`); returns
/// the transfers made.
fn dlb_round(
    layout: &PillarLayout,
    protocols: &[DlbProtocol],
    om: &mut OwnershipMap,
    loads: &[f64],
    rank_load: &mut [f64],
) -> Result<usize, String> {
    let grid = layout.grid();
    rank_load.iter_mut().for_each(|l| *l = 0.0);
    for (i, load) in loads.iter().enumerate() {
        rank_load[om.owner_of(grid.col_of(i))] += load;
    }
    let torus = layout.torus();
    let decisions: Vec<_> = protocols
        .iter()
        .enumerate()
        .filter_map(|(r, proto)| {
            let nbrs: Vec<(usize, f64)> = torus
                .distinct_neighbors8(r)
                .into_iter()
                .map(|n| (n, rank_load[n]))
                .collect();
            proto.decide(om, proto.fastest_pe(rank_load[r], &nbrs))
        })
        .collect();
    for d in &decisions {
        DlbProtocol::validate(layout, om, d).map_err(|e| e.to_string())?;
        DlbProtocol::apply(om, d);
    }
    Ok(decisions.len())
}

/// Time the DLB round and the ownership checks on the final particles of
/// a DLB workload.
pub fn dlb_layer(cfg: &RunConfig, particles: &[Particle]) -> Result<DlbLayer, String> {
    let grid = grid_of(cfg, particles);
    let loads = column_loads(&grid);
    let layout = PillarLayout::new(cfg.nc, cfg.torus());
    let protocols: Vec<DlbProtocol> = (0..cfg.p)
        .map(|r| DlbProtocol::new(layout, r).with_min_relative_gain(cfg.dlb_min_gain))
        .collect();
    let mut rank_load = vec![0.0; cfg.p];
    let (mut rounds, mut transfers) = (Vec::new(), 0usize);
    let mut om = OwnershipMap::initial(layout);
    for _ in 0..RESETS {
        om = OwnershipMap::initial(layout);
        for _ in 0..ROUNDS_PER_RESET {
            let t = Instant::now();
            transfers += dlb_round(&layout, &protocols, &mut om, &loads, &mut rank_load)?;
            rounds.push(t.elapsed().as_secs_f64());
        }
        om.check_all()?;
    }
    Ok(DlbLayer {
        dlb_round_us: median(&rounds) * 1e6,
        transfers_per_round: transfers as f64 / rounds.len() as f64,
        ownership_check_us: ownership_check_s(&om)? * 1e6,
    })
}

/// Median seconds of one `OwnershipMap::check_all` on `om`.
pub fn ownership_check_s(om: &OwnershipMap) -> Result<f64, String> {
    om.check_all()?;
    Ok(time_calls(MIN_CALLS, BUDGET, || {
        std::hint::black_box(om.check_all()).expect("checked above");
    }))
}

/// The initial pillar ownership map of `cfg` (no DLB has moved it).
pub fn initial_ownership(cfg: &RunConfig) -> OwnershipMap {
    OwnershipMap::initial(PillarLayout::new(cfg.nc, cfg.torus()))
}

/// Cells per PE before any transfer, `nc³ / P`.
pub fn home_cells(cfg: &RunConfig) -> f64 {
    cfg.total_cells() as f64 / cfg.p as f64
}
