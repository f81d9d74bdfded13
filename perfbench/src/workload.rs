//! The four benchmark workloads and the seeded generator of their
//! `RunConfig`s.
//!
//! A workload is a name, an engine, a step count and a number of
//! sub-seeds; [`Workload::configs`] turns it and the benchmark seed into
//! the `RunConfig`s the simulator receives. A seed only drives the
//! Maxwell–Boltzmann initial velocities, so every seed gives a
//! statistically equivalent run of the same physics.

use pcdlb_sim::RunConfig;

/// Which simulator runs a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `pcdlb_sim::serial_sim`, stepped on the calling thread.
    Serial,
    /// The square-pillar SPMD engine (`sim::pe`).
    Pillar,
    /// The 1-D plane SPMD engine (`sim::plane`).
    Plane,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Simulator that runs it.
    pub engine: Engine,
    /// PE count (rank threads; 1 for serial).
    pub p: usize,
    /// Steps in one measured run.
    pub steps: u64,
    /// Configurations per seed, differing only in their initial
    /// velocities; measured runs cycle through them. More than one where
    /// a single trajectory's figures depend strongly on the seed.
    pub sub_seeds: u64,
    /// Nominal median of one reference-kernel pass on `p` threads
    /// ([`crate::host::HostRef`]), milliseconds: the reference host speed
    /// that `steps_per_s` and `setup_s` are scaled to. Measured once on
    /// the host `perfbench/README.md` describes; fixed, so it scales the
    /// figures of every commit alike.
    pub host_pass_ms: f64,
}

/// Every workload, in the order the benchmark documents them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "gas_serial",
        engine: Engine::Serial,
        p: 1,
        steps: 400,
        sub_seeds: 1,
        host_pass_ms: 25.0,
    },
    Workload {
        name: "gas_pillar_p4",
        engine: Engine::Pillar,
        p: 4,
        steps: 400,
        sub_seeds: 1,
        host_pass_ms: 17.0,
    },
    Workload {
        name: "gas_plane_p2",
        engine: Engine::Plane,
        p: 2,
        steps: 400,
        sub_seeds: 1,
        host_pass_ms: 14.0,
    },
    Workload {
        name: "condense_dlb_p9",
        engine: Engine::Pillar,
        p: 9,
        steps: 300,
        sub_seeds: 4,
        host_pass_ms: 17.5,
    },
];

/// Particles in the gas workloads: ρ* = 0.256 in a 12³-cell box of cell
/// side 2.9 = r_c + skin.
pub const GAS_N: usize = 10789;
/// Cells per side of every workload.
pub const NC: usize = 12;
/// Reduced density of every workload.
pub const DENSITY: f64 = 0.256;
/// Verlet skin of the gas workloads.
pub const GAS_SKIN: f64 = 0.4;
/// Checkpoint cadence of the pillar gas (fires 4 times per run).
pub const GAS_PILLAR_CHECKPOINT: u64 = 100;
/// Sentinel cadence of the pillar gas (fires 8 times per run).
pub const GAS_PILLAR_SENTINEL: u64 = 50;
/// Central pull spring constant of the condensing workload.
pub const CONDENSE_PULL: f64 = 0.08;
/// DLB hysteresis of the condensing workload.
pub const CONDENSE_MIN_GAIN: f64 = 0.05;

impl Workload {
    /// The workload called `name`, if any.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The run configurations for benchmark seed `seed`: [`Workload::config`]
    /// at sub-seeds `seed · sub_seeds + k`, so distinct seeds give
    /// disjoint sets and the same seed always gives the same set.
    pub fn configs(&self, seed: u64) -> Vec<RunConfig> {
        (0..self.sub_seeds)
            .map(|k| self.config(seed.wrapping_mul(self.sub_seeds).wrapping_add(k)))
            .collect()
    }

    /// The run configuration at initial-condition seed `seed`: the same
    /// seed always gives the same configuration, and only the seed
    /// differs between seeds.
    pub fn config(&self, seed: u64) -> RunConfig {
        let mut cfg = if self.name == "condense_dlb_p9" {
            // Paper-tight cells (side 2.56) at m = 4: N = 7422.
            let mut cfg = RunConfig::from_p_m_density(self.p, 4, DENSITY);
            cfg.central_pull = CONDENSE_PULL;
            cfg.dlb = true;
            cfg.dlb_interval = 1;
            cfg.dlb_min_gain = CONDENSE_MIN_GAIN;
            cfg
        } else {
            let mut cfg = RunConfig::new(GAS_N, NC, self.p, DENSITY);
            cfg.skin = GAS_SKIN;
            cfg.verlet = true;
            cfg.dlb = false;
            if self.engine == Engine::Pillar {
                cfg.checkpoint_interval = GAS_PILLAR_CHECKPOINT;
                cfg.sentinel_interval = GAS_PILLAR_SENTINEL;
            }
            cfg
        };
        cfg.steps = self.steps;
        cfg.seed = seed;
        cfg
    }

    /// One line describing the configurations of benchmark seed `seed`.
    pub fn describe(&self, seed: u64) -> String {
        let c = &self.configs(seed)[0];
        format!(
            "{}: engine {:?}, P {}, N {}, nc {}, rho {}, cell {:.4}, skin {}, verlet {}, \
             dlb {} (every {}, min gain {}), pull {}, checkpoint {}, sentinel {}, steps {}, \
             sub-seeds {} from seed {}",
            self.name,
            self.engine,
            c.p,
            c.n_particles,
            c.nc,
            c.density,
            c.cell_len(),
            c.skin,
            c.verlet,
            c.dlb,
            c.dlb_interval,
            c.dlb_min_gain,
            c.central_pull,
            c.checkpoint_interval,
            c.sentinel_interval,
            c.steps,
            self.sub_seeds,
            c.seed
        )
    }
}
