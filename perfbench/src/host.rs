//! A fixed reference kernel that gauges the host's current speed.
//!
//! The kernel is the benchmark's own code and calls nothing in the
//! workspace, so a change to the program under test cannot move it. It is
//! a Lennard-Jones force pass over a frozen cell list of the condensing
//! workload's size (N = 7422 at ρ* = 0.256, 12³ cells of side 2.56), the
//! same kind of work the simulator does most. The pass is split over as
//! many threads as the workload has ranks, which meet at a barrier after
//! every slice of cells, so a busy or slow host delays it the way it
//! delays rank threads that meet at every step's exchanges.

use std::time::Instant;

const N: usize = 7422;
const NC: usize = 12;
const CELL: f64 = 2.56;
const RC2: f64 = 2.5 * 2.5;

/// The frozen particles of the reference kernel, binned once.
pub struct HostRef {
    pos: Vec<[f64; 3]>,
    /// Particle indices of each cell, `cell_start[c]..cell_start[c + 1]`.
    order: Vec<u32>,
    cell_start: Vec<usize>,
}

impl Default for HostRef {
    fn default() -> Self {
        Self::new()
    }
}

impl HostRef {
    /// Place the particles by a fixed linear congruential sequence and
    /// bin them.
    pub fn new() -> Self {
        let side = NC as f64 * CELL;
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut unit = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pos: Vec<[f64; 3]> = (0..N)
            .map(|_| [unit() * side, unit() * side, unit() * side])
            .collect();
        let cell_of = |p: &[f64; 3]| {
            let c = |x: f64| ((x / CELL) as usize).min(NC - 1);
            (c(p[0]) * NC + c(p[1])) * NC + c(p[2])
        };
        let mut counts = vec![0usize; NC * NC * NC + 1];
        for p in &pos {
            counts[cell_of(p) + 1] += 1;
        }
        for c in 1..counts.len() {
            counts[c] += counts[c - 1];
        }
        let mut fill = counts.clone();
        let mut order = vec![0u32; N];
        for (i, p) in pos.iter().enumerate() {
            let c = cell_of(p);
            order[fill[c]] = i as u32;
            fill[c] += 1;
        }
        HostRef {
            pos,
            order,
            cell_start: counts,
        }
    }

    /// Forces on the particles of home cell `home`, full shell; returns
    /// their summed virial so the work cannot be optimised away.
    fn cell(&self, home: usize) -> f64 {
        let side = NC as f64 * CELL;
        let wrap = |d: f64| d - side * (d / side).round();
        let (cx, cy, cz) = (home / (NC * NC), home / NC % NC, home % NC);
        let mut virial = 0.0;
        for &i in &self.order[self.cell_start[home]..self.cell_start[home + 1]] {
            let a = self.pos[i as usize];
            for dx in [NC - 1, 0, 1] {
                for dy in [NC - 1, 0, 1] {
                    for dz in [NC - 1, 0, 1] {
                        let nb = (((cx + dx) % NC * NC) + (cy + dy) % NC) * NC + (cz + dz) % NC;
                        for &j in &self.order[self.cell_start[nb]..self.cell_start[nb + 1]] {
                            let b = self.pos[j as usize];
                            let d = [wrap(a[0] - b[0]), wrap(a[1] - b[1]), wrap(a[2] - b[2])];
                            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                            if j != i && r2 < RC2 && r2 > 0.64 {
                                let s6 = 1.0 / (r2 * r2 * r2);
                                virial += 24.0 * s6 * (2.0 * s6 - 1.0);
                            }
                        }
                    }
                }
            }
        }
        virial
    }

    /// One force pass over every cell, split over `threads` threads that
    /// meet at a barrier after each of `SLICES` slices of the cells, as
    /// rank threads meet at every step's exchanges.
    pub fn pass(&self, threads: usize) -> f64 {
        const SLICES: usize = 16;
        let cells = NC * NC * NC;
        let barrier = std::sync::Barrier::new(threads);
        let work = |t: usize| {
            let mut v = 0.0;
            for s in 0..SLICES {
                let (lo, hi) = (cells * s / SLICES, cells * (s + 1) / SLICES);
                for c in (lo + t..hi).step_by(threads) {
                    v += self.cell(c);
                }
                barrier.wait();
            }
            v
        };
        std::thread::scope(|sc| {
            let hs: Vec<_> = (1..threads).map(|t| sc.spawn(move || work(t))).collect();
            work(0) + hs.into_iter().map(|h| h.join().unwrap()).sum::<f64>()
        })
    }

    /// Seconds one pass takes now.
    pub fn time_pass(&self, threads: usize) -> f64 {
        let t = Instant::now();
        std::hint::black_box(self.pass(threads));
        t.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_thread_count_does_the_same_work() {
        let h = HostRef::new();
        let one = h.pass(1);
        assert!(one != 0.0);
        for threads in [2, 4, 9] {
            let v = h.pass(threads);
            assert!(
                (v - one).abs() <= 1e-9 * one.abs(),
                "{threads} threads: {v} vs {one}"
            );
        }
    }
}
