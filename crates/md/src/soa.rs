//! Structure-of-arrays hot data for the force inner loop.
//!
//! The pair kernel's hot loop touches only positions (read) and forces
//! (read-modify-write). [`SoaField`] splits exactly that data out of the
//! AoS [`crate::Particle`] slabs into six flat `f64` arrays — `x/y/z`
//! positions for every slot (owned first, ghosts appended) and
//! `fx/fy/fz` force accumulators for the owned slots — while the cold
//! fields (id, velocity) stay in the slabs and are rejoined at
//! integration time. The arrays are retained scratch: loading positions
//! and zeroing forces is O(N) with no steady-state allocation.
//!
//! The Verlet replay ([`crate::verlet`]) runs its pair loop over these
//! arrays, mirroring [`crate::force::PairKernel`]'s AoS kernels
//! expression for expression, so its force sums are bitwise identical to
//! the AoS walk.

use crate::vec3::Vec3;
use crate::Particle;

/// Flat SoA position/force arrays over one rank's slot space: owned
/// slots `0..n_owned` (whose forces are accumulated) followed by ghost
/// slots `n_owned..len` (positions only).
#[derive(Debug, Clone, Default)]
pub struct SoaField {
    pub(crate) xs: Vec<f64>,
    pub(crate) ys: Vec<f64>,
    pub(crate) zs: Vec<f64>,
    pub(crate) fxs: Vec<f64>,
    pub(crate) fys: Vec<f64>,
    pub(crate) fzs: Vec<f64>,
    n_owned: usize,
}

impl SoaField {
    /// Empty field; buffers grow on first use and are retained.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resize for `n_total` position slots of which the first `n_owned`
    /// accumulate forces (zeroed here). Retains capacity.
    pub fn reset(&mut self, n_owned: usize, n_total: usize) {
        debug_assert!(n_owned <= n_total);
        self.n_owned = n_owned;
        for v in [&mut self.xs, &mut self.ys, &mut self.zs] {
            v.clear();
            v.resize(n_total, 0.0);
        }
        for v in [&mut self.fxs, &mut self.fys, &mut self.fzs] {
            v.clear();
            v.resize(n_owned, 0.0);
        }
    }

    /// Number of force-accumulating (owned) slots.
    pub fn n_owned(&self) -> usize {
        self.n_owned
    }

    /// Total number of position slots (owned + ghost).
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True when no slots are loaded.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Copy the positions of `parts` into slots `base..base+parts.len()`.
    pub fn load_positions(&mut self, base: usize, parts: &[Particle]) {
        for (k, p) in parts.iter().enumerate() {
            self.xs[base + k] = p.pos.x;
            self.ys[base + k] = p.pos.y;
            self.zs[base + k] = p.pos.z;
        }
    }

    /// One slot's position.
    pub fn pos(&self, i: usize) -> Vec3 {
        Vec3::new(self.xs[i], self.ys[i], self.zs[i])
    }

    /// Zero the force accumulators (positions untouched).
    pub fn zero_forces(&mut self) {
        self.fxs.fill(0.0);
        self.fys.fill(0.0);
        self.fzs.fill(0.0);
    }

    /// Add `f` to one owned slot's force (the external-pull path, which
    /// accumulates componentwise exactly like `Vec3 += Vec3`).
    pub fn add_force(&mut self, i: usize, f: Vec3) {
        self.fxs[i] += f.x;
        self.fys[i] += f.y;
        self.fzs[i] += f.z;
    }

    /// Copy the owned forces out into a `Vec<Vec3>` aligned with the
    /// owned slot order (resized, no steady-state allocation).
    pub fn fold_forces(&self, out: &mut Vec<Vec3>) {
        out.clear();
        out.resize(self.n_owned, Vec3::ZERO);
        for (i, o) in out.iter_mut().enumerate() {
            *o = Vec3::new(self.fxs[i], self.fys[i], self.fzs[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_retains_capacity() {
        let mut soa = SoaField::new();
        soa.reset(100, 120);
        soa.reset(10, 12);
        assert_eq!(soa.n_owned(), 10);
        assert_eq!(soa.len(), 12);
        // Buffers shrink logically but keep their allocation.
        soa.reset(100, 120);
        assert_eq!(soa.len(), 120);
    }
}
