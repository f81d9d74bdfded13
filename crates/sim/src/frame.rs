//! Flat framed message payloads for the steady-state hot path.
//!
//! The exchange phases ship pooled *frames* instead of nested payloads:
//! frames are `Default + Send + Sync`, live in a [`pcdlb_mp::BufferPool`]
//! across steps, and are refilled in place, so the hot path allocates
//! nothing in steady state.
//!
//! # The coalesced step message
//!
//! Each step a rank sends exactly two [`StepFrame`]s to each neighbour
//! under the single `tags::STEP_FRAME` tag. Round 1 carries boundary
//! crossers (migrants) plus — on DLB steps — the sender's last-step load;
//! round 2 carries the boundary-shell ghost frame. One-byte sub-frame
//! presence headers say which sections are populated, and per-(src, dst,
//! tag) FIFO ordering keeps the rounds matched.
//!
//! # Ghost shell frames
//!
//! Ghosts ship as `(id, position)` pairs only ([`GhostPart`], 32 bytes):
//! force evaluation never reads a ghost's velocity, so the 24 velocity
//! bytes of a full `Particle` never cross the wire. There is no column or
//! block directory either — the receiver re-bins each ghost by its
//! position, which also makes empty-cell traffic vanish structurally.
//! A [`GhostShellFrame`] holds the whole shell, ascending id, and costs
//! `1 + 8 + 32·n` bytes: a format byte, the length prefix, and the pairs.
//!
//! `wire_check.rs` pins every layout against a reference encoder.

use pcdlb_md::{Particle, Vec3};
use pcdlb_mp::WireSize;

/// One ghost particle on the wire: id + position. Velocities are never
/// read from ghosts, so they never travel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GhostPart {
    /// Particle id.
    pub id: u64,
    /// Wrapped position in the global box.
    pub pos: Vec3,
}

impl WireSize for GhostPart {
    fn wire_size(&self) -> usize {
        // u64 id + 3 × f64 position.
        32
    }
}

/// One boundary-shell ghost shipment: the full `(id, pos)` list.
#[derive(Debug, Clone, Default)]
pub struct GhostShellFrame {
    /// The shell content, ascending id.
    pub parts: Vec<GhostPart>,
}

impl GhostShellFrame {
    /// Refill the frame with the `(id, pos)` pairs of `cells`, ascending
    /// id, keeping capacity.
    pub fn fill<'a>(&mut self, cells: impl IntoIterator<Item = &'a [Particle]>) {
        self.parts.clear();
        for cell in cells {
            self.parts.extend(cell.iter().map(|p| GhostPart {
                id: p.id,
                pos: p.pos,
            }));
        }
        self.parts.sort_unstable_by_key(|g| g.id);
    }
}

impl WireSize for GhostShellFrame {
    fn wire_size(&self) -> usize {
        // Format byte + length-prefixed flat `(id, pos)` list.
        1 + 8 + 32 * self.parts.len()
    }
}

/// A flat particle shipment (migration, cell transfer): identical wire
/// bytes to the `Vec<Particle>` it replaces, but poolable and refillable
/// in place.
#[derive(Debug, Clone, Default)]
pub struct ParticleFrame {
    /// The particles, id-sorted.
    pub parts: Vec<Particle>,
}

impl WireSize for ParticleFrame {
    fn wire_size(&self) -> usize {
        8 + self.parts.iter().map(WireSize::wire_size).sum::<usize>()
    }
}

/// The coalesced per-neighbour step message: one-byte presence headers
/// select which sections travel. Round 1 = migrants (+ load on DLB
/// steps); round 2 = the ghost shell.
#[derive(Debug, Clone, Default)]
pub struct StepFrame {
    /// Round-1 marker: the migrant section travels.
    pub has_migrants: bool,
    /// Particles that crossed into the destination's columns, id-sorted.
    pub migrants: ParticleFrame,
    /// Sender's last-step load; `Some` only in round 1 of a DLB step.
    pub load: Option<f64>,
    /// Round-2 marker: the ghost section travels.
    pub has_ghosts: bool,
    /// Boundary-shell ghosts.
    pub ghosts: GhostShellFrame,
}

impl StepFrame {
    /// Reshape a pooled frame for round 1, keeping buffer capacity.
    pub fn begin_round1(&mut self, load: Option<f64>) {
        self.has_migrants = true;
        self.migrants.parts.clear();
        self.load = load;
        self.has_ghosts = false;
        self.ghosts.parts.clear();
    }

    /// Reshape a pooled frame for round 2, keeping buffer capacity.
    pub fn begin_round2(&mut self) {
        self.has_migrants = false;
        self.migrants.parts.clear();
        self.load = None;
        self.has_ghosts = true;
        self.ghosts.parts.clear();
    }
}

impl WireSize for StepFrame {
    fn wire_size(&self) -> usize {
        // migrant header + section, load Option, ghost header + section.
        let m = if self.has_migrants {
            self.migrants.wire_size()
        } else {
            0
        };
        let g = if self.has_ghosts {
            self.ghosts.wire_size()
        } else {
            0
        };
        1 + m + self.load.wire_size() + 1 + g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shell_frame_canonical_size_is_content_based() {
        let mut frame = GhostShellFrame::default();
        assert_eq!(frame.wire_size(), 1 + 8);
        let cell = |ids: &[u64]| -> Vec<Particle> {
            ids.iter()
                .map(|&id| Particle::at_rest(id, Vec3::new(id as f64, 0.0, 0.0)))
                .collect()
        };
        let (a, b) = (cell(&[9, 3, 15]), cell(&[0, 12, 6, 18]));
        frame.fill([a.as_slice(), b.as_slice()]);
        assert_eq!(frame.wire_size(), 1 + 8 + 32 * 7);
        let ids: Vec<u64> = frame.parts.iter().map(|g| g.id).collect();
        assert_eq!(
            ids,
            [0, 3, 6, 9, 12, 15, 18],
            "shell frames ship ascending id"
        );
        // A refill replaces the content.
        frame.fill([b.as_slice()]);
        assert_eq!(frame.wire_size(), 1 + 8 + 32 * 4);
    }

    #[test]
    fn step_frame_sections_toggle_their_bytes() {
        let mut f = StepFrame::default();
        f.begin_round1(None);
        assert_eq!(f.wire_size(), 1 + 8 + 1 + 1); // header + empty migrants + None + header
        f.begin_round1(Some(0.25));
        assert_eq!(f.wire_size(), 1 + 8 + 9 + 1);
        f.migrants
            .parts
            .push(pcdlb_md::Particle::at_rest(0, Vec3::ZERO));
        assert_eq!(f.wire_size(), 1 + 8 + 56 + 9 + 1);
        f.begin_round2();
        assert_eq!(f.wire_size(), 1 + 1 + 1 + (1 + 8));
    }
}
