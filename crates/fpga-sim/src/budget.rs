//! On-chip (BRAM/URAM) capacity tracking.

use serde::{Deserialize, Serialize};

/// Error returned when a kernel asks for more BRAM/URAM than one SLR has —
/// the constraint that rules out whole-tree buffering for deep trees
/// (§2.3: depth 30 would need 4.2 GB against 13.5 MB available).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OnChipOverflow {
    /// Bytes requested by the failing allocation.
    pub requested: u64,
    /// Bytes still available.
    pub available: u64,
    /// SLR capacity.
    pub capacity: u64,
}

impl std::fmt::Display for OnChipOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "on-chip allocation of {} B exceeds remaining {} B (capacity {} B)",
            self.requested, self.available, self.capacity
        )
    }
}

impl std::error::Error for OnChipOverflow {}

/// A per-SLR BRAM/URAM budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnChipBudget {
    capacity: u64,
    used: u64,
}

impl OnChipBudget {
    /// A fresh budget of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Self { capacity, used: 0 }
    }

    /// Reserves `bytes`, failing if the budget would overflow.
    pub fn alloc(&mut self, bytes: u64) -> Result<(), OnChipOverflow> {
        let available = self.capacity - self.used;
        if bytes > available {
            return Err(OnChipOverflow { requested: bytes, available, capacity: self.capacity });
        }
        self.used += bytes;
        Ok(())
    }

    /// Releases `bytes` (saturating), e.g. when a double buffer is retired.
    pub fn free(&mut self, bytes: u64) {
        self.used = self.used.saturating_sub(bytes);
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes still available.
    pub fn available(&self) -> u64 {
        self.capacity - self.used
    }

    /// Total capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Fraction of the SLR's BRAM/URAM currently reserved (0.0 when the
    /// capacity itself is zero).
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.used as f64 / self.capacity as f64
        }
    }

    /// Publishes the budget's occupancy into the ambient telemetry
    /// domain as `fpgasim.bram.used_bytes` / `fpgasim.bram.utilization`
    /// gauges — the on-chip-residency complement to the CU-level
    /// `fpgasim.perf.occupancy` the pipeline model exports. Kernels call
    /// this once their buffers are placed.
    pub fn export_telemetry(&self) {
        let tel = rfx_telemetry::current();
        tel.gauge("fpgasim.bram.used_bytes").set(self.used as f64);
        tel.gauge("fpgasim.bram.utilization").set(self.utilization());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free() {
        let mut b = OnChipBudget::new(100);
        b.alloc(60).unwrap();
        assert_eq!(b.available(), 40);
        let err = b.alloc(41).unwrap_err();
        assert_eq!(err.requested, 41);
        assert_eq!(err.available, 40);
        b.free(30);
        b.alloc(41).unwrap();
        assert_eq!(b.used(), 71);
    }

    #[test]
    fn free_saturates() {
        let mut b = OnChipBudget::new(10);
        b.free(99);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn utilization_tracks_used_fraction() {
        let mut b = OnChipBudget::new(200);
        assert_eq!(b.utilization(), 0.0);
        b.alloc(50).unwrap();
        assert_eq!(b.utilization(), 0.25);
        assert_eq!(OnChipBudget::new(0).utilization(), 0.0);
    }

    #[test]
    fn paper_capacity_rules_out_deep_trees() {
        // §2.3: a complete depth-30 tree at 6 B/node needs ~6.4 GB; one
        // SLR offers 13.5 MB, so whole-tree buffering must fail.
        let mut b = OnChipBudget::new(crate::FpgaConfig::alveo_u250().onchip_bytes_per_slr);
        let depth30_nodes: u64 = (1 << 30) - 1;
        assert!(b.alloc(depth30_nodes * 6).is_err());
        // A depth-18 tree squeaks in (the paper's quoted practical limit
        // of "around 18 or 19").
        let depth18_nodes: u64 = (1 << 18) - 1;
        assert!(b.alloc(depth18_nodes * 6).is_ok());
    }
}
