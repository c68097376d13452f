//! Machine configuration.

/// Geometry of one set-associative cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size_bytes / (self.ways * self.line_bytes)
    }

    /// Number of lines.
    pub fn lines(&self) -> u32 {
        self.size_bytes / self.line_bytes
    }

    /// Validates that the geometry is internally consistent.
    pub fn validate(&self) -> bool {
        self.line_bytes.is_power_of_two()
            && self.ways > 0
            && self
                .ways
                .checked_mul(self.line_bytes)
                .is_some_and(|way_bytes| self.size_bytes.is_multiple_of(way_bytes))
            && self.sets().is_power_of_two()
    }
}

/// Fixed operation latencies of the timing model, in cycles.
///
/// Values approximate the Cortex-A9 pipeline as configured in the paper's
/// gem5 model; they matter for *relative* timing (which lines are resident
/// when a fault strikes), not for absolute IPC fidelity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Latencies {
    /// L1 hit latency (both I and D).
    pub l1_hit: u32,
    /// L2 hit latency.
    pub l2_hit: u32,
    /// DRAM access latency.
    pub mem: u32,
    /// 32-bit multiply.
    pub mul: u32,
    /// Integer divide.
    pub div: u32,
    /// FP add/sub/mul/convert/compare.
    pub fp: u32,
    /// FP divide.
    pub fdiv: u32,
    /// FP square root.
    pub fsqrt: u32,
    /// Branch mispredict penalty.
    pub branch_miss: u32,
    /// Page-table walk, per level, on top of the cache accesses it makes.
    pub walk_step: u32,
}

impl Default for Latencies {
    fn default() -> Latencies {
        Latencies {
            l1_hit: 1,
            l2_hit: 8,
            mem: 60,
            mul: 3,
            div: 12,
            fp: 4,
            fdiv: 15,
            fsqrt: 17,
            branch_miss: 8,
            walk_step: 2,
        }
    }
}

/// Execution mode, mirroring gem5's CPU models (paper Table I).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecMode {
    /// Functional execution: no cache arrays, one cycle per instruction.
    /// Fast, used for golden-run screening and the Table I throughput row.
    Atomic,
    /// Full microarchitectural state and timing: caches, TLBs, predictor.
    /// The only mode fault-injection campaigns run in.
    Detailed,
}

/// Full machine configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MachineConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 cache geometry.
    pub l2: CacheConfig,
    /// Instruction TLB entries.
    pub itlb_entries: u32,
    /// Data TLB entries.
    pub dtlb_entries: u32,
    /// Physical memory size in bytes.
    pub mem_bytes: u32,
    /// Operation latencies.
    pub lat: Latencies,
    /// Execution mode.
    pub mode: ExecMode,
    /// Branch-predictor entries (bimodal, 2-bit), power of two.
    pub predictor_entries: u32,
}

impl MachineConfig {
    /// The paper's Cortex-A9 configuration (Table II): 32 KB 4-way L1
    /// caches, 512 KB 8-way L2, 64-entry TLBs (512 bytes each).
    pub fn cortex_a9() -> MachineConfig {
        MachineConfig {
            l1i: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 4,
                line_bytes: 32,
            },
            l1d: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 4,
                line_bytes: 32,
            },
            l2: CacheConfig {
                size_bytes: 512 * 1024,
                ways: 8,
                line_bytes: 32,
            },
            itlb_entries: 64,
            dtlb_entries: 64,
            mem_bytes: 64 * 1024 * 1024,
            lat: Latencies::default(),
            mode: ExecMode::Detailed,
            predictor_entries: 1024,
        }
    }

    /// A uniformly scaled-down configuration (¼ L1, ⅛ L2) matched to the
    /// scaled benchmark inputs, preserving the paper's footprint-to-capacity
    /// ratios (see DESIGN.md §1). Used by the default campaign profiles.
    pub fn cortex_a9_scaled() -> MachineConfig {
        MachineConfig {
            l1i: CacheConfig {
                size_bytes: 8 * 1024,
                ways: 4,
                line_bytes: 32,
            },
            l1d: CacheConfig {
                size_bytes: 8 * 1024,
                ways: 4,
                line_bytes: 32,
            },
            l2: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 8,
                line_bytes: 32,
            },
            itlb_entries: 64,
            dtlb_entries: 64,
            mem_bytes: 64 * 1024 * 1024,
            lat: Latencies::default(),
            mode: ExecMode::Detailed,
            predictor_entries: 1024,
        }
    }

    /// Switches to atomic (functional) execution.
    pub fn atomic(mut self) -> MachineConfig {
        self.mode = ExecMode::Atomic;
        self
    }

    /// Validates all cache geometries.
    pub fn validate(&self) -> bool {
        self.l1i.validate()
            && self.l1d.validate()
            && self.l2.validate()
            && self.predictor_entries.is_power_of_two()
            && self.itlb_entries > 0
            && self.dtlb_entries > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid_and_matches_table2() {
        let c = MachineConfig::cortex_a9();
        assert!(c.validate());
        assert_eq!(c.l1i.size_bytes, 32 * 1024);
        assert_eq!(c.l1i.ways, 4);
        assert_eq!(c.l2.size_bytes, 512 * 1024);
        assert_eq!(c.l2.ways, 8);
        // TLB: 64 entries × 64 bits = 512 bytes, the size quoted in §V-B.
        assert_eq!(c.itlb_entries * 8, 512);
    }

    #[test]
    fn scaled_config_preserves_l1_l2_ratio() {
        let p = MachineConfig::cortex_a9();
        let s = MachineConfig::cortex_a9_scaled();
        assert!(s.validate());
        assert_eq!(p.l2.size_bytes / p.l1d.size_bytes, 16);
        assert_eq!(s.l2.size_bytes / s.l1d.size_bytes, 8);
    }

    #[test]
    fn cache_geometry_math() {
        let c = CacheConfig {
            size_bytes: 32 * 1024,
            ways: 4,
            line_bytes: 32,
        };
        assert_eq!(c.sets(), 256);
        assert_eq!(c.lines(), 1024);
    }
}
