//! Performance counters.
//!
//! Exactly the seven counters §IV-D of the paper compares between the Zynq
//! board and gem5, plus retired-instruction and L2 counts used internally.

/// Hardware performance counters.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Counters {
    /// CPU cycles.
    pub cycles: u64,
    /// Retired instructions (condition-failed instructions count as
    /// retired, as on ARM).
    pub instructions: u64,
    /// Executed branch instructions.
    pub branches: u64,
    /// Branch mispredictions.
    pub branch_misses: u64,
    /// L1 data-cache accesses.
    pub l1d_access: u64,
    /// L1 data-cache misses.
    pub l1d_miss: u64,
    /// L1 instruction-cache accesses.
    pub l1i_access: u64,
    /// L1 instruction-cache misses.
    pub l1i_miss: u64,
    /// L2 accesses.
    pub l2_access: u64,
    /// L2 misses.
    pub l2_miss: u64,
    /// Data-TLB misses.
    pub dtlb_miss: u64,
    /// Instruction-TLB misses.
    pub itlb_miss: u64,
}

impl Counters {
    /// The seven (name, value) pairs of paper §IV-D, in its order.
    pub fn paper_seven(&self) -> [(&'static str, u64); 7] {
        [
            ("cpu_cycles", self.cycles),
            ("branch_misses", self.branch_misses),
            ("l1d_access", self.l1d_access),
            ("l1d_miss", self.l1d_miss),
            ("dtlb_miss", self.dtlb_miss),
            ("l1i_miss", self.l1i_miss),
            ("itlb_miss", self.itlb_miss),
        ]
    }

    /// Counts accumulated since `earlier` (each field saturating at zero,
    /// so a reset in between degrades gracefully instead of wrapping).
    pub fn delta(&self, earlier: &Counters) -> Counters {
        Counters {
            cycles: self.cycles.saturating_sub(earlier.cycles),
            instructions: self.instructions.saturating_sub(earlier.instructions),
            branches: self.branches.saturating_sub(earlier.branches),
            branch_misses: self.branch_misses.saturating_sub(earlier.branch_misses),
            l1d_access: self.l1d_access.saturating_sub(earlier.l1d_access),
            l1d_miss: self.l1d_miss.saturating_sub(earlier.l1d_miss),
            l1i_access: self.l1i_access.saturating_sub(earlier.l1i_access),
            l1i_miss: self.l1i_miss.saturating_sub(earlier.l1i_miss),
            l2_access: self.l2_access.saturating_sub(earlier.l2_access),
            l2_miss: self.l2_miss.saturating_sub(earlier.l2_miss),
            dtlb_miss: self.dtlb_miss.saturating_sub(earlier.dtlb_miss),
            itlb_miss: self.itlb_miss.saturating_sub(earlier.itlb_miss),
        }
    }
}

impl std::fmt::Display for Counters {
    /// Renders the §IV-D seven-counter block, one aligned `name value` row
    /// per line, in the paper's order.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let seven = self.paper_seven();
        let width = seven.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, value) in seven {
            writeln!(f, "{name:<width$}  {value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_seven_has_seven_distinct_names() {
        let c = Counters::default();
        let names: std::collections::BTreeSet<_> =
            c.paper_seven().iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn delta_subtracts_fieldwise_and_saturates() {
        let early = Counters {
            cycles: 100,
            l1d_access: 40,
            itlb_miss: 9,
            ..Default::default()
        };
        let late = Counters {
            cycles: 250,
            l1d_access: 41,
            itlb_miss: 5, // counter reset in between
            l2_miss: 3,
            ..Default::default()
        };
        let d = late.delta(&early);
        assert_eq!(d.cycles, 150);
        assert_eq!(d.l1d_access, 1);
        assert_eq!(d.l2_miss, 3);
        assert_eq!(
            d.itlb_miss, 0,
            "reset between samples must saturate, not wrap"
        );
    }

    #[test]
    fn display_renders_the_seven_paper_counters() {
        let c = Counters {
            cycles: 12345,
            branch_misses: 67,
            ..Default::default()
        };
        let text = c.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7, "one row per §IV-D counter:\n{text}");
        assert!(lines[0].starts_with("cpu_cycles"));
        assert!(lines[0].ends_with("12345"));
        assert!(lines[1].starts_with("branch_misses"));
        // Names are padded to a common column.
        let value_col: std::collections::BTreeSet<usize> = lines
            .iter()
            .map(|l| l.rfind("  ").expect("two-space separator"))
            .collect();
        assert_eq!(value_col.len(), 1, "values must be column-aligned:\n{text}");
    }
}
