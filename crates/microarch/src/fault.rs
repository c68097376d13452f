//! The fault-injection surface of the machine.
//!
//! These are the six microarchitectural SRAM arrays the paper's GeFIN
//! campaigns target (§IV-C) — together covering more than 94% of the memory
//! cells modeled inside the CPU. The injector addresses each component as a
//! flat bit array; [`System::flip_bit`] maps a bit index onto the exact
//! underlying cell.

use std::fmt;

use crate::cache::ArrayKind;
use crate::mem::Device;
use crate::system::System;

/// A fault-injectable hardware component.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Component {
    /// Physical register file (integer + FP banks).
    RegFile,
    /// L1 instruction cache (data + tag + state arrays).
    L1I,
    /// L1 data cache.
    L1D,
    /// Unified L2 cache.
    L2,
    /// Instruction TLB.
    ITlb,
    /// Data TLB.
    DTlb,
}

impl Component {
    /// All six components, in the paper's reporting order.
    pub const ALL: [Component; 6] = [
        Component::RegFile,
        Component::L1I,
        Component::L1D,
        Component::L2,
        Component::ITlb,
        Component::DTlb,
    ];

    /// Short name used in tables ("RF", "L1I$", …).
    pub fn short_name(self) -> &'static str {
        match self {
            Component::RegFile => "RF",
            Component::L1I => "L1I$",
            Component::L1D => "L1D$",
            Component::L2 => "L2$",
            Component::ITlb => "ITLB",
            Component::DTlb => "DTLB",
        }
    }

    /// Parse a component from its [`short_name`](Component::short_name)
    /// (used when decoding quarantine/journal records).
    pub fn from_short_name(s: &str) -> Option<Component> {
        Component::ALL.into_iter().find(|c| c.short_name() == s)
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Where an injected bit landed, for post-campaign analysis (e.g. the
/// paper's observation that TLB *tag* flips are almost always benign).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InjectionSite {
    /// The component.
    pub component: Component,
    /// The flat bit index within the component.
    pub bit: u64,
    /// Which array the bit belongs to.
    pub array: ArrayKind,
    /// Whether the containing entry/line held valid state at flip time.
    pub was_valid: bool,
}

impl<D: Device> System<D> {
    /// Total SRAM bits of a component under the current configuration.
    pub fn component_bits(&self, c: Component) -> u64 {
        match c {
            Component::RegFile => self.cpu.regs.total_bits(),
            Component::L1I => self.mem.l1i.total_bits(),
            Component::L1D => self.mem.l1d.total_bits(),
            Component::L2 => self.mem.l2.total_bits(),
            Component::ITlb => self.itlb.total_bits(),
            Component::DTlb => self.dtlb.total_bits(),
        }
    }

    /// Total SRAM bits across all six modeled components.
    pub fn total_modeled_bits(&self) -> u64 {
        Component::ALL.iter().map(|&c| self.component_bits(c)).sum()
    }

    /// What [`System::flip_bit`] would report for (`c`, `bit`) on this
    /// machine as it stands, without flipping anything.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= component_bits(c)`.
    pub fn site_of(&self, c: Component, bit: u64) -> InjectionSite {
        let tlb_site = |(is_tag, was_valid): (bool, bool)| {
            let array = if is_tag {
                ArrayKind::Tag
            } else {
                ArrayKind::Data
            };
            (array, was_valid)
        };
        let cache_site = |i: crate::cache::FlipInfo| (i.array, i.was_valid);
        let (array, was_valid) = match c {
            Component::RegFile => {
                assert!(
                    bit < self.cpu.regs.total_bits(),
                    "register-file bit index out of range"
                );
                (ArrayKind::Data, true)
            }
            Component::L1I => cache_site(self.mem.l1i.bit_info(bit)),
            Component::L1D => cache_site(self.mem.l1d.bit_info(bit)),
            Component::L2 => cache_site(self.mem.l2.bit_info(bit)),
            Component::ITlb => tlb_site(self.itlb.bit_info(bit)),
            Component::DTlb => tlb_site(self.dtlb.bit_info(bit)),
        };
        InjectionSite {
            component: c,
            bit,
            array,
            was_valid,
        }
    }

    /// Flips one bit of `c`, returning the injection site description.
    ///
    /// If the execution fast path is armed, all of its memoized state
    /// (µop cache + translation latches) is invalidated so that nothing
    /// predating the fault can be replayed across it. This is defense in
    /// depth — the µop `(paddr, raw_word)` key and the revalidated latches
    /// already self-invalidate on corruption — and it is free at
    /// one-flip-per-run campaign rates.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= component_bits(c)`.
    pub fn flip_bit(&mut self, c: Component, bit: u64) -> InjectionSite {
        self.fastpath_invalidate();
        let site = self.site_of(c, bit);
        match c {
            Component::RegFile => self.cpu.regs.flip_bit(bit),
            Component::L1I => _ = self.mem.l1i.flip_bit(bit),
            Component::L1D => _ = self.mem.l1d.flip_bit(bit),
            Component::L2 => _ = self.mem.l2.flip_bit(bit),
            Component::ITlb => _ = self.itlb.flip_bit(bit),
            Component::DTlb => _ = self.dtlb.flip_bit(bit),
        }
        site
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::mem::NullDevice;

    #[test]
    fn paper_config_component_sizes() {
        let sys = System::new(MachineConfig::cortex_a9(), NullDevice);
        // Data-array portions match the paper's quoted sizes.
        assert!(sys.component_bits(Component::L1I) >= 32 * 1024 * 8);
        assert!(sys.component_bits(Component::L2) >= 512 * 1024 * 8);
        assert_eq!(sys.component_bits(Component::ITlb), 4096);
        assert_eq!(sys.component_bits(Component::RegFile), 1536);
        // The paper notes the TLB is 1/64th of an L1 cache's fault target.
        let l1 = 32 * 1024 * 8u64;
        assert_eq!(l1 / 4096, 64);
    }

    #[test]
    fn l2_dominates_modeled_bits() {
        // §V-B: the L2 covers more than 80% of modeled memory cells.
        let sys = System::new(MachineConfig::cortex_a9(), NullDevice);
        let l2 = sys.component_bits(Component::L2) as f64;
        assert!(l2 / sys.total_modeled_bits() as f64 > 0.8);
    }

    #[test]
    fn flip_bit_reaches_every_component() {
        let mut sys = System::new(MachineConfig::cortex_a9(), NullDevice);
        for c in Component::ALL {
            let bits = sys.component_bits(c);
            let site = sys.flip_bit(c, bits - 1);
            assert_eq!(site.component, c);
        }
    }
}
