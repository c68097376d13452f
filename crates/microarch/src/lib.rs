//! # sea-microarch — cycle-level full-system model of an ARM-class core
//!
//! This crate is SEA's substitute for the paper's gem5 detailed Cortex-A9
//! model: a from-scratch microarchitectural simulator for the AR32 ISA with
//! all the SRAM state the paper's fault-injection campaigns target —
//! L1 instruction/data caches, a unified L2, instruction/data TLBs and the
//! physical register file — plus an MMU with a hardware page-table walker,
//! a bimodal branch predictor, privilege levels, exceptions/IRQs, and a
//! memory-mapped device window.
//!
//! Two execution modes mirror gem5's CPU models (paper Table I):
//! [`ExecMode::Atomic`] (functional) and [`ExecMode::Detailed`]
//! (microarchitectural, the mode every injection campaign runs in).
//!
//! The fault-injection surface is [`Component`] + [`System::flip_bit`]:
//! every SRAM bit of the six target arrays is addressable and flips the
//! exact modeled cell (data, tag, or state).
//!
//! # Example
//!
//! ```
//! use sea_microarch::{MachineConfig, NullDevice, System, Component};
//!
//! let sys = System::new(MachineConfig::cortex_a9(), NullDevice);
//! // The L2 dominates the chip's SRAM, as in the paper.
//! let l2 = sys.component_bits(Component::L2);
//! assert!(l2 > sys.total_modeled_bits() * 8 / 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod counters;
mod exception;
mod fastpath;
mod fault;
mod horizon;
mod mem;
mod memsys;
mod mmu;
mod profiler;
mod provenance;
mod regfile;
mod system;
mod tlb;

pub use cache::{ArrayKind, Cache, FlipInfo, Probe, WatchReport};
pub use config::{CacheConfig, ExecMode, Latencies, MachineConfig};
pub use counters::Counters;
pub use exception::{
    AbortCause, Exception, ESR_CLASS_DATA_ABORT, ESR_CLASS_IRQ, ESR_CLASS_PREFETCH_ABORT,
    ESR_CLASS_SVC, ESR_CLASS_UNDEFINED, VECTOR_BASE,
};
pub use fastpath::{FastPathConfig, FastPathStats};
pub use fault::{Component, InjectionSite};
pub use horizon::{DeadCell, ReadHorizon};
pub use mem::{Device, NullDevice, PhysMemory, DEVICE_BASE};
pub use memsys::MemSystem;
pub use mmu::{
    decode_pte, l1_entry, l1_entry_addr, l2_entry_addr, pte, split_vaddr, PteView, L1_ENTRIES,
    L2_ENTRIES, PAGE_BYTES, PAGE_SHIFT, PTE_EXEC, PTE_USER, PTE_VALID, PTE_WRITE,
};
pub use provenance::{FaultProbe, Hop, HopKind, Residence, RunEnd};
pub use regfile::{Cpsr, Mode, RegFile, REGFILE_BITS};
pub use system::{Cpu, StepOutcome, System, WarpConfig};
pub use tlb::{Tlb, TlbEntry};
