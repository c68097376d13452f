//! Architectural register files and the program status register.

use crate::cache::WatchReport;
use sea_isa::{FReg, Reg};
use std::cell::Cell;

/// Privilege mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Unprivileged (applications).
    User,
    /// Supervisor (kernel, exception handlers).
    Svc,
}

/// The current program status register.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Cpsr {
    /// Negative flag.
    pub n: bool,
    /// Zero flag.
    pub z: bool,
    /// Carry flag.
    pub c: bool,
    /// Overflow flag.
    pub v: bool,
    /// IRQs masked.
    pub irq_off: bool,
    /// Privilege mode.
    pub mode: Mode,
}

impl Cpsr {
    /// Reset state: supervisor mode, IRQs masked, flags clear.
    pub fn reset() -> Cpsr {
        Cpsr {
            n: false,
            z: false,
            c: false,
            v: false,
            irq_off: true,
            mode: Mode::Svc,
        }
    }

    /// Packs into the architectural bit layout (N=31, Z=30, C=29, V=28,
    /// I=7, mode in bits 4..0: `0x10` user / `0x13` svc).
    pub fn to_bits(self) -> u32 {
        (u32::from(self.n) << 31)
            | (u32::from(self.z) << 30)
            | (u32::from(self.c) << 29)
            | (u32::from(self.v) << 28)
            | (u32::from(self.irq_off) << 7)
            | match self.mode {
                Mode::User => 0x10,
                Mode::Svc => 0x13,
            }
    }

    /// Unpacks from bits; any unrecognized mode value degrades to user mode
    /// (a corrupted SPSR cannot escalate privilege).
    pub fn from_bits(bits: u32) -> Cpsr {
        Cpsr {
            n: bits & (1 << 31) != 0,
            z: bits & (1 << 30) != 0,
            c: bits & (1 << 29) != 0,
            v: bits & (1 << 28) != 0,
            irq_off: bits & (1 << 7) != 0,
            mode: if bits & 0x1F == 0x13 {
                Mode::Svc
            } else {
                Mode::User
            },
        }
    }
}

/// Integer + floating-point register files.
///
/// The stack pointer is banked per mode (`sp_usr`/`sp_svc`), as on ARM;
/// all other integer registers are shared. `pc` (`r15`) is held by the CPU,
/// not the file — AR32 forbids it as a data-processing operand.
#[derive(Clone, Debug)]
pub struct RegFile {
    /// Flat storage in [`RegFile::flip_bit`] layout: r0–r12, `sp_usr`,
    /// `sp_svc`, `lr`.
    words: [u32; 16],
    fp: [u32; 32],
    /// Fault-provenance watch: flat word index (layout of [`RegFile::flip_bit`])
    /// holding injected corruption. `Cell` so read paths can stay `&self`.
    watch: Cell<Option<u8>>,
    watch_touched: Cell<bool>,
    watch_dropped: Cell<bool>,
}

/// SRAM bits in the integer + FP register files: 16 × 32 + 32 × 32.
pub const REGFILE_BITS: u64 = (13 + 3) as u64 * 32 + 32 * 32;

impl RegFile {
    /// All registers zeroed.
    pub fn new() -> RegFile {
        RegFile {
            words: [0; 16],
            fp: [0; 32],
            watch: Cell::new(None),
            watch_touched: Cell::new(false),
            watch_dropped: Cell::new(false),
        }
    }

    /// Flat word index (layout of [`RegFile::flip_bit`]) of an integer
    /// register in the given mode. Used by the read horizon to map operand
    /// reads onto register-file words.
    ///
    /// # Panics
    ///
    /// Panics on `pc` — it lives in the CPU, not the register file.
    pub fn word_index(reg: Reg, mode: Mode) -> usize {
        match reg {
            Reg::Pc => panic!("pc is not a register-file operand"),
            Reg::Sp => match mode {
                Mode::User => 13,
                Mode::Svc => 14,
            },
            Reg::Lr => 15,
            r => r.index(),
        }
    }

    fn note_read(&self, word: usize) {
        if self.watch.get() == Some(word as u8) {
            self.watch_touched.set(true);
        }
    }

    fn note_overwrite(&self, word: usize) {
        if self.watch.get() == Some(word as u8) {
            self.watch.set(None);
            self.watch_dropped.set(true);
        }
    }

    /// Reads an integer register in the given mode.
    ///
    /// # Panics
    ///
    /// Panics on `pc` — the CPU must intercept it first.
    pub fn get(&self, reg: Reg, mode: Mode) -> u32 {
        let word = Self::word_index(reg, mode);
        self.note_read(word);
        self.words[word]
    }

    /// Writes an integer register in the given mode.
    ///
    /// # Panics
    ///
    /// Panics on `pc`.
    pub fn set(&mut self, reg: Reg, mode: Mode, value: u32) {
        let word = Self::word_index(reg, mode);
        self.note_overwrite(word);
        self.words[word] = value;
    }

    /// Reads the user-mode stack pointer regardless of current mode
    /// (`MRS rd, SpUsr`).
    pub fn sp_usr(&self) -> u32 {
        self.note_read(13);
        self.words[13]
    }

    /// Writes the user-mode stack pointer (`MSR SpUsr, rn`).
    pub fn set_sp_usr(&mut self, value: u32) {
        self.note_overwrite(13);
        self.words[13] = value;
    }

    /// Reads an FP register.
    pub fn fget(&self, reg: FReg) -> f32 {
        self.note_read(16 + reg.index());
        f32::from_bits(self.fp[reg.index()])
    }

    /// Reads an FP register's raw bits.
    pub fn fget_bits(&self, reg: FReg) -> u32 {
        self.note_read(16 + reg.index());
        self.fp[reg.index()]
    }

    /// Writes an FP register.
    pub fn fset(&mut self, reg: FReg, value: f32) {
        self.note_overwrite(16 + reg.index());
        self.fp[reg.index()] = value.to_bits();
    }

    /// Writes an FP register's raw bits.
    pub fn fset_bits(&mut self, reg: FReg, bits: u32) {
        self.note_overwrite(16 + reg.index());
        self.fp[reg.index()] = bits;
    }

    /// Total SRAM bits modeled in the file.
    pub fn total_bits(&self) -> u64 {
        REGFILE_BITS
    }

    /// Every architectural word in [`RegFile::flip_bit`] layout order
    /// (r0–r12, sp_usr, sp_svc, lr, s0–s31). Unlike [`RegFile::get`], this
    /// does not touch the provenance watch — it exists for state
    /// fingerprinting, which must be a pure observer.
    pub fn words(&self) -> [u32; 48] {
        let mut out = [0u32; 48];
        out[..16].copy_from_slice(&self.words);
        out[16..].copy_from_slice(&self.fp);
        out
    }

    /// Flips one bit. Layout: r0–r12, sp_usr, sp_svc, lr, then s0–s31,
    /// 32 bits each, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= total_bits()`.
    pub fn flip_bit(&mut self, bit: u64) {
        assert!(bit < REGFILE_BITS, "register-file bit index out of range");
        let word = (bit / 32) as usize;
        let mask = 1u32 << (bit % 32);
        match word {
            0..=15 => self.words[word] ^= mask,
            _ => self.fp[word - 16] ^= mask,
        }
    }

    // ----- fault-provenance watch -------------------------------------------

    /// Which flat word a register-file bit index belongs to (same layout as
    /// [`RegFile::flip_bit`]).
    pub fn word_of_bit(bit: u64) -> usize {
        assert!(bit < REGFILE_BITS, "register-file bit index out of range");
        (bit / 32) as usize
    }

    /// Human-readable name of a flat word index (`r0`..`r12`, `sp_usr`,
    /// `sp_svc`, `lr`, `s0`..`s31`).
    pub fn word_name(word: usize) -> String {
        match word {
            0..=12 => format!("r{word}"),
            13 => "sp_usr".to_string(),
            14 => "sp_svc".to_string(),
            15 => "lr".to_string(),
            _ => format!("s{}", word - 16),
        }
    }

    /// Arm the provenance watch on flat `word`. Replaces any previous watch.
    pub fn set_watch(&mut self, word: usize) {
        debug_assert!(word < (REGFILE_BITS / 32) as usize);
        self.watch.set(Some(word as u8));
    }

    /// Disarm the watch and clear pending observations.
    pub fn clear_watch(&mut self) {
        self.watch.set(None);
        self.watch_touched.set(false);
        self.watch_dropped.set(false);
    }

    /// Drain observations accumulated since the last call
    /// (`evicted_writeback` is never set — registers have no write-back).
    pub fn take_watch_report(&mut self) -> WatchReport {
        let rep = WatchReport {
            touched: self.watch_touched.take(),
            evicted_writeback: false,
            evicted_dropped: self.watch_dropped.take(),
            writeback_addr: None,
        };
        if rep.evicted_dropped {
            self.watch.set(None);
        }
        rep
    }
}

impl Default for RegFile {
    fn default() -> Self {
        RegFile::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpsr_roundtrip() {
        let c = Cpsr {
            n: true,
            z: false,
            c: true,
            v: false,
            irq_off: true,
            mode: Mode::Svc,
        };
        assert_eq!(Cpsr::from_bits(c.to_bits()), c);
        let u = Cpsr {
            mode: Mode::User,
            irq_off: false,
            ..c
        };
        assert_eq!(Cpsr::from_bits(u.to_bits()), u);
    }

    #[test]
    fn corrupted_mode_bits_degrade_to_user() {
        let bits = 0x0000_001F; // nonsense mode
        assert_eq!(Cpsr::from_bits(bits).mode, Mode::User);
    }

    #[test]
    fn sp_is_banked_per_mode() {
        let mut rf = RegFile::new();
        rf.set(Reg::Sp, Mode::User, 0x1000);
        rf.set(Reg::Sp, Mode::Svc, 0x2000);
        assert_eq!(rf.get(Reg::Sp, Mode::User), 0x1000);
        assert_eq!(rf.get(Reg::Sp, Mode::Svc), 0x2000);
        assert_eq!(rf.sp_usr(), 0x1000);
    }

    #[test]
    fn flip_bit_layout() {
        let mut rf = RegFile::new();
        rf.flip_bit(0);
        assert_eq!(rf.get(Reg::R0, Mode::User), 1);
        rf.flip_bit(13 * 32 + 4); // sp_usr bit 4
        assert_eq!(rf.sp_usr(), 16);
        rf.flip_bit(16 * 32 + 31); // s0 sign bit
        assert_eq!(rf.fget_bits(FReg::new(0)), 1 << 31);
        assert_eq!(REGFILE_BITS, 1536);
    }

    #[test]
    #[should_panic]
    fn pc_access_panics() {
        RegFile::new().get(Reg::Pc, Mode::User);
    }

    #[test]
    fn snapshot_round_trip_covers_every_word() {
        let mut rf = RegFile::new();
        // Give every flat word a distinct value via the flip_bit layout.
        for word in 0..(REGFILE_BITS / 32) {
            rf.flip_bit(word * 32 + (word % 32));
        }
        let back = rf.clone();
        assert_eq!(back.words, rf.words);
        assert_eq!(back.fp, rf.fp);
    }
}
