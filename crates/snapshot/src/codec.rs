//! The snapshot byte codec: a little-endian, length-checked stream with
//! per-struct boundary tags.
//!
//! The format is deliberately dumb — no schema, no field names — because
//! the machine model's save/load pairs live next to each other in the same
//! crate and are exercised by round-trip property tests. The tags exist to
//! turn "writer and reader disagree about layout" into an immediate
//! [`SnapError::Tag`] instead of a silently corrupt machine.

use crate::SnapError;

/// Serializes machine state into a byte stream.
#[derive(Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// A fresh, empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// Finish and take the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Mark a struct boundary with a four-byte tag (e.g. `*b"CPU "`).
    pub fn tag(&mut self, tag: [u8; 4]) {
        self.buf.extend_from_slice(&tag);
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Write a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an f64 by bit pattern (exact round-trip, NaN-safe).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Write raw bytes with no length prefix (fixed-size fields).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Deserializes machine state from a byte stream produced by [`SnapWriter`].
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Read from `buf`, starting at the beginning.
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the whole stream has been consumed — loaders should check
    /// this at the end to catch trailing garbage.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Consume a struct boundary tag, failing on mismatch.
    pub fn tag(&mut self, expected: [u8; 4]) -> Result<(), SnapError> {
        let found: [u8; 4] = self.take(4)?.try_into().unwrap();
        if found != expected {
            return Err(SnapError::Tag { expected, found });
        }
        Ok(())
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool; any byte other than 0/1 is malformed.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Malformed("bool byte out of range")),
        }
    }

    /// Read a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an f64 by bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Read exactly `n` raw bytes (fixed-size fields).
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        self.take(n)
    }
}

/// The save/load contract every checkpointable component implements.
///
/// `load` constructs a fresh value rather than patching an existing one:
/// restore must not depend on whatever state the target happened to hold,
/// and a from-scratch constructor makes "forgot to restore a field"
/// impossible by design.
pub trait Snapshot: Sized {
    /// Append this component's complete state to the stream.
    fn save(&self, w: &mut SnapWriter);

    /// Reconstruct the component from the stream.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

impl Snapshot for u8 {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u8()
    }
}

impl Snapshot for u32 {
    fn save(&self, w: &mut SnapWriter) {
        w.u32(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u32()
    }
}

impl Snapshot for u64 {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u64()
    }
}

impl Snapshot for bool {
    fn save(&self, w: &mut SnapWriter) {
        w.bool(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.bool()
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.u32(self.len() as u32);
        for item in self {
            item.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.u32()? as usize;
        // Guard the pre-allocation: a corrupt length must not reserve
        // more bytes than the stream has left before the per-element reads
        // hit `Truncated`.
        let fits = r.remaining() / std::mem::size_of::<T>().max(1);
        let mut v = Vec::with_capacity(n.min(fits));
        for _ in 0..n {
            v.push(T::load(r)?);
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = SnapWriter::new();
        w.tag(*b"TST ");
        w.u8(0xAB);
        w.bool(true);
        w.u16(0x1234);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.5);
        w.bytes(b"hello");
        let buf = w.into_bytes();
        let mut r = SnapReader::new(&buf);
        r.tag(*b"TST ").unwrap();
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap(), -0.5);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert!(r.is_exhausted());
    }

    #[test]
    fn tag_mismatch_is_loud() {
        let mut w = SnapWriter::new();
        w.tag(*b"AAAA");
        let buf = w.into_bytes();
        let mut r = SnapReader::new(&buf);
        assert_eq!(
            r.tag(*b"BBBB"),
            Err(SnapError::Tag {
                expected: *b"BBBB",
                found: *b"AAAA"
            })
        );
    }

    #[test]
    fn truncation_reports_shortfall() {
        let mut r = SnapReader::new(&[1, 2]);
        assert_eq!(
            r.u32(),
            Err(SnapError::Truncated {
                needed: 4,
                remaining: 2
            })
        );
    }

    #[test]
    fn vec_round_trip_and_bad_bool() {
        let v: Vec<u64> = vec![3, 1, 4, 1, 5];
        let mut w = SnapWriter::new();
        v.save(&mut w);
        let buf = w.into_bytes();
        assert_eq!(Vec::<u64>::load(&mut SnapReader::new(&buf)).unwrap(), v);

        let mut r = SnapReader::new(&[7]);
        assert_eq!(
            r.bool(),
            Err(SnapError::Malformed("bool byte out of range"))
        );
    }

    #[test]
    fn corrupt_vec_length_does_not_overallocate() {
        let mut w = SnapWriter::new();
        w.u32(u32::MAX); // claimed length far beyond the stream
        let buf = w.into_bytes();
        assert!(matches!(
            Vec::<u64>::load(&mut SnapReader::new(&buf)),
            Err(SnapError::Truncated { .. })
        ));
    }
}
