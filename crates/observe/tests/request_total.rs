//! The observability server parses whatever a socket delivers, so
//! `read_request` must be total: arbitrary byte streams never panic it, a
//! body it returns holds at most `MAX_BODY` bytes, and it never buffers
//! more than `MAX_REQUEST` plus one 512-byte read of head, whether or not
//! the stream ever carries the `\r\n\r\n` that ends a head.

use proptest::prelude::*;
use sea_observe::{read_request, MAX_BODY, MAX_REQUEST};
use std::io::{self, Read};

/// Most a head may take off the wire: `MAX_REQUEST`, then one more read.
const HEAD_BOUND: usize = MAX_REQUEST + 512;

/// Request fragments: random bytes alone would almost never form a request
/// line, a `Content-Length` header or a head terminator.
const PIECES: &[&[u8]] = &[
    b"GET /status HTTP/1.1\r\n",
    b"POST /studies HTTP/1.1\r\n",
    b"Content-Length: 300\r\n",
    b"Content-Length: 1048576\r\n",
    b"content-length:1048577\r\n",
    b"Content-Length: 18446744073709551616\r\n",
    b"\r\n\r\n",
    b"\r",
    b"\n",
    b" ",
];

/// A socket serving `bytes`, then the `tail` byte forever (`None`: the
/// peer closes, or resets when `reset`), in reads of `sizes` bytes.
struct Wire {
    bytes: Vec<u8>,
    tail: Option<u8>,
    reset: bool,
    sizes: Vec<usize>,
    /// Bytes handed to the parser so far.
    consumed: usize,
}

impl Wire {
    fn byte_at(&self, i: usize) -> Option<u8> {
        self.bytes.get(i).copied().or(self.tail)
    }
}

impl Read for Wire {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let want = self.sizes[self.consumed % self.sizes.len()].min(buf.len());
        let n = (0..want)
            .map_while(|k| self.byte_at(self.consumed + k))
            .count();
        if n == 0 && self.reset {
            return Err(io::Error::other("connection reset"));
        }
        for (k, b) in buf[..n].iter_mut().enumerate() {
            *b = self.byte_at(self.consumed + k).unwrap();
        }
        self.consumed += n;
        Ok(n)
    }
}

/// Fragments, random bytes and 3,000-byte fillers, back to back.
fn items() -> impl Strategy<Value = Vec<u8>> {
    let item = (
        0..PIECES.len() + 2,
        prop::collection::vec(any::<u8>(), 0..48),
    );
    prop::collection::vec(item, 0..12).prop_map(|items| {
        let filler = [b'x'; 3_000];
        let pick = |(k, random): &(usize, Vec<u8>)| match PIECES.get(*k) {
            Some(piece) => piece.to_vec(),
            None if *k == PIECES.len() => random.clone(),
            None => filler.to_vec(),
        };
        items.iter().flat_map(pick).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn any_byte_stream_parses_or_is_refused_within_bounds(
        (mut bytes, terminated, body) in (items(), any::<bool>(), items()),
        (tail, reset) in (0usize..4, any::<bool>()),
        sizes in prop::collection::vec(1usize..612, 1..4),
    ) {
        if terminated {
            bytes.extend_from_slice(b"\r\n\r\n");
        }
        bytes.extend_from_slice(&body);
        let tail = b"a\r\n".get(tail).copied();
        let mut wire = Wire { bytes, tail, reset, sizes, consumed: 0 };
        // Does the stream run past what a head may buffer, unterminated?
        let prefix: Vec<u8> = (0..=HEAD_BOUND).map_while(|i| wire.byte_at(i)).collect();
        let unterminated = prefix.len() > HEAD_BOUND
            && !prefix[..HEAD_BOUND].windows(4).any(|w| w == b"\r\n\r\n");

        let got = read_request(&mut wire);
        if unterminated {
            prop_assert!(got.is_none(), "an unterminated head was accepted");
            prop_assert!(wire.consumed <= HEAD_BOUND, "buffered {} bytes of head", wire.consumed);
        }
        let body = got.map_or(MAX_BODY, |(_, _, body)| body.len());
        prop_assert!(body <= MAX_BODY, "a {}-byte body", body);
        // Past the head, reading stops within one read of the body.
        prop_assert!(wire.consumed <= HEAD_BOUND + body + 512, "read {} bytes", wire.consumed);
    }
}
