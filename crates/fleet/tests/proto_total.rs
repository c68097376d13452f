//! The fleet line protocol reads whatever a socket delivers, so its
//! decoder must be total: arbitrary byte streams through `proto::recv` and
//! on into `ToDaemon::decode` / `ToWorker::decode` never panic, `recv`
//! never holds more than `MAX_LINE` bytes of heap, and decoding a line
//! allocates at most a constant factor of that line's length. Heap use is
//! measured with a counting global allocator, per thread.

use counting_alloc::peak_of;
use proptest::prelude::*;
use sea_fleet::proto::{recv, ToDaemon, ToWorker, MAX_LINE};
use std::io::BufReader;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// What `recv` may hold beyond the line itself: the boxed message of the
/// `io::Error` it returns for a bad line.
const ERROR_SLACK: usize = 256;

/// Decoding builds a JSON tree (32 bytes a value, from as little as two
/// bytes of input) and may re-render part of it (`1e308` prints as 309
/// digits); with vector growth that stays under this factor of the line.
/// The worst line in `adversarial_lines_stay_linear` needs about 101.
const DECODE_FACTOR: usize = 128;

/// Decoding's fixed overhead: error messages and small vectors.
const DECODE_SLACK: usize = 4096;

/// Decode `line` both ways; return the larger heap peak.
fn decode_peak(line: &str) -> usize {
    let (_, a) = peak_of(|| ToDaemon::decode(line));
    let (_, b) = peak_of(|| ToWorker::decode(line));
    a.max(b)
}

/// Read `stream` to its end or first error in `chunk`-byte reads,
/// checking every bound on the way; returns the lines read.
fn drain(stream: &[u8], chunk: usize) -> Vec<String> {
    let mut r = BufReader::with_capacity(chunk, stream);
    let mut lines = Vec::new();
    loop {
        let (got, peak) = peak_of(|| recv(&mut r));
        assert!(
            peak <= MAX_LINE + ERROR_SLACK,
            "recv held {peak} bytes, cap {MAX_LINE}"
        );
        let Ok(Some(line)) = got else {
            return lines;
        };
        assert!(line.len() <= MAX_LINE && !line.contains('\n'));
        let peak = decode_peak(&line);
        assert!(
            peak <= DECODE_FACTOR * line.len() + DECODE_SLACK,
            "decoding a {}-byte line held {peak} bytes",
            line.len()
        );
        lines.push(line);
    }
}

/// Whole messages and fragments of them: random bytes alone would almost
/// never get past the JSON parser into the message decoders.
const PIECES: &[&[u8]] = &[
    b"\n",
    br#"{"op":"hello"}"#,
    br#"{"op":"claim"}"#,
    br#"{"op":"bye"}"#,
    br#"{"op":"exit"}"#,
    br#"{"op":"wait","ms":0}"#,
    br#"{"op":"grant","wl":0,"start":0,"end":64}"#,
    br#"{"op":"done","wl":1,"start":64,"end":128,"obs":[[0,1],[5,3]]}"#,
    br#"{"op":"welcome","shard":2,"dir":"/x","spec":{"scale":"tiny","suite":["CRC32"]}}"#,
    br#"{"op":"telemetry","seq":1,"runs":0,"elapsed_ms":0,"clock_us":0,"counters":{"a":1},"hists":[{"buckets":[[8,2]]}],"health":[0,0,0,0,0],"events":[[1,"{\"ev\":\"x\"}"]]}"#,
    b"{",
    b"}",
    b"[",
    b"]",
    b",",
    b":",
    b"\"",
    b"\\",
    b"\\u00e9",
    b"\\ud800",
    b"1e308",
    b"-0.5",
    b"null",
    br#""op":"#,
    br#""obs":"#,
    b"\xc3",
    b"\xff\xfe",
    b"\r",
];

/// A random run of bytes or, twice as often, one of [`PIECES`].
fn piece() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..12),
        (0..PIECES.len()).prop_map(|k| PIECES[k].to_vec()),
        (0..PIECES.len()).prop_map(|k| PIECES[k].to_vec()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_streams_never_panic_and_stay_bounded(
        pieces in prop::collection::vec(piece(), 0..48),
        // Every fourth stream carries one line at the length cap, either
        // side of it, so the cap itself is exercised.
        long in prop_oneof![Just(0usize), Just(0usize), Just(0usize), MAX_LINE - 2..MAX_LINE + 3],
        fill in any::<u8>(),
        at in any::<prop::sample::Index>(),
        chunk in 1usize..64,
    ) {
        let mut stream: Vec<u8> = Vec::new();
        let split = if pieces.is_empty() { 0 } else { at.index(pieces.len()) };
        for (k, p) in pieces.iter().enumerate() {
            if k == split && long > 0 {
                stream.extend(std::iter::repeat_n(fill, long));
            }
            stream.extend_from_slice(p);
        }
        let lines = drain(&stream, chunk);
        // The read is exact: no lost, merged or invented lines before the
        // first bad one.
        let joined: String = lines.iter().map(|l| format!("{l}\n")).collect();
        prop_assert!(stream.starts_with(joined.as_bytes()));
    }
}

#[test]
fn adversarial_lines_stay_linear() {
    let n = MAX_LINE / 8;
    let lines = [
        // Nesting that would overflow a recursive parser's stack.
        "[".repeat(MAX_LINE),
        // Two input bytes per parsed value.
        format!("[{}0]", "0,".repeat(n)),
        format!("{{{}\"op\":\"claim\"}}", "\"\":0,".repeat(n)),
        // Numbers that render far longer than they parse.
        format!(
            r#"{{"op":"welcome","shard":0,"dir":"","spec":[{}1e308]}}"#,
            "1e308,".repeat(n)
        ),
        format!(
            r#"{{"op":"telemetry","seq":1,"runs":0,"elapsed_ms":0,"clock_us":0,"counters":{{}},"hists":[{}1e308],"health":[0,0,0,0,0],"events":[]}}"#,
            "1e308,".repeat(n)
        ),
        format!(
            r#"{{"op":"done","wl":0,"start":0,"end":1,"obs":[{}[0,0]]}}"#,
            "[0,0],".repeat(n)
        ),
    ];
    for line in lines {
        assert!(line.len() <= MAX_LINE);
        let stream = format!("{line}\n");
        assert_eq!(drain(stream.as_bytes(), 8192), vec![line]);
    }
}
