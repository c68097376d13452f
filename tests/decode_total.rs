//! Two decoders read bytes the process did not write itself: the JSON
//! parser (journal records, observe request bodies, fleet messages) and
//! the `.seaj` scanner (whatever a crash left on disk). Both must be
//! total: arbitrary input never panics, `json::parse` refuses nesting past
//! `json::MAX_DEPTH`, `scan` returns a record prefix of its input, and
//! each holds at most a constant factor of its input length in heap. Heap
//! use is measured with a counting global allocator, per thread.

use counting_alloc::peak_of;
use proptest::prelude::*;
use sea_core::durable::{encode_file_header, encode_record, scan, Scan};
use sea_core::trace::json::{self, Json, MAX_DEPTH};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

/// A parsed value is 32 bytes and a vector starts at four of them, so
/// each `[` — one input byte — can cost 128 bytes; doubling growth adds
/// the rest. The worst document in `adversarial_documents_stay_linear`
/// needs about 63.
const PARSE_FACTOR: usize = 80;

/// A scanned record is a 16-byte slice reference and takes at least 16
/// input bytes; doubling growth at most doubles that.
const SCAN_FACTOR: usize = 2;

/// Fixed overhead: the first small vector or string.
const SLACK: usize = 256;

/// Nesting depth of a parsed value: 0 for a scalar.
fn depth(j: &Json) -> usize {
    match j {
        Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Json::Obj(members) => 1 + members.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

/// Parse `text`, checking every bound; returns the result.
fn parse_checked(text: &str) -> Result<Json, json::ParseError> {
    let (got, peak) = peak_of(|| json::parse(text));
    assert!(
        peak <= PARSE_FACTOR * text.len() + SLACK,
        "parsing {} bytes held {peak} bytes",
        text.len()
    );
    if let Ok(j) = &got {
        assert!(depth(j) <= MAX_DEPTH, "accepted nesting {}", depth(j));
    }
    got
}

/// Scan `bytes`, checking every bound; returns the result.
fn scan_checked(bytes: &[u8]) -> Option<Scan<'_>> {
    let (got, peak) = peak_of(|| scan(bytes));
    assert!(
        peak <= SCAN_FACTOR * bytes.len() + SLACK,
        "scanning {} bytes held {peak} bytes",
        bytes.len()
    );
    let s = got.ok()?;
    // The records are the input's own frames, numbered from 1: encoding
    // them again gives back exactly the valid prefix.
    let mut image = encode_file_header(s.header);
    for (k, r) in s.records.iter().enumerate() {
        image.extend(encode_record(k as u64 + 1, r));
    }
    assert_eq!(
        image,
        &bytes[..s.valid_len],
        "records are not an input prefix"
    );
    assert_eq!(s.valid_len + s.torn_bytes, bytes.len());
    assert_eq!(s.last_seq, s.records.len() as u64);
    Some(s)
}

/// JSON tokens and fragments: random text alone would almost never get
/// past the first byte.
const TOKENS: &[&str] = &[
    "{", "}", "[", "]", ",", ":", "\"", "\\", "\"k\":", "\"\"", "0", "-1.5e3", "1e308", "-",
    "true", "fals", "null", " ", "\n", "\\u00e9", "\\ud800", "\\uzzzz", "\\x", "é", "\u{1}",
];

/// A random run of characters or, twice as often, one of [`TOKENS`].
fn token() -> impl Strategy<Value = String> {
    prop_oneof![
        prop::collection::vec(any::<char>(), 0..4).prop_map(String::from_iter),
        (0..TOKENS.len()).prop_map(|k| TOKENS[k].to_string()),
        (0..TOKENS.len()).prop_map(|k| TOKENS[k].to_string()),
    ]
}

/// A well-formed journal: a header blob and a few records.
fn journal() -> impl Strategy<Value = (Vec<u8>, Vec<Vec<u8>>)> {
    (
        prop::collection::vec(any::<u8>(), 0..48),
        prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..12),
    )
}

fn encode(header: &[u8], records: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = encode_file_header(header);
    for (k, r) in records.iter().enumerate() {
        bytes.extend(encode_record(k as u64 + 1, r));
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_text_parses_or_fails_within_bounds(
        tokens in prop::collection::vec(token(), 0..64),
    ) {
        let _ = parse_checked(&tokens.concat());
    }

    #[test]
    fn nesting_is_refused_exactly_past_the_cap(
        opens in prop::collection::vec(any::<bool>(), 0..MAX_DEPTH + 8),
    ) {
        // `true` opens an array, `false` an object member.
        let mut text = String::new();
        for &array in &opens {
            text.push_str(if array { "[" } else { "{\"k\":" });
        }
        text.push('0');
        for &array in opens.iter().rev() {
            text.push(if array { ']' } else { '}' });
        }
        let got = parse_checked(&text);
        prop_assert_eq!(got.is_ok(), opens.len() <= MAX_DEPTH, "depth {}", opens.len());
    }

    #[test]
    fn arbitrary_bytes_scan_to_a_record_prefix(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        magic in any::<bool>(),
    ) {
        // Half the inputs start with a valid file header, so the scan
        // reaches the records.
        let mut input = if magic { encode_file_header(b"") } else { Vec::new() };
        input.extend(bytes);
        let _ = scan_checked(&input);
    }

    #[test]
    fn a_damaged_journal_scans_to_a_prefix_of_its_records(
        (header, records) in journal(),
        cut in any::<prop::sample::Index>(),
        flip in any::<prop::sample::Index>(),
        mask in 1u8..=255,
        garbage in prop::collection::vec(any::<u8>(), 0..40),
    ) {
        let whole = encode(&header, &records);
        // A crash cut the file and left garbage after the cut.
        let mut torn = whole[..cut.index(whole.len() + 1)].to_vec();
        torn.extend(&garbage);
        if let Some(s) = scan_checked(&torn) {
            prop_assert_eq!(s.header, header.as_slice());
            prop_assert!(records.starts_with(&s.records.iter().map(|r| r.to_vec()).collect::<Vec<_>>()));
        }
        // A bit flip anywhere.
        let mut flipped = whole.clone();
        let at = flip.index(flipped.len());
        flipped[at] ^= mask;
        let _ = scan_checked(&flipped);
    }
}

#[test]
fn adversarial_documents_stay_linear() {
    let n = 4096;
    let deepest = format!(
        "{}0{}",
        "[".repeat(MAX_DEPTH - 1),
        "]".repeat(MAX_DEPTH - 1)
    );
    let documents = [
        // Nesting that would overflow a recursive parser's stack.
        "[".repeat(1 << 16),
        // Two to five input bytes per parsed value.
        format!("[{}0]", "0,".repeat(n)),
        format!("{{{}\"\":0}}", "\"\":0,".repeat(n)),
        format!("[{}\"\"]", "\"a\",".repeat(n)),
        // One 128-byte vector per input byte, as deep as the cap allows.
        format!("[{}{deepest}]", format!("{deepest},").repeat(n / 64)),
        format!(
            "[{}0]",
            format!(
                "{}0{},",
                "{\"\":".repeat(MAX_DEPTH - 1),
                "}".repeat(MAX_DEPTH - 1)
            )
            .repeat(n / 64)
        ),
        // Escapes that shrink, and numbers that overflow.
        format!("\"{}\"", "\\u00e9".repeat(n)),
        format!("[{}1e999]", "1e999,".repeat(n)),
    ];
    for doc in documents {
        let _ = parse_checked(&doc);
    }
    // A frame that claims the largest legal payload but is torn.
    let mut bytes = encode_file_header(b"{}");
    bytes.extend(&(16u32 << 20).to_le_bytes());
    bytes.extend([0u8; 64]);
    let s = scan_checked(&bytes).expect("valid header");
    assert!(s.records.is_empty() && s.torn_bytes == 68);
}
