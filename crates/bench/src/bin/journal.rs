//! `journal` — offline export and audit of `.seaj` files.
//!
//! Every append-only log the campaigns write — outcome journals, beam
//! strike logs and anomaly quarantines — is a crash-consistent `.seaj`
//! file (see README "Durability"). This binary works on those files
//! without running anything:
//!
//! * `journal export FILE` — decode the file to its lossless JSON-Lines
//!   form on stdout: the header line, then one line per valid record.
//! * `journal audit FILE` — print the file's identity header, record
//!   count, valid byte length, and torn-tail state, then exit 0 if the
//!   valid prefix is resumable and 1 if the file is corrupt beyond its
//!   header.
//!
//! Usage: `journal export|audit FILE`

use sea_core::durable;
use std::io::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, path) = match argv.as_slice() {
        [cmd, path] if cmd == "export" || cmd == "audit" => (cmd.as_str(), path),
        _ => {
            eprintln!("usage: journal export|audit FILE");
            return ExitCode::from(2);
        }
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("journal: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match cmd {
        "export" => export(path, &bytes),
        _ => audit(path, &bytes),
    }
}

fn export(path: &str, bytes: &[u8]) -> ExitCode {
    let jsonl = match durable::export_jsonl(bytes) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("journal: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut out = std::io::stdout().lock();
    if out.write_all(&jsonl).is_err() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn audit(path: &str, bytes: &[u8]) -> ExitCode {
    let scan = match durable::scan(bytes) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("journal: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("format:      seaj v{}", durable::SEAJ_VERSION);
    match std::str::from_utf8(scan.header)
        .ok()
        .and_then(|h| sea_core::trace::json::parse(h).ok())
    {
        Some(header) => {
            for key in [
                "journal", "kind", "workload", "seed", "cfg", "golden", "total",
            ] {
                if let Some(v) = header.get(key) {
                    let rendered = v
                        .as_str()
                        .map(str::to_string)
                        .or_else(|| v.as_u64().map(|n| n.to_string()))
                        .unwrap_or_else(|| format!("{v:?}"));
                    println!("{key:<12} {rendered}");
                }
            }
        }
        None => println!("header:      (opaque, {} bytes)", scan.header.len()),
    }
    println!("records:     {}", scan.records.len());
    println!("last seq:    {}", scan.last_seq);
    println!("valid bytes: {}", scan.valid_len);
    println!("torn bytes:  {}", scan.torn_bytes);
    if scan.torn_bytes > 0 {
        println!("state:       torn tail (resume will truncate and continue)");
    } else {
        println!("state:       clean");
    }
    ExitCode::SUCCESS
}
