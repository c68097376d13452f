//! The daemon↔worker wire protocol: line-delimited JSON over a local TCP
//! socket.
//!
//! Outcomes never travel the socket — every completed run's verdict line
//! goes straight into the worker's own shard journal, and the daemon only
//! learns *that* a block finished plus its `(stratum, class)` observation
//! pairs (enough to drive live convergence margins without reading any
//! journal). That keeps the protocol tiny, the daemon stateless about
//! verdicts, and the journals the single source of truth the
//! deterministic merge operates on. Observability rides the same socket:
//! workers push throttled [`ToDaemon::Telemetry`] frames (counter deltas,
//! histogram snapshots, recent trace events) that the daemon aggregates
//! into fleet-wide `/metrics`, status documents and stitched traces —
//! best-effort data that never influences scheduling decisions.
//!
//! Framing is one JSON object per `\n`-terminated line in each direction;
//! a closed socket (EOF) is itself a protocol event — the daemon treats
//! it as worker death and requeues every block granted to that shard.
//!
//! Latency model: every message leaves in a single `write` on a socket
//! with `TCP_NODELAY` set, so no message waits for the peer's delayed ACK
//! (with Nagle's algorithm on, a message split across two writes, or two
//! messages sent back to back, stall about 40 ms each). Both sides read
//! through [`recv`], which is total: a line longer than [`MAX_LINE`], a
//! line that is not UTF-8 or one cut off by EOF is an error, never a
//! panic, and nothing is buffered past the cap.

use sea_trace::json::{self, Json, ObjWriter};
use std::io::{BufRead, ErrorKind, Write};

/// Longest line [`recv`] accepts, newline excluded. Real messages stay
/// far below it: the largest, a telemetry frame, relays at most 64 trace
/// events.
pub const MAX_LINE: usize = 1 << 20;

/// Messages a worker sends to the daemon.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ToDaemon {
    /// First message on a fresh connection; answered with `Welcome`.
    Hello,
    /// Ask for a block of injection indices.
    Claim,
    /// A granted block `[start, end)` of workload `wl` is fully executed
    /// and journaled; `obs` carries one `(stratum, class)` pair per run
    /// that produced a classified outcome (anomalies are journaled but
    /// not observed).
    Done {
        /// Suite index of the workload the block belongs to.
        wl: u32,
        /// First injection index of the block.
        start: u64,
        /// One past the last injection index of the block.
        end: u64,
        /// `(stratum, class-index)` per classified run, in index order.
        obs: Vec<(u32, u32)>,
    },
    /// Throttled telemetry push: counter deltas, histogram snapshots,
    /// supervisor-health counters and recent trace-event lines. Fire-and-
    /// forget like `Done` — the daemon aggregates, never replies. Workers
    /// piggyback it on Claim/Done round-trips plus an idle heartbeat, so
    /// losing a frame only delays (never corrupts) the aggregate: counters
    /// travel as deltas and histograms as full snapshots.
    Telemetry {
        /// Frame sequence number within this worker session, from 1.
        seq: u64,
        /// Total runs this worker has executed (absolute, not a delta).
        runs: u64,
        /// Milliseconds this worker has been running.
        elapsed_ms: u64,
        /// Worker's span-clock reading ([`sea_trace::clock_us`]) when the
        /// frame was built; the daemon differences it against its own
        /// clock to shift this worker's trace timestamps when stitching.
        clock_us: u64,
        /// Counter deltas since the previous frame, `(name, delta)`.
        counters: Vec<(String, u64)>,
        /// Histogram snapshots as `HistSnapshot::to_json` documents.
        hists: Vec<String>,
        /// Supervisor health: `[respawns, requeues, watchdog_kills,
        /// quarantined, respawn_backoff_ms]`.
        health: [u64; 5],
        /// Recent trace events as `(worker-local sequence, JSONL line)`;
        /// the sequence is stable across retransmits, so `(shard, seq)`
        /// identifies an event fleet-wide.
        events: Vec<(u64, String)>,
    },
    /// Clean goodbye (journals synced); the daemon frees the shard.
    Bye,
}

/// Messages the daemon sends to a worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ToWorker {
    /// Session setup: the worker's shard number, the study directory it
    /// must create its `shard-<n>/` journal dir under, and the canonical
    /// study-spec document (the worker rebuilds the identical
    /// [`sea_injection::CampaignPlan`] from it).
    Welcome {
        /// Shard number (also the journal subdirectory suffix).
        shard: u32,
        /// Study directory (shard dirs live directly under it).
        dir: String,
        /// Canonical study-spec JSON.
        spec: String,
    },
    /// A block grant: execute indices `[start, end)` of workload `wl`.
    Grant {
        /// Suite index of the workload.
        wl: u32,
        /// First injection index.
        start: u64,
        /// One past the last injection index.
        end: u64,
    },
    /// Nothing to hand out: the daemon held the `claim` (or `hello`) open
    /// for up to its long-poll window and nothing changed. Ask again after
    /// `ms` milliseconds — the daemon sends 0, "at once".
    Wait {
        /// Suggested retry delay.
        ms: u64,
    },
    /// The study is over (or the daemon is shutting down): sync journals,
    /// say `Bye`, exit cleanly.
    Exit,
}

/// Protocol decode error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fleet protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

/// Parse one message line. The parser caps nesting itself
/// ([`json::MAX_DEPTH`]), so a deeply nested line is an error, not a stack
/// overflow on the connection thread.
fn parse_line(line: &str) -> Result<Json, ProtoError> {
    json::parse(line.trim()).map_err(|e| ProtoError(e.to_string()))
}

/// A `[start, end)` range out of a decoded message; `end < start` is
/// malformed rather than something for the receiver to underflow on.
fn range(op: &str, start: u64, end: u64) -> Result<(u64, u64), ProtoError> {
    if end < start {
        return Err(ProtoError(format!("{op}: end {end} before start {start}")));
    }
    Ok((start, end))
}

fn obs_json(obs: &[(u32, u32)]) -> String {
    let mut out = String::from("[");
    for (k, (s, c)) in obs.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{s},{c}]"));
    }
    out.push(']');
    out
}

impl ToDaemon {
    /// Serialize as a single line (without the trailing newline).
    pub fn encode(&self) -> String {
        let mut o = ObjWriter::new();
        match self {
            ToDaemon::Hello => o.str_field("op", "hello"),
            ToDaemon::Claim => o.str_field("op", "claim"),
            ToDaemon::Done {
                wl,
                start,
                end,
                obs,
            } => o
                .str_field("op", "done")
                .u64_field("wl", u64::from(*wl))
                .u64_field("start", *start)
                .u64_field("end", *end)
                .raw_field("obs", &obs_json(obs)),
            ToDaemon::Telemetry {
                seq,
                runs,
                elapsed_ms,
                clock_us,
                counters,
                hists,
                health,
                events,
            } => {
                let mut c = ObjWriter::new();
                for (k, v) in counters {
                    c.u64_field(k, *v);
                }
                let mut h = String::from("[");
                for (k, doc) in hists.iter().enumerate() {
                    if k > 0 {
                        h.push(',');
                    }
                    h.push_str(doc);
                }
                h.push(']');
                let mut hl = String::from("[");
                for (k, v) in health.iter().enumerate() {
                    if k > 0 {
                        hl.push(',');
                    }
                    hl.push_str(&v.to_string());
                }
                hl.push(']');
                let mut ev = String::from("[");
                for (k, (s, line)) in events.iter().enumerate() {
                    if k > 0 {
                        ev.push(',');
                    }
                    ev.push_str(&format!("[{s},"));
                    json::write_escaped(line, &mut ev);
                    ev.push(']');
                }
                ev.push(']');
                o.str_field("op", "telemetry")
                    .u64_field("seq", *seq)
                    .u64_field("runs", *runs)
                    .u64_field("elapsed_ms", *elapsed_ms)
                    .u64_field("clock_us", *clock_us)
                    .raw_field("counters", &c.finish())
                    .raw_field("hists", &h)
                    .raw_field("health", &hl)
                    .raw_field("events", &ev)
            }
            ToDaemon::Bye => o.str_field("op", "bye"),
        };
        o.finish()
    }

    /// Parse one line.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on malformed JSON or an unknown/incomplete message.
    pub fn decode(line: &str) -> Result<ToDaemon, ProtoError> {
        let j = parse_line(line)?;
        let op = j
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtoError("missing op".into()))?;
        match op {
            "hello" => Ok(ToDaemon::Hello),
            "claim" => Ok(ToDaemon::Claim),
            "bye" => Ok(ToDaemon::Bye),
            "done" => {
                let field = |k: &str| {
                    j.get(k)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| ProtoError(format!("done: bad '{k}'")))
                };
                let obs = match j.get("obs") {
                    Some(Json::Arr(pairs)) => {
                        let mut out = Vec::with_capacity(pairs.len());
                        for p in pairs {
                            let Json::Arr(sc) = p else {
                                return Err(ProtoError("done: obs pair not an array".into()));
                            };
                            let s = sc.first().and_then(Json::as_u64);
                            let c = sc.get(1).and_then(Json::as_u64);
                            match (s, c) {
                                (Some(s), Some(c)) => out.push((s as u32, c as u32)),
                                _ => return Err(ProtoError("done: bad obs pair".into())),
                            }
                        }
                        out
                    }
                    _ => return Err(ProtoError("done: missing obs".into())),
                };
                let (start, end) = range("done", field("start")?, field("end")?)?;
                Ok(ToDaemon::Done {
                    wl: field("wl")? as u32,
                    start,
                    end,
                    obs,
                })
            }
            "telemetry" => {
                let field = |k: &str| {
                    j.get(k)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| ProtoError(format!("telemetry: bad '{k}'")))
                };
                let counters = match j.get("counters") {
                    Some(Json::Obj(members)) => {
                        let mut out = Vec::with_capacity(members.len());
                        for (k, v) in members {
                            let v = v
                                .as_u64()
                                .ok_or_else(|| ProtoError("telemetry: bad counter".into()))?;
                            out.push((k.clone(), v));
                        }
                        out
                    }
                    _ => return Err(ProtoError("telemetry: missing counters".into())),
                };
                let hists = match j.get("hists") {
                    // Snapshot docs are integer-only, so re-rendering the
                    // parsed value reproduces the sender's bytes.
                    Some(Json::Arr(docs)) => docs.iter().map(json::render).collect(),
                    _ => return Err(ProtoError("telemetry: missing hists".into())),
                };
                let health = match j.get("health") {
                    Some(Json::Arr(vals)) if vals.len() == 5 => {
                        let mut out = [0u64; 5];
                        for (i, v) in vals.iter().enumerate() {
                            out[i] = v
                                .as_u64()
                                .ok_or_else(|| ProtoError("telemetry: bad health".into()))?;
                        }
                        out
                    }
                    _ => return Err(ProtoError("telemetry: missing health".into())),
                };
                let events = match j.get("events") {
                    Some(Json::Arr(pairs)) => {
                        let mut out = Vec::with_capacity(pairs.len());
                        for p in pairs {
                            let Json::Arr(sl) = p else {
                                return Err(ProtoError(
                                    "telemetry: event pair not an array".into(),
                                ));
                            };
                            let s = sl.first().and_then(Json::as_u64);
                            let line = sl.get(1).and_then(Json::as_str);
                            match (s, line) {
                                (Some(s), Some(line)) => out.push((s, line.to_string())),
                                _ => return Err(ProtoError("telemetry: bad event pair".into())),
                            }
                        }
                        out
                    }
                    _ => return Err(ProtoError("telemetry: missing events".into())),
                };
                Ok(ToDaemon::Telemetry {
                    seq: field("seq")?,
                    runs: field("runs")?,
                    elapsed_ms: field("elapsed_ms")?,
                    clock_us: field("clock_us")?,
                    counters,
                    hists,
                    health,
                    events,
                })
            }
            other => Err(ProtoError(format!("unknown worker op '{other}'"))),
        }
    }
}

impl ToWorker {
    /// Serialize as a single line (without the trailing newline).
    pub fn encode(&self) -> String {
        let mut o = ObjWriter::new();
        match self {
            ToWorker::Welcome { shard, dir, spec } => o
                .str_field("op", "welcome")
                .u64_field("shard", u64::from(*shard))
                .str_field("dir", dir)
                .raw_field("spec", spec),
            ToWorker::Grant { wl, start, end } => o
                .str_field("op", "grant")
                .u64_field("wl", u64::from(*wl))
                .u64_field("start", *start)
                .u64_field("end", *end),
            ToWorker::Wait { ms } => o.str_field("op", "wait").u64_field("ms", *ms),
            ToWorker::Exit => o.str_field("op", "exit"),
        };
        o.finish()
    }

    /// Parse one line.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on malformed JSON or an unknown/incomplete message.
    pub fn decode(line: &str) -> Result<ToWorker, ProtoError> {
        let j = parse_line(line)?;
        let op = j
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtoError("missing op".into()))?;
        let field = |k: &str| {
            j.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| ProtoError(format!("{op}: bad '{k}'")))
        };
        match op {
            "welcome" => {
                let spec = j
                    .get("spec")
                    .ok_or_else(|| ProtoError("welcome: missing spec".into()))?;
                // Re-render the spec object to pass it on as text. The
                // worker re-parses it through StudySpec::from_json and uses
                // *that* canonical rendering for identity, so this interim
                // rendering only has to be valid JSON, not canonical.
                Ok(ToWorker::Welcome {
                    shard: field("shard")? as u32,
                    dir: j
                        .get("dir")
                        .and_then(Json::as_str)
                        .ok_or_else(|| ProtoError("welcome: bad 'dir'".into()))?
                        .to_string(),
                    spec: json::render(spec),
                })
            }
            "grant" => {
                let (start, end) = range("grant", field("start")?, field("end")?)?;
                Ok(ToWorker::Grant {
                    wl: field("wl")? as u32,
                    start,
                    end,
                })
            }
            "wait" => Ok(ToWorker::Wait { ms: field("ms")? }),
            "exit" => Ok(ToWorker::Exit),
            other => Err(ProtoError(format!("unknown daemon op '{other}'"))),
        }
    }
}

/// Write one message line to a stream: line and newline in a single
/// write, then flush. Two writes would let Nagle's algorithm hold the
/// newline back until the peer's delayed ACK.
///
/// # Errors
///
/// Propagates the underlying I/O error (a dead peer).
pub fn send(w: &mut impl Write, line: &str) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(line.len() + 1);
    frame.extend_from_slice(line.as_bytes());
    frame.push(b'\n');
    w.write_all(&frame)?;
    w.flush()
}

/// Read one message line (newline stripped) from a buffered stream.
/// `Ok(None)` is clean EOF.
///
/// # Errors
///
/// The underlying I/O error; [`ErrorKind::InvalidData`] for a line longer
/// than [`MAX_LINE`] or not UTF-8; [`ErrorKind::UnexpectedEof`] for a
/// final line without its newline.
pub fn recv(r: &mut impl BufRead) -> std::io::Result<Option<String>> {
    recv_capped(r, MAX_LINE)
}

/// [`recv`] with the line cap as a parameter. The line buffer never holds
/// more than `cap` bytes: its capacity grows geometrically but is clamped
/// to the cap, and an over-long line is refused before it is copied.
fn recv_capped(r: &mut impl BufRead, cap: usize) -> std::io::Result<Option<String>> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let chunk = match r.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            if line.is_empty() {
                return Ok(None);
            }
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "fleet protocol line cut off by EOF",
            ));
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let body = &chunk[..newline.unwrap_or(chunk.len())];
        let want = line.len() + body.len();
        if want > cap {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                "fleet protocol line over the length cap",
            ));
        }
        if want > line.capacity() {
            line.reserve_exact(want.max(2 * line.capacity()).min(cap) - line.len());
        }
        line.extend_from_slice(body);
        let used = body.len() + usize::from(newline.is_some());
        r.consume(used);
        if newline.is_some() {
            break;
        }
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| std::io::Error::new(ErrorKind::InvalidData, "fleet protocol line not UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_messages_round_trip() {
        let msgs = [
            ToDaemon::Hello,
            ToDaemon::Claim,
            ToDaemon::Done {
                wl: 3,
                start: 128,
                end: 192,
                obs: vec![(0, 1), (5, 3), (2, 0)],
            },
            ToDaemon::Done {
                wl: 0,
                start: 0,
                end: 1,
                obs: vec![],
            },
            ToDaemon::Telemetry {
                seq: 4,
                runs: 96,
                elapsed_ms: 1500,
                clock_us: 2_000_017,
                counters: vec![
                    ("fleet.worker_runs".to_string(), 64),
                    ("injection.supervisor_respawns".to_string(), 1),
                ],
                hists: vec![
                    r#"{"name":"inject.run_sim_cycles","count":2,"sum":300,"max":200,"buckets":[[8,2]]}"#
                        .to_string(),
                ],
                health: [1, 2, 0, 0, 250],
                events: vec![
                    (7, r#"{"ev":"fleet.block","sub":"harness","runs":8}"#.to_string()),
                    (8, "not json, still framed \"safely\"".to_string()),
                ],
            },
            ToDaemon::Telemetry {
                seq: 1,
                runs: 0,
                elapsed_ms: 0,
                clock_us: 0,
                counters: vec![],
                hists: vec![],
                health: [0; 5],
                events: vec![],
            },
            ToDaemon::Bye,
        ];
        for m in msgs {
            assert_eq!(ToDaemon::decode(&m.encode()).unwrap(), m, "{m:?}");
        }
    }

    #[test]
    fn daemon_messages_round_trip() {
        let msgs = [
            ToWorker::Welcome {
                shard: 2,
                dir: "/tmp/fleet/0123456789abcdef".to_string(),
                spec: r#"{"scale":"tiny","suite":["MatMul"]}"#.to_string(),
            },
            ToWorker::Grant {
                wl: 1,
                start: 64,
                end: 128,
            },
            ToWorker::Wait { ms: 200 },
            ToWorker::Exit,
        ];
        for m in msgs {
            assert_eq!(ToWorker::decode(&m.encode()).unwrap(), m, "{m:?}");
        }
    }

    #[test]
    fn malformed_lines_are_rejected_not_panics() {
        for bad in [
            "",
            "nope",
            "{}",
            r#"{"op":"launch"}"#,
            r#"{"op":"done","wl":1}"#,
            r#"{"op":"done","wl":1,"start":0,"end":4,"obs":[[1]]}"#,
            r#"{"op":"grant","wl":0,"start":0}"#,
            r#"{"op":"telemetry","seq":1}"#,
            r#"{"op":"telemetry","seq":1,"runs":0,"elapsed_ms":0,"clock_us":0,"counters":{},"hists":[],"health":[1,2],"events":[]}"#,
            r#"{"op":"telemetry","seq":1,"runs":0,"elapsed_ms":0,"clock_us":0,"counters":{},"hists":[],"health":[0,0,0,0,0],"events":[[3]]}"#,
        ] {
            assert!(ToDaemon::decode(bad).is_err() || ToWorker::decode(bad).is_err());
        }
        assert!(ToDaemon::decode(r#"{"op":"grant","wl":0,"start":0,"end":1}"#).is_err());
        // Backwards ranges would underflow the receiver's block arithmetic.
        assert!(ToWorker::decode(r#"{"op":"grant","wl":0,"start":5,"end":4}"#).is_err());
        assert!(ToDaemon::decode(r#"{"op":"done","wl":0,"start":5,"end":4,"obs":[]}"#).is_err());
    }

    #[test]
    fn deep_nesting_is_refused_before_the_recursive_parser() {
        let deep = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
        assert!(ToDaemon::decode(&deep).is_err());
        assert!(ToWorker::decode(&deep).is_err());
        // Brackets inside strings (escaped quotes included) do not count.
        let quoted = format!(r#"{{"op":"claim","x":"\"{}"}}"#, "[".repeat(100));
        assert_eq!(ToDaemon::decode(&quoted).unwrap(), ToDaemon::Claim);
        let nested = format!(
            r#"{{"op":"claim","x":{}1{}}}"#,
            "[".repeat(31),
            "]".repeat(31)
        );
        assert_eq!(ToDaemon::decode(&nested).unwrap(), ToDaemon::Claim);
    }

    /// A `Write` that records how many `write` calls it saw.
    #[derive(Default)]
    struct CountingWrite {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn send_makes_exactly_one_write_per_message() {
        let mut w = CountingWrite::default();
        let msgs = [
            ToDaemon::Claim.encode(),
            ToWorker::Grant {
                wl: 0,
                start: 0,
                end: 64,
            }
            .encode(),
            String::new(),
        ];
        for (k, m) in msgs.iter().enumerate() {
            send(&mut w, m).unwrap();
            assert_eq!(w.writes, k + 1, "one write for {m:?}");
        }
        let wire: String = msgs.iter().map(|m| format!("{m}\n")).collect();
        assert_eq!(w.bytes, wire.as_bytes());
    }

    #[test]
    fn recv_is_total_and_bounded() {
        use std::io::BufReader;
        let read_all = |bytes: &[u8], cap: usize, chunk: usize| {
            let mut r = BufReader::with_capacity(chunk, bytes);
            let mut out = Vec::new();
            loop {
                match recv_capped(&mut r, cap) {
                    Ok(Some(line)) => out.push(line),
                    Ok(None) => return Ok(out),
                    Err(e) => return Err(e.kind()),
                }
            }
        };
        for chunk in [1, 3, 8192] {
            assert_eq!(
                read_all(b"ab\n\ncd\n", 4, chunk),
                Ok(vec!["ab".into(), String::new(), "cd".into()])
            );
            assert_eq!(read_all(b"abcd\n", 4, chunk), Ok(vec!["abcd".into()]));
            assert_eq!(read_all(b"abcde\n", 4, chunk), Err(ErrorKind::InvalidData));
            assert_eq!(read_all(b"abcdefgh", 4, chunk), Err(ErrorKind::InvalidData));
            assert_eq!(read_all(b"ab\xff\n", 4, chunk), Err(ErrorKind::InvalidData));
            assert_eq!(read_all(b"ok\nab", 4, chunk), Err(ErrorKind::UnexpectedEof));
            assert_eq!(read_all(b"", 4, chunk), Ok(vec![]));
        }
    }

    #[test]
    fn framing_survives_a_socket_pair() {
        use std::io::BufReader;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (sock, _) = listener.accept().unwrap();
            let mut r = BufReader::new(sock.try_clone().unwrap());
            let mut w = sock;
            let line = recv(&mut r).unwrap().unwrap();
            assert_eq!(ToDaemon::decode(&line).unwrap(), ToDaemon::Hello);
            send(&mut w, &ToWorker::Wait { ms: 7 }.encode()).unwrap();
            assert!(recv(&mut r).unwrap().is_none(), "clean EOF");
        });
        let sock = std::net::TcpStream::connect(addr).unwrap();
        let mut r = BufReader::new(sock.try_clone().unwrap());
        let mut w = sock;
        send(&mut w, &ToDaemon::Hello.encode()).unwrap();
        let line = recv(&mut r).unwrap().unwrap();
        assert_eq!(ToWorker::decode(&line).unwrap(), ToWorker::Wait { ms: 7 });
        drop((r, w));
        t.join().unwrap();
    }
}
