//! Minimal HTTP/1.1 server on std `TcpListener`: an accept thread feeds a
//! bounded pool of worker threads through a condvar queue. Shutdown is
//! graceful — queued and in-flight connections are drained before the
//! workers exit, so a `/status` poll racing campaign completion still gets
//! its response.

use crate::hub;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Worker threads per server: enough for a few concurrent pollers plus an
/// SSE stream without letting observers compete with campaign workers.
const WORKERS: usize = 4;

/// Per-connection socket timeouts: a stuck observer must not pin a worker.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// `/events` poll interval against the tail ring.
const SSE_POLL: Duration = Duration::from_millis(50);

/// Largest request head we will buffer before giving up on a client.
pub const MAX_REQUEST: usize = 8 * 1024;

/// Largest request body (`POST /studies` specs) we will accept.
pub const MAX_BODY: usize = 1 << 20;

type ConnQueue = (Mutex<VecDeque<TcpStream>>, Condvar);

/// A running observability server. Most callers use the process-wide
/// [`serve`]/[`shutdown`] pair; `Server` itself exists so tests can run
/// isolated instances on ephemeral ports.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// the accept and worker threads.
    pub fn start(addr: &str) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let queue: Arc<ConnQueue> = Arc::new((Mutex::new(VecDeque::new()), Condvar::new()));

        let accept = {
            let stop = stop.clone();
            let queue = queue.clone();
            thread::Builder::new()
                .name("observe-accept".into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        if let Ok(c) = conn {
                            queue
                                .0
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .push_back(c);
                            queue.1.notify_one();
                        }
                    }
                })
                .expect("spawn observe-accept")
        };

        let workers = (0..WORKERS)
            .map(|i| {
                let stop = stop.clone();
                let queue = queue.clone();
                thread::Builder::new()
                    .name(format!("observe-worker-{i}"))
                    .spawn(move || worker_loop(&queue, &stop))
                    .expect("spawn observe-worker")
            })
            .collect();

        Ok(Server {
            addr,
            stop,
            accept,
            workers,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain queued and in-flight connections, and join
    /// every thread.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection; it checks
        // the stop flag before queueing.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

fn worker_loop(queue: &ConnQueue, stop: &AtomicBool) {
    loop {
        let conn = {
            let mut q = queue.0.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(c) = q.pop_front() {
                    break Some(c);
                }
                if stop.load(Ordering::Acquire) {
                    break None;
                }
                // Re-check the stop flag at least once a second in case a
                // notification raced the flag store.
                let (guard, _) = queue
                    .1
                    .wait_timeout(q, Duration::from_secs(1))
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
        };
        match conn {
            Some(c) => handle(c, stop),
            None => return,
        }
    }
}

fn handle(mut stream: TcpStream, stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let Some((method, target, req_body)) = read_request(&mut stream) else {
        return;
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target.as_str(), ""),
    };
    match (method.as_str(), path) {
        ("GET", "/healthz") => respond(&mut stream, "200 OK", "text/plain", b"ok\n"),
        ("GET", "/metrics") => respond(
            &mut stream,
            "200 OK",
            "text/plain; version=0.0.4",
            hub::metrics_document().as_bytes(),
        ),
        ("GET", "/status") => respond(
            &mut stream,
            "200 OK",
            "application/json",
            hub::status_document().as_bytes(),
        ),
        ("GET", "/journal/tail") => journal_tail(&mut stream, query),
        ("GET", "/events") => sse(stream, stop),
        ("POST", "/studies") => studies_submit(&mut stream, &req_body),
        ("GET", "/studies") => studies_list(&mut stream),
        ("GET", p) if p.starts_with("/studies/") => studies_get(&mut stream, p),
        ("GET", _) => respond(&mut stream, "404 Not Found", "text/plain", b"not found\n"),
        _ => respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            b"GET only (POST /studies)\n",
        ),
    }
}

/// `POST /studies`: hand the body to the published [`hub::StudyApi`].
fn studies_submit(stream: &mut TcpStream, req_body: &[u8]) {
    let Some(api) = hub::studies_api() else {
        respond(
            stream,
            "404 Not Found",
            "text/plain",
            b"no study backend published\n",
        );
        return;
    };
    let spec = String::from_utf8_lossy(req_body);
    match api.submit(spec.trim()) {
        Ok(doc) => respond(stream, "200 OK", "application/json", doc.as_bytes()),
        Err(why) => {
            let mut msg = why;
            msg.push('\n');
            respond(stream, "400 Bad Request", "text/plain", msg.as_bytes());
        }
    }
}

/// `GET /studies`: the backend's summary array.
fn studies_list(stream: &mut TcpStream) {
    match hub::studies_api() {
        Some(api) => respond(stream, "200 OK", "application/json", api.list().as_bytes()),
        None => respond(
            stream,
            "404 Not Found",
            "text/plain",
            b"no study backend published\n",
        ),
    }
}

/// `GET /studies/{id}`, `GET /studies/{id}/journal` and
/// `GET /studies/{id}/trace`.
fn studies_get(stream: &mut TcpStream, path: &str) {
    let Some(api) = hub::studies_api() else {
        respond(
            stream,
            "404 Not Found",
            "text/plain",
            b"no study backend published\n",
        );
        return;
    };
    let rest = &path["/studies/".len()..];
    if let Some(id) = rest.strip_suffix("/journal") {
        match api
            .journal(id)
            .and_then(|p| std::fs::read(&p).map_err(|e| format!("journal unreadable: {e}")))
        {
            Ok(bytes) => respond(stream, "200 OK", "application/octet-stream", &bytes),
            Err(why) => {
                let mut msg = why;
                msg.push('\n');
                respond(stream, "404 Not Found", "text/plain", msg.as_bytes());
            }
        }
        return;
    }
    if let Some(id) = rest.strip_suffix("/trace") {
        match api.trace(id) {
            Some(doc) => respond(stream, "200 OK", "application/json", doc.as_bytes()),
            None => respond(
                stream,
                "404 Not Found",
                "text/plain",
                b"no trace for this study\n",
            ),
        }
        return;
    }
    match api.status(rest) {
        Some(doc) => respond(stream, "200 OK", "application/json", doc.as_bytes()),
        None => respond(stream, "404 Not Found", "text/plain", b"unknown study\n"),
    }
}

fn journal_tail(stream: &mut TcpStream, query: &str) {
    let lines = query
        .split('&')
        .find_map(|kv| kv.strip_prefix("lines="))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(20)
        .max(1);
    let Some(path) = hub::journal_path() else {
        respond(
            stream,
            "404 Not Found",
            "text/plain",
            b"no journal published\n",
        );
        return;
    };
    match std::fs::read(&path) {
        Ok(bytes) => {
            // Binary `.seaj` journals are decoded to their lossless JSONL
            // form first (magic-sniffed, so a `--journal-format jsonl`
            // journal — or any plain-text file — is served as-is).
            let text = if bytes.starts_with(&sea_durable::SEAJ_MAGIC) {
                match sea_durable::export_jsonl(&bytes) {
                    Ok(jsonl) => String::from_utf8_lossy(&jsonl).into_owned(),
                    Err(_) => {
                        respond(
                            stream,
                            "500 Internal Server Error",
                            "text/plain",
                            b"journal corrupt\n",
                        );
                        return;
                    }
                }
            } else {
                String::from_utf8_lossy(&bytes).into_owned()
            };
            let all: Vec<&str> = text.lines().collect();
            let start = all.len().saturating_sub(lines);
            let mut body = all[start..].join("\n");
            if !body.is_empty() {
                body.push('\n');
            }
            respond(stream, "200 OK", "application/jsonl", body.as_bytes());
        }
        Err(_) => respond(
            stream,
            "500 Internal Server Error",
            "text/plain",
            b"journal unreadable\n",
        ),
    }
}

/// Server-Sent-Events tail: replays the ring backlog, then streams new
/// events until the client goes away or the server stops. Idle periods
/// send comment heartbeats so dead clients are detected.
fn sse(mut stream: TcpStream, stop: &AtomicBool) {
    let head = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        return;
    }
    let tail = hub::tail_sink();
    let mut from = 0u64;
    let mut idle_polls = 0u32;
    while !stop.load(Ordering::Acquire) {
        let (next, items) = tail.since(from, 256);
        from = next;
        if items.is_empty() {
            idle_polls += 1;
            // ~1 s of idle polls between heartbeats.
            if idle_polls >= 20 {
                idle_polls = 0;
                if stream.write_all(b": ping\n\n").is_err() || stream.flush().is_err() {
                    return;
                }
            }
            thread::sleep(SSE_POLL);
            continue;
        }
        idle_polls = 0;
        let mut buf = String::with_capacity(items.len() * 180);
        for (seq, line) in &items {
            use std::fmt::Write as _;
            let _ = write!(buf, "id: {seq}\ndata: {line}\n\n");
        }
        if stream.write_all(buf.as_bytes()).is_err() || stream.flush().is_err() {
            return;
        }
    }
}

/// Reads one request off `stream`: its method, target and body. `None`
/// for anything that is not a request line followed by a head of at most
/// [`MAX_REQUEST`] bytes and a body of at most [`MAX_BODY`].
pub fn read_request(stream: &mut impl Read) -> Option<(String, String, Vec<u8>)> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let head_end = loop {
        if let Some(at) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break at + 4;
        }
        if buf.len() > MAX_REQUEST {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break buf.len(),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    };
    let text = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let first = text.lines().next()?;
    let mut parts = first.split_whitespace();
    let method = parts.next()?.to_string();
    let target = parts.next()?.to_string();
    // Read the declared body (POST /studies specs); bodies beyond MAX_BODY
    // are rejected rather than buffered.
    let content_length = text
        .lines()
        .skip(1)
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse::<usize>().ok())?
        })
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return None;
    }
    let mut req_body = buf[head_end.min(buf.len())..].to_vec();
    while req_body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => req_body.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    }
    req_body.truncate(content_length);
    Some((method, target, req_body))
}

fn respond(stream: &mut TcpStream, status: &str, ctype: &str, body: &[u8]) {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body);
    let _ = stream.flush();
}

static ACTIVE: Mutex<Option<Server>> = Mutex::new(None);

/// Start (or reuse) the process-wide server. A second call while one is
/// running returns the existing bound address — suites that loop over
/// workloads share one server for the whole run.
pub fn serve(addr: &str) -> std::io::Result<SocketAddr> {
    let mut active = ACTIVE.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(s) = active.as_ref() {
        return Ok(s.addr());
    }
    let s = Server::start(addr)?;
    let bound = s.addr();
    *active = Some(s);
    Ok(bound)
}

/// Address of the process-wide server, if one is running.
pub fn served_addr() -> Option<SocketAddr> {
    ACTIVE
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .map(Server::addr)
}

/// Stop the process-wide server, draining in-flight responses. No-op when
/// none is running.
pub fn shutdown() {
    let s = ACTIVE.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(s) = s {
        s.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    fn get(addr: SocketAddr, target: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "GET {target} HTTP/1.1\r\nHost: sea\r\n\r\n").unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        out
    }

    fn body(resp: &str) -> &str {
        resp.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("")
    }

    #[test]
    fn healthz_and_404_and_method() {
        let srv = Server::start("127.0.0.1:0").unwrap();
        let addr = srv.addr();
        let ok = get(addr, "/healthz");
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
        assert_eq!(body(&ok), "ok\n");
        assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));

        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "POST /status HTTP/1.1\r\n\r\n").unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 405"), "{out}");
        srv.shutdown();
    }

    #[test]
    fn status_metrics_and_journal_follow_the_hub() {
        let _guard = sea_trace::test_lock();
        let srv = Server::start("127.0.0.1:0").unwrap();
        let addr = srv.addr();

        hub::publish_status(Some(StdArc::new(|| {
            "{\"state\":\"running\",\"done\":3}".into()
        })));
        hub::publish_metrics(Some(StdArc::new(|| "sea_campaign_runs_done 3\n".into())));
        let path = std::env::temp_dir().join(format!("sea_observe_j_{}.jsonl", std::process::id()));
        std::fs::write(&path, "{\"i\":0}\n{\"i\":1}\n{\"i\":2}\n").unwrap();
        hub::publish_journal(Some(&path));

        let st = get(addr, "/status");
        assert!(st.contains("application/json"), "{st}");
        let parsed = sea_trace::json::parse(body(&st).trim()).unwrap();
        assert_eq!(parsed.get("done").unwrap().as_u64(), Some(3));

        let m = get(addr, "/metrics");
        assert!(body(&m).contains("sea_campaign_runs_done 3"), "{m}");

        let j = get(addr, "/journal/tail?lines=2");
        assert_eq!(body(&j), "{\"i\":1}\n{\"i\":2}\n");
        let all = get(addr, "/journal/tail");
        assert_eq!(body(&all).lines().count(), 3);

        hub::publish_status(None);
        hub::publish_metrics(None);
        hub::publish_journal(None);
        let idle = get(addr, "/status");
        assert_eq!(body(&idle), "{\"state\":\"idle\"}");
        assert!(get(addr, "/journal/tail").starts_with("HTTP/1.1 404"));
        let _ = std::fs::remove_file(&path);
        srv.shutdown();
    }

    #[test]
    fn journal_tail_decodes_binary_seaj_records() {
        let _guard = sea_trace::test_lock();
        let srv = Server::start("127.0.0.1:0").unwrap();
        let addr = srv.addr();

        let path = std::env::temp_dir().join(format!("sea_observe_j_{}.seaj", std::process::id()));
        let mut bytes = sea_durable::encode_file_header(b"{\"journal\":\"sea\"}");
        for (seq, line) in [(1u64, "{\"i\":0}"), (2, "{\"i\":1}"), (3, "{\"i\":2}")] {
            bytes.extend_from_slice(&sea_durable::encode_record(seq, line.as_bytes()));
        }
        // A torn tail must not break serving: the valid prefix is decoded.
        bytes.extend_from_slice(&7u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        hub::publish_journal(Some(&path));

        let j = get(addr, "/journal/tail?lines=2");
        assert!(j.starts_with("HTTP/1.1 200"), "{j}");
        assert_eq!(body(&j), "{\"i\":1}\n{\"i\":2}\n");
        let all = get(addr, "/journal/tail");
        assert_eq!(body(&all).lines().count(), 4); // header line + 3 records

        hub::publish_journal(None);
        let _ = std::fs::remove_file(&path);
        srv.shutdown();
    }

    struct MockStudies {
        journal: std::path::PathBuf,
    }

    impl hub::StudyApi for MockStudies {
        fn submit(&self, spec_json: &str) -> Result<String, String> {
            let j = sea_trace::json::parse(spec_json).map_err(|e| format!("bad spec: {e}"))?;
            match j.get("samples").and_then(sea_trace::json::Json::as_u64) {
                Some(n) => Ok(format!("{{\"id\":\"s{n}\",\"state\":\"queued\"}}")),
                None => Err("spec missing samples".to_string()),
            }
        }
        fn list(&self) -> String {
            "[{\"id\":\"s8\"}]".to_string()
        }
        fn status(&self, id: &str) -> Option<String> {
            (id == "s8").then(|| "{\"id\":\"s8\",\"state\":\"running\"}".to_string())
        }
        fn journal(&self, id: &str) -> Result<std::path::PathBuf, String> {
            if id == "s8" {
                Ok(self.journal.clone())
            } else {
                Err(format!("unknown study {id}"))
            }
        }
        fn trace(&self, id: &str) -> Option<String> {
            (id == "s8").then(|| "{\"traceEvents\":[]}".to_string())
        }
    }

    fn post(addr: SocketAddr, target: &str, payload: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(
            s,
            "POST {target} HTTP/1.1\r\nHost: sea\r\nContent-Length: {}\r\n\r\n{payload}",
            payload.len()
        )
        .unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        out
    }

    #[test]
    fn studies_routes_delegate_to_the_published_backend() {
        let _guard = sea_trace::test_lock();
        let srv = Server::start("127.0.0.1:0").unwrap();
        let addr = srv.addr();

        // Without a backend, every /studies route 404s (including POST).
        hub::publish_studies(None);
        assert!(get(addr, "/studies").starts_with("HTTP/1.1 404"));
        assert!(post(addr, "/studies", "{}").starts_with("HTTP/1.1 404"));

        let journal =
            std::env::temp_dir().join(format!("sea_observe_m_{}.seaj", std::process::id()));
        std::fs::write(&journal, b"merged-bytes").unwrap();
        hub::publish_studies(Some(StdArc::new(MockStudies {
            journal: journal.clone(),
        })));

        let ok = post(addr, "/studies", "{\"samples\":8}");
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
        assert!(body(&ok).contains("\"id\":\"s8\""), "{ok}");
        let bad = post(addr, "/studies", "{\"nope\":1}");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");

        let list = get(addr, "/studies");
        assert!(list.starts_with("HTTP/1.1 200"), "{list}");
        assert!(body(&list).starts_with("["), "{list}");

        let st = get(addr, "/studies/s8");
        assert!(st.contains("\"state\":\"running\""), "{st}");
        assert!(get(addr, "/studies/zz").starts_with("HTTP/1.1 404"));

        let dl = get(addr, "/studies/s8/journal");
        assert!(dl.starts_with("HTTP/1.1 200"), "{dl}");
        assert!(dl.contains("application/octet-stream"), "{dl}");
        assert_eq!(body(&dl), "merged-bytes");
        assert!(get(addr, "/studies/zz/journal").starts_with("HTTP/1.1 404"));

        let tr = get(addr, "/studies/s8/trace");
        assert!(tr.starts_with("HTTP/1.1 200"), "{tr}");
        assert!(body(&tr).contains("traceEvents"), "{tr}");
        assert!(get(addr, "/studies/zz/trace").starts_with("HTTP/1.1 404"));

        // Non-studies POSTs stay rejected.
        let m = post(addr, "/status", "{}");
        assert!(m.starts_with("HTTP/1.1 405"), "{m}");

        hub::publish_studies(None);
        let _ = std::fs::remove_file(&journal);
        srv.shutdown();
    }

    #[test]
    fn sse_streams_ring_events_and_shutdown_unblocks() {
        let srv = Server::start("127.0.0.1:0").unwrap();
        let addr = srv.addr();
        let tail = hub::tail_sink();
        use sea_trace::{Event, Level, Sink, Subsystem};
        tail.record(&[
            Event::new(Subsystem::Harness, Level::Info, "observe.sse_test").field("k", 7u64),
        ]);

        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        write!(s, "GET /events HTTP/1.1\r\n\r\n").unwrap();
        let mut got = String::new();
        let mut chunk = [0u8; 1024];
        for _ in 0..50 {
            match s.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => got.push_str(&String::from_utf8_lossy(&chunk[..n])),
                Err(_) => {}
            }
            if got.contains("observe.sse_test") {
                break;
            }
        }
        assert!(got.contains("data: "), "{got}");
        assert!(got.contains("observe.sse_test"), "{got}");
        // Shutdown must terminate the still-open SSE worker.
        srv.shutdown();
    }

    #[test]
    fn global_registry_reuses_and_stops() {
        // The registry is process-wide; serialize with other global users.
        let _guard = sea_trace::test_lock();
        shutdown();
        let a = serve("127.0.0.1:0").unwrap();
        let b = serve("127.0.0.1:0").unwrap();
        assert_eq!(a, b, "second serve() reuses the running server");
        assert_eq!(served_addr(), Some(a));
        let ok = get(a, "/healthz");
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
        shutdown();
        assert_eq!(served_addr(), None);
        shutdown(); // idempotent
    }
}
