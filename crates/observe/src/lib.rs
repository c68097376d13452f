//! # sea-observe — live campaign observability over embedded HTTP
//!
//! The paper's statistical methodology converges toward a stated error
//! margin (§IV-C, Table IV), yet every observability surface grown so far
//! (JSONL traces, Chrome exports, the Prometheus file snapshot) is
//! post-hoc. This crate makes the run-state *live*: campaigns opt in with
//! `--serve <addr>` and a zero-dependency HTTP server (std `TcpListener`,
//! bounded worker threads, graceful drain on shutdown) exposes
//!
//! * `GET /healthz` — liveness probe;
//! * `GET /metrics` — Prometheus text exposition pulled on demand from
//!   the registered metrics provider (complementing `sea-profile`'s
//!   throttled file flush);
//! * `GET /status` — JSON: progress, work-weighted ETA, worker health and
//!   per-(structure, failure-class) running AVF estimates with
//!   `adjusted_error_margin` confidence intervals;
//! * `GET /events` — Server-Sent-Events tail of the `sea-trace` ring;
//! * `GET /journal/tail?lines=N` — the last lines of the outcome journal;
//! * `POST /studies`, `GET /studies`, `GET /studies/{id}`,
//!   `GET /studies/{id}/journal` — study submission, listing, status, and
//!   merged-journal download, delegated to whatever [`StudyApi`] backend is
//!   published (the `sea-fleet` daemon).
//!
//! The design substitutes DrSEUs' central results database with an
//! embedded pull surface: the campaign stays the single process, observers
//! poll it, and — the hard invariant shared with checkpointing, profiling
//! and the fast path — serving never perturbs the experiment. Providers
//! are read-only closures over the campaign's atomics; with `--serve` on,
//! the outcome journal is byte-identical to a serverless run (held by
//! `tests/observe.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod http;
mod hub;
mod tail;

pub use http::{read_request, serve, served_addr, shutdown, Server, MAX_BODY, MAX_REQUEST};
pub use hub::{
    journal_path, metrics_document, publish_journal, publish_metrics, publish_status,
    publish_studies, status_document, studies_api, tail_sink, Provider, StudyApi,
};
pub use tail::TailSink;
