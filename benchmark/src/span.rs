//! In-memory spans recorded by the benchmark's own driver around its
//! calls into each layer (choosing-metrics §4): name, start, end, the
//! span that caused it, and the run index it belongs to. Kept in memory
//! and written out once, as Chrome trace JSON, when the traced run ends.
//!
//! Single-threaded by design — the traced replay drives one run at a
//! time — so child spans nest strictly inside their parent and a span's
//! self time is its duration minus its direct children's.

use crate::json::ObjWriter;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span. Times are nanoseconds since the
/// tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.operation`, e.g. `platform.run`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for the root.
    pub parent: Option<usize>,
    /// Campaign run index the span belongs to, when it belongs to one.
    pub run: Option<u64>,
}

/// Per-name totals of a finished trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Σ duration, ns.
    pub total_ns: u64,
    /// Σ (duration − direct children's durations), ns.
    pub self_ns: u64,
}

/// The span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under the innermost open span; close it
    /// with [`Tracer::exit`]. For spans that cover a stretch of a function
    /// rather than one call.
    pub fn enter(&mut self, name: &'static str, run: Option<u64>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
            run,
        });
        self.open.push(id);
        id
    }

    /// Close the span [`Tracer::enter`] returned.
    ///
    /// # Panics
    ///
    /// When `id` is not the innermost open span: spans nest strictly.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`; nested calls through the
    /// tracer handed to `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        run: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.enter(name, run);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Per-name count, total and self time. Self times of all names sum
    /// to the root spans' total duration exactly (integer nanoseconds).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            // A span left open by an early return has no duration.
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete (`"ph":"X"`) event per span, microsecond timestamps.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (k, s) in self.spans.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let mut args = ObjWriter::new();
            args.u64_field("id", k as u64);
            if let Some(p) = s.parent {
                args.u64_field("parent", p as u64);
            }
            if let Some(r) = s.run {
                args.u64_field("run", r);
            }
            let mut e = ObjWriter::new();
            e.str_field("name", s.name)
                .str_field("ph", "X")
                .u64_field("pid", 1)
                .u64_field("tid", 1)
                .f64_field("ts", s.start_ns as f64 / 1e3)
                .f64_field("dur", s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
                .raw_field("args", &args.finish());
            out.push_str(&e.finish());
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            run: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut t = Tracer::new();
        let (root, a) = (0, 1);
        t.spans = vec![
            raw("root", 0, 1_000, None),
            raw("a", 100, 600, Some(root)),
            raw("b", 150, 350, Some(a)),
            raw("b", 400, 500, Some(a)),
            raw("c", 700, 900, Some(root)),
        ];
        let st = t.self_times();
        assert_eq!(st["root"].self_ns, 1_000 - 500 - 200);
        assert_eq!(st["a"].self_ns, 500 - 200 - 100);
        assert_eq!(
            st["b"],
            SelfTime {
                count: 2,
                total_ns: 300,
                self_ns: 300
            }
        );
        assert_eq!(st["c"].self_ns, 200);
        // Grandchildren are charged to their parent only, so the self
        // times partition the root's duration.
        let sum: u64 = st.values().map(|s| s.self_ns).sum();
        assert_eq!(sum, 1_000);
    }

    #[test]
    fn closure_spans_nest_and_carry_run_indices() {
        let mut t = Tracer::new();
        let v = t.span("outer", None, |t| {
            t.span("inner", Some(7), |_| 41) + t.span("inner", Some(8), |_| 1)
        });
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!((s[1].parent, s[1].run), (Some(0), Some(7)));
        assert_eq!((s[2].parent, s[2].run), (Some(0), Some(8)));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let sum: u64 = t.self_times().values().map(|x| x.self_ns).sum();
        assert_eq!(sum, s[0].end_ns - s[0].start_ns);
        assert_eq!(t.durations_s("inner").len(), 2);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let mut t = Tracer::new();
        t.span("a.b", Some(3), |t| t.span("c.d", None, |_| ()));
        let doc = crate::json::parse(&t.chrome_json()).expect("valid JSON");
        let events = match doc.get("traceEvents") {
            Some(crate::json::Json::Arr(a)) => a.clone(),
            other => panic!("traceEvents missing: {other:?}"),
        };
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("name").and_then(|n| n.as_str()), Some("a.b"));
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|p| p.as_u64()),
            Some(0)
        );
    }
}
