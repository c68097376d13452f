//! Process-wide registry connecting campaigns (producers) to the HTTP
//! server (consumer). Campaigns publish read-only provider closures; the
//! server pulls documents on demand, so observation never blocks the
//! experiment beyond a snapshot of its atomics.

use crate::tail::TailSink;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// A document provider: called per HTTP request, must be cheap and
/// read-only with respect to the campaign.
pub type Provider = Arc<dyn Fn() -> String + Send + Sync>;

static STATUS: Mutex<Option<Provider>> = Mutex::new(None);
static METRICS: Mutex<Option<Provider>> = Mutex::new(None);
static JOURNAL: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Register (or clear) the `/status` JSON provider.
pub fn publish_status(p: Option<Provider>) {
    *STATUS.lock().unwrap_or_else(|e| e.into_inner()) = p;
}

/// Register (or clear) the `/metrics` Prometheus-text provider.
pub fn publish_metrics(p: Option<Provider>) {
    *METRICS.lock().unwrap_or_else(|e| e.into_inner()) = p;
}

/// Register (or clear) the journal file served by `/journal/tail`.
pub fn publish_journal(path: Option<&Path>) {
    *JOURNAL.lock().unwrap_or_else(|e| e.into_inner()) = path.map(Path::to_path_buf);
}

/// The currently published journal path, if any.
pub fn journal_path() -> Option<PathBuf> {
    JOURNAL.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Render the `/status` document: the provider's output, or an idle
/// placeholder when no campaign has registered yet.
pub fn status_document() -> String {
    let p = STATUS.lock().unwrap_or_else(|e| e.into_inner()).clone();
    match p {
        Some(p) => p(),
        None => "{\"state\":\"idle\"}".to_string(),
    }
}

/// Render the `/metrics` document: the provider's output, or an empty
/// exposition (a lone comment) when no campaign has registered yet.
pub fn metrics_document() -> String {
    let p = METRICS.lock().unwrap_or_else(|e| e.into_inner()).clone();
    match p {
        Some(p) => p(),
        None => "# no campaign registered\n".to_string(),
    }
}

/// A study-submission backend (the fleet daemon): the server delegates the
/// `/studies` routes to whatever implementation is published here, keeping
/// this crate free of any fleet dependency. Implementations must be cheap
/// and internally synchronized — calls arrive on server worker threads.
pub trait StudyApi: Send + Sync {
    /// Submit a study spec (the request body, JSON). Returns the study's
    /// acknowledgment document (`{"id":...,"state":...}`) or a
    /// human-readable rejection.
    ///
    /// # Errors
    ///
    /// The rejection message is served as a 400 response body.
    fn submit(&self, spec_json: &str) -> Result<String, String>;
    /// JSON array summarizing every known study.
    fn list(&self) -> String;
    /// Full JSON status document for one study, `None` when unknown.
    fn status(&self, id: &str) -> Option<String>;
    /// Path of the merged journal for a completed study.
    ///
    /// # Errors
    ///
    /// A message explaining why no journal is servable (unknown id, study
    /// still running); served as a 404 response body.
    fn journal(&self, id: &str) -> Result<PathBuf, String>;
    /// Stitched Chrome trace-event JSON for one study's workers, `None`
    /// when the id is unknown or the backend collects no telemetry. The
    /// default implementation serves nothing, so backends that predate
    /// fleet telemetry need no change.
    fn trace(&self, id: &str) -> Option<String> {
        let _ = id;
        None
    }
}

static STUDIES: Mutex<Option<Arc<dyn StudyApi>>> = Mutex::new(None);

/// Register (or clear) the `/studies` backend.
pub fn publish_studies(api: Option<Arc<dyn StudyApi>>) {
    *STUDIES.lock().unwrap_or_else(|e| e.into_inner()) = api;
}

/// The currently published `/studies` backend, if any.
pub fn studies_api() -> Option<Arc<dyn StudyApi>> {
    STUDIES.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// The shared event-tail ring. The first caller creates it; campaigns
/// include it in their sink [`sea_trace::Tee`] so `/events` sees the
/// same stream as the JSONL trace.
pub fn tail_sink() -> Arc<TailSink> {
    static TAIL: OnceLock<Arc<TailSink>> = OnceLock::new();
    TAIL.get_or_init(|| Arc::new(TailSink::default())).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_then_providers_then_cleared() {
        // Serialize against other tests that touch the global hub.
        let _guard = sea_trace::test_lock();
        publish_status(None);
        publish_metrics(None);
        publish_journal(None);

        assert_eq!(status_document(), "{\"state\":\"idle\"}");
        assert!(metrics_document().starts_with('#'));
        assert!(journal_path().is_none());

        publish_status(Some(Arc::new(|| "{\"state\":\"running\"}".to_string())));
        publish_metrics(Some(Arc::new(|| "sea_up 1\n".to_string())));
        publish_journal(Some(Path::new("/tmp/x.seaj")));
        assert_eq!(status_document(), "{\"state\":\"running\"}");
        assert_eq!(metrics_document(), "sea_up 1\n");
        assert_eq!(journal_path().unwrap(), Path::new("/tmp/x.seaj"));

        publish_status(None);
        publish_metrics(None);
        publish_journal(None);
        assert_eq!(status_document(), "{\"state\":\"idle\"}");
    }

    #[test]
    fn tail_sink_is_shared() {
        assert!(Arc::ptr_eq(&tail_sink(), &tail_sink()));
    }
}
