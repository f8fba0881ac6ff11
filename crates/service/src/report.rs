//! The JSON-lines report stream: every line the daemon sends a client
//! is built here, on top of the shared [`fade_report`] writer — the
//! same writer the bench artifact uses, so the two report shapes
//! cannot drift.
//!
//! Three line types, discriminated by `"type"`:
//!
//! * `violation` — one monitor violation report, streamed as the
//!   session produces it.
//! * `summary` — the end-of-session roll-up: counters, timing
//!   estimate, shadow footprint, and the degradation accounting of a
//!   recovering replay.
//! * `error` — a typed failure; the connection closes after it.
//!
//! Every function here is pure: the integration suite renders the
//! *expected* lines from an in-process [`Session`](fade_system::Session)
//! through these same functions and compares byte-for-byte with what
//! came over the socket.

use fade_report::JsonObject;
use fade_system::{RunReport, ShadowUsage};
use fade_trace::DegradationReport;

/// One streamed violation report.
pub fn violation_line(tenant: &str, seq: u32, text: &str) -> String {
    JsonObject::new()
        .str("type", "violation")
        .str("tenant", tenant)
        .uint("seq", u64::from(seq))
        .str("text", text)
        .render()
}

/// The degradation accounting of a recovering replay, as a nested
/// JSON object (every field of [`DegradationReport`], faults
/// included, so "bit-exact degradation" is checkable on the wire).
pub(crate) fn degradation_json(d: &DegradationReport) -> String {
    let faults: Vec<String> = d
        .faults
        .iter()
        .map(|f| {
            JsonObject::new()
                .uint("offset", f.offset)
                .opt_uint("resumed_at", f.resumed_at)
                .str("error", &f.error.to_string())
                .render()
        })
        .collect();
    JsonObject::new()
        .uint("chunks_skipped", d.chunks_skipped)
        .uint("records_lost", d.records_lost)
        .uint("bytes_skipped", d.bytes_skipped)
        .bool("truncated_tail", d.truncated_tail)
        .bool("trailer_verified", d.trailer_verified)
        .array("faults", &faults)
        .render()
}

/// The end-of-session summary line.
///
/// Deliberately excludes wall-clock quantities ([`RunReport::wall_s`]):
/// every field is a deterministic function of (trace bytes, monitor,
/// config, engine), which is what makes server-vs-in-process
/// byte-equality a meaningful acceptance check.
pub fn summary_line(tenant: &str, engine: &str, report: &RunReport, usage: ShadowUsage) -> String {
    let s = &report.stats;
    let obj = JsonObject::new()
        .str("type", "summary")
        .str("tenant", tenant)
        .str("benchmark", &s.benchmark)
        .str("monitor", &s.monitor)
        .str("engine", engine)
        .uint("events", s.monitored_events)
        .uint("instrs", s.app_instrs)
        .uint("cycles", s.cycles)
        .uint("baseline_cycles", s.baseline_cycles)
        .float("slowdown", s.slowdown(), 3)
        .float("filtering_ratio", s.filtering_ratio(), 4)
        .uint("violations", report.violations.len() as u64)
        .uint(
            "sampling_windows",
            s.sampling.as_ref().map_or(0, |x| x.windows as u64),
        )
        .opt_float(
            "rel_half_width",
            s.sampling.as_ref().and_then(|x| x.rel_half_width),
            4,
        )
        .uint("shadow_bytes", usage.bytes as u64)
        .uint("shadow_full_pages", usage.full_pages as u64);
    match &report.degradation {
        Some(d) => obj.raw("degradation", &degradation_json(d)),
        None => obj.null("degradation"),
    }
    .render()
}

/// A typed failure reply. `kind` is a stable machine-matchable tag
/// (`"shadow_budget"`, `"monitor_panicked"`, …); `detail` is the
/// human-readable cause.
pub(crate) fn error_line(kind: &str, detail: &str) -> String {
    JsonObject::new()
        .str("type", "error")
        .str("error", kind)
        .str("detail", detail)
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_lines_are_one_json_object() {
        assert_eq!(
            error_line("shadow_budget", "cap of 4096 bytes exceeded"),
            r#"{"type": "error", "error": "shadow_budget", "detail": "cap of 4096 bytes exceeded"}"#
        );
    }

    #[test]
    fn violation_lines_escape_monitor_text() {
        let line = violation_line("t0", 3, "leak at 0x10 \"heap\"");
        assert_eq!(
            line,
            r#"{"type": "violation", "tenant": "t0", "seq": 3, "text": "leak at 0x10 \"heap\""}"#
        );
    }

    #[test]
    fn degradation_serializes_every_field() {
        let d = DegradationReport {
            chunks_skipped: 2,
            records_lost: 100,
            bytes_skipped: 512,
            truncated_tail: true,
            trailer_verified: false,
            faults: Vec::new(),
        };
        assert_eq!(
            degradation_json(&d),
            r#"{"chunks_skipped": 2, "records_lost": 100, "bytes_skipped": 512, "truncated_tail": true, "trailer_verified": false, "faults": []}"#
        );
    }
}
