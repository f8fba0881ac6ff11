//! # fade-report
//!
//! The one JSON writer shared by everything in this repository that
//! emits JSON: the `reproduce_all` bench artifact
//! (`BENCH_pipeline.json`) and the `faded` service's JSON-lines report
//! stream. One writer means the two report shapes cannot drift — a row
//! rendered by the daemon and a row rendered by the bench harness go
//! through the same escaping and the same number formatting.
//!
//! The writer is deliberately *not* a serde: every emitter in this
//! repo builds flat objects with explicitly chosen float precision
//! (rates at `{:.0}`, ratios at `{:.3}`/`{:.4}`), because the artifact
//! is diffed across PRs and format stability is part of its contract.
//! [`JsonObject`] makes that precision explicit per field.
//!
//! # Example
//!
//! ```
//! use fade_report::JsonObject;
//!
//! let row = JsonObject::new()
//!     .str("benchmark", "hmmer")
//!     .uint("events", 200_000)
//!     .float("speedup", 4.5678, 3)
//!     .opt_float("rel_half_width", None, 4)
//!     .render();
//! assert_eq!(
//!     row,
//!     r#"{"benchmark": "hmmer", "events": 200000, "speedup": 4.568, "rel_half_width": null}"#
//! );
//! ```

use std::fmt::Write as _;

/// Escapes `s` for use inside a JSON string literal.
///
/// Handles the two mandatory escapes (`"` and `\`), the common control
/// characters by name, and the rest of the C0 range as `\u00XX` —
/// everything else (UTF-8 included) passes through verbatim, which is
/// valid JSON.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A flat JSON object under construction: fields append in call order,
/// floats carry an explicit decimal count, and [`JsonObject::render`]
/// produces the compact one-line `{"k": v, ...}` form used both for
/// artifact rows and for service report lines.
#[derive(Clone, Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    fn key(&mut self, key: &str) {
        if !self.buf.is_empty() {
            self.buf.push_str(", ");
        }
        let _ = write!(self.buf, "\"{}\": ", escape(key));
    }

    /// A string field (escaped).
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        let _ = write!(self.buf, "\"{}\"", escape(value));
        self
    }

    /// An unsigned integer field.
    pub fn uint(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// A boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// A float field rendered with exactly `decimals` fractional
    /// digits (`decimals == 0` renders an integer-looking literal,
    /// the artifact's convention for event rates).
    pub fn float(mut self, key: &str, value: f64, decimals: usize) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{value:.decimals$}");
        self
    }

    /// An optional float: `null` when absent, else as [`JsonObject::float`].
    pub fn opt_float(self, key: &str, value: Option<f64>, decimals: usize) -> Self {
        match value {
            Some(v) => self.float(key, v, decimals),
            None => self.null(key),
        }
    }

    /// An optional unsigned integer: `null` when absent.
    pub fn opt_uint(self, key: &str, value: Option<u64>) -> Self {
        match value {
            Some(v) => self.uint(key, v),
            None => self.null(key),
        }
    }

    /// An explicit `null` field.
    pub fn null(mut self, key: &str) -> Self {
        self.key(key);
        self.buf.push_str("null");
        self
    }

    /// An array field of pre-rendered JSON values (typically
    /// [`JsonObject::render`] outputs), joined inline.
    pub fn array(mut self, key: &str, values: &[String]) -> Self {
        self.key(key);
        self.buf.push('[');
        self.buf.push_str(&values.join(", "));
        self.buf.push(']');
        self
    }

    /// A nested pre-rendered JSON value (object, array, or literal)
    /// embedded verbatim — the caller guarantees it is valid JSON.
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.buf.push_str(value);
        self
    }

    /// The compact `{"k": v, ...}` rendering.
    pub fn render(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// The top-level `BENCH_pipeline.json` document: a schema tag plus
/// named row sections, rendered in the stable indented layout the
/// artifact has carried since v1 (rows one per line, four-space
/// indent) so cross-PR diffs stay line-oriented.
#[derive(Clone, Debug)]
pub struct JsonDocument {
    schema: String,
    sections: Vec<(String, Vec<String>)>,
}

impl JsonDocument {
    /// A document with the given schema tag.
    pub fn new(schema: impl Into<String>) -> Self {
        JsonDocument {
            schema: schema.into(),
            sections: Vec::new(),
        }
    }

    /// Appends a named section of pre-rendered rows.
    pub fn section(mut self, name: impl Into<String>, rows: Vec<String>) -> Self {
        self.sections.push((name.into(), rows));
        self
    }

    /// Renders the full document (trailing newline included).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\n  \"schema\": \"{}\"", escape(&self.schema));
        for (name, rows) in &self.sections {
            let _ = write!(out, ",\n  \"{}\": [\n", escape(name));
            let indented: Vec<String> = rows.iter().map(|r| format!("    {r}")).collect();
            out.push_str(&indented.join(",\n"));
            out.push_str("\n  ]");
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape("x\ny\t"), "x\\ny\\t");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("péché"), "péché");
    }

    #[test]
    fn field_order_and_precision_are_explicit() {
        let row = JsonObject::new()
            .str("name", "gcc")
            .uint("n", 7)
            .bool("ok", true)
            .float("rate", 1234.567, 0)
            .float("ratio", 0.123456, 4)
            .opt_float("ci", Some(0.05), 4)
            .opt_float("missing", None, 4)
            .render();
        assert_eq!(
            row,
            r#"{"name": "gcc", "n": 7, "ok": true, "rate": 1235, "ratio": 0.1235, "ci": 0.0500, "missing": null}"#
        );
    }

    #[test]
    fn arrays_and_raw_nest_prerendered_values() {
        let inner = JsonObject::new().uint("offset", 0).render();
        let row = JsonObject::new()
            .array("faults", &[inner.clone(), inner])
            .raw("degradation", "null")
            .render();
        assert_eq!(
            row,
            r#"{"faults": [{"offset": 0}, {"offset": 0}], "degradation": null}"#
        );
    }

    #[test]
    fn document_renders_the_stable_artifact_layout() {
        let doc = JsonDocument::new("fade-pipeline-throughput/v8")
            .section("results", vec!["{\"a\": 1}".to_string(), "{\"b\": 2}".to_string()])
            .render();
        assert_eq!(
            doc,
            "{\n  \"schema\": \"fade-pipeline-throughput/v8\",\n  \"results\": [\n    {\"a\": 1},\n    {\"b\": 2}\n  ]\n}\n"
        );
    }
}
