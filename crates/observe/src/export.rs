//! Hand-rolled JSONL export of a telemetry run.
//!
//! One JSON object per line, written to
//! `target/experiments/telemetry/<run>.jsonl` (relative to the working
//! directory, matching where the bench harness puts its reports). Every
//! line after the run header carries the actor scope it came from:
//!
//! ```text
//! {"type":"run","run":"sweep","unix_ms":1754480000000}
//! {"type":"phase","scope":"coordinator","phase":"encode","seq":0}
//! {"type":"train_epoch","scope":"coordinator","model":"autoencoder","epoch":8,"loss":0.41,"lr":0.001,"rows":4096}
//! {"type":"comm","scope":"silo0","dir":"up","kind":"LatentUpload","bytes":16396}
//! {"type":"wire","scope":"silo0","op":"send","link":0,"dir":"up","kind":"LatentUpload","bytes":16396,"lamport":3,"at_ns":1200456}
//! {"type":"span","scope":"silo0","path":"fit/latent-train","calls":1,"total_s":1.24,"mean_s":1.24,"max_s":1.24}
//! {"type":"counter","scope":"coordinator","name":"nn.adam.steps","value":1200}
//! {"type":"gauge","scope":"coordinator","name":"train.loss.final","value":0.31}
//! {"type":"histogram","scope":"silo0","name":"comm.bytes.LatentUpload.up","count":4,"sum":65584,"nan":0,"p50":32768,"p90":32768,"p99":32768}
//! ```
//!
//! Per scope, events appear in arrival order, then the span tree, then
//! metrics. The merged causal trace is exported separately by
//! [`crate::trace::write_trace_jsonl`] as `<run>.trace.jsonl`.

use crate::events::Event;
use crate::scope::TelemetryHub;
use crate::{Telemetry, TrainEvent};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// Directory JSONL files land in, relative to the working directory.
pub const TELEMETRY_DIR: &str = "target/experiments/telemetry";

/// Serializes every scope of `hub` to
/// `target/experiments/telemetry/<run>.jsonl` and returns the written
/// path.
///
/// The file is written to a `.tmp` sibling and atomically renamed into
/// place, so a crash mid-export never leaves a truncated, unparseable
/// telemetry file — at worst the previous complete export survives.
pub fn write_jsonl_hub(hub: &TelemetryHub) -> std::io::Result<PathBuf> {
    let dir = Path::new(TELEMETRY_DIR);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.jsonl", sanitize(hub.run())));
    let tmp = path.with_extension("jsonl.tmp");
    std::fs::write(&tmp, render_jsonl_hub(hub))?;
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

/// The full JSONL document for a single scope (one object per line).
pub fn render_jsonl(telemetry: &Telemetry) -> String {
    let mut out = String::new();
    render_run_line(telemetry.run(), &mut out);
    render_scope(telemetry, &mut out);
    out
}

/// The full JSONL document for every scope of `hub`, default scope
/// first, then the others in creation order.
pub fn render_jsonl_hub(hub: &TelemetryHub) -> String {
    let mut out = String::new();
    render_run_line(hub.run(), &mut out);
    for scope in hub.scopes() {
        render_scope(&scope, &mut out);
    }
    out
}

fn render_run_line(run: &str, out: &mut String) {
    let unix_ms = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis()).unwrap_or(0);
    let _ = writeln!(out, "{{\"type\":\"run\",\"run\":{},\"unix_ms\":{unix_ms}}}", json_str(run));
}

fn render_scope(telemetry: &Telemetry, out: &mut String) {
    let scope = json_str(telemetry.actor());
    for event in telemetry.events() {
        match event {
            Event::Phase(p) => {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"phase\",\"scope\":{scope},\"phase\":{},\"seq\":{}}}",
                    json_str(p.phase),
                    p.seq,
                );
            }
            Event::Train(TrainEvent::Epoch { model, epoch, loss, lr, rows }) => {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"train_epoch\",\"scope\":{scope},\"model\":{},\"epoch\":{epoch},\
                     \"loss\":{},\"lr\":{},\"rows\":{rows}}}",
                    json_str(model),
                    json_num(loss),
                    json_num(lr),
                );
            }
            Event::Comm(c) => {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"comm\",\"scope\":{scope},\"dir\":{},\"kind\":{},\"bytes\":{}}}",
                    json_str(c.direction.as_str()),
                    json_str(c.msg_kind),
                    c.bytes,
                );
            }
            Event::Wire(w) => {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"wire\",\"scope\":{scope},\"op\":{},\"link\":{},\"dir\":{},\
                     \"kind\":{},\"bytes\":{},\"lamport\":{},\"at_ns\":{}}}",
                    json_str(w.op.as_str()),
                    w.link,
                    json_str(w.direction.as_str()),
                    json_str(w.msg_kind),
                    w.bytes,
                    w.lamport,
                    w.at_nanos,
                );
            }
        }
    }
    for row in telemetry.span_rows() {
        let _ = writeln!(
            out,
            "{{\"type\":\"span\",\"scope\":{scope},\"path\":{},\"calls\":{},\
             \"total_s\":{},\"mean_s\":{},\"max_s\":{}}}",
            json_str(&row.path),
            row.stat.calls,
            json_num(row.stat.total.as_secs_f64()),
            json_num(row.stat.mean().as_secs_f64()),
            json_num(row.stat.max.as_secs_f64()),
        );
    }
    let metrics = telemetry.metrics();
    for (name, value) in metrics.counters() {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"scope\":{scope},\"name\":{},\"value\":{value}}}",
            json_str(&name),
        );
    }
    for (name, value) in metrics.gauges() {
        let _ = writeln!(
            out,
            "{{\"type\":\"gauge\",\"scope\":{scope},\"name\":{},\"value\":{}}}",
            json_str(&name),
            json_num(value),
        );
    }
    for (name, hist) in metrics.histograms() {
        let _ = writeln!(
            out,
            "{{\"type\":\"histogram\",\"scope\":{scope},\"name\":{},\"count\":{},\"sum\":{},\
             \"nan\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
            json_str(&name),
            hist.count(),
            json_num(hist.sum()),
            hist.nan_count(),
            json_num(hist.quantile(0.5)),
            json_num(hist.quantile(0.9)),
            json_num(hist.quantile(0.99)),
        );
    }
}

/// JSON string literal (quotes included) with minimal escaping.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// JSON number; non-finite values become `null`.
pub(crate) fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Keeps run names filesystem-safe.
pub(crate) fn sanitize(run: &str) -> String {
    run.chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') { c } else { '-' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{WireEvent, WireOp};
    use crate::{CommEvent, Direction, PhaseEvent};
    use std::time::Duration;

    #[test]
    fn renders_one_valid_looking_object_per_line() {
        let t = Telemetry::new("unit \"run\"");
        t.phase(&PhaseEvent { phase: "encode", seq: 0 });
        t.train(&TrainEvent::Epoch { model: "ae", epoch: 2, loss: 0.5, lr: 1e-3, rows: 64 });
        t.comm(&CommEvent { direction: Direction::Up, msg_kind: "Ack", bytes: 1 });
        t.record_span("fit", Duration::from_millis(250));
        t.metrics().counter("steps").add(7);
        t.metrics().gauge("loss").set(f64::NAN);

        let doc = render_jsonl(&t);
        let lines: Vec<&str> = doc.lines().collect();
        assert!(lines.len() >= 7);
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(lines[0].contains("\\\"run\\\""));
        assert!(
            doc.contains("\"type\":\"phase\",\"scope\":\"main\",\"phase\":\"encode\",\"seq\":0")
        );
        assert!(doc.contains("\"model\":\"ae\",\"epoch\":2"));
        assert!(doc.contains("\"kind\":\"Ack\",\"bytes\":1"));
        assert!(doc.contains("\"path\":\"fit\",\"calls\":1"));
        assert!(doc.contains("\"name\":\"steps\",\"value\":7"));
        // Comm events feed the per-kind histogram too.
        assert!(doc.contains("\"name\":\"comm.bytes.Ack.up\",\"count\":1"));
        // Non-finite gauge serialises as null, not NaN.
        assert!(doc.contains("\"name\":\"loss\",\"value\":null"));
    }

    #[test]
    fn hub_export_attributes_every_line_to_its_scope() {
        let hub = TelemetryHub::new("multi", "bench");
        hub.default_scope().metrics().counter("steps").add(1);
        let silo = hub.scope("silo0");
        silo.wire(&WireEvent {
            op: WireOp::Send,
            link: 3,
            direction: Direction::Up,
            msg_kind: "LatentUpload",
            bytes: 4096,
            lamport: 5,
            at_nanos: 0,
        });
        silo.record_span("encode", Duration::from_millis(10));

        let doc = render_jsonl_hub(&hub);
        assert!(doc.contains("\"type\":\"counter\",\"scope\":\"bench\",\"name\":\"steps\""));
        assert!(doc.contains(
            "\"type\":\"wire\",\"scope\":\"silo0\",\"op\":\"send\",\"link\":3,\"dir\":\"up\",\
             \"kind\":\"LatentUpload\",\"bytes\":4096,\"lamport\":5,"
        ));
        assert!(doc.contains("\"type\":\"span\",\"scope\":\"silo0\",\"path\":\"encode\""));
        // Wire timestamps are stamped on recording from the shared epoch.
        assert!(!doc.contains("\"at_ns\":}"));
    }

    #[test]
    fn sanitize_strips_path_separators() {
        assert_eq!(sanitize("table3/quick run"), "table3-quick-run");
    }
}
