//! What the command-line binaries (the `silofuse` tool and the experiment
//! bins) share: console output that never panics, and one traced run.
//!
//! `println!` and `eprintln!` panic when their stream is closed, so a
//! binary whose reader quits early (`table2 | head -1`) would die with
//! exit code 101 instead of finishing its work. The binaries write both
//! streams through [`print`] instead; [`note!`](crate::note) is its
//! `eprintln!`.

use crate::expose::Flusher;
use std::io::{ErrorKind, Write};
use std::time::Duration;

/// Writes `text` to `out` (stdout or stderr) and flushes it. A reader
/// that stopped reading (`silofuse --help | head -1`) is not a failure,
/// since the rest of the output has nowhere to go, so this returns `Ok`;
/// any other write error is returned, worded for stdout, the one stream
/// whose errors have somewhere to be reported.
///
/// # Errors
/// Any write or flush error except [`ErrorKind::BrokenPipe`].
pub fn print(out: &mut impl Write, text: &str) -> Result<(), String> {
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => Err(format!("writing to stdout: {e}")),
        _ => Ok(()),
    }
}

/// `eprintln!` that never panics: writes the formatted line to stderr
/// through [`print`](crate::cli::print) and drops any error, since stderr
/// is where an error would be reported.
#[macro_export]
macro_rules! note {
    ($($arg:tt)*) => {{
        let line = format!("{}\n", format_args!($($arg)*));
        let _ = $crate::cli::print(&mut ::std::io::stderr(), &line);
    }};
}

/// The telemetry of one command-line run: started by
/// [`TracedRun::start`], ended by [`TracedRun::finish`].
pub struct TracedRun {
    flusher: Option<Flusher>,
}

impl TracedRun {
    /// Installs a telemetry hub for run `run`, whose threads outside any
    /// actor scope record under `actor`, when `trace` is set or `expose`
    /// names a file; with `expose`, also flushes a Prometheus snapshot of
    /// every metric to that file twice a second. Without either, the run
    /// stays untraced and this does nothing.
    pub fn start(run: &str, actor: &str, trace: bool, expose: Option<&str>) -> Self {
        if trace || expose.is_some() {
            let _ = crate::init_scoped(run, actor);
            note!("[trace] telemetry enabled for run '{run}'");
        }
        let flusher = expose.map(|path| {
            note!("[trace] exposing Prometheus snapshots at {path}");
            Flusher::start(path, Duration::from_millis(500))
        });
        Self { flusher }
    }

    /// Prints every actor's span tree, writes the per-scope JSONL export
    /// and the merged causal trace (`<run>.trace.jsonl`), writes a final
    /// Prometheus snapshot when one was requested, then shuts telemetry
    /// down. Does nothing for an untraced run.
    pub fn finish(self) {
        let Some(hub) = crate::hub() else { return };
        for scope in hub.scopes() {
            if scope.span_rows().is_empty() {
                continue;
            }
            note!(
                "\n[trace] span tree for actor '{}' of run '{}':\n{}",
                scope.actor(),
                hub.run(),
                scope.render_span_tree()
            );
        }
        match crate::export::write_jsonl_hub(&hub) {
            Ok(path) => note!("[trace] telemetry written to {}", path.display()),
            Err(e) => note!("warning: could not write telemetry: {e}"),
        }
        match crate::trace::write_trace_jsonl(&hub) {
            Ok(path) => note!("[trace] merged causal trace written to {}", path.display()),
            Err(e) => note!("warning: could not write trace: {e}"),
        }
        if let Some(flusher) = self.flusher {
            let path = flusher.path().to_path_buf();
            match flusher.stop() {
                Ok(true) => note!("[trace] final Prometheus snapshot at {}", path.display()),
                Ok(false) => {}
                Err(e) => note!("warning: could not write snapshot: {e}"),
            }
        }
        crate::shutdown();
    }
}
