//! Critical-path attribution over the program's span trees.
//!
//! A timed region (one public call such as `try_fit`, or the whole serve
//! loop) runs on one or more lanes: the coordinator thread for the
//! stacked protocol, one lane per tenant connection for serving. The
//! phase spans a lane records directly under the region are its
//! attributed time; whatever the phases leave uncovered is the residual
//! `observe.unattributed_share` reports.

use silofuse_observe::TelemetryHub;

/// One timed region of a traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    pub name: &'static str,
    /// Wall time of the region.
    pub wall_s: f64,
    /// Lanes that worked through the region concurrently.
    pub lanes: f64,
    /// Time covered by phase spans on those lanes.
    pub attributed_s: f64,
}

impl Region {
    /// Lane time the phases left uncovered (never negative).
    pub fn unattributed_s(&self) -> f64 {
        (self.wall_s * self.lanes - self.attributed_s).max(0.0)
    }
}

/// Share of lane time across `regions` not covered by phase spans.
pub fn unattributed_share(regions: &[Region]) -> f64 {
    let total: f64 = regions.iter().map(|r| r.wall_s * r.lanes).sum();
    if total <= 0.0 {
        return f64::NAN;
    }
    regions.iter().map(Region::unattributed_s).sum::<f64>() / total
}

/// Seconds of the spans recorded directly under `root` (one more path
/// segment); `spans` holds `(path, total seconds)` pairs.
pub fn child_time(spans: &[(String, f64)], root: &str) -> f64 {
    spans
        .iter()
        .filter(|(path, _)| {
            path.strip_prefix(root)
                .and_then(|rest| rest.strip_prefix('/'))
                .is_some_and(|leaf| !leaf.is_empty() && !leaf.contains('/'))
        })
        .map(|(_, secs)| secs)
        .sum()
}

/// Seconds recorded under exactly `path`, 0 when it never ran.
pub fn path_time(spans: &[(String, f64)], path: &str) -> f64 {
    spans.iter().filter(|(p, _)| p == path).map(|(_, secs)| secs).sum()
}

/// Index and value of the largest entry: the slowest parallel part,
/// which sets the time of everything waiting on all the parts.
pub fn slowest(times: &[f64]) -> Option<(usize, f64)> {
    times.iter().copied().enumerate().max_by(|a, b| a.1.total_cmp(&b.1))
}

/// `(path, total seconds)` of every span `actor` recorded.
pub fn spans_of(hub: &TelemetryHub, actor: &str) -> Vec<(String, f64)> {
    hub.scopes()
        .into_iter()
        .filter(|s| s.actor() == actor)
        .flat_map(|s| s.span_rows())
        .filter(|row| row.stat.calls > 0)
        .map(|row| (row.path, row.stat.total.as_secs_f64()))
        .collect()
}

/// Seconds and calls of every span named `name` (last path segment), in
/// every scope.
pub fn named_time(hub: &TelemetryHub, name: &str) -> (f64, u64) {
    let mut secs = 0.0;
    let mut calls = 0;
    for scope in hub.scopes() {
        for row in scope.span_rows() {
            if row.name == name {
                secs += row.stat.total.as_secs_f64();
                calls += row.stat.calls;
            }
        }
    }
    (secs, calls)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans(entries: &[(&str, f64)]) -> Vec<(String, f64)> {
        entries.iter().map(|(p, s)| (p.to_string(), *s)).collect()
    }

    #[test]
    fn children_are_one_segment_below_the_root() {
        let s = spans(&[
            ("bench.fit", 10.0),
            ("bench.fit/comm-wait", 4.0),
            ("bench.fit/latent-train", 5.0),
            ("bench.fit/latent-train/checkpoint.write", 0.5),
            ("bench.fitted/sample", 9.0),
            ("bench.synthesize/sample", 2.0),
        ]);
        assert_eq!(child_time(&s, "bench.fit"), 9.0);
        assert_eq!(child_time(&s, "bench.synthesize"), 2.0);
        assert_eq!(child_time(&s, "bench.page"), 0.0);
        assert_eq!(path_time(&s, "bench.fit/latent-train"), 5.0);
        assert_eq!(path_time(&s, "bench.fit/missing"), 0.0);
    }

    #[test]
    fn unattributed_share_is_uncovered_lane_time() {
        let fit = Region { name: "fit", wall_s: 10.0, lanes: 1.0, attributed_s: 9.0 };
        let serve = Region { name: "serve", wall_s: 5.0, lanes: 2.0, attributed_s: 9.0 };
        assert_eq!(fit.unattributed_s(), 1.0);
        assert_eq!(serve.unattributed_s(), 1.0);
        assert!((unattributed_share(&[fit.clone(), serve]) - 0.1).abs() < 1e-12);
        // Overlapping spans can cover more than the wall; the residual
        // clamps at zero rather than going negative.
        let over = Region { attributed_s: 12.0, ..fit };
        assert_eq!(unattributed_share(&[over]), 0.0);
        assert!(unattributed_share(&[]).is_nan());
    }

    #[test]
    fn the_slowest_part_sets_the_critical_path() {
        assert_eq!(slowest(&[0.5, 1.7, 0.7, 0.6]), Some((1, 1.7)));
        assert_eq!(slowest(&[]), None);
    }
}
