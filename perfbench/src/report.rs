//! The benchmark's contract: workloads, metric names and units, the
//! `BENCHMARK.json` manifest generated from them, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, why)` of every workload.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "order_scan",
        "20k orders over 8 item types: SQL_1's scan + hash aggregate dominates, so sqlkernel scan/exec changes show here",
    ),
    (
        "order_fanout",
        "2k orders over 200 item types: ~200-row sets are marshalled, looped, invoked and inserted, so stack and write-path changes show",
    ),
    (
        "durable_intake",
        "3-step durable instances over 10k parked ones on paged storage: dehydration, WAL commit and UPDATE walks dominate",
    ),
];

/// `(name, unit, better, bound)` of every end-to-end metric (untraced
/// runs). `bound` is the share of the parent's median by which the
/// metric may worsen before a change is rejected. Wall-clock metrics
/// take the largest bound allowed: on a shared 2-CPU virtual machine,
/// CPU time stolen by other guests moves them by that much between runs.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("instances_per_s", "instances/s", "higher", 0.25),
    ("latency_p50_us", "us", "lower", 0.25),
    ("bis.latency_p50_us", "us", "lower", 0.25),
    ("wf.latency_p50_us", "us", "lower", 0.25),
    ("soa.latency_p50_us", "us", "lower", 0.25),
    ("adapter.latency_p50_us", "us", "lower", 0.25),
    ("recovery_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
];

/// `(name, unit, better)` of every per-layer metric (traced runs).
/// `latency_p99_us` is here, ungated: on a shared 2-CPU host its
/// run-to-run spread is wider than any bound an end-to-end metric may
/// have.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("latency_p99_us", "us", "lower"),
    ("flowcore.engine.run_us", "us", "lower"),
    ("flowcore.engine.uncovered_us", "us", "lower"),
    ("flowcore.persistence.run_us", "us", "lower"),
    ("flowcore.persistence.self_us", "us", "lower"),
    ("flowcore.persistence.self_share", "ratio", "lower"),
    (
        "flowcore.persistence.bookkeeping_stmts_per_instance",
        "count",
        "lower",
    ),
    ("flowcore.scheduler.worker_skew", "ratio", "lower"),
    ("flowcore.scheduler.span_coverage", "ratio", "higher"),
    ("flowcore.latency_drift", "ratio", "lower"),
    ("service.supplier_us", "us", "lower"),
    ("service.supplier_calls_per_instance", "count", "lower"),
    ("adapter.handle_us", "us", "lower"),
    ("adapter.envelope_bytes_per_instance", "bytes", "lower"),
    ("sqlkernel.sql1_us", "us", "lower"),
    ("sqlkernel.sql1_share", "ratio", "lower"),
    ("xmlval.rowset_encode_us", "us", "lower"),
    ("wf.dataset_fill_us", "us", "lower"),
    ("soa.query_database_us", "us", "lower"),
    ("sqlkernel.step_sql_us", "us", "lower"),
    ("sqlkernel.statements_per_instance", "count", "lower"),
    ("sqlkernel.parses_per_instance", "count", "lower"),
    ("sqlkernel.stmt_cache_hit_ratio", "ratio", "higher"),
    ("sqlkernel.rows_walked_per_instance", "count", "lower"),
    ("sqlkernel.index_scans_per_instance", "count", "lower"),
    ("sqlkernel.batched_rows_per_instance", "count", "lower"),
    (
        "sqlkernel.version_chains_walked_per_instance",
        "count",
        "lower",
    ),
    ("sqlkernel.snapshots_per_instance", "count", "lower"),
    ("wal.appends_per_instance", "count", "lower"),
    ("wal.commits_per_instance", "count", "lower"),
    ("wal.bytes_per_instance", "bytes", "lower"),
    ("wal.checkpoint_us", "us", "lower"),
    ("wal.log_bytes_at_checkpoint", "bytes", "lower"),
    ("pager.pool_hit_ratio", "ratio", "higher"),
    ("pager.pool_evictions_per_checkpoint", "count", "lower"),
    ("pager.pages_repaired", "count", "lower"),
    ("storage.versions_gced_per_checkpoint", "count", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("failed_ratio", "ratio", "lower"),
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 25;

/// The `BENCHMARK.json` text this benchmark answers to.
pub fn manifest() -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}{comma}"
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}"
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every output check passed.
    pub correct: bool,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Run metadata, printed before the result line.
    pub meta: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn meta(&mut self, key: &'static str, value: impl ToString) {
        self.meta.push((key, value.to_string()));
    }

    /// The metric set this run must report: end-to-end when untraced,
    /// per-layer when traced.
    pub fn expected(traced: bool) -> Vec<(&'static str, &'static str)> {
        if traced {
            PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.0, m.1)).collect()
        }
    }

    /// Names the run should have reported but did not, and reported but
    /// should not have.
    pub fn mismatched(&self, traced: bool) -> (Vec<&'static str>, Vec<&'static str>) {
        let want = Outcome::expected(traced);
        let missing = want
            .iter()
            .map(|m| m.0)
            .filter(|n| !self.metrics.contains_key(n))
            .collect();
        let extra = self
            .metrics
            .keys()
            .copied()
            .filter(|n| !want.iter().any(|m| m.0 == *n))
            .collect();
        (missing, extra)
    }

    /// The last line of standard output: one JSON object.
    pub fn result_line(&self, traced: bool) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        let mut first = true;
        for (name, unit) in Outcome::expected(traced) {
            let Some(v) = self.metrics.get(name) else {
                continue;
            };
            let v = if v.is_finite() { *v } else { 0.0 };
            if !first {
                s.push_str(", ");
            }
            first = false;
            let _ = write!(s, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }

    /// The metadata line: one JSON object of strings.
    pub fn meta_line(&self) -> String {
        let mut s = String::from("{\"run\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{k}\": \"{}\"",
                v.replace('\\', "\\\\").replace('"', "\\\"")
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_manifest() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `cargo run --release --manifest-path perfbench/Cargo.toml -- --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate name");
        for n in names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200));
    }

    #[test]
    fn result_line_reports_values_with_units() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        o.set("setup_s", 0.5);
        let line = o.result_line(false);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        let (missing, extra) = o.mismatched(false);
        assert!(missing.contains(&"instances_per_s"));
        assert!(extra.is_empty());
    }
}
