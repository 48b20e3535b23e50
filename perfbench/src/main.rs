//! Running-example instance benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <order_scan|order_fanout|durable_intake> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, runs it for the given
//! time, checks the outputs, and prints a run-metadata line followed by
//! one JSON result line: end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`. Exits non-zero when an output check fails.
//! `--manifest` prints the `BENCHMARK.json` this benchmark answers to.
//! See `perfbench/README.md` for every metric's definition.

mod gen;
mod intake;
mod orders;
mod report;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use report::Outcome;
use trace::Counters;

/// Closed-loop clients of the order workloads.
pub const CLIENTS: usize = 2;
/// Scheduler workers of the durable workload.
pub const WORKERS: usize = 2;
/// The four realizations of the running example, in ticket order.
pub const STACKS: [&str; 4] = ["bis", "wf", "soa", "adapter"];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub length: Duration,
    pub traced: bool,
}

/// The per-realization median latency metrics, in [`STACKS`] order.
const STACK_P50: [&str; 4] = [
    "bis.latency_p50_us",
    "wf.latency_p50_us",
    "soa.latency_p50_us",
    "adapter.latency_p50_us",
];

/// Run `f` `reps` times, dropping each result before the next run
/// starts; the last result and the median seconds of one run.
pub fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut last = None;
    let mut secs = Vec::new();
    for _ in 0..reps {
        drop(last.take());
        let (v, ns) = trace::timed(&mut f);
        secs.push(ns as f64 / 1e9);
        last = Some(v);
    }
    (last.expect("at least one repetition"), stats::median(&secs))
}

/// Reopens taken in a run.
const REOPENS: u32 = 11;

/// The run's clock and its recovery measurements.
///
/// A single reopen lasts tens of milliseconds, so it samples the host
/// in one instant; reopens spread evenly through the run sample it
/// across the whole run instead. At the first quiescent boundary (between
/// epochs or batches, before the checkpoint) after each `length /
/// REOPENS` step of measured time, the database is reopened from copies
/// of its stores — the last checkpoint plus one epoch's log tail — and
/// compared with the live one. Time spent reopening and comparing is
/// not measured time.
pub struct Clock {
    length: Duration,
    start: std::time::Instant,
    paused: Duration,
    ms: Vec<f64>,
    /// Every reopened database matched the live one.
    pub recovered: bool,
}

impl Clock {
    /// Start a run of `length` measured time.
    pub fn start(length: Duration) -> Clock {
        Clock {
            length,
            start: std::time::Instant::now(),
            paused: Duration::ZERO,
            ms: Vec::new(),
            recovered: true,
        }
    }

    fn measured(&self) -> Duration {
        self.start.elapsed().saturating_sub(self.paused)
    }

    /// Has the run measured its length?
    pub fn done(&self) -> bool {
        self.measured() >= self.length
    }

    /// At a quiescent boundary: reopen when one is due. `reopen`
    /// prepares copies of the stores and times only the open itself.
    pub fn boundary(
        &mut self,
        live: &sqlkernel::Database,
        reopen: impl FnOnce() -> (sqlkernel::SqlResult<sqlkernel::Database>, u64),
    ) {
        let due = self.length * (self.ms.len() as u32 + 1) / REOPENS;
        if self.measured() < due {
            return;
        }
        let t = std::time::Instant::now();
        let fingerprint =
            |db: &sqlkernel::Database| patterns::chaos::db_fingerprint_excluding(db, &[]);
        let live = fingerprint(live);
        let (db, ns) = reopen();
        self.ms.push(ns as f64 / 1e6);
        self.recovered &= db.is_ok_and(|db| fingerprint(&db) == live);
        self.paused += t.elapsed();
    }

    /// Median reopen time in ms (0 without reopens).
    pub fn recovery_ms(&self) -> f64 {
        stats::median(&self.ms)
    }
}

/// Instances per block of `latency_p99_us`: ten beyond the 99th
/// percentile.
const P99_BLOCK: usize = 1000;

/// Which quantile of the epoch (batch) rates `instances_per_s` reports.
const RATE_QUANTILE: f64 = 0.9;

/// `latency_p99_us` of a traced run, over the completed instances of
/// its traced and untraced epochs (`lat`, in µs, in completion order by
/// epoch or batch): the median over blocks of 1,000 of each block's 99th
/// percentile.
pub fn tail_latency(out: &mut Outcome, lat: &[f64]) {
    out.set(
        "latency_p99_us",
        stats::blocked_quantile(lat, 0.99, P99_BLOCK),
    );
    out.meta("latency_samples", lat.len());
}

/// The end-to-end metrics of an untraced run. `done` holds each
/// completed instance as `(stack, latency in µs)`, in completion order
/// by epoch or batch; `rates` the completed instances per second of
/// each epoch or batch.
pub fn end_to_end(
    out: &mut Outcome,
    setup_s: f64,
    rates: &[f64],
    done: &[(usize, f64)],
    recovery_ms: f64,
) {
    let lat: Vec<f64> = done.iter().map(|d| d.1).collect();
    out.set("setup_s", setup_s);
    // Time other guests steal from a virtual machine only ever slows an
    // epoch, so the fast tail of the epoch rates estimates what the
    // program sustains undisturbed; the median follows the host's load.
    out.set("instances_per_s", stats::quantile(rates, RATE_QUANTILE));
    out.set("latency_p50_us", stats::median(&lat));
    for (stack, name) in STACK_P50.iter().enumerate() {
        let of_stack: Vec<f64> = done.iter().filter(|d| d.0 == stack).map(|d| d.1).collect();
        out.set(name, stats::median(&of_stack));
    }
    out.set("recovery_ms", recovery_ms);
    out.set("peak_rss_mb", peak_rss_mb());
    out.meta("latency_samples", lat.len());
}

/// The process's resident-memory high-water mark, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Per-instance `sqlkernel.*` and `wal.*` counter metrics.
pub fn counter_metrics(out: &mut Outcome, c: &Counters, per: impl Fn(u64) -> f64) {
    out.set("sqlkernel.statements_per_instance", per(c.statements));
    out.set("sqlkernel.parses_per_instance", per(c.parses));
    out.set(
        "sqlkernel.stmt_cache_hit_ratio",
        stats::ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
    );
    out.set("sqlkernel.rows_walked_per_instance", per(c.full_scan_rows));
    out.set("sqlkernel.index_scans_per_instance", per(c.index_scans));
    out.set("sqlkernel.batched_rows_per_instance", per(c.batched_rows));
    out.set(
        "sqlkernel.version_chains_walked_per_instance",
        per(c.chains_walked),
    );
    out.set("sqlkernel.snapshots_per_instance", per(c.snapshots));
    out.set("wal.appends_per_instance", per(c.wal_appends));
    out.set("wal.commits_per_instance", per(c.wal_commits));
    out.set("wal.bytes_per_instance", per(c.wal_bytes));
}

/// `wal.checkpoint_us`, `wal.log_bytes_at_checkpoint` and
/// `storage.versions_gced_per_checkpoint`, as means over checkpoints.
pub fn checkpoint_metrics(out: &mut Outcome, ns: &[u64], log_bytes: &[u64], gced: &[u64]) {
    let f = |v: &[u64]| stats::mean(&v.iter().map(|x| *x as f64).collect::<Vec<_>>());
    out.set("wal.checkpoint_us", f(ns) / 1e3);
    out.set("wal.log_bytes_at_checkpoint", f(log_bytes));
    out.set("storage.versions_gced_per_checkpoint", f(gced));
}

/// Host CPU ticks `(stolen, all)` so far, from the first line of
/// `/proc/stat`: time other guests of a virtual machine's host took
/// from this one, which slows every wall-clock metric.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Run `workload` at full size.
pub fn run_workload(workload: &str, cfg: &RunConfig) -> Option<Outcome> {
    let before = cpu_ticks();
    let mut out = match workload {
        "order_scan" => orders::run(cfg, orders::SCAN),
        "order_fanout" => orders::run(cfg, orders::FANOUT),
        "durable_intake" => intake::run(cfg, intake::INTAKE),
        _ => return None,
    };
    if let (Some((s0, t0)), Some((s1, t1))) = (before, cpu_ticks()) {
        let stolen = s1.saturating_sub(s0) as f64;
        let pct = 100.0 * stats::ratio(stolen, t1.saturating_sub(t0) as f64);
        out.meta("host_steal_pct", format!("{pct:.1}"));
    }
    finish(&mut out, workload, cfg);
    Some(out)
}

/// Metadata and run-wide metrics every workload shares.
fn finish(out: &mut Outcome, workload: &str, cfg: &RunConfig) {
    if cfg.traced {
        out.set(
            "failed_ratio",
            stats::ratio(out.failed as f64, out.attempted as f64),
        );
    }
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut meta = vec![
        ("workload", workload.to_string()),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.length.as_secs_f64().to_string()),
        ("traced", cfg.traced.to_string()),
        ("host_cpus", cpus.to_string()),
        (
            "flush_policy",
            "in-memory log and page stores, no fsync, group-commit window 0".to_string(),
        ),
        ("load", "closed loop, one process".to_string()),
    ];
    meta.append(&mut out.meta);
    out.meta = meta;
}

struct Args {
    workload: String,
    cfg: RunConfig,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        cfg: RunConfig {
            seed: seed.ok_or("missing --seed")?,
            length: Duration::from_secs_f64(seconds),
            traced: trace.ok_or("missing --trace")?,
        },
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--manifest") {
        print!("{}", report::manifest());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(out) = run_workload(&args.workload, &args.cfg) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let (missing, extra) = out.mismatched(args.cfg.traced);
    if !missing.is_empty() || !extra.is_empty() {
        eprintln!("perfbench: metrics missing {missing:?}, unexpected {extra:?}");
        return ExitCode::from(3);
    }
    println!("{}", out.meta_line());
    println!("{}", out.result_line(args.cfg.traced));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: output check failed ({} of {} instances failed)",
            out.failed, out.attempted
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tracing is process-wide, so smoke runs take turns.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn smoke(workload: &str, traced: bool) -> Outcome {
        let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let cfg = RunConfig {
            seed: 42,
            length: Duration::from_millis(400),
            traced,
        };
        let mut out = match workload {
            "order_scan" => orders::run(&cfg, orders::tests::SMOKE_SCAN),
            "order_fanout" => orders::run(&cfg, orders::tests::SMOKE_FANOUT),
            _ => intake::run(&cfg, intake::tests::SMOKE_INTAKE),
        };
        finish(&mut out, workload, &cfg);
        out
    }

    fn check(workload: &str) {
        for traced in [false, true] {
            let out = smoke(workload, traced);
            assert!(
                out.correct,
                "{workload} traced={traced}: output checks failed"
            );
            assert_eq!(out.failed, 0);
            assert!(out.attempted > 0);
            assert_eq!(out.mismatched(traced), (vec![], vec![]), "{workload}");
            let line = out.result_line(traced);
            for (name, unit) in Outcome::expected(traced) {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert!(line.contains(&entry), "{workload}: {name} missing");
                let at = line.find(&entry).unwrap();
                let unit_field = format!("\"unit\": \"{unit}\"}}");
                assert!(
                    line[at..].starts_with(&entry) && line[at..].contains(&unit_field),
                    "{workload}: {name} lacks unit {unit}"
                );
            }
            if !traced {
                for (name, _, _, _) in report::END_TO_END {
                    assert!(out.metrics[name] > 0.0, "{workload}: {name} is 0");
                }
            }
            let meta = out.meta_line();
            for key in [
                "host_cpus",
                "seed",
                "flush_policy",
                "traced",
                "checkpoint_cadence",
            ] {
                assert!(meta.contains(key), "{workload}: metadata lacks {key}");
            }
        }
    }

    #[test]
    fn order_scan_smoke() {
        check("order_scan");
    }

    #[test]
    fn order_fanout_smoke() {
        check("order_fanout");
    }

    #[test]
    fn durable_intake_smoke() {
        check("durable_intake");
    }

    #[test]
    fn traced_runs_reconcile() {
        let scan = smoke("order_scan", true);
        assert!(scan.metrics["flowcore.engine.uncovered_us"] >= 0.0);
        let intake = smoke("durable_intake", true);
        let share = intake.metrics["flowcore.persistence.self_share"];
        assert!(share > 0.0 && share <= 1.0, "self share {share}");
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload order_scan --seed 3 --seconds 25 --trace 1",
        ))
        .unwrap();
        assert_eq!(ok.cfg.seed, 3);
        assert!(ok.cfg.traced);
        assert!(parse_args(&args(
            "--workload order_scan --seed 3 --seconds 25 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args(
            "--workload order_scan --seed x --seconds 25 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&args("--workload order_scan --seed 3 --trace 0")).is_err());
        assert!(run_workload("nope", &ok.cfg).is_none());
    }
}
