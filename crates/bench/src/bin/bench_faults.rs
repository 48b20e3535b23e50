//! Regenerates `docs/outputs/BENCH_faults.json` — cost of the fault
//! injection layer and recovered throughput under fault storms.
//!
//! Three questions, one row each:
//!
//! * **0% rate** — what does merely *installing* a fault plan cost?
//!   The same retry-wrapped workload runs once with no plan and once
//!   with a 0%-rate plan; the overhead of the injection gate must stay
//!   within noise (≤5%).
//! * **1% / 10% rate** — how much throughput does the retry layer
//!   *recover* when statements actually fail? Every operation still
//!   completes (the workload never loses a statement); the throughput
//!   row records what the faults and backoff cost.
//!
//! `BENCH_SMOKE=1` runs a short workload once per rate, skips the JSON
//! write, and asserts that every operation completed and that faults
//! actually fired at 1% and 10%.

use std::time::Instant;

use flowcore::retry::{BreakerConfig, RetryPolicy, RetryRuntime};
use flowcore::FlowError;
use sqlkernel::fault::FaultPlan;
use sqlkernel::{Database, Value};

const OPS: usize = 20_000;
const REPS: usize = 3;
const SMOKE_OPS: usize = 2_000;
const SEED: u64 = 20260807;

fn workload_db(name: &str) -> Database {
    let db = Database::new(name);
    db.connect()
        .execute("CREATE TABLE log (id INT PRIMARY KEY, v TEXT)", &[])
        .unwrap();
    db
}

/// Run `ops` retry-wrapped statements (alternating INSERT and the
/// re-read of the row just written); returns the best-of-`reps`
/// elapsed seconds and the retry and fault counts of the last rep.
/// Every statement must complete: a rep ends holding all its inserts.
fn measure(ops: usize, reps: usize, rate: f64, with_plan: bool) -> (f64, u64, u64) {
    let mut best = f64::MAX;
    let mut retries = 0;
    let mut faults = 0;
    for rep in 0..reps {
        let db = workload_db("faults");
        if with_plan {
            db.set_fault_plan(Some(FaultPlan::new(SEED + rep as u64).transient_rate(rate)));
        }
        let mut rt = RetryRuntime::new(SEED)
            .with_policy(RetryPolicy {
                max_attempts: 50,
                base_backoff_ticks: 1,
                jitter_ticks: 1,
                ..RetryPolicy::default()
            })
            .with_breaker(BreakerConfig {
                failure_threshold: 1_000_000,
                cooldown_ticks: 1,
            });
        let conn = db.connect();
        let insert = "INSERT INTO log VALUES (?, 'x')";
        let read = "SELECT v FROM log WHERE id = ?";
        let start = Instant::now();
        for i in 0..ops {
            let (sql, n) = if i % 2 == 0 {
                (insert, i as i64)
            } else {
                (read, (i - 1) as i64)
            };
            let (r, _) = rt.run(db.name(), Some(&db), || {
                conn.execute(sql, &[Value::Int(n)])
                    .map(|_| ())
                    .map_err(FlowError::from)
            });
            r.unwrap();
        }
        let elapsed = start.elapsed().as_secs_f64();
        best = best.min(elapsed);
        assert_eq!(
            db.table_len("log").unwrap(),
            ops.div_ceil(2),
            "lost inserts"
        );
        let stats = db.stats();
        retries = stats.retries;
        faults = stats.faults_injected;
    }
    (best, retries, faults)
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let (ops, reps) = if smoke { (SMOKE_OPS, 1) } else { (OPS, REPS) };
    let (t_none, _, _) = measure(ops, reps, 0.0, false);
    let base_ops_per_sec = ops as f64 / t_none;
    eprintln!("no injector: {base_ops_per_sec:>10.0} stmts/s");

    let mut points = Vec::new();
    let mut overhead_0 = 0.0f64;
    for rate in [0.0f64, 0.01, 0.10] {
        let (t, retries, faults) = measure(ops, reps, rate, true);
        if rate > 0.0 {
            assert!(faults > 0, "no faults fired at {}%", rate * 100.0);
        }
        let ops_per_sec = ops as f64 / t;
        let vs_base = ops_per_sec / base_ops_per_sec;
        if rate == 0.0 {
            overhead_0 = (t - t_none) / t_none;
        }
        eprintln!(
            "{:>4.0}% faults: {ops_per_sec:>10.0} stmts/s  ({:.2}x of no-injector, \
             {faults} injected, {retries} retries)",
            rate * 100.0,
            vs_base,
        );
        points.push(format!(
            "    {{ \"fault_rate\": {rate}, \"statements\": {OPS}, \
             \"stmts_per_sec\": {ops_per_sec:.1}, \"relative_throughput\": {vs_base:.3}, \
             \"faults_injected\": {faults}, \"retries\": {retries} }}"
        ));
    }

    eprintln!("0%-plan overhead vs no plan: {:.2}%", overhead_0 * 100.0);
    if smoke {
        eprintln!("BENCH_SMOKE set: every operation completed, JSON not written");
        return;
    }
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"fault_injection\",\n  \"statements_per_run\": {OPS},\n  \
         \"reps\": {REPS},\n  \"seed\": {SEED},\n  \"host_cpus\": {cpus},\n  \
         \"no_injector_stmts_per_sec\": {base_ops_per_sec:.1},\n  \
         \"zero_rate_overhead_pct\": {overhead:.2},\n  \
         \"note\": \"every run completes all statements: faulted ones are retried to \
         success, so the 1%/10% rows are recovered throughput, not loss\",\n  \
         \"points\": [\n{points}\n  ]\n}}\n",
        cpus = cpus,
        overhead = overhead_0 * 100.0,
        points = points.join(",\n"),
    );

    let path = "docs/outputs/BENCH_faults.json";
    std::fs::write(path, &json).expect("write BENCH_faults.json");
    print!("{json}");
    eprintln!("wrote {path}");
}
