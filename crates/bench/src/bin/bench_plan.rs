//! Regenerates `docs/outputs/BENCH_plan.json` — the compiled-plan-cache
//! benchmark.
//!
//! Three comparisons, each isolating one layer of the plan work:
//!
//! 1. **interpreted vs compiled**: the same parameterized SELECT executed
//!    by re-parsing, binding and interpreting every iteration versus through
//!    `Connection::execute`, which reuses the cached bound plan (ordinal
//!    column access, folded constants) after the first call.
//! 2. **full scan vs index range scan**: an identical `BETWEEN` probe on
//!    twin databases, one with a secondary index on the probed column.
//! 3. **full sort vs top-K heap vs index-ordered walk**: `ORDER BY`
//!    alone, `ORDER BY … LIMIT k` without an index (bounded heap), and
//!    `ORDER BY … LIMIT k` served directly in index key order.
//!
//! Every query is first run through both `Connection::execute_ast` (the
//! interpreter: bind + row-at-a-time bound evaluation) and
//! `Connection::execute` (the cached compiled plan), and the two results
//! must be byte-identical before any timing starts.
//!
//! All workloads are deterministic (seeded data, fixed iteration
//! counts); wall-clock numbers vary by host but the orderings should
//! not. `BENCH_SMOKE=1` shrinks the data and iteration counts and skips
//! the JSON write — the identity and access-path assertions still run.

use std::time::Instant;

use sqlkernel::parser::parse_statement;
use sqlkernel::{Connection, Database, StatementResult, Value};

const DB_ROWS: usize = 20_000;
const SMOKE_ROWS: usize = 2_000;

/// Data size and per-workload iteration counts for one run.
struct Scale {
    rows: usize,
    /// Iterations for the select and BETWEEN workloads.
    iters: u64,
    /// Iterations for the ORDER BY workloads.
    sort_iters: u64,
}

/// Engine counters summed over every database the benchmark touches.
#[derive(Default)]
struct Agg {
    statements_executed: u64,
    parses: u64,
    plan_binds: u64,
    bound_evals: u64,
    index_scans: u64,
    range_scans: u64,
    full_scans: u64,
    topk_sorts: u64,
}

impl Agg {
    fn add(&mut self, db: &Database) {
        let s = db.stats();
        self.statements_executed += s.statements_executed;
        self.parses += s.parses;
        self.plan_binds += s.plan_binds;
        self.bound_evals += s.bound_evals;
        self.index_scans += s.index_scans;
        self.range_scans += s.range_scans;
        self.full_scans += s.full_scans;
        self.topk_sorts += s.topk_sorts;
    }
}

/// Median-of-3 timing of `iters` runs of `f`, in seconds.
fn time_runs(iters: u64, mut f: impl FnMut()) -> f64 {
    let mut samples = [0.0f64; 3];
    for s in &mut samples {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        *s = start.elapsed().as_secs_f64();
    }
    samples.sort_by(f64::total_cmp);
    samples[1]
}

fn per_stmt_us(secs: f64, iters: u64) -> f64 {
    secs / iters as f64 * 1e6
}

/// The interpreter and the compiled plan must return the same grid.
fn assert_identical(conn: &Connection, sql: &str, params: &[Value]) {
    let stmt = parse_statement(sql).expect("benchmark query parses");
    let interpreted = match conn.execute_ast(&stmt, params).unwrap() {
        StatementResult::Rows(r) => r,
        other => panic!("workload must return rows, got {other:?}"),
    };
    assert_eq!(
        interpreted,
        conn.query(sql, params).unwrap(),
        "{sql}: compiled result must be byte-identical to interpreted"
    );
}

fn json_point(name: &str, iters: u64, secs: f64, extra: &str) -> String {
    format!(
        "    {{ \"workload\": {name:?}, \"iterations\": {iters}, \
         \"total_secs\": {secs:.4}, \"per_stmt_us\": {us:.2}{extra} }}",
        us = per_stmt_us(secs, iters),
    )
}

fn bench_interpreted_vs_compiled(
    conn: &Connection,
    scale: &Scale,
    points: &mut Vec<String>,
) -> (f64, f64) {
    const Q: &str = "SELECT OrderId, Quantity * 2 + 1 FROM Orders \
                     WHERE Quantity > ? AND Approved = TRUE";
    let iters = scale.iters;
    let params = [Value::Int(25)];
    assert_identical(conn, Q, &params);

    // Interpreted: parse + bind + row-at-a-time evaluation per iteration
    // (what every execution cost before the statement and plan caches).
    let interpreted = time_runs(iters, || {
        let stmt = parse_statement(Q).unwrap();
        std::hint::black_box(conn.execute_ast(&stmt, &params).unwrap());
    });

    // Compiled: warm the plan, then run through the cache.
    conn.execute(Q, &params).unwrap();
    let compiled = time_runs(iters, || {
        std::hint::black_box(conn.execute(Q, &params).unwrap());
    });

    points.push(json_point("select_parse_interpret", iters, interpreted, ""));
    points.push(json_point(
        "select_compiled_plan",
        iters,
        compiled,
        &format!(", \"speedup\": {:.2}", interpreted / compiled),
    ));
    (interpreted, compiled)
}

fn bench_scan_vs_range(scale: &Scale, points: &mut Vec<String>, agg: &mut Agg) -> (f64, f64) {
    const Q: &str = "SELECT OrderId FROM Orders WHERE Quantity BETWEEN 10 AND 12";
    let iters = scale.iters;

    let plain = bench::seeded_orders_db("plan_scan", scale.rows);
    let indexed = bench::seeded_orders_db("plan_range", scale.rows);
    indexed
        .connect()
        .execute("CREATE INDEX idx_qty ON Orders (Quantity)", &[])
        .unwrap();

    let c_plain = plain.connect();
    let c_indexed = indexed.connect();
    assert_identical(&c_plain, Q, &[]);
    assert_identical(&c_indexed, Q, &[]);
    assert_eq!(
        c_plain.query(Q, &[]).unwrap().len(),
        c_indexed.query(Q, &[]).unwrap().len(),
        "index must not change the result"
    );

    let full = time_runs(iters, || {
        std::hint::black_box(c_plain.query(Q, &[]).unwrap());
    });
    let range = time_runs(iters, || {
        std::hint::black_box(c_indexed.query(Q, &[]).unwrap());
    });
    assert!(indexed.stats().range_scans > 0, "range path must be taken");

    points.push(json_point("between_full_scan", iters, full, ""));
    points.push(json_point(
        "between_index_range_scan",
        iters,
        range,
        &format!(", \"speedup\": {:.2}", full / range),
    ));
    agg.add(&plain);
    agg.add(&indexed);
    (full, range)
}

fn bench_sort_topk_indexorder(
    scale: &Scale,
    points: &mut Vec<String>,
    agg: &mut Agg,
) -> (f64, f64, f64) {
    const Q_SORT: &str = "SELECT OrderId FROM Orders ORDER BY Quantity";
    const Q_TOPK: &str = "SELECT OrderId FROM Orders ORDER BY Quantity LIMIT 10";
    let iters = scale.sort_iters;

    let plain = bench::seeded_orders_db("plan_sort", scale.rows);
    let indexed = bench::seeded_orders_db("plan_idxorder", scale.rows);
    indexed
        .connect()
        .execute("CREATE INDEX idx_qty ON Orders (Quantity)", &[])
        .unwrap();

    let c_plain = plain.connect();
    let c_indexed = indexed.connect();
    assert_identical(&c_plain, Q_SORT, &[]);
    assert_identical(&c_plain, Q_TOPK, &[]);
    assert_identical(&c_indexed, Q_TOPK, &[]);

    let full_sort = time_runs(iters, || {
        std::hint::black_box(c_plain.query(Q_SORT, &[]).unwrap());
    });
    let topk = time_runs(iters, || {
        std::hint::black_box(c_plain.query(Q_TOPK, &[]).unwrap());
    });
    let index_order = time_runs(iters, || {
        std::hint::black_box(c_indexed.query(Q_TOPK, &[]).unwrap());
    });
    assert!(plain.stats().topk_sorts > 0, "top-K path must be taken");

    points.push(json_point("order_by_full_sort", iters, full_sort, ""));
    points.push(json_point(
        "order_by_limit_topk_heap",
        iters,
        topk,
        &format!(", \"speedup_vs_full_sort\": {:.2}", full_sort / topk),
    ));
    points.push(json_point(
        "order_by_limit_index_order",
        iters,
        index_order,
        &format!(", \"speedup_vs_full_sort\": {:.2}", full_sort / index_order),
    ));
    agg.add(&plain);
    agg.add(&indexed);
    (full_sort, topk, index_order)
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let scale = if smoke {
        Scale {
            rows: SMOKE_ROWS,
            iters: 5,
            sort_iters: 5,
        }
    } else {
        Scale {
            rows: DB_ROWS,
            iters: 300,
            sort_iters: 200,
        }
    };
    let db = bench::seeded_orders_db("plan_exec", scale.rows);
    let conn = db.connect();

    let mut points = Vec::new();
    let mut agg = Agg::default();
    let (interp, compiled) = bench_interpreted_vs_compiled(&conn, &scale, &mut points);
    let (full, range) = bench_scan_vs_range(&scale, &mut points, &mut agg);
    let (sort, topk, idxord) = bench_sort_topk_indexorder(&scale, &mut points, &mut agg);
    agg.add(&db);

    eprintln!(
        "interpreted {:.1}us vs compiled {:.1}us  (×{:.2})",
        per_stmt_us(interp, scale.iters),
        per_stmt_us(compiled, scale.iters),
        interp / compiled
    );
    eprintln!(
        "full scan {:.1}us vs range scan {:.1}us  (×{:.2})",
        per_stmt_us(full, scale.iters),
        per_stmt_us(range, scale.iters),
        full / range
    );
    eprintln!(
        "full sort {:.1}us vs top-K {:.1}us vs index order {:.1}us",
        per_stmt_us(sort, scale.sort_iters),
        per_stmt_us(topk, scale.sort_iters),
        per_stmt_us(idxord, scale.sort_iters)
    );
    if smoke {
        eprintln!("BENCH_SMOKE set; skipping JSON write");
        return;
    }

    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"compiled_plan_cache\",\n  \"db_rows\": {rows},\n  \"host_cpus\": {cpus},\n  \
         \"note\": \"per_stmt_us is wall-clock per statement, median of 3 runs; \
         speedups compare against the first workload of each pair/triple; \
         select_parse_interpret is parse + bind + row-at-a-time bound evaluation; \
         every query's interpreted and compiled results were asserted byte-identical \
         before timing; engine_stats sums counters over all benchmark databases\",\n  \
         \"points\": [\n{points}\n  ],\n  \
         \"engine_stats\": {{\n    \"statements_executed\": {exec},\n    \
         \"parses\": {parses},\n    \"plan_binds\": {binds},\n    \
         \"bound_evals\": {bevals},\n    \"index_scans\": {idx},\n    \
         \"range_scans\": {range_scans},\n    \"full_scans\": {full_scans},\n    \
         \"topk_sorts\": {topk}\n  }}\n}}\n",
        rows = scale.rows,
        cpus = cpus,
        points = points.join(",\n"),
        exec = agg.statements_executed,
        parses = agg.parses,
        binds = agg.plan_binds,
        bevals = agg.bound_evals,
        idx = agg.index_scans,
        range_scans = agg.range_scans,
        full_scans = agg.full_scans,
        topk = agg.topk_sorts,
    );

    let path = "docs/outputs/BENCH_plan.json";
    std::fs::write(path, &json).expect("write BENCH_plan.json");
    print!("{json}");
    eprintln!("wrote {path}");
}
