//! `durable_intake`: three-step durable instances (record, ship, close an
//! order) through each stack's durable entry point, over paged storage
//! that already holds many parked, completed instances.
//!
//! The database is opened with `Database::open_paged` over in-memory log
//! and page stores, with a buffer pool smaller than `FLOW_INSTANCES`.
//! Instances run in batches of `cadence` on an [`InstanceScheduler`];
//! the database checkpoints after every batch. Recovery is measured at
//! batch boundaries before the checkpoint, so it replays one batch's
//! log tail onto the last checkpoint's pages.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bis::{BisDeployment, DataSourceRegistry};
use flowcore::persistence::{
    encode_breakers, encode_variables, DurableProcess, PersistenceService, STATUS_COMPLETED,
};
use flowcore::retry::RetryRuntime;
use flowcore::scheduler::InstanceScheduler;
use flowcore::value::{VarValue, Variables};
use flowcore::{FlowError, FlowResult};
use sqlkernel::{Connection, Database, LogStore, MemLogStore, MemPageStore, PageStore, Value};
use wf::SqlWorkflowPersistenceService;

use crate::gen::{self, Order};
use crate::report::Outcome;
use crate::stats::{self, mean, median, ratio, us};
use crate::trace::{self, Children, Counters};
use crate::{RunConfig, STACKS, WORKERS};

const DB_NAME: &str = "intake_db";
/// How many times a run sets the world up; `setup_s` is the median.
const SETUP_REPS: usize = 7;

/// Population, batch size and pool size of the durable workload.
#[derive(Debug, Clone, Copy)]
pub struct IntakeSize {
    /// Completed instances parked in `FLOW_INSTANCES` before the run.
    pub parked: usize,
    /// Instances per batch; the database checkpoints after each.
    pub cadence: usize,
    /// Buffer-pool pages (smaller than `FLOW_INSTANCES`).
    pub pool_pages: usize,
    pub item_types: usize,
}

pub const INTAKE: IntakeSize = IntakeSize {
    parked: 10_000,
    cadence: 128,
    pool_pages: 32,
    item_types: 200,
};

const SCHEMA: &str = "CREATE TABLE Orders (
        OrderId INT PRIMARY KEY,
        ItemId TEXT NOT NULL,
        Quantity INT NOT NULL,
        Approved BOOL NOT NULL);
     CREATE TABLE Shipments (
        ShipId INT PRIMARY KEY,
        OrderId INT NOT NULL);";

const RECORD_SQL: &str = "INSERT INTO Orders VALUES (?, ?, ?, FALSE)";
const SHIP_SQL: &str = "INSERT INTO Shipments VALUES (?, ?)";
const CLOSE_SQL: &str = "UPDATE Orders SET Approved = TRUE WHERE OrderId = ?";

/// The same three steps as XSQL pages, for the SOA stack.
const SOA_PAGES: [(&str, &str); 3] = [
    (
        "record",
        "<xsql:page xmlns:xsql=\"urn:oracle-xsql\">\
         <xsql:dml>INSERT INTO Orders VALUES ({@order}, {@item}, {@qty}, FALSE)</xsql:dml>\
         </xsql:page>",
    ),
    (
        "ship",
        "<xsql:page xmlns:xsql=\"urn:oracle-xsql\">\
         <xsql:dml>INSERT INTO Shipments VALUES ({@order}, {@order})</xsql:dml>\
         </xsql:page>",
    ),
    (
        "close",
        "<xsql:page xmlns:xsql=\"urn:oracle-xsql\">\
         <xsql:dml>UPDATE Orders SET Approved = TRUE WHERE OrderId = {@order}</xsql:dml>\
         </xsql:page>",
    ),
];
/// Statements the SOA pages issue per instance (one action per page).
const SOA_PAGE_STMTS: u64 = 3;

fn process_name(stack: usize) -> String {
    format!("intake/{}", STACKS[stack])
}

fn instance_key(n: u64) -> String {
    format!("intake-{n:07}")
}

/// Variables a completed instance of `order` ends with.
fn final_vars(order: &Order) -> Variables {
    let mut v = initial_vars(order);
    v.set("shipped", VarValue::Scalar(Value::Bool(true)));
    v.set("closed", VarValue::Scalar(Value::Bool(true)));
    v
}

fn initial_vars(order: &Order) -> Variables {
    let mut v = Variables::new();
    v.set("order", VarValue::Scalar(Value::Int(order.id)));
    v.set("item", VarValue::Scalar(Value::text(&order.item)));
    v.set("qty", VarValue::Scalar(Value::Int(order.qty)));
    v
}

/// One statement of a step body, spanned.
fn exec(conn: &Connection, sql: &str, params: &[Value]) -> FlowResult<()> {
    trace::step_sql(|| conn.execute(sql, params))?;
    Ok(())
}

/// One statement sent as an adapter envelope: build the request, parse
/// it on the adapter side, execute on the step's connection, build the
/// response, parse it back. The step connection keeps the statement in
/// the step transaction, which `DataAdapterService::handle` (one
/// connection per call) could not.
fn exec_via_adapter(conn: &Connection, sql: &str, params: &[Value]) -> FlowResult<()> {
    let request = adapter::build_request("executeUpdate", sql, params);
    let response = trace::adapter(request.len(), || {
        let req = adapter::parse_request(&request)?;
        let n = trace::step_sql(|| conn.execute(&req.sql, &req.params))?
            .affected()
            .unwrap_or(0);
        Ok::<_, FlowError>(adapter::build_response(
            &adapter::AdapterResponse::Affected(n),
        ))
    })?;
    match adapter::parse_response(&response)? {
        adapter::AdapterResponse::Affected(1) => Ok(()),
        other => Err(FlowError::Service(format!("adapter answered {other:?}"))),
    }
}

/// The record/ship/close process, with statements sent directly or as
/// adapter envelopes.
fn process(stack: usize, order: &Order) -> DurableProcess {
    let send: fn(&Connection, &str, &[Value]) -> FlowResult<()> = if STACKS[stack] == "adapter" {
        exec_via_adapter
    } else {
        exec
    };
    let id = Value::Int(order.id);
    let record = [id.clone(), Value::text(&order.item), Value::Int(order.qty)];
    let ship = [id.clone(), id.clone()];
    let close = [id];
    DurableProcess::new(process_name(stack))
        .step("record", move |conn, _vars| {
            trace::step_body(|| send(conn, RECORD_SQL, &record))
        })
        .step("ship", move |conn, vars| {
            trace::step_body(|| {
                send(conn, SHIP_SQL, &ship)?;
                vars.set("shipped", VarValue::Scalar(Value::Bool(true)));
                Ok(())
            })
        })
        .step("close", move |conn, vars| {
            trace::step_body(|| {
                send(conn, CLOSE_SQL, &close)?;
                vars.set("closed", VarValue::Scalar(Value::Bool(true)));
                Ok(())
            })
        })
}

struct World {
    db: Database,
    log: MemLogStore,
    pages: MemPageStore,
    bis: BisDeployment,
    wf: SqlWorkflowPersistenceService,
    persistence: PersistenceService,
    /// Instances created so far (parked and warm-up included).
    next: u64,
}

impl World {
    /// Run instance `n` through its stack's durable entry point.
    fn run_one(&self, seed: u64, n: u64, item_types: usize) -> FlowResult<()> {
        let stack = (n % STACKS.len() as u64) as usize;
        let order = gen::intake_order(seed, n, item_types);
        let key = instance_key(n);
        let mut rt = RetryRuntime::new(n);
        let run = match STACKS[stack] {
            "bis" => self.bis.run_durable(
                DB_NAME,
                &process(stack, &order),
                &key,
                &initial_vars(&order),
            ),
            "wf" => self.wf.run_workflow(
                &process(stack, &order),
                &key,
                &initial_vars(&order),
                &mut rt,
            ),
            "soa" => {
                let params = [
                    ("order".to_string(), Value::Int(order.id)),
                    ("item".to_string(), Value::text(&order.item)),
                    ("qty".to_string(), Value::Int(order.qty)),
                ];
                soa::run_durable_pages(
                    &self.db,
                    &process_name(stack),
                    &SOA_PAGES,
                    &key,
                    &params,
                    &mut rt,
                )
            }
            _ => self.persistence.run(
                &process(stack, &order),
                &key,
                &initial_vars(&order),
                &mut rt,
            ),
        }?;
        if run.steps_executed == SOA_PAGES.len() {
            Ok(())
        } else {
            Err(FlowError::Definition(format!(
                "{key} ran {} steps",
                run.steps_executed
            )))
        }
    }
}

fn setup(seed: u64, size: IntakeSize) -> World {
    let log = MemLogStore::new();
    let pages = MemPageStore::new();
    let db = Database::open_paged(
        DB_NAME,
        Arc::new(log.clone()),
        Arc::new(pages.clone()),
        size.pool_pages,
    )
    .expect("open paged database");
    let conn = db.connect();
    conn.execute_script(SCHEMA).expect("schema");
    let persistence = PersistenceService::new(&db).expect("FLOW_INSTANCES");

    let breakers = encode_breakers(&RetryRuntime::new(0));
    let parked: Vec<Order> = (0..size.parked as u64)
        .map(|n| Order {
            approved: true,
            ..gen::intake_order(seed, n, size.item_types)
        })
        .collect();
    let instances = parked
        .iter()
        .enumerate()
        .map(|(n, o)| {
            vec![
                Value::text(instance_key(n as u64)),
                Value::text(process_name(n % STACKS.len())),
                Value::Int(SOA_PAGES.len() as i64),
                Value::text(STATUS_COMPLETED),
                Value::text(encode_variables(&final_vars(o)).expect("encode parked vars")),
                Value::text(&breakers),
            ]
        })
        .collect();
    gen::load(
        &conn,
        "INSERT INTO FLOW_INSTANCES VALUES (?, ?, ?, ?, ?, ?)",
        instances,
    )
    .expect("park instances");
    gen::load(
        &conn,
        "INSERT INTO Orders VALUES (?, ?, ?, ?)",
        parked.iter().map(Order::to_row).collect(),
    )
    .expect("load orders");
    gen::load(
        &conn,
        "INSERT INTO Shipments VALUES (?, ?)",
        parked
            .iter()
            .map(|o| vec![Value::Int(o.id), Value::Int(o.id)])
            .collect(),
    )
    .expect("load shipments");
    db.checkpoint().expect("checkpoint");

    let mut world = World {
        bis: BisDeployment::new(DataSourceRegistry::new().with(db.clone())),
        wf: SqlWorkflowPersistenceService::new(&db).expect("wf persistence"),
        persistence,
        db,
        log,
        pages,
        next: size.parked as u64,
    };
    // Warm-up: one instance per stack fills the statement caches.
    for _ in 0..STACKS.len() {
        world
            .run_one(seed, world.next, size.item_types)
            .expect("warm-up instance");
        world.next += 1;
    }
    world.db.checkpoint().expect("checkpoint");
    world
}

/// One finished instance.
#[derive(Debug, Clone, Copy)]
struct Record {
    n: u64,
    worker: usize,
    ok: bool,
    /// Ran in a traced batch.
    traced: bool,
    /// Start and end, relative to the batch start.
    start_ns: u64,
    end_ns: u64,
    children: Children,
}

impl Record {
    fn stack(&self) -> usize {
        (self.n % STACKS.len() as u64) as usize
    }

    fn run_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What one run measured.
#[derive(Default)]
struct Measured {
    records: Vec<Record>,
    /// Completed instances per second of each untraced batch and the
    /// checkpoint after it.
    rates: Vec<f64>,
    /// The same, of traced batches.
    traced_rates: Vec<f64>,
    /// Per worker: summed traced-batch wall time up to its last instance.
    worker_wall_ns: [u64; WORKERS],
    checkpoint_ns: Vec<u64>,
    log_bytes_at_checkpoint: Vec<u64>,
    gced_per_checkpoint: Vec<u64>,
    evictions_per_checkpoint: Vec<u64>,
    /// Counter deltas over traced batches only.
    counters: Counters,
    /// Counter deltas over traced batches and their checkpoints.
    with_checkpoints: Counters,
    failed: u64,
    recovery_ms: f64,
    recovered: bool,
}

/// Run batches for `length` of measured time. With `alternate`, every
/// second batch is traced.
fn drive(
    w: &mut World,
    seed: u64,
    size: IntakeSize,
    length: Duration,
    alternate: bool,
) -> Measured {
    let snap = |w: &World| Counters::of(&w.db.snapshot());
    let mut m = Measured::default();
    let mut clock = crate::Clock::start(length);
    for batch in 0u64.. {
        let traced = alternate && batch % 2 == 1;
        // Reseeding per batch varies the job-to-worker partition, so no
        // one partition's imbalance repeats through a whole run.
        let scheduler = InstanceScheduler::new(WORKERS).with_seed(seed ^ batch);
        let before = traced.then(|| snap(w));
        trace::set_enabled(traced);
        let base = w.next;
        let t0 = Instant::now();
        let world = &*w;
        let records = scheduler.run_indexed(size.cadence, |i| {
            let n = base + i as u64;
            trace::take_children();
            let start = t0.elapsed().as_nanos() as u64;
            let ok = world.run_one(seed, n, size.item_types).is_ok();
            let end_ns = t0.elapsed().as_nanos() as u64;
            Record {
                n,
                worker: scheduler.worker_for(i),
                ok,
                traced,
                start_ns: start,
                end_ns,
                children: trace::take_children(),
            }
        });
        let batch_ns = t0.elapsed().as_nanos() as u64;
        trace::set_enabled(false);
        w.next += size.cadence as u64;
        if let Some(before) = before {
            m.counters = m.counters.plus(snap(w).since(before));
            for worker in 0..WORKERS {
                let end = records
                    .iter()
                    .filter(|r| r.worker == worker)
                    .map(|r| r.end_ns)
                    .max()
                    .unwrap_or(0);
                m.worker_wall_ns[worker] += end;
            }
        }
        let completed = records.iter().filter(|r| r.ok).count();
        m.failed += (records.len() - completed) as u64;
        m.records.extend(records);
        clock.boundary(&w.db, || {
            let log = Arc::new(MemLogStore::from_bytes(w.log.bytes()));
            let pages = MemPageStore::new();
            for p in 0..w.pages.page_count().expect("page count") {
                let bytes = w.pages.read_page(p).expect("read page");
                pages.write_page(p, &bytes).expect("copy page");
            }
            trace::timed(|| {
                Database::open_paged("intake_db_recovered", log, Arc::new(pages), size.pool_pages)
            })
        });
        let log_bytes = w.log.size().expect("log size");
        let cp_before = alternate.then(|| snap(w));
        let (r, ns) = trace::timed(|| w.db.checkpoint());
        r.expect("checkpoint");
        if let Some(cp_before) = cp_before {
            let d = snap(w).since(cp_before);
            m.gced_per_checkpoint.push(d.versions_gced);
            m.evictions_per_checkpoint.push(d.pool_evictions);
        }
        if let Some(before) = before {
            let with_checkpoint = snap(w).since(before);
            m.with_checkpoints = m.with_checkpoints.plus(with_checkpoint);
        }
        let rate = completed as f64 / ((batch_ns + ns) as f64 / 1e9);
        if traced {
            m.traced_rates.push(rate);
        } else {
            m.rates.push(rate);
        }
        m.checkpoint_ns.push(ns);
        m.log_bytes_at_checkpoint.push(log_bytes);
        if clock.done() || m.failed > 0 {
            break;
        }
    }
    m.recovery_ms = clock.recovery_ms();
    m.recovered = clock.recovered;
    m
}

/// Every acknowledged key is `completed`, every instance's order is
/// closed and shipped, and nothing else is in flight.
fn verify(w: &World, acked: &[u64]) -> bool {
    let conn = w.db.connect();
    let rs = conn
        .query("SELECT InstanceKey, Status FROM FLOW_INSTANCES", &[])
        .expect("instance query");
    let status: BTreeMap<String, String> = rs
        .rows
        .iter()
        .map(|r| (r[0].render(), r[1].render()))
        .collect();
    let all_acked_completed = acked
        .iter()
        .all(|n| status.get(&instance_key(*n)).map(String::as_str) == Some(STATUS_COMPLETED));
    let all_completed = status.values().all(|s| s == STATUS_COMPLETED);
    let count = |sql: &str| {
        conn.query(sql, &[])
            .ok()
            .and_then(|rs| rs.rows.first().and_then(|r| r[0].as_i64()))
            .unwrap_or(-1)
    };
    let instances = status.len() as i64;
    all_acked_completed
        && all_completed
        && count("SELECT COUNT(*) FROM Orders WHERE Approved = TRUE") == instances
        && count("SELECT COUNT(*) FROM Shipments") == instances
}

/// Run the durable workload.
pub fn run(cfg: &RunConfig, size: IntakeSize) -> Outcome {
    let mut out = Outcome::default();
    let (mut w, setup_s) = crate::median_time(SETUP_REPS, || setup(cfg.seed, size));
    let first_run = w.next;
    let p = drive(&mut w, cfg.seed, size, cfg.length, cfg.traced);
    let acked: Vec<u64> = p.records.iter().filter(|r| r.ok).map(|r| r.n).collect();
    out.attempted = p.records.len() as u64;
    out.failed = p.failed;
    out.correct = verify(&w, &acked) && p.recovered && p.failed == 0;
    let done = p.records.iter().filter(|r| r.ok);
    if cfg.traced {
        layer_metrics(&mut out, &p);
        out.set("pager.pages_repaired", w.db.stats().pages_repaired as f64);
        crate::tail_latency(&mut out, &done.map(|r| us(r.run_ns())).collect::<Vec<_>>());
    } else {
        let done: Vec<(usize, f64)> = done.map(|r| (r.stack(), us(r.run_ns()))).collect();
        crate::end_to_end(&mut out, setup_s, &p.rates, &done, p.recovery_ms);
    }
    out.meta("parked_instances", size.parked);
    out.meta("instances_added", w.next - first_run);
    out.meta("pool_pages", size.pool_pages);
    out.meta("checkpoint_cadence_instances", size.cadence);
    out.meta("workers", WORKERS);
    out
}

fn layer_metrics(out: &mut Outcome, t: &Measured) {
    let recs: Vec<&Record> = t.records.iter().filter(|r| r.traced).collect();
    let n = recs.len().max(1) as f64;
    let per = |total: u64| total as f64 / n;
    let mean_over = |keep: &dyn Fn(&Record) -> bool, f: &dyn Fn(&Record) -> f64| {
        mean(
            &recs
                .iter()
                .filter(|r| keep(r))
                .map(|r| f(r))
                .collect::<Vec<_>>(),
        )
    };
    let all = |_: &Record| true;
    let owned_bodies = |r: &Record| STACKS[r.stack()] != "soa";
    let is_adapter = |r: &Record| STACKS[r.stack()] == "adapter";

    let run_us = mean_over(&all, &|r| us(r.run_ns()));
    let self_us = mean_over(&all, &|r| us(r.run_ns() - r.children.step_body_ns));
    let body_stmts: u64 = recs
        .iter()
        .map(|r| {
            if owned_bodies(r) {
                r.children.step_stmts
            } else {
                SOA_PAGE_STMTS
            }
        })
        .sum();

    let mut busy = [0u64; WORKERS];
    for r in &recs {
        busy[r.worker] += r.run_ns();
    }
    let busy: Vec<f64> = busy.iter().map(|b| *b as f64).collect();
    let coverage = (0..WORKERS)
        .map(|k| ratio(busy[k], t.worker_wall_ns[k] as f64))
        .fold(f64::INFINITY, f64::min);
    let mut ordered = recs.clone();
    ordered.sort_by_key(|r| r.n);
    let series: Vec<f64> = ordered.iter().map(|r| us(r.run_ns())).collect();
    let traced_ips = median(&t.traced_rates);
    let untraced_ips = median(&t.rates);

    let c = t.counters;
    out.set("flowcore.engine.run_us", 0.0);
    out.set("flowcore.engine.uncovered_us", 0.0);
    out.set("flowcore.persistence.run_us", run_us);
    out.set("flowcore.persistence.self_us", self_us);
    out.set("flowcore.persistence.self_share", ratio(self_us, run_us));
    out.set(
        "flowcore.persistence.bookkeeping_stmts_per_instance",
        per(c.statements.saturating_sub(body_stmts)),
    );
    out.set(
        "flowcore.scheduler.worker_skew",
        ratio(busy.iter().cloned().fold(0.0, f64::max), mean(&busy)),
    );
    out.set("flowcore.scheduler.span_coverage", coverage);
    out.set("flowcore.latency_drift", stats::drift(&series));
    out.set("service.supplier_us", 0.0);
    out.set("service.supplier_calls_per_instance", 0.0);
    out.set(
        "adapter.handle_us",
        mean_over(&is_adapter, &|r| us(r.children.adapter_ns)),
    );
    out.set(
        "adapter.envelope_bytes_per_instance",
        mean_over(&is_adapter, &|r| r.children.envelope_bytes as f64),
    );
    out.set("sqlkernel.sql1_us", 0.0);
    out.set("sqlkernel.sql1_share", 0.0);
    out.set("xmlval.rowset_encode_us", 0.0);
    out.set("wf.dataset_fill_us", 0.0);
    out.set("soa.query_database_us", 0.0);
    out.set(
        "sqlkernel.step_sql_us",
        mean_over(&owned_bodies, &|r| us(r.children.step_sql_ns)),
    );
    crate::counter_metrics(out, &c, per);
    crate::checkpoint_metrics(
        out,
        &t.checkpoint_ns,
        &t.log_bytes_at_checkpoint,
        &t.gced_per_checkpoint,
    );
    let p = t.with_checkpoints;
    out.set(
        "pager.pool_hit_ratio",
        ratio(p.pool_hits as f64, (p.pool_hits + p.pool_misses) as f64),
    );
    out.set(
        "pager.pool_evictions_per_checkpoint",
        mean(
            &t.evictions_per_checkpoint
                .iter()
                .map(|e| *e as f64)
                .collect::<Vec<_>>(),
        ),
    );
    out.set(
        "trace.overhead_pct",
        100.0 * (1.0 - ratio(traced_ips, untraced_ips)),
    );
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) const SMOKE_INTAKE: IntakeSize = IntakeSize {
        parked: 200,
        cadence: 8,
        pool_pages: 4,
        item_types: 20,
    };

    /// Seeded tables, without the warm-up instances' rows.
    fn seeded(w: &World) -> String {
        let parked = SMOKE_INTAKE.parked as i64;
        let conn = w.db.connect();
        [
            "FLOW_INSTANCES WHERE InstanceKey < 'intake-0000200'",
            "Orders WHERE OrderId < ?",
        ]
        .iter()
        .map(|from| {
            let params: &[Value] = if from.contains('?') {
                &[Value::Int(parked)]
            } else {
                &[]
            };
            let rs = conn
                .query(&format!("SELECT * FROM {from} ORDER BY 1"), params)
                .unwrap();
            patterns::chaos::rows_fingerprint(&rs)
        })
        .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_tables() {
        let a = setup(5, SMOKE_INTAKE);
        let b = setup(5, SMOKE_INTAKE);
        assert_eq!(seeded(&a), seeded(&b));
        let c = setup(6, SMOKE_INTAKE);
        assert_ne!(seeded(&a), seeded(&c));
        assert_eq!(
            a.db.table_len("FLOW_INSTANCES").unwrap(),
            c.db.table_len("FLOW_INSTANCES").unwrap()
        );
    }

    #[test]
    fn verification_catches_an_unfinished_instance() {
        let w = setup(5, SMOKE_INTAKE);
        let all: Vec<u64> = (0..w.next).collect();
        assert!(verify(&w, &all));
        w.db.connect()
            .execute(
                "UPDATE FLOW_INSTANCES SET Status = 'running' WHERE InstanceKey = ?",
                &[Value::text(instance_key(3))],
            )
            .unwrap();
        assert!(!verify(&w, &all));
    }
}
