//! `order_scan` and `order_fanout`: the running example (Figs. 4/6/8 and
//! the adapter baseline) as workflow instances.
//!
//! Two closed-loop clients share one [`Engine`] and one WAL-backed
//! database, as one server would. Instances run in epochs of `cadence`
//! tickets; each epoch runs equal shares of the four realizations in a
//! seeded shuffle (`gen::stack_schedule`). Between epochs the
//! clients wait while the main thread checks the epoch's confirmations,
//! clears them (so the table and the log stay bounded) and checkpoints.
//! Recovery is measured at epoch boundaries before the checkpoint, so
//! it replays one epoch's log tail.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use flowcore::{Engine, Message, ProcessDefinition, ServiceRegistry, Variables};
use patterns::ORDER_FROM_SUPPLIER;
use sqlkernel::{Database, MemLogStore, Value};

use crate::gen::{self, OrderShape};
use crate::report::Outcome;
use crate::stats::{self, mean, median, ratio, us};
use crate::trace::{self, Children, Counters};
use crate::{RunConfig, CLIENTS, STACKS};

/// Name of the adapter service the adapter realization calls.
const ADAPTER_SERVICE: &str = "ds";
/// How many times a run sets the world up; `setup_s` is the median.
const SETUP_REPS: usize = 7;
/// Probe groups run after each traced epoch.
const PROBES_PER_EPOCH: usize = 16;

/// Input size and checkpoint cadence of an order workload.
#[derive(Debug, Clone, Copy)]
pub struct OrderSize {
    pub shape: OrderShape,
    /// Instances per epoch; the database checkpoints after each.
    pub cadence: usize,
}

pub const SCAN: OrderSize = OrderSize {
    shape: OrderShape {
        rows: 20_000,
        item_types: 8,
    },
    cadence: 256,
};

pub const FANOUT: OrderSize = OrderSize {
    shape: OrderShape {
        rows: 2_000,
        item_types: 200,
    },
    cadence: 64,
};

const SCHEMA: &str = "CREATE TABLE Orders (
        OrderId INT PRIMARY KEY,
        ItemId TEXT NOT NULL,
        Quantity INT NOT NULL,
        Approved BOOL NOT NULL);
     CREATE TABLE OrderConfirmations (
        ConfId INT PRIMARY KEY,
        ItemId TEXT NOT NULL,
        Quantity INT NOT NULL,
        Confirmation TEXT);
     CREATE SEQUENCE conf_ids START WITH 1;";

/// The database, its log, the shared engine and the expected aggregate.
struct World {
    db: Database,
    store: MemLogStore,
    engine: Engine,
    expected: BTreeMap<String, i64>,
    sql_1: String,
}

fn engine_for(db: &Database) -> Engine {
    let mut services = ServiceRegistry::new();
    services.register_fn(ORDER_FROM_SUPPLIER, |input: &Message| {
        trace::supplier(|| {
            let item = input.scalar_part("ItemType")?.render();
            let qty = input.scalar_part("Quantity")?.render();
            Ok(Message::new().with_part(
                "Confirmation",
                Value::Text(format!("confirmed:{item}:{qty}")),
            ))
        })
    });
    let service = adapter::DataAdapterService::new(db.clone());
    services.register_fn(ADAPTER_SERVICE, move |input: &Message| {
        let request = input
            .scalar_part("request")?
            .as_str()
            .ok_or_else(|| flowcore::FlowError::Service("adapter request must be text".into()))?;
        let response = trace::adapter(request.len(), || service.handle(request))?;
        Ok(Message::new().with_part("response", Value::Text(response)))
    });
    Engine::with_services(services)
}

/// One realization per stack, in [`STACKS`] order.
fn definitions(db: &Database) -> [ProcessDefinition; 4] {
    [
        bis::figure4_process(bis::DataSourceRegistry::new().with(db.clone()), db.name()),
        wf::figure6_process(db.clone()),
        soa::figure8_process(db.clone()),
        adapter::sample_process_via_adapter(ADAPTER_SERVICE),
    ]
}

fn setup(seed: u64, size: OrderSize) -> World {
    let store = MemLogStore::new();
    let db = Database::with_wal("orders_db", Arc::new(store.clone()));
    let conn = db.connect();
    conn.execute_script(SCHEMA).expect("schema");
    let orders = gen::orders(seed, size.shape);
    let expected = gen::expected_item_list(&orders);
    gen::load(
        &conn,
        "INSERT INTO Orders VALUES (?, ?, ?, ?)",
        orders.iter().map(gen::Order::to_row).collect(),
    )
    .expect("load orders");
    let world = World {
        engine: engine_for(&db),
        sql_1: patterns::probe::aggregation_query("Orders"),
        db,
        store,
        expected,
    };
    // Warm-up: one instance per realization fills the statement and plan
    // caches before anything is timed.
    let defs = definitions(&world.db);
    for def in &defs {
        let inst = world.engine.run(def, Variables::new()).expect("warm-up");
        assert!(inst.is_completed(), "warm-up instance: {:?}", inst.outcome);
    }
    assert!(verify_epoch(&world, defs.len() as u64), "warm-up output");
    clear(&world);
    world.db.checkpoint().expect("checkpoint");
    world
}

/// The epoch's confirmations: per item, exactly `completed` rows of the
/// expected aggregate and text, and no leftover BIS result tables.
fn verify_epoch(w: &World, completed: u64) -> bool {
    let rs =
        w.db.connect()
            .query(
                "SELECT ItemId, Quantity, Confirmation, COUNT(*) FROM OrderConfirmations \
             GROUP BY ItemId, Quantity, Confirmation ORDER BY ItemId",
                &[],
            )
            .expect("confirmation query");
    let got: Vec<(String, i64, String, i64)> = rs
        .rows
        .iter()
        .map(|r| {
            (
                r[0].render(),
                r[1].as_i64().unwrap_or(-1),
                r[2].render(),
                r[3].as_i64().unwrap_or(-1),
            )
        })
        .collect();
    let want: Vec<(String, i64, String, i64)> = if completed == 0 {
        Vec::new()
    } else {
        w.expected
            .iter()
            .map(|(item, qty)| {
                (
                    item.clone(),
                    *qty,
                    format!("confirmed:{item}:{qty}"),
                    completed as i64,
                )
            })
            .collect()
    };
    let no_leftovers =
        w.db.table_names()
            .iter()
            .all(|t| !t.to_ascii_lowercase().starts_with("rs_sr_itemlist"));
    got == want && no_leftovers
}

fn clear(w: &World) {
    w.db.connect()
        .execute("DELETE FROM OrderConfirmations", &[])
        .expect("clear confirmations");
}

/// Probe spans: the pieces of an instance the stacks do not expose,
/// timed through the same public functions on the same database.
/// [`PROBES_PER_EPOCH`] run after each traced epoch, while the clients
/// wait, so they neither compete with instances nor enter the epoch's
/// counter deltas.
#[derive(Debug, Clone, Copy, Default)]
struct Probes {
    sql1_ns: u64,
    encode_ns: u64,
    fill_ns: u64,
    query_database_ns: u64,
}

impl Probes {
    /// What realization `stack` spends on SQL_1 and marshalling its
    /// result outside the spans recorded in situ.
    fn estimate_ns(&self, stack: usize) -> u64 {
        match STACKS[stack] {
            "bis" => self.sql1_ns + self.encode_ns,
            "wf" => self.sql1_ns + self.fill_ns,
            "soa" => self.query_database_ns,
            // SQL_1 runs inside the adapter handler's span; the process
            // side still encodes the decoded RowSet.
            _ => self.encode_ns,
        }
    }
}

fn probe(w: &World, conn: &sqlkernel::Connection) -> Probes {
    let (rs, sql1_ns) = trace::timed(|| conn.query(&w.sql_1, &[]).expect("SQL_1 probe"));
    let (x, encode_ns) = trace::timed(|| xmlval::rowset::encode(&rs));
    black_box(x);
    let (ds, fill_ns) = trace::timed(|| wf::DataSet::from_result("SV_ItemList", &rs));
    black_box(ds);
    let (q, query_database_ns) =
        trace::timed(|| soa::query_database(&w.db, &w.sql_1).expect("query-database probe"));
    black_box(q);
    Probes {
        sql1_ns,
        encode_ns,
        fill_ns,
        query_database_ns,
    }
}

/// One finished instance.
#[derive(Debug, Clone, Copy)]
struct Record {
    client: usize,
    stack: usize,
    ok: bool,
    /// Ran in a traced epoch.
    traced: bool,
    /// Start, relative to the run start.
    start_ns: u64,
    run_ns: u64,
    children: Children,
}

struct Shared {
    /// The realization of each ticket of the current epoch.
    schedule: Mutex<Vec<usize>>,
    ticket: AtomicUsize,
    stop: AtomicBool,
    barrier: Barrier,
    records: Mutex<Vec<Record>>,
    t0: Instant,
}

fn client(c: usize, w: &World, s: &Shared) {
    let defs = definitions(&w.db);
    loop {
        s.barrier.wait();
        if s.stop.load(Ordering::SeqCst) {
            return;
        }
        let schedule = s.schedule.lock().expect("schedule lock").clone();
        let mut local = Vec::new();
        loop {
            let ticket = s.ticket.fetch_add(1, Ordering::SeqCst);
            let Some(&stack) = schedule.get(ticket) else {
                break;
            };
            trace::take_children();
            let start = Instant::now();
            let inst = w.engine.run(&defs[stack], Variables::new());
            let run_ns = start.elapsed().as_nanos() as u64;
            let ok = matches!(&inst, Ok(i) if i.is_completed());
            let children = trace::take_children();
            local.push(Record {
                client: c,
                stack,
                ok,
                traced: false,
                start_ns: start.duration_since(s.t0).as_nanos() as u64,
                run_ns,
                children,
            });
        }
        s.records.lock().expect("records lock").extend(local);
        s.barrier.wait();
    }
}

/// What one run measured.
#[derive(Default)]
struct Measured {
    records: Vec<Record>,
    /// Completed instances per second of each untraced epoch and the
    /// checkpoint after it.
    rates: Vec<f64>,
    /// The same, of traced epochs.
    traced_rates: Vec<f64>,
    /// Wall time of the traced epochs.
    traced_ns: u64,
    checkpoint_ns: Vec<u64>,
    log_bytes_at_checkpoint: Vec<u64>,
    gced_per_checkpoint: Vec<u64>,
    probes: Vec<Probes>,
    /// Counter deltas over traced epochs only.
    counters: Counters,
    failed: u64,
    correct: bool,
    recovery_ms: f64,
}

/// Run epochs for `length` of measured time. With `alternate`, every
/// second epoch is traced.
fn drive(w: &World, seed: u64, size: OrderSize, length: Duration, alternate: bool) -> Measured {
    let conn = w.db.connect();
    let shared = Shared {
        schedule: Mutex::new(Vec::new()),
        ticket: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        barrier: Barrier::new(CLIENTS + 1),
        records: Mutex::new(Vec::new()),
        t0: Instant::now(),
    };
    let mut m = Measured {
        correct: true,
        ..Measured::default()
    };
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let shared = &shared;
            scope.spawn(move || client(c, w, shared));
        }
        let mut clock = crate::Clock::start(length);
        for epoch in 0.. {
            let traced = alternate && epoch % 2 == 1;
            *shared.schedule.lock().expect("schedule lock") =
                gen::stack_schedule(seed, epoch, size.cadence, STACKS.len());
            shared.ticket.store(0, Ordering::SeqCst);
            let before = traced.then(|| Counters::of(&w.db.snapshot()));
            trace::set_enabled(traced);
            let t = Instant::now();
            shared.barrier.wait();
            shared.barrier.wait();
            let epoch_ns = t.elapsed().as_nanos() as u64;
            trace::set_enabled(false);
            let mut epoch: Vec<Record> =
                std::mem::take(&mut *shared.records.lock().expect("records lock"));
            if let Some(before) = before {
                let delta = Counters::of(&w.db.snapshot()).since(before);
                m.counters = m.counters.plus(delta);
                m.traced_ns += epoch_ns;
                for r in &mut epoch {
                    r.traced = true;
                }
                for _ in 0..PROBES_PER_EPOCH.min(epoch.len()) {
                    m.probes.push(probe(w, &conn));
                }
            }
            let completed = epoch.iter().filter(|r| r.ok).count() as u64;
            let faulted = epoch.len() as u64 - completed;
            if faulted > 0 || !verify_epoch(w, completed) {
                // A mismatch taints every instance of the epoch.
                m.failed += epoch.len() as u64;
                m.correct = false;
            }
            m.records.extend(epoch);
            clock.boundary(&w.db, || {
                let copy = Arc::new(MemLogStore::from_bytes(w.store.bytes()));
                trace::timed(|| Database::recover("orders_db_recovered", copy))
            });
            clear(w);
            let log_bytes = w.store.bytes().len() as u64;
            let gc_before = alternate.then(|| Counters::of(&w.db.snapshot()));
            let (r, ns) = trace::timed(|| w.db.checkpoint());
            r.expect("checkpoint");
            if let Some(gc_before) = gc_before {
                let gced = Counters::of(&w.db.snapshot())
                    .since(gc_before)
                    .versions_gced;
                m.gced_per_checkpoint.push(gced);
            }
            let rate = completed as f64 / ((epoch_ns + ns) as f64 / 1e9);
            if traced {
                m.traced_rates.push(rate);
            } else {
                m.rates.push(rate);
            }
            m.checkpoint_ns.push(ns);
            m.log_bytes_at_checkpoint.push(log_bytes);
            if clock.done() || !m.correct {
                break;
            }
        }
        shared.stop.store(true, Ordering::SeqCst);
        shared.barrier.wait();
        m.correct &= clock.recovered;
        m.recovery_ms = clock.recovery_ms();
    });
    m
}

/// Run one order workload.
pub fn run(cfg: &RunConfig, size: OrderSize) -> Outcome {
    let mut out = Outcome::default();
    let (w, setup_s) = crate::median_time(SETUP_REPS, || setup(cfg.seed, size));
    let p = drive(&w, cfg.seed, size, cfg.length, cfg.traced);
    out.attempted = p.records.len() as u64;
    out.failed = p.failed;
    out.correct = p.correct && p.failed == 0;
    let done = p.records.iter().filter(|r| r.ok);
    if cfg.traced {
        layer_metrics(&mut out, &p);
        crate::tail_latency(&mut out, &done.map(|r| us(r.run_ns)).collect::<Vec<_>>());
    } else {
        let done: Vec<(usize, f64)> = done.map(|r| (r.stack, us(r.run_ns))).collect();
        crate::end_to_end(&mut out, setup_s, &p.rates, &done, p.recovery_ms);
    }
    out.meta("input_orders", size.shape.rows);
    out.meta("input_item_types", size.shape.item_types);
    out.meta("checkpoint_cadence_instances", size.cadence);
    out.meta("clients", CLIENTS);
    out
}

fn layer_metrics(out: &mut Outcome, t: &Measured) {
    let recs: Vec<&Record> = t.records.iter().filter(|r| r.traced).collect();
    let n = recs.len().max(1) as f64;
    let per = |total: u64| total as f64 / n;
    let mean_of = |f: &dyn Fn(&Record) -> f64| mean(&recs.iter().map(|r| f(r)).collect::<Vec<_>>());
    let probe_mean = |f: &dyn Fn(&Probes) -> u64| {
        mean(&t.probes.iter().map(|p| f(p) as f64).collect::<Vec<_>>()).round() as u64
    };
    let probes = Probes {
        sql1_ns: probe_mean(&|p| p.sql1_ns),
        encode_ns: probe_mean(&|p| p.encode_ns),
        fill_ns: probe_mean(&|p| p.fill_ns),
        query_database_ns: probe_mean(&|p| p.query_database_ns),
    };

    let run_us = mean_of(&|r| us(r.run_ns));
    let uncovered = mean_of(&|r| {
        let covered = r.children.supplier_ns + r.children.adapter_ns + probes.estimate_ns(r.stack);
        us(r.run_ns) - us(covered)
    });
    let sql1 = us(probes.sql1_ns);
    let adapter_recs: Vec<&Record> = recs
        .iter()
        .copied()
        .filter(|r| STACKS[r.stack] == "adapter")
        .collect();
    let adapter_mean =
        |f: &dyn Fn(&Record) -> f64| mean(&adapter_recs.iter().map(|r| f(r)).collect::<Vec<_>>());

    let mut busy = [0u64; CLIENTS];
    for r in &recs {
        busy[r.client] += r.run_ns;
    }
    let busy: Vec<f64> = busy.iter().map(|b| *b as f64).collect();
    let max_busy = busy.iter().cloned().fold(0.0, f64::max);
    let min_busy = busy.iter().cloned().fold(f64::INFINITY, f64::min);

    let mut ordered = recs.clone();
    ordered.sort_by_key(|r| r.start_ns);
    let series: Vec<f64> = ordered.iter().map(|r| us(r.run_ns)).collect();
    let traced_ips = median(&t.traced_rates);
    let untraced_ips = median(&t.rates);

    out.set("flowcore.engine.run_us", run_us);
    out.set("flowcore.engine.uncovered_us", uncovered);
    out.set("flowcore.persistence.run_us", 0.0);
    out.set("flowcore.persistence.self_us", 0.0);
    out.set("flowcore.persistence.self_share", 0.0);
    out.set("flowcore.persistence.bookkeeping_stmts_per_instance", 0.0);
    out.set(
        "flowcore.scheduler.worker_skew",
        ratio(max_busy, mean(&busy)),
    );
    out.set(
        "flowcore.scheduler.span_coverage",
        ratio(min_busy, t.traced_ns as f64),
    );
    out.set("flowcore.latency_drift", stats::drift(&series));
    out.set(
        "service.supplier_us",
        mean_of(&|r| us(r.children.supplier_ns)),
    );
    out.set(
        "service.supplier_calls_per_instance",
        mean_of(&|r| r.children.supplier_calls as f64),
    );
    out.set(
        "adapter.handle_us",
        adapter_mean(&|r| us(r.children.adapter_ns)),
    );
    out.set(
        "adapter.envelope_bytes_per_instance",
        adapter_mean(&|r| r.children.envelope_bytes as f64),
    );
    out.set("sqlkernel.sql1_us", sql1);
    out.set("sqlkernel.sql1_share", ratio(sql1, run_us));
    out.set("xmlval.rowset_encode_us", us(probes.encode_ns));
    out.set("wf.dataset_fill_us", us(probes.fill_ns));
    out.set("soa.query_database_us", us(probes.query_database_ns));
    out.set("sqlkernel.step_sql_us", 0.0);
    crate::counter_metrics(out, &t.counters, per);
    crate::checkpoint_metrics(
        out,
        &t.checkpoint_ns,
        &t.log_bytes_at_checkpoint,
        &t.gced_per_checkpoint,
    );
    out.set("pager.pool_hit_ratio", 0.0);
    out.set("pager.pool_evictions_per_checkpoint", 0.0);
    out.set("pager.pages_repaired", 0.0);
    out.set(
        "trace.overhead_pct",
        100.0 * (1.0 - ratio(traced_ips, untraced_ips)),
    );
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use patterns::chaos::db_fingerprint;

    pub(crate) const SMOKE_SCAN: OrderSize = OrderSize {
        shape: OrderShape {
            rows: 400,
            item_types: 8,
        },
        cadence: 8,
    };

    pub(crate) const SMOKE_FANOUT: OrderSize = OrderSize {
        shape: OrderShape {
            rows: 200,
            item_types: 20,
        },
        cadence: 8,
    };

    #[test]
    fn same_seed_gives_byte_identical_tables() {
        let a = setup(11, SMOKE_FANOUT);
        let b = setup(11, SMOKE_FANOUT);
        assert_eq!(db_fingerprint(&a.db), db_fingerprint(&b.db));
        assert_eq!(a.expected, b.expected);
    }

    #[test]
    fn other_seed_keeps_input_sizes() {
        let a = setup(11, SMOKE_SCAN);
        let b = setup(12, SMOKE_SCAN);
        assert_ne!(db_fingerprint(&a.db), db_fingerprint(&b.db));
        for w in [&a, &b] {
            assert_eq!(w.db.table_len("Orders").unwrap(), SMOKE_SCAN.shape.rows);
            assert_eq!(w.expected.len(), SMOKE_SCAN.shape.item_types);
        }
    }

    #[test]
    fn verification_catches_a_wrong_confirmation() {
        let w = setup(3, SMOKE_SCAN);
        let def = definitions(&w.db);
        let inst = w.engine.run(&def[0], Variables::new()).unwrap();
        assert!(inst.is_completed());
        assert!(verify_epoch(&w, 1));
        assert!(!verify_epoch(&w, 2));
        w.db.connect()
            .execute(
                "UPDATE OrderConfirmations SET Confirmation = 'confirmed:x:0' WHERE ConfId = \
                 (SELECT MIN(ConfId) FROM OrderConfirmations)",
                &[],
            )
            .unwrap();
        assert!(!verify_epoch(&w, 1));
    }
}
