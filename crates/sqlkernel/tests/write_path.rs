//! Write-path parity: one INSERT/UPDATE/DELETE sequence, run through
//! every public DML entry point (`execute`, `execute_prepared`,
//! `execute_batch`, `execute_ast`, `execute_script`) in a subquery-free
//! form and a subquery-bearing rewrite, must log the same redo and
//! recover to the same database. Injected failures — a transient after
//! bind, a panic mid-apply, a refused WAL append — must leave the table
//! and the log byte-unchanged on every path, and the retried statement
//! must then succeed and recover.

mod common;

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;

use common::{db_fingerprint, recovered_fingerprint};
use sqlkernel::parser::parse_statement;
use sqlkernel::wal::{scan, WalOp, WalRecord};
use sqlkernel::{
    Connection, Database, Fault, FaultPlan, LogStore, MemLogStore, SqlResult, TransientKind, Value,
};

/// A log store whose appends can be refused on demand.
#[derive(Debug, Default)]
struct FlakyStore {
    inner: MemLogStore,
    fail: AtomicBool,
}

impl LogStore for FlakyStore {
    fn append(&self, bytes: &[u8]) -> SqlResult<()> {
        if self.fail.load(SeqCst) {
            return Err(TransientKind::ConnectionReset.error());
        }
        self.inner.append(bytes)
    }
    fn read_all(&self) -> SqlResult<Vec<u8>> {
        self.inner.read_all()
    }
    fn reset(&self, bytes: &[u8]) -> SqlResult<()> {
        self.inner.reset(bytes)
    }
    fn size(&self) -> SqlResult<u64> {
        self.inner.size()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    Execute,
    Prepared,
    Batch,
    Ast,
    Script,
}

use Entry::*;

const ENTRIES: [Entry; 5] = [Execute, Prepared, Batch, Ast, Script];

/// One parameter set: `params![1, 10, "a"]`.
macro_rules! params {
    ($($v:expr),*) => { vec![$(Value::from($v)),*] };
}

/// One DML statement, spelled `[subquery-free, subquery-bearing]` with
/// the same effect, and the parameter sets it runs with.
type Step = ([&'static str; 2], Vec<Vec<Value>>);

/// The parity sequence: inserts, point updates (one matching nothing),
/// point deletes. No step writes one row twice: a batch derives its
/// redo once, at the end of the step.
fn sequence() -> Vec<Step> {
    vec![
        (
            [
                "INSERT INTO t VALUES (?, ?, ?)",
                "INSERT INTO t VALUES ((SELECT COUNT(*) FROM t WHERE id < 0) + ?, ?, ?)",
            ],
            (1..=5).map(|i| params![i, i * 10, "a"]).collect(),
        ),
        (
            [
                "UPDATE t SET v = v + ?, s = ? WHERE id = ?",
                "UPDATE t SET v = v + ?, s = ? WHERE id IN (SELECT id FROM t WHERE id = ?)",
            ],
            vec![
                params![1, "x", 2],
                params![5, "y", 4],
                params![7, "z", 1],
                params![9, "w", 99],
            ],
        ),
        (
            [
                "DELETE FROM t WHERE id = ?",
                "DELETE FROM t WHERE id IN (SELECT id FROM t WHERE id = ?)",
            ],
            vec![params![3], params![5]],
        ),
    ]
}

/// Statements that each touch two rows of the seeded table, for the
/// failure-injection runs.
fn two_row_steps() -> Vec<Step> {
    vec![
        (
            [
                "INSERT INTO t VALUES (?, ?, ?), (?, ?, ?)",
                "INSERT INTO t VALUES ((SELECT COUNT(*) FROM t WHERE id < 0) + ?, ?, ?), \
                 ((SELECT COUNT(*) FROM t WHERE id < 0) + ?, ?, ?)",
            ],
            vec![params![10, 100, "n", 11, 110, "m"]],
        ),
        (
            [
                "UPDATE t SET v = v + ? WHERE id <= ?",
                "UPDATE t SET v = v + ? WHERE id IN (SELECT id FROM t WHERE id <= ?)",
            ],
            vec![params![100, 2]],
        ),
        (
            [
                "DELETE FROM t WHERE id <= ?",
                "DELETE FROM t WHERE id IN (SELECT id FROM t WHERE id <= ?)",
            ],
            vec![params![2]],
        ),
    ]
}

/// Run one step through one entry point.
fn apply(conn: &Connection, entry: Entry, sql: &str, sets: &[Vec<Value>]) -> SqlResult<()> {
    match entry {
        Execute => sets.iter().try_for_each(|p| conn.execute(sql, p).map(drop)),
        Prepared => {
            let stmt = conn.prepare(sql)?;
            sets.iter()
                .try_for_each(|p| conn.execute_prepared(&stmt, p).map(drop))
        }
        Batch => conn.execute_batch(sql, sets).map(drop),
        Ast => {
            let stmt = parse_statement(sql)?;
            sets.iter()
                .try_for_each(|p| conn.execute_ast(&stmt, p).map(drop))
        }
        Script => {
            // Scripts take no parameters: inline them as literals.
            let inline = |p: &Vec<Value>| {
                p.iter().fold(sql.to_string(), |s, v| {
                    s.replacen('?', &v.to_sql_literal(), 1)
                })
            };
            let script: Vec<String> = sets.iter().map(inline).collect();
            conn.execute_script(&script.join(";\n")).map(drop)
        }
    }
}

fn fresh(seed_rows: bool) -> (Database, Arc<FlakyStore>) {
    let store = Arc::new(FlakyStore::default());
    let db = Database::with_wal("wp", store.clone());
    let conn = db.connect();
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, s TEXT)", &[])
        .unwrap();
    if seed_rows {
        let seed = "INSERT INTO t VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'c'), (4, 40, 'd')";
        conn.execute(seed, &[]).unwrap();
    }
    (db, store)
}

/// Run the sequence; returns the log's records, the live fingerprint
/// and the fingerprint recovered from the log.
fn run_sequence(entry: Entry, subquery: bool) -> (Vec<WalRecord>, String, String) {
    let (db, store) = fresh(false);
    let conn = db.connect();
    for (sql, sets) in sequence() {
        apply(&conn, entry, sql[subquery as usize], &sets)
            .unwrap_or_else(|e| panic!("{entry:?} subquery={subquery}: {e}"));
    }
    let log = store.inner.bytes();
    let scanned = scan(&log);
    assert!(!scanned.truncated);
    let records = scanned.records.into_iter().map(|(_, r)| r).collect();
    (records, db_fingerprint(&db), recovered_fingerprint(log))
}

fn ops(records: &[WalRecord]) -> Vec<&WalOp> {
    records
        .iter()
        .filter_map(|r| match r {
            WalRecord::Op { op, .. } => Some(op),
            _ => None,
        })
        .collect()
}

#[test]
fn every_entry_point_logs_the_same_redo_and_recovers_the_same_state() {
    let (records, live, recovered) = run_sequence(Execute, false);
    assert_eq!(live, recovered);
    assert!(live.contains("[Int(1), Int(17), Text(\"z\")]"));
    assert!(!live.contains("[Int(3),"));
    assert_eq!(
        ops(&records).len(),
        1 + 5 + 3 + 2,
        "create, 5 ins, 3 upd, 2 del"
    );
    for entry in ENTRIES {
        for subquery in [false, true] {
            let (got, got_live, got_recovered) = run_sequence(entry, subquery);
            let what = format!("{entry:?} subquery={subquery}");
            assert_eq!(ops(&got), ops(&records), "{what}: redo ops");
            // A batch is one transaction per step, so only its framing
            // (Begin and Commit records, txn ids) may differ.
            if entry != Batch {
                assert_eq!(got, records, "{what}: records");
            }
            assert_eq!(got_live, live, "{what}: live state");
            assert_eq!(got_recovered, live, "{what}: recovered state");
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Injected {
    AfterBind,
    PanicInApply,
    WalAppend,
}

/// Inject one failure into each statement on each path: the statement
/// must fail, leave table and log byte-unchanged, and succeed (and
/// recover) when retried.
fn fail_then_retry(entries: &[Entry], steps: &[Step], injected: Injected) {
    for &entry in entries {
        for subquery in [false, true] {
            for (sql, sets) in steps {
                let sql = sql[subquery as usize];
                let what = format!("{injected:?} {entry:?}: {sql}");
                let (db, store) = fresh(true);
                let conn = db.connect();
                let (before, log_before) = (db_fingerprint(&db), store.inner.bytes());
                let fault = match injected {
                    Injected::AfterBind => Some(Fault::AfterBind(TransientKind::DeadlockVictim)),
                    Injected::PanicInApply => Some(Fault::PanicAfterRows { rows: 2 }),
                    Injected::WalAppend => None,
                };
                db.set_fault_plan(fault.map(|f| FaultPlan::new(1).fault_at(0, f)));
                store.fail.store(injected == Injected::WalAppend, SeqCst);
                assert!(apply(&conn, entry, sql, sets).is_err(), "{what}: must fail");
                db.set_fault_plan(None);
                store.fail.store(false, SeqCst);
                assert_eq!(db_fingerprint(&db), before, "{what}: table changed");
                assert_eq!(store.inner.bytes(), log_before, "{what}: log changed");

                apply(&conn, entry, sql, sets).unwrap_or_else(|e| panic!("{what}: retry: {e}"));
                let after = db_fingerprint(&db);
                assert_ne!(after, before, "{what}: retry applied nothing");
                assert_eq!(recovered_fingerprint(store.inner.bytes()), after, "{what}");
            }
        }
    }
}

#[test]
fn panic_in_apply_leaves_table_and_log_unchanged_on_every_path() {
    fail_then_retry(&ENTRIES, &two_row_steps(), Injected::PanicInApply);
}

#[test]
fn wal_append_failure_leaves_table_and_log_unchanged_on_every_path() {
    fail_then_retry(&ENTRIES, &two_row_steps(), Injected::WalAppend);
}

#[test]
fn transient_after_bind_leaves_table_and_log_unchanged() {
    // The bind hook sits where a compiled plan is fetched: UPDATE and
    // DELETE through the statement cache, with and without subqueries.
    fail_then_retry(
        &[Execute, Prepared],
        &two_row_steps()[1..],
        Injected::AfterBind,
    );
}
