//! Thread-safety integration tests: one `Database`, many threads, each
//! with its own `Connection`. The catalog sits behind a reader-writer
//! shape lock — SELECTs and DML share its read side and run
//! concurrently (DML serializing per target table), while DDL takes the
//! write side exclusively. These tests check that nothing is lost or
//! corrupted under contention, that constraint enforcement stays
//! correct, that readers never observe torn rows, and that no mix of
//! nesting readers, subquery writers and DDL deadlocks.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};

use common::{db_fingerprint, recovered_fingerprint};
use sqlkernel::{Database, Value};

#[test]
fn concurrent_inserts_are_all_applied() {
    let db = Database::new("mt");
    db.connect()
        .execute("CREATE TABLE t (id INT PRIMARY KEY, worker INT)", &[])
        .unwrap();

    const THREADS: usize = 8;
    const PER_THREAD: usize = 200;

    std::thread::scope(|scope| {
        for w in 0..THREADS {
            let db = db.clone();
            scope.spawn(move || {
                let conn = db.connect();
                let stmt = conn.prepare("INSERT INTO t VALUES (?, ?)").unwrap();
                for i in 0..PER_THREAD {
                    conn.execute_prepared(
                        &stmt,
                        &[
                            Value::Int((w * PER_THREAD + i) as i64),
                            Value::Int(w as i64),
                        ],
                    )
                    .unwrap();
                }
            });
        }
    });

    assert_eq!(db.table_len("t").unwrap(), THREADS * PER_THREAD);
    let rs = db
        .connect()
        .query(
            "SELECT worker, COUNT(*) FROM t GROUP BY worker ORDER BY worker",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), THREADS);
    for row in &rs.rows {
        assert_eq!(row[1], Value::Int(PER_THREAD as i64));
    }
}

#[test]
fn primary_key_contention_admits_exactly_one_winner_per_key() {
    let db = Database::new("mt2");
    db.connect()
        .execute("CREATE TABLE claims (k INT PRIMARY KEY, owner INT)", &[])
        .unwrap();

    const THREADS: usize = 8;
    const KEYS: usize = 50;
    let wins = AtomicUsize::new(0);
    let losses = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for w in 0..THREADS {
            let db = db.clone();
            let wins = &wins;
            let losses = &losses;
            scope.spawn(move || {
                let conn = db.connect();
                let stmt = conn.prepare("INSERT INTO claims VALUES (?, ?)").unwrap();
                for k in 0..KEYS {
                    match conn
                        .execute_prepared(&stmt, &[Value::Int(k as i64), Value::Int(w as i64)])
                    {
                        Ok(_) => wins.fetch_add(1, Ordering::Relaxed),
                        Err(e) => {
                            assert_eq!(e.class(), "constraint");
                            losses.fetch_add(1, Ordering::Relaxed)
                        }
                    };
                }
            });
        }
    });

    assert_eq!(wins.load(Ordering::Relaxed), KEYS);
    assert_eq!(losses.load(Ordering::Relaxed), KEYS * (THREADS - 1));
    assert_eq!(db.table_len("claims").unwrap(), KEYS);
}

#[test]
fn transactions_from_parallel_connections_do_not_corrupt() {
    // Each thread repeatedly runs BEGIN / transfer / COMMIT or ROLLBACK
    // over its *own* pair of accounts; the invariant (total balance)
    // must hold at the end. Write-write conflicts stay last-writer-wins
    // at statement granularity (snapshot reads, not first-committer-wins
    // SI), so threads must not write the same rows — this test checks
    // atomicity under scheduler interleaving, not serializability.
    let db = Database::new("mt3");
    db.connect()
        .execute_script(
            "CREATE TABLE accounts (id INT PRIMARY KEY, balance INT);
             INSERT INTO accounts VALUES
                (1, 1000), (2, 1000), (3, 1000), (4, 1000),
                (5, 1000), (6, 1000), (7, 1000), (8, 1000);",
        )
        .unwrap();

    std::thread::scope(|scope| {
        for w in 0..4usize {
            let db = db.clone();
            scope.spawn(move || {
                let conn = db.connect();
                for i in 0..50usize {
                    let from = (2 * w + 1) as i64;
                    let to = (2 * w + 2) as i64;
                    conn.execute("BEGIN", &[]).unwrap();
                    conn.execute(
                        "UPDATE accounts SET balance = balance - 10 WHERE id = ?",
                        &[Value::Int(from)],
                    )
                    .unwrap();
                    conn.execute(
                        "UPDATE accounts SET balance = balance + 10 WHERE id = ?",
                        &[Value::Int(to)],
                    )
                    .unwrap();
                    if i % 5 == 0 {
                        conn.execute("ROLLBACK", &[]).unwrap();
                    } else {
                        conn.execute("COMMIT", &[]).unwrap();
                    }
                }
            });
        }
    });

    let total = db
        .connect()
        .query("SELECT SUM(balance) FROM accounts", &[])
        .unwrap()
        .single_value()
        .unwrap()
        .clone();
    assert_eq!(total, Value::Int(8000));
}

#[test]
fn readers_and_writers_interleave_safely() {
    let db = Database::new("mt4");
    db.connect()
        .execute("CREATE TABLE log (id INT PRIMARY KEY, v TEXT)", &[])
        .unwrap();

    std::thread::scope(|scope| {
        // Writer.
        {
            let db = db.clone();
            scope.spawn(move || {
                let conn = db.connect();
                for i in 0..300i64 {
                    conn.execute("INSERT INTO log VALUES (?, 'entry')", &[Value::Int(i)])
                        .unwrap();
                }
            });
        }
        // Readers observe monotonically growing, never-corrupt counts.
        for _ in 0..3 {
            let db = db.clone();
            scope.spawn(move || {
                let conn = db.connect();
                let mut last = 0i64;
                for _ in 0..100 {
                    let n = conn
                        .query("SELECT COUNT(*) FROM log", &[])
                        .unwrap()
                        .single_value()
                        .unwrap()
                        .as_i64()
                        .unwrap();
                    assert!(n >= last);
                    assert!(n <= 300);
                    last = n;
                }
            });
        }
    });
    assert_eq!(db.table_len("log").unwrap(), 300);
}

#[test]
fn readers_never_observe_torn_rows() {
    // The writer keeps an invariant — every row satisfies a + b = 100 —
    // and updates both columns in a single UPDATE. A statement's new
    // versions become visible in one commit stamp, so concurrent readers must
    // never see a row mid-update where the invariant is violated.
    let db = Database::new("mt5");
    db.connect()
        .execute_script(
            "CREATE TABLE pairs (id INT PRIMARY KEY, a INT, b INT);
             INSERT INTO pairs VALUES (1, 40, 60), (2, 70, 30), (3, 10, 90);",
        )
        .unwrap();

    std::thread::scope(|scope| {
        // Writer: shift a/b while preserving a + b = 100.
        {
            let db = db.clone();
            scope.spawn(move || {
                let conn = db.connect();
                let stmt = conn
                    .prepare("UPDATE pairs SET a = ?, b = ? WHERE id = ?")
                    .unwrap();
                for i in 0..400i64 {
                    let a = i % 101;
                    conn.execute_prepared(
                        &stmt,
                        &[Value::Int(a), Value::Int(100 - a), Value::Int(i % 3 + 1)],
                    )
                    .unwrap();
                }
            });
        }
        // Readers: every observed row must satisfy the invariant.
        for _ in 0..4 {
            let db = db.clone();
            scope.spawn(move || {
                let conn = db.connect();
                for _ in 0..150 {
                    let rs = conn.query("SELECT a, b FROM pairs", &[]).unwrap();
                    assert_eq!(rs.rows.len(), 3);
                    for row in &rs.rows {
                        let a = row[0].as_i64().unwrap();
                        let b = row[1].as_i64().unwrap();
                        assert_eq!(a + b, 100, "torn read: a={a} b={b}");
                    }
                }
            });
        }
    });
}

#[test]
fn concurrent_result_matches_single_threaded_run() {
    // The same deterministic workload applied concurrently (disjoint
    // key ranges per thread) and single-threaded must converge to the
    // same final table contents.
    fn run(name: &str, threads: usize) -> Vec<Vec<Value>> {
        let db = Database::new(name);
        db.connect()
            .execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)", &[])
            .unwrap();
        let work = |w: usize| {
            let conn = db.connect();
            let ins = conn.prepare("INSERT INTO t VALUES (?, ?)").unwrap();
            let upd = conn.prepare("UPDATE t SET v = v * 2 WHERE id = ?").unwrap();
            for i in 0..100usize {
                let id = (w * 100 + i) as i64;
                conn.execute_prepared(&ins, &[Value::Int(id), Value::Int(id % 7)])
                    .unwrap();
                if i % 3 == 0 {
                    conn.execute_prepared(&upd, &[Value::Int(id)]).unwrap();
                }
            }
        };
        if threads > 1 {
            std::thread::scope(|scope| {
                for w in 0..threads {
                    let work = &work;
                    scope.spawn(move || work(w));
                }
            });
        } else {
            for w in 0..4 {
                work(w);
            }
        }
        db.connect()
            .query("SELECT id, v FROM t ORDER BY id", &[])
            .unwrap()
            .rows
    }

    let sequential = run("st", 1);
    let concurrent = run("ct", 4);
    assert_eq!(sequential.len(), 400);
    assert_eq!(sequential, concurrent);
}

#[test]
fn cross_table_subquery_writers_beside_readers_and_ddl_never_deadlock() {
    // Two writers update `a` from a subquery over `b` and `b` from one
    // over `a`, in opposite orders, while readers scan each table with a
    // subquery over the other and a DDL thread churns indexes and a side
    // table. Writers' collect phases and readers alike hold a shared
    // guard on one table while reading the other, beside writers queued
    // on both; none of that may wedge. A watchdog fails the test instead
    // of hanging it, and the log must recover to exactly the live state.
    use std::sync::mpsc::{channel, RecvTimeoutError};
    use std::sync::Arc;
    use std::time::Duration;

    use sqlkernel::MemLogStore;

    const ROWS: i64 = 8;
    const ROUNDS: i64 = 1000;
    let store = MemLogStore::new();
    let db = Database::with_wal("mt_cross", Arc::new(store.clone()));
    let rows: Vec<String> = (0..ROWS).map(|id| format!("({id}, {id})")).collect();
    for t in ["a", "b"] {
        let setup = format!(
            "CREATE TABLE {t} (id INT PRIMARY KEY, v INT); INSERT INTO {t} VALUES {}",
            rows.join(", ")
        );
        db.connect().execute_script(&setup).unwrap();
    }
    let a_from_b = "UPDATE a SET v = (SELECT MAX(v) FROM b) + ? WHERE id = ?";
    let b_from_a = "UPDATE b SET v = (SELECT MAX(v) FROM a) - ? WHERE id IN \
                    (SELECT id FROM a WHERE id = ?)";

    let (done, finished) = channel();
    let worker = {
        let db = db.clone();
        std::thread::spawn(move || {
            std::thread::scope(|s| {
                for order in [[a_from_b, b_from_a], [b_from_a, a_from_b]] {
                    let db = db.clone();
                    s.spawn(move || {
                        let conn = db.connect();
                        for i in 0..ROUNDS {
                            for sql in order {
                                let params = [Value::Int(i % 3), Value::Int(i % ROWS)];
                                assert_eq!(conn.execute(sql, &params).unwrap().affected(), Some(1));
                            }
                        }
                    });
                }
                // Readers nest too, in both directions.
                for (t, other) in [("a", "b"), ("b", "a")] {
                    let db = db.clone();
                    s.spawn(move || {
                        let conn = db.connect();
                        for _ in 0..ROUNDS {
                            let sql = format!(
                                "SELECT COUNT(*) FROM {t} WHERE id IN (SELECT id FROM {other})"
                            );
                            let rows = conn.query(&sql, &[]).unwrap().rows;
                            assert_eq!(rows, vec![vec![Value::Int(ROWS)]]);
                        }
                    });
                }
                let db = db.clone();
                s.spawn(move || {
                    let conn = db.connect();
                    for i in 0..ROUNDS / 5 {
                        let t = if i % 2 == 0 { "a" } else { "b" };
                        conn.execute(&format!("CREATE INDEX {t}_v ON {t} (v)"), &[])
                            .unwrap();
                        conn.execute("CREATE TABLE side (k INT)", &[]).unwrap();
                        conn.execute(&format!("DROP INDEX {t}_v"), &[]).unwrap();
                        conn.execute("DROP TABLE side", &[]).unwrap();
                    }
                });
            });
            done.send(()).unwrap();
        })
    };
    match finished.recv_timeout(Duration::from_secs(120)) {
        Err(RecvTimeoutError::Timeout) => panic!("writers, readers and DDL deadlocked"),
        _ => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }

    assert_eq!(recovered_fingerprint(store.bytes()), db_fingerprint(&db));
}
