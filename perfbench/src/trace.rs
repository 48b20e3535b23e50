//! Benchmark-side tracing.
//!
//! Spans are recorded only in this benchmark's own code: around its calls
//! into each layer's public entry points, and inside the handlers it
//! registers with the engine (the supplier service, the adapter service,
//! the durable step bodies). Those handlers run on the thread of the
//! instance that called them, so a per-thread accumulator collects the
//! in-situ child spans of the instance currently running there; the
//! thread running instances takes and resets it after each one.
//!
//! With tracing off every hook is a flag test and a direct call.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use sqlkernel::DbStats;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// In-situ child spans and counts of one instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct Children {
    pub supplier_ns: u64,
    pub supplier_calls: u64,
    pub adapter_ns: u64,
    pub envelope_bytes: u64,
    /// SQL issued by benchmark-owned durable step bodies.
    pub step_sql_ns: u64,
    pub step_stmts: u64,
    /// Whole benchmark-owned step bodies (SQL included).
    pub step_body_ns: u64,
}

thread_local! {
    static CHILDREN: RefCell<Children> = RefCell::new(Children::default());
}

/// Take (and reset) this thread's accumulated child spans.
pub fn take_children() -> Children {
    CHILDREN.with(|c| std::mem::take(&mut *c.borrow_mut()))
}

fn record(f: impl FnOnce(&mut Children)) {
    CHILDREN.with(|c| f(&mut c.borrow_mut()));
}

/// Time `f` as one supplier-service call.
pub fn supplier<T>(f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_nanos() as u64;
    record(|c| {
        c.supplier_ns += ns;
        c.supplier_calls += 1;
    });
    out
}

/// Time `f` as one adapter-service call that moved `bytes` of request
/// envelope; `f` returns the response envelope.
pub fn adapter<E>(
    request_bytes: usize,
    f: impl FnOnce() -> Result<String, E>,
) -> Result<String, E> {
    if !enabled() {
        return f();
    }
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_nanos() as u64;
    let response_bytes = out.as_ref().map(String::len).unwrap_or(0);
    record(|c| {
        c.adapter_ns += ns;
        c.envelope_bytes += (request_bytes + response_bytes) as u64;
    });
    out
}

/// Time `f` as one SQL statement issued by a durable step body.
pub fn step_sql<T>(f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_nanos() as u64;
    record(|c| {
        c.step_sql_ns += ns;
        c.step_stmts += 1;
    });
    out
}

/// Time `f` as one whole durable step body.
pub fn step_body<T>(f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_nanos() as u64;
    record(|c| c.step_body_ns += ns);
    out
}

/// Nanoseconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

/// The engine counters the per-layer report reads, as deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub statements: u64,
    pub parses: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub full_scan_rows: u64,
    pub index_scans: u64,
    pub batched_rows: u64,
    pub chains_walked: u64,
    pub snapshots: u64,
    pub wal_appends: u64,
    pub wal_commits: u64,
    pub wal_bytes: u64,
    pub versions_gced: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_evictions: u64,
}

impl Counters {
    pub fn of(s: &DbStats) -> Counters {
        Counters {
            statements: s.statements_executed,
            parses: s.parses,
            cache_hits: s.stmt_cache_hits,
            cache_misses: s.stmt_cache_misses,
            full_scan_rows: s.full_scan_rows,
            index_scans: s.index_scans,
            batched_rows: s.batched_rows,
            chains_walked: s.version_chains_walked,
            snapshots: s.snapshots_taken,
            wal_appends: s.wal_appends,
            wal_commits: s.wal_commits,
            wal_bytes: s.wal_bytes,
            versions_gced: s.versions_gced,
            pool_hits: s.pool_hits,
            pool_misses: s.pool_misses,
            pool_evictions: s.pool_evictions,
        }
    }

    fn zip(self, o: Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
        Counters {
            statements: f(self.statements, o.statements),
            parses: f(self.parses, o.parses),
            cache_hits: f(self.cache_hits, o.cache_hits),
            cache_misses: f(self.cache_misses, o.cache_misses),
            full_scan_rows: f(self.full_scan_rows, o.full_scan_rows),
            index_scans: f(self.index_scans, o.index_scans),
            batched_rows: f(self.batched_rows, o.batched_rows),
            chains_walked: f(self.chains_walked, o.chains_walked),
            snapshots: f(self.snapshots, o.snapshots),
            wal_appends: f(self.wal_appends, o.wal_appends),
            wal_commits: f(self.wal_commits, o.wal_commits),
            wal_bytes: f(self.wal_bytes, o.wal_bytes),
            versions_gced: f(self.versions_gced, o.versions_gced),
            pool_hits: f(self.pool_hits, o.pool_hits),
            pool_misses: f(self.pool_misses, o.pool_misses),
            pool_evictions: f(self.pool_evictions, o.pool_evictions),
        }
    }

    /// `self - earlier`, counter by counter.
    pub fn since(self, earlier: Counters) -> Counters {
        self.zip(earlier, u64::saturating_sub)
    }

    pub fn plus(self, o: Counters) -> Counters {
        self.zip(o, u64::saturating_add)
    }
}
