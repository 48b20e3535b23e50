//! Model test for `Table` row storage: seeded random sequences of
//! insert, update, delete, `restore` (of fresh and of held ids),
//! `undo_*` and `gc_versions`, in flat mode (`None`) and under explicit
//! snapshots, checked after every step against a
//! `BTreeMap<RowId, Vec<(txn, Option<Row>)>>` of version lists. Every
//! read surface — `iter`/`scan` order, `get`, the visible version of
//! single ids, `index_eq_entries`, the whole and the bounded
//! `index_range_entries` walks, `len`, `version_count` and the GC
//! counter — must match the model exactly.
//!
//! `CHAOS_SEED` (which the CI rotation exports) adds one more seed to
//! both sequences without editing the test.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use sqlkernel::storage::{new_stamp, MvccShared, Row, RowId, Snapshot, SortKey};
use sqlkernel::storage::{Table, TxnStamp};
use sqlkernel::types::{DataType, Value};
use sqlkernel::{Column, SplitMix64, TableSchema};

/// Transaction index of rows written outside any snapshot (the engine's
/// bootstrap stamp, committed at timestamp 1).
const BOOTSTRAP: usize = 0;

/// Distinct values of the indexed column, few enough to collide.
const KEYS: u64 = 6;

/// Reader snapshots held at once in a versioned run.
const MAX_READERS: usize = 4;

/// How a reader resolves chains: `None` is flat (newest version),
/// `Some((ts, txn))` a snapshot at `ts` owned by transaction `txn`.
type View = Option<(u64, usize)>;

struct Model {
    chains: BTreeMap<RowId, Vec<(usize, Option<Row>)>>,
    /// Commit timestamp per transaction index; `0` = uncommitted.
    commit_ts: Vec<u64>,
    next_row_id: RowId,
    gced: u64,
}

impl Model {
    fn new() -> Model {
        Model {
            chains: BTreeMap::new(),
            commit_ts: vec![1],
            next_row_id: 1,
            gced: 0,
        }
    }

    fn committed(&self, txn: usize) -> Option<u64> {
        Some(self.commit_ts[txn]).filter(|&ts| ts != 0)
    }

    /// The row `id` shows to a view.
    fn visible(&self, id: RowId, view: View) -> Option<&Row> {
        let chain = self.chains.get(&id)?;
        let Some((ts, own)) = view else {
            return chain.last()?.1.as_ref();
        };
        chain
            .iter()
            .rev()
            .find(|(txn, _)| *txn == own || self.committed(*txn).is_some_and(|c| c <= ts))?
            .1
            .as_ref()
    }

    /// Drop the versions below the newest one committed at or before
    /// `floor`.
    fn trim(&mut self, id: RowId, floor: u64) {
        let chain = &self.chains[&id];
        let anchor = chain
            .iter()
            .rposition(|(txn, _)| self.committed(*txn).is_some_and(|c| c <= floor));
        if let Some(anchor) = anchor {
            self.chains.get_mut(&id).unwrap().drain(..anchor);
            self.gced += anchor as u64;
        }
    }

    fn push(&mut self, id: RowId, txn: usize, row: Option<Row>, floor: u64) {
        self.chains.get_mut(&id).unwrap().push((txn, row));
        self.trim(id, floor);
    }

    fn gc(&mut self, floor: u64) -> u64 {
        let before = self.gced;
        let ids: Vec<RowId> = self.chains.keys().copied().collect();
        for id in ids {
            self.trim(id, floor);
            let chain = &self.chains[&id];
            if chain.len() == 1
                && chain[0].1.is_none()
                && self.committed(chain[0].0).is_some_and(|c| c <= floor)
            {
                self.chains.remove(&id);
                self.gced += 1;
            }
        }
        self.gced - before
    }

    fn undo(&mut self, id: RowId, txn: usize) {
        let chain = self.chains.get_mut(&id).unwrap();
        let pos = chain.iter().rposition(|(t, _)| *t == txn).unwrap();
        chain.remove(pos);
        if chain.is_empty() {
            self.chains.remove(&id);
        }
    }

    fn live(&self) -> usize {
        self.chains
            .values()
            .filter(|c| c.last().is_some_and(|v| v.1.is_some()))
            .count()
    }

    fn versions(&self) -> usize {
        self.chains.values().map(Vec::len).sum()
    }
}

fn table() -> Table {
    let schema = TableSchema::new(
        "m",
        vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Int),
        ],
        false,
    )
    .unwrap();
    let mut t = Table::new(schema);
    t.create_index("m_k", &["k".into()], false).unwrap();
    t
}

/// The open writer transaction of a snapshot-mode run.
struct Writer {
    txn: usize,
    snapshot: Snapshot,
    /// Successful row ops, for rollback: (kind, id).
    undo: Vec<(char, RowId)>,
}

/// Seeds every run takes, plus the one `CHAOS_SEED` names, if any.
fn seeds() -> Vec<u64> {
    let mut seeds = vec![1, 2, 3, 0x5eed];
    if let Some(extra) = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
    {
        if !seeds.contains(&extra) {
            seeds.push(extra);
        }
    }
    seeds
}

/// Compare every read surface of `t` with the model under one view,
/// read through `snap` (`None` for the flat view); `probes` are the ids
/// to fetch one by one.
fn check_view(
    t: &Table,
    m: &Model,
    snap: Option<&Snapshot>,
    view: View,
    probes: &[RowId],
    probe_key: i64,
    ctx: &str,
) {
    let want: Vec<(RowId, &Row)> = m
        .chains
        .keys()
        .filter_map(|&id| m.visible(id, view).map(|r| (id, r)))
        .collect();
    let got: Vec<(RowId, &Row)> = t.iter(snap).map(|(id, r)| (id, &**r)).collect();
    assert_eq!(got, want, "{ctx}: iter under {view:?}");
    let scanned: Vec<&Row> = t.scan(snap).map(|r| &**r).collect();
    let want_rows: Vec<&Row> = want.iter().map(|(_, r)| *r).collect();
    assert_eq!(scanned, want_rows, "{ctx}: scan under {view:?}");
    for &id in probes {
        let visible = t.iter(snap).find(|&(i, _)| i == id).map(|(_, r)| &**r);
        assert_eq!(
            visible,
            m.visible(id, view),
            "{ctx}: visible({id}) under {view:?}"
        );
    }
    let key = SortKey(vec![Value::Int(probe_key)]);
    let idx = t.find_index(&[0]).unwrap();
    let hits: Vec<(RowId, &Row)> = t
        .index_eq_entries(snap, idx, &key)
        .into_iter()
        .map(|(id, r)| (id, &**r))
        .collect();
    let want_hits: Vec<(RowId, &Row)> = want
        .iter()
        .filter(|(_, r)| r[0] == Value::Int(probe_key))
        .copied()
        .collect();
    assert_eq!(hits, want_hits, "{ctx}: index_eq_entries under {view:?}");
    // Whole-index walks emit key order, ids ascending within a key; the
    // bounded walk `ORDER BY k LIMIT n` takes is the unbounded one's
    // first `n` rows (`probe_key` doubles as the limit).
    for rev in [false, true] {
        let mut want_walk = want.clone();
        want_walk.sort_by(|(ia, ra), (ib, rb)| {
            let by_key = ra[0].total_cmp(&rb[0]);
            if rev { by_key.reverse() } else { by_key }.then(ia.cmp(ib))
        });
        let walk = |limit| -> Vec<(RowId, &Row)> {
            t.index_range_entries(snap, idx, None, None, rev, true, limit)
                .into_iter()
                .map(|(id, r)| (id, &**r))
                .collect()
        };
        assert_eq!(
            walk(None),
            want_walk,
            "{ctx}: index walk rev={rev} under {view:?}"
        );
        let n = (probe_key as usize).min(want_walk.len());
        assert_eq!(
            walk(Some(probe_key as usize)),
            want_walk[..n],
            "{ctx}: bounded index walk rev={rev} limit {probe_key} under {view:?}"
        );
    }
}

fn check(
    t: &Table,
    m: &Model,
    shared: &MvccShared,
    views: &[(Option<Snapshot>, View)],
    rng: &mut SplitMix64,
    ctx: &str,
) {
    assert_eq!(t.len(), m.live(), "{ctx}: len");
    assert_eq!(t.version_count(), m.versions(), "{ctx}: version_count");
    assert_eq!(
        shared.versions_gced.load(Ordering::Relaxed),
        m.gced,
        "{ctx}: versions_gced"
    );
    assert_eq!(t.next_row_id(), m.next_row_id, "{ctx}: next_row_id");
    for id in 0..=m.next_row_id + 2 {
        let want = m.chains.get(&id).and_then(|c| c.last().unwrap().1.as_ref());
        assert_eq!(t.get(id).map(|r| &**r), want, "{ctx}: get({id})");
    }
    let mut probes: Vec<RowId> = (0..8).map(|_| rng.next_below(m.next_row_id + 3)).collect();
    probes.push(m.next_row_id);
    let probe_key = rng.next_below(KEYS) as i64;
    for (snapshot, view) in views {
        check_view(t, m, snapshot.as_ref(), *view, &probes, probe_key, ctx);
    }
}

fn random_row(rng: &mut SplitMix64) -> Row {
    vec![
        Value::Int(rng.next_below(KEYS) as i64),
        Value::Int(rng.next_below(1000) as i64),
    ]
}

/// An id for a physical `restore`: a held id, one that was vacated
/// (out of order below the allocator), or one past the allocator.
fn restore_target(rng: &mut SplitMix64, m: &Model) -> RowId {
    match rng.next_below(3) {
        0 => m
            .chains
            .keys()
            .copied()
            .nth(rng.next_below(m.chains.len().max(1) as u64) as usize),
        1 => Some(1 + rng.next_below(m.next_row_id)),
        _ => None,
    }
    .unwrap_or(m.next_row_id + rng.next_below(3))
}

/// An id that held a chain at some point, or the allocator's next id
/// while none has.
fn existing_target(rng: &mut SplitMix64, m: &Model) -> RowId {
    if m.next_row_id <= 1 {
        return 1;
    }
    1 + rng.next_below(m.next_row_id - 1)
}

/// Flat mode: every write goes without a snapshot, so every chain stays
/// one version and delete removes the chain.
fn run_flat(seed: u64, steps: usize) {
    let mut rng = SplitMix64::new(seed);
    let shared = Arc::new(MvccShared::default());
    let mut t = table();
    t.attach_mvcc(Arc::clone(&shared));
    let mut m = Model::new();
    for step in 0..steps {
        // Alternate growth-heavy and shrink-heavy phases so the slab
        // both appends and goes sparse enough to compact.
        let growing = (step / 150) % 2 == 0;
        let roll = rng.next_below(100);
        let ctx = format!("flat seed {seed} step {step}");
        let id = existing_target(&mut rng, &m);
        match roll {
            0..=34 if growing => {
                let row = random_row(&mut rng);
                let got = t.insert(None, row.clone()).unwrap();
                assert_eq!(got, m.next_row_id, "{ctx}: insert id");
                m.chains.insert(got, vec![(BOOTSTRAP, Some(row))]);
                m.next_row_id += 1;
            }
            0..=49 => {
                let row = random_row(&mut rng);
                let res = t.update(None, id, row.clone());
                match m.visible(id, None).cloned() {
                    Some(old) => {
                        assert_eq!(res.unwrap(), old, "{ctx}: update returns old row");
                        m.chains.insert(id, vec![(BOOTSTRAP, Some(row))]);
                    }
                    None => assert!(res.is_err(), "{ctx}: update of absent {id}"),
                }
            }
            50..=84 => {
                let res = t.delete(None, id);
                match m.chains.remove(&id) {
                    Some(chain) => {
                        assert_eq!(&res.unwrap(), chain[0].1.as_ref().unwrap(), "{ctx}: delete")
                    }
                    None => assert!(res.is_err(), "{ctx}: delete of absent {id}"),
                }
            }
            85..=92 => {
                let id = restore_target(&mut rng, &m);
                let row = random_row(&mut rng);
                t.restore(id, row.clone());
                m.chains.insert(id, vec![(BOOTSTRAP, Some(row))]);
                m.next_row_id = m.next_row_id.max(id + 1);
            }
            93..=97 => {
                let row = random_row(&mut rng);
                t.restore(id, row.clone());
                m.chains.insert(id, vec![(BOOTSTRAP, Some(row))]);
                m.next_row_id = m.next_row_id.max(id + 1);
            }
            _ => {
                assert_eq!(t.gc_versions(u64::MAX), m.gc(u64::MAX), "{ctx}: gc");
            }
        }
        check(&t, &m, &shared, &[(None, None)], &mut rng, &ctx);
    }
}

/// Snapshot mode: one writer transaction at a time pushes versions under
/// its stamp and commits or rolls back; reader snapshots come and go and
/// pin the GC floor; physical `restore`s and flat inserts
/// run between writers, as recovery and bootstrap do.
fn run_versioned(seed: u64, steps: usize) {
    let mut rng = SplitMix64::new(seed);
    let shared = Arc::new(MvccShared::default());
    let mut t = table();
    t.attach_mvcc(Arc::clone(&shared));
    let mut m = Model::new();
    let mut clock = 1u64;
    let mut stamps: Vec<TxnStamp> = vec![new_stamp()]; // index 0 unused
    let mut writer: Option<Writer> = None;
    let mut readers: Vec<(Snapshot, u64)> = Vec::new();
    for step in 0..steps {
        let floor = readers
            .iter()
            .map(|(_, ts)| *ts)
            .chain(writer.as_ref().map(|w| w.snapshot.ts))
            .min()
            .unwrap_or(u64::MAX);
        shared.floor.store(floor, Ordering::Release);
        let growing = (step / 150) % 2 == 0;
        let roll = rng.next_below(100);
        let ctx = format!("versioned seed {seed} step {step}");
        let id = existing_target(&mut rng, &m);
        match (roll, writer.as_mut()) {
            (0..=9, None) => {
                let txn = stamps.len();
                stamps.push(new_stamp());
                m.commit_ts.push(0);
                let snapshot = Snapshot {
                    ts: clock,
                    stamp: Arc::clone(&stamps[txn]),
                };
                writer = Some(Writer {
                    txn,
                    snapshot,
                    undo: Vec::new(),
                });
            }
            (0..=29, Some(w)) if growing => {
                let row = random_row(&mut rng);
                let got = t.insert(Some(&w.snapshot), row.clone()).unwrap();
                assert_eq!(got, m.next_row_id, "{ctx}: insert id");
                m.chains.insert(got, vec![(w.txn, Some(row))]);
                m.next_row_id += 1;
                w.undo.push(('i', got));
            }
            (0..=49, Some(w)) => {
                let row = random_row(&mut rng);
                let res = t.update(Some(&w.snapshot), id, row.clone());
                match m.visible(id, Some((w.snapshot.ts, w.txn))).cloned() {
                    Some(old) => {
                        assert_eq!(res.unwrap(), old, "{ctx}: update returns visible row");
                        m.push(id, w.txn, Some(row), floor);
                        w.undo.push(('u', id));
                    }
                    None => assert!(res.is_err(), "{ctx}: update of invisible {id}"),
                }
            }
            (50..=79, Some(w)) => {
                let res = t.delete(Some(&w.snapshot), id);
                match m.visible(id, Some((w.snapshot.ts, w.txn))).cloned() {
                    Some(old) => {
                        assert_eq!(res.unwrap(), old, "{ctx}: delete returns visible row");
                        m.push(id, w.txn, None, floor);
                        w.undo.push(('d', id));
                    }
                    None => assert!(res.is_err(), "{ctx}: delete of invisible {id}"),
                }
            }
            (80..=91, Some(_)) => {
                let w = writer.take().unwrap();
                clock += 1;
                stamps[w.txn].store(clock, Ordering::Release);
                m.commit_ts[w.txn] = clock;
            }
            (92..=95, Some(_)) => {
                let w = writer.take().unwrap();
                for &(kind, id) in w.undo.iter().rev() {
                    let stamp = &stamps[w.txn];
                    match kind {
                        'i' => t.undo_insert(id, stamp),
                        'u' => t.undo_update(id, stamp),
                        _ => t.undo_delete(id, stamp),
                    }
                    m.undo(id, w.txn);
                }
            }
            (10..=29, None) => {
                let row = random_row(&mut rng);
                let got = t.insert(None, row.clone()).unwrap();
                assert_eq!(got, m.next_row_id, "{ctx}: flat insert id");
                m.chains.insert(got, vec![(BOOTSTRAP, Some(row))]);
                m.next_row_id += 1;
            }
            (30..=44, None) => {
                let id = restore_target(&mut rng, &m);
                let row = random_row(&mut rng);
                t.restore(id, row.clone());
                m.chains.insert(id, vec![(BOOTSTRAP, Some(row))]);
                m.next_row_id = m.next_row_id.max(id + 1);
            }
            (45..=54, None) => {
                let row = random_row(&mut rng);
                t.restore(id, row.clone());
                m.chains.insert(id, vec![(BOOTSTRAP, Some(row))]);
                m.next_row_id = m.next_row_id.max(id + 1);
            }
            (55..=74, None) if readers.len() < MAX_READERS => {
                readers.push((
                    Snapshot {
                        ts: clock,
                        stamp: new_stamp(),
                    },
                    clock,
                ));
            }
            (75..=89, None) if !readers.is_empty() => {
                let i = rng.next_below(readers.len() as u64) as usize;
                readers.swap_remove(i);
            }
            _ => {
                assert_eq!(t.gc_versions(floor), m.gc(floor), "{ctx}: gc");
            }
        }
        let mut views: Vec<(Option<Snapshot>, View)> = vec![(None, None)];
        if let Some(w) = &writer {
            views.push((Some(w.snapshot.clone()), Some((w.snapshot.ts, w.txn))));
        }
        for (snapshot, ts) in &readers {
            // Reader stamps own no version; `usize::MAX` matches none.
            views.push((Some(snapshot.clone()), Some((*ts, usize::MAX))));
        }
        check(&t, &m, &shared, &views, &mut rng, &ctx);
    }
}

#[test]
fn flat_sequences_match_the_model() {
    for seed in seeds() {
        run_flat(seed, 1500);
    }
}

#[test]
fn versioned_sequences_match_the_model() {
    for seed in seeds() {
        run_versioned(seed, 1500);
    }
}
