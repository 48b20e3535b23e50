//! Row storage: multi-versioned tables with stable row ids and B-tree
//! secondary indexes.
//!
//! Rows live in a dense *slab* ordered by row id: a `Vec` of ids and a
//! parallel `Vec` of version-chain slots, so a whole-table scan is a
//! linear walk with no tree hops. Ids are allocated monotonically, so
//! inserts append, and while the ids are contiguous a point lookup is
//! the offset `id - first_id` (a binary search otherwise). Deletes vacate
//! a slot in place; vacated slots are compacted away once they exceed
//! half the slab.
//!
//! Each chain holds row *versions* ordered oldest→newest. A version
//! carries a commit stamp (an `Arc<AtomicU64>`; `0` = still uncommitted)
//! and an optional `Arc<Row>` payload (`None` = deletion tombstone). A
//! single-version chain — every chain in flat mode — is stored inline in
//! its slot; only a second version spills the chain to a heap `Vec`, and
//! a trim that leaves one version collapses it back. Ids stay stable
//! across deletes (the undo log and the indexes both key on [`RowId`])
//! and read paths *share* a row instead of deep-copying it: a scan hands
//! out `Arc` clones, and mutation pushes a new version (copy-on-write at
//! row granularity).
//!
//! Two read modes, chosen per call by the `snap: Option<&Snapshot>`
//! argument every row-reading and row-writing method takes:
//!
//! - **Flat** (`None`): every chain holds exactly one committed version
//!   and all methods behave like a plain single-version store. WAL
//!   redo/undo, checkpoint serialization, and direct `Table` use in unit
//!   tests run in this mode and are byte-identical to the pre-MVCC
//!   engine.
//! - **Versioned** (`Some(snapshot)`, passed down from the statement's
//!   context by the connection layer): reads resolve each chain against
//!   the snapshot — newest version first, the first version that is
//!   *our own* (same stamp `Arc`) or committed at or before the snapshot
//!   timestamp wins. Writes push new versions stamped with the
//!   statement/transaction stamp; commit later stores the timestamp into
//!   the shared stamp, making every version of the transaction visible
//!   atomically.
//!
//! Indexes map composite key values to the set of row ids holding them;
//! under MVCC an entry is kept for **every retained version's** key, and
//! visibility-aware lookups re-check that the resolved version actually
//! carries the entry key (skipped for single-version chains, so the flat
//! path pays nothing). Unique indexes enforce at-most-one id per key
//! against the newest version (ignoring keys containing NULL, per SQL
//! convention). Superseded versions are trimmed inline on write and
//! swept by [`Table::gc_versions`] using the oldest-active-snapshot
//! watermark.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrd};
use std::sync::{Arc, OnceLock};

use crate::error::{SqlError, SqlResult};
use crate::schema::TableSchema;
use crate::types::Value;

/// Stable identifier of a row within one table.
pub type RowId = u64;

/// A stored row; always has exactly `schema.columns.len()` values.
pub type Row = Vec<Value>;

/// A transaction/statement commit stamp. `0` means uncommitted; commit
/// stores the commit timestamp, atomically publishing every version that
/// shares the stamp.
pub type TxnStamp = Arc<AtomicU64>;

/// Unwrap an `Arc<Row>` without copying when this was the last reference,
/// falling back to a deep clone when the row is still shared.
pub fn unshare_row(row: Arc<Row>) -> Row {
    Arc::try_unwrap(row).unwrap_or_else(|shared| (*shared).clone())
}

/// Allocate a fresh (uncommitted) stamp.
pub fn new_stamp() -> TxnStamp {
    Arc::new(AtomicU64::new(0))
}

/// The stamp used for rows written in flat mode (WAL replay,
/// checkpoint reload, direct `Table` use). Committed at
/// timestamp 1, which every snapshot timestamp is at least, so
/// bootstrap rows are visible to all readers.
fn bootstrap_stamp() -> TxnStamp {
    static BOOTSTRAP: OnceLock<TxnStamp> = OnceLock::new();
    Arc::clone(BOOTSTRAP.get_or_init(|| Arc::new(AtomicU64::new(1))))
}

/// A read snapshot: everything committed at or before `ts` is visible,
/// plus this statement/transaction's own writes (matched by stamp
/// identity, not timestamp).
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub ts: u64,
    pub stamp: TxnStamp,
}

/// MVCC bookkeeping shared between a database handle and every table it
/// owns: the GC watermark (oldest active snapshot timestamp, `u64::MAX`
/// when no snapshot is active) and engine-wide version counters.
#[derive(Debug)]
pub struct MvccShared {
    /// Oldest active snapshot timestamp; versions superseded before this
    /// point are unreachable and may be garbage-collected.
    pub floor: AtomicU64,
    /// Visibility walks that had to consider more than one version.
    pub chains_walked: AtomicU64,
    /// Superseded versions dropped by inline trims and GC sweeps.
    pub versions_gced: AtomicU64,
}

impl Default for MvccShared {
    fn default() -> Self {
        MvccShared {
            floor: AtomicU64::new(u64::MAX),
            chains_walked: AtomicU64::new(0),
            versions_gced: AtomicU64::new(0),
        }
    }
}

/// One version of a row. `row == None` is a deletion tombstone.
#[derive(Debug, Clone)]
struct RowVersion {
    begin: TxnStamp,
    row: Option<Arc<Row>>,
}

impl RowVersion {
    fn committed_at(&self) -> u64 {
        self.begin.load(AtomicOrd::Acquire)
    }
}

/// A row's version chain, oldest first. The single-version chain — every
/// chain in flat mode, and nearly every chain between writes — is stored
/// inline with no heap allocation; pushing a second version spills the
/// chain to a `Vec`, and a trim or GC that leaves one collapses it back.
#[derive(Debug, Clone)]
enum Chain {
    One(RowVersion),
    /// Two or more versions, oldest first.
    Many(Vec<RowVersion>),
}

impl Chain {
    fn single(begin: TxnStamp, row: Arc<Row>) -> Chain {
        Chain::One(RowVersion {
            begin,
            row: Some(row),
        })
    }

    /// Rebuild a chain from its versions; `None` when none are left.
    fn from_versions(mut versions: Vec<RowVersion>) -> Option<Chain> {
        match versions.len() {
            0 => None,
            1 => versions.pop().map(Chain::One),
            _ => Some(Chain::Many(versions)),
        }
    }

    fn versions(&self) -> &[RowVersion] {
        match self {
            Chain::One(v) => std::slice::from_ref(v),
            Chain::Many(vs) => vs,
        }
    }

    /// Does the chain hold more than one version?
    fn is_multi(&self) -> bool {
        matches!(self, Chain::Many(_))
    }

    fn push(&mut self, version: RowVersion) {
        *self = match std::mem::replace(self, Chain::Many(Vec::new())) {
            Chain::One(first) => Chain::Many(vec![first, version]),
            Chain::Many(mut vs) => {
                vs.push(version);
                Chain::Many(vs)
            }
        };
    }

    /// Remove the version at `pos`, returning it and what is left of the
    /// chain (`None` when it was the only version).
    fn without(self, pos: usize) -> (RowVersion, Option<Chain>) {
        match self {
            Chain::One(v) => (v, None),
            Chain::Many(mut vs) => {
                let v = vs.remove(pos);
                (v, Chain::from_versions(vs))
            }
        }
    }

    /// Remove the `n` oldest versions; at least one version must remain.
    fn drain_oldest(&mut self, n: usize) -> Vec<RowVersion> {
        let Chain::Many(vs) = self else {
            return Vec::new();
        };
        let removed: Vec<RowVersion> = vs.drain(..n).collect();
        if let Some(rest) = Chain::from_versions(std::mem::take(vs)) {
            *self = rest;
        }
        removed
    }

    /// The newest version's payload — the "physical latest" row the WAL
    /// after-image derivation and flat mode read. `None` when the newest
    /// version is a tombstone.
    fn latest(&self) -> Option<&Arc<Row>> {
        self.versions().last().and_then(|v| v.row.as_ref())
    }

    /// Consume the chain, returning the newest version's payload.
    fn into_latest(self) -> Option<Arc<Row>> {
        match self {
            Chain::One(v) => v.row,
            Chain::Many(mut vs) => vs.pop().and_then(|v| v.row),
        }
    }

    /// Is the newest version a live row (not a tombstone)?
    fn top_is_live(&self) -> bool {
        self.latest().is_some()
    }

    /// Resolve against a snapshot: newest first, first own-or-committed
    /// version wins; its tombstone means "not visible".
    fn visible(&self, snap: &Snapshot) -> Option<&Arc<Row>> {
        for v in self.versions().iter().rev() {
            if Arc::ptr_eq(&v.begin, &snap.stamp) {
                return v.row.as_ref();
            }
            let ts = v.committed_at();
            if ts != 0 && ts <= snap.ts {
                return v.row.as_ref();
            }
        }
        None
    }
}

/// Version chains in ascending row-id order: a dense id vector and a
/// parallel vector of chain slots, so a scan is a linear walk with no
/// tree hops. Ids are handed out monotonically, so inserts append; while
/// the ids are contiguous a lookup is the offset `id - first_id`,
/// otherwise a binary search. An out-of-order id (a `restore` of an id
/// that is no longer held) is inserted in place.
///
/// Removing a chain only vacates its slot, keeping ids, positions and
/// contiguity put, so an undo that re-inserts the id refills the slot in
/// O(1) — even a reverse-order rollback of a whole-table delete. Vacated
/// slots are compacted away once they exceed half the slab, checked
/// before an append and after a GC sweep, which bounds the slab at twice
/// the occupied slots under insert/delete churn.
#[derive(Debug, Clone, Default)]
struct Slab {
    ids: Vec<RowId>,
    slots: Vec<Option<Chain>>,
    /// Number of `None` slots.
    vacant: usize,
}

impl Slab {
    /// Position of `id`, or where it would be inserted.
    fn find(&self, id: RowId) -> Result<usize, usize> {
        let (Some(&first), Some(&last)) = (self.ids.first(), self.ids.last()) else {
            return Err(0);
        };
        let n = self.ids.len();
        // Ids are strictly ascending, so a span of exactly `n` ids means
        // every id in it is present.
        if last - first == (n - 1) as u64 {
            if id < first {
                Err(0)
            } else if id > last {
                Err(n)
            } else {
                Ok((id - first) as usize)
            }
        } else {
            self.ids.binary_search(&id)
        }
    }

    fn get(&self, id: RowId) -> Option<&Chain> {
        self.find(id).ok().and_then(|i| self.slots[i].as_ref())
    }

    fn get_mut(&mut self, id: RowId) -> Option<&mut Chain> {
        self.find(id).ok().and_then(|i| self.slots[i].as_mut())
    }

    /// Occupied chains in row-id order.
    fn chains(&self) -> impl Iterator<Item = &Chain> {
        self.slots.iter().flatten()
    }

    /// Occupied `(id, chain)` pairs in row-id order.
    fn iter(&self) -> impl Iterator<Item = (RowId, &Chain)> {
        self.ids
            .iter()
            .zip(&self.slots)
            .filter_map(|(&id, slot)| slot.as_ref().map(|c| (id, c)))
    }

    /// Install `chain` under `id`, replacing any chain already there.
    fn put(&mut self, id: RowId, chain: Chain) {
        match self.find(id) {
            Ok(i) => {
                if self.slots[i].replace(chain).is_none() {
                    self.vacant -= 1;
                }
            }
            Err(i) if i == self.ids.len() => {
                self.compact_if_sparse();
                self.ids.push(id);
                self.slots.push(Some(chain));
            }
            Err(i) => {
                self.ids.insert(i, id);
                self.slots.insert(i, Some(chain));
            }
        }
    }

    /// Vacate `id`'s slot, returning its chain.
    fn remove(&mut self, id: RowId) -> Option<Chain> {
        let i = self.find(id).ok()?;
        let chain = self.slots[i].take()?;
        self.vacant += 1;
        Some(chain)
    }

    /// Visit every chain in row-id order, vacating those `keep` rejects,
    /// then compact if that left the slab sparse.
    fn retain_mut(&mut self, mut keep: impl FnMut(RowId, &mut Chain) -> bool) {
        for (&id, slot) in self.ids.iter().zip(self.slots.iter_mut()) {
            if let Some(chain) = slot {
                if !keep(id, chain) {
                    *slot = None;
                    self.vacant += 1;
                }
            }
        }
        self.compact_if_sparse();
    }

    /// Drop vacated slots once they are more than half the slab.
    fn compact_if_sparse(&mut self) {
        if self.vacant * 2 <= self.slots.len() {
            return;
        }
        let mut occupied = self.slots.iter().map(Option::is_some);
        self.ids.retain(|_| occupied.next() == Some(true));
        self.slots.retain(Option::is_some);
        self.vacant = 0;
    }
}

/// A totally ordered composite key, usable in `BTreeMap`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortKey(pub Vec<Value>);

impl Ord for SortKey {
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.0.iter().zip(&other.0) {
            match a.total_cmp(b) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

impl PartialOrd for SortKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A secondary (or constraint-backing) index.
#[derive(Debug, Clone)]
pub struct Index {
    pub name: String,
    /// Positions of the indexed columns in the table schema.
    pub columns: Vec<usize>,
    pub unique: bool,
    map: BTreeMap<SortKey, BTreeSet<RowId>>,
}

impl Index {
    fn key_of(&self, row: &Row) -> SortKey {
        SortKey(self.columns.iter().map(|&i| row[i].clone()).collect())
    }

    /// Would `old` and `new` land under different index keys? Compares
    /// borrowed values directly so the common no-key-change case never
    /// clones a `Value`.
    fn key_changed(&self, old: &Row, new: &Row) -> bool {
        self.columns
            .iter()
            .any(|&i| old[i].total_cmp(&new[i]) != Ordering::Equal)
    }

    fn key_has_null(key: &SortKey) -> bool {
        key.0.iter().any(Value::is_null)
    }

    /// Does the row's index key contain a NULL? Borrowed counterpart of
    /// [`Index::key_has_null`], used to skip key construction entirely.
    fn row_key_has_null(&self, row: &Row) -> bool {
        self.columns.iter().any(|&i| row[i].is_null())
    }

    fn add_entry(&mut self, row: &Row, id: RowId) {
        let key = self.key_of(row);
        self.map.entry(key).or_default().insert(id);
    }

    fn remove_entry(&mut self, key: &SortKey, id: RowId) {
        if let Some(set) = self.map.get_mut(key) {
            set.remove(&id);
            if set.is_empty() {
                self.map.remove(key);
            }
        }
    }

    /// Row ids matching an exact key. Under MVCC the result may include
    /// ids whose *visible* version carries a different key (stale or
    /// future entries) — use [`Table::index_eq_entries`] for
    /// visibility-aware lookups.
    pub fn lookup(&self, key: &SortKey) -> impl Iterator<Item = RowId> + '_ {
        self.map.get(key).into_iter().flatten().copied()
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.map.len()
    }

    /// Translate [`Table::index_range_entries`] bounds into
    /// `BTreeMap::range` bounds, or `None` when the range is provably
    /// empty.
    fn range_bounds(
        lower: Option<(&Value, bool)>,
        upper: Option<(&Value, bool)>,
        include_null_keys: bool,
    ) -> Option<(std::ops::Bound<SortKey>, std::ops::Bound<SortKey>)> {
        use std::ops::Bound;
        if lower.is_some_and(|(v, _)| v.is_null()) || upper.is_some_and(|(v, _)| v.is_null()) {
            return None;
        }
        // BTreeMap::range panics on inverted bounds (and on equal bounds
        // with either end excluded); such ranges are simply empty.
        if let (Some((lo, lo_inc)), Some((hi, hi_inc))) = (lower, upper) {
            match lo.total_cmp(hi) {
                Ordering::Greater => return None,
                Ordering::Equal if !(lo_inc && hi_inc) => return None,
                _ => {}
            }
        }
        let start: Bound<SortKey> = match lower {
            Some((v, true)) => Bound::Included(SortKey(vec![v.clone()])),
            Some((v, false)) => Bound::Excluded(SortKey(vec![v.clone()])),
            None if include_null_keys => Bound::Unbounded,
            // NULL sorts before every non-NULL value, so excluding the
            // NULL key is the same as starting just past it.
            None => Bound::Excluded(SortKey(vec![Value::Null])),
        };
        let end: Bound<SortKey> = match upper {
            Some((v, true)) => Bound::Included(SortKey(vec![v.clone()])),
            Some((v, false)) => Bound::Excluded(SortKey(vec![v.clone()])),
            None => Bound::Unbounded,
        };
        Some((start, end))
    }
}

/// Remove the dropped row's index entries unless another retained
/// version of the same chain still carries the same key. (Every index
/// entry must be backed by at least one retained version — lookups rely
/// on that invariant to skip the key re-check on single-version chains.)
fn unindex_unless_retained(
    indexes: &mut [Index],
    retained: &[RowVersion],
    id: RowId,
    dropped: &Row,
) {
    for idx in indexes.iter_mut() {
        let key = idx.key_of(dropped);
        let retained = retained
            .iter()
            .any(|v| v.row.as_deref().is_some_and(|r| idx.key_of(r) == key));
        if !retained {
            idx.remove_entry(&key, id);
        }
    }
}

/// Drop versions superseded before `floor`: keep the newest version
/// committed at or before the watermark (the anchor — some active or
/// future snapshot may still need it) and everything newer; drop all
/// older versions. Returns how many versions were dropped.
fn trim_chain(indexes: &mut [Index], id: RowId, chain: &mut Chain, floor: u64) -> u64 {
    let Some(anchor) = chain.versions().iter().rposition(|v| {
        let ts = v.committed_at();
        ts != 0 && ts <= floor
    }) else {
        return 0;
    };
    if anchor == 0 {
        return 0;
    }
    let removed = chain.drain_oldest(anchor);
    let dropped = removed.len() as u64;
    for v in removed {
        if let Some(r) = v.row {
            unindex_unless_retained(indexes, chain.versions(), id, &r);
        }
    }
    dropped
}

/// A stored table: schema + versioned rows + indexes.
#[derive(Debug, Clone)]
pub struct Table {
    pub schema: TableSchema,
    rows: Slab,
    /// Number of chains whose newest version is a live row (flat-mode
    /// `len()`); maintained incrementally by every mutation.
    live: usize,
    next_row_id: RowId,
    indexes: Vec<Index>,
    mvcc: Arc<MvccShared>,
}

impl Table {
    /// Create an empty table. A unique index backing the primary key (if
    /// any) is created automatically, as are single-column unique indexes
    /// for `UNIQUE` columns.
    pub fn new(schema: TableSchema) -> Table {
        let mut t = Table {
            rows: Slab::default(),
            live: 0,
            next_row_id: 1,
            indexes: Vec::new(),
            mvcc: Arc::new(MvccShared::default()),
            schema,
        };
        let pk = t.schema.primary_key_cols();
        if !pk.is_empty() {
            t.indexes.push(Index {
                name: format!("{}_pk", t.schema.name),
                columns: pk,
                unique: true,
                map: BTreeMap::new(),
            });
        }
        let uniques: Vec<usize> = t
            .schema
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.unique && !c.primary_key)
            .map(|(i, _)| i)
            .collect();
        for i in uniques {
            t.indexes.push(Index {
                name: format!("{}_{}_unique", t.schema.name, t.schema.columns[i].name),
                columns: vec![i],
                unique: true,
                map: BTreeMap::new(),
            });
        }
        t
    }

    /// Share GC watermark and version counters with the owning database
    /// (called when the table is added to a catalog).
    pub fn attach_mvcc(&mut self, shared: Arc<MvccShared>) {
        self.mvcc = shared;
    }

    /// Number of live rows (newest version not a tombstone). Snapshot
    /// readers should count via a scan; this is the physical count.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is the table physically empty of live rows?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Resolve a chain under the given snapshot (or flat-latest when
    /// `None`), ticking the chain-walk counter for multi-version chains.
    fn resolve_with<'t>(
        &'t self,
        chain: &'t Chain,
        snap: Option<&Snapshot>,
    ) -> Option<&'t Arc<Row>> {
        match snap {
            None => chain.latest(),
            Some(s) => {
                if chain.is_multi() {
                    self.mvcc.chains_walked.fetch_add(1, AtomicOrd::Relaxed);
                }
                chain.visible(s)
            }
        }
    }

    /// Iterate rows in row-id order. Rows come out as shared `Arc`s so a
    /// scan can retain them without deep-copying. Under a snapshot, only
    /// versions visible to it are yielded.
    pub fn iter<'t, 's>(
        &'t self,
        snap: Option<&'s Snapshot>,
    ) -> impl Iterator<Item = (RowId, &'t Arc<Row>)> + use<'t, 's> {
        self.rows
            .iter()
            .filter_map(move |(id, chain)| self.resolve_with(chain, snap).map(|r| (id, r)))
    }

    /// Iterate row data in row-id order *by reference* — the batch
    /// executor's scan primitive. Unlike [`Table::iter`] the `Arc` is
    /// never cloned: the borrow pins each row to the caller's table
    /// guard, so a whole-table scan costs zero refcount traffic and
    /// zero per-row allocation. Snapshot-filtered like [`Table::iter`].
    pub fn scan<'t, 's>(
        &'t self,
        snap: Option<&'s Snapshot>,
    ) -> impl Iterator<Item = &'t Arc<Row>> + use<'t, 's> {
        self.rows
            .chains()
            .filter_map(move |chain| self.resolve_with(chain, snap))
    }

    /// Fetch one row's newest version — the *physical* latest, whatever
    /// snapshot is reading. WAL after-image derivation and recovery
    /// depend on this.
    pub fn get(&self, id: RowId) -> Option<&Arc<Row>> {
        self.rows.get(id).and_then(Chain::latest)
    }

    /// Visibility-aware exact-key index lookup: resolves each candidate
    /// id against `snap` and keeps it only if the visible version
    /// actually carries the probe key (historical entries for other keys
    /// are skipped). Ids come out ascending, matching scan order among
    /// equal keys.
    pub fn index_eq_entries<'t>(
        &'t self,
        snap: Option<&Snapshot>,
        idx: &'t Index,
        key: &SortKey,
    ) -> Vec<(RowId, &'t Arc<Row>)> {
        let mut out = Vec::new();
        for id in idx.lookup(key) {
            let Some(chain) = self.rows.get(id) else {
                continue;
            };
            let multi = chain.is_multi();
            let Some(row) = self.resolve_with(chain, snap) else {
                continue;
            };
            if multi && idx.key_of(row) != *key {
                continue;
            }
            out.push((id, row));
        }
        out
    }

    /// Visibility-aware range walk over a (single-column) index: the rows
    /// whose key falls within the given bounds, emitted in key order — descending when `rev`. Each bound is
    /// `(value, inclusive)`; `None` means unbounded on that side.
    ///
    /// SQL comparison semantics: a NULL bound compares UNKNOWN against
    /// every key, so the range is empty. NULL *keys* never satisfy a
    /// comparison predicate either, so an unbounded-from-below range
    /// excludes them — unless `include_null_keys` is set, which the
    /// executor uses for pure ORDER BY (no range predicate) walks where
    /// NULL keys must appear in their NULLS-first sort position.
    ///
    /// Within one key, row ids come out ascending even when `rev`: the
    /// interpreted path's stable sort preserves scan order (ascending row
    /// id) among equal keys, and index emission must match it exactly.
    ///
    /// Each candidate resolves through `snap` and must carry the entry
    /// key it was found under (so a row whose key changed after the
    /// snapshot neither vanishes nor appears twice). `limit` stops the
    /// walk once that many rows are emitted — the bounded
    /// `ORDER BY … LIMIT` walk — so its result is the prefix of the
    /// unbounded one.
    #[allow(clippy::too_many_arguments)]
    pub fn index_range_entries<'t>(
        &'t self,
        snap: Option<&Snapshot>,
        idx: &'t Index,
        lower: Option<(&Value, bool)>,
        upper: Option<(&Value, bool)>,
        rev: bool,
        include_null_keys: bool,
        limit: Option<usize>,
    ) -> Vec<(RowId, &'t Arc<Row>)> {
        let limit = limit.unwrap_or(usize::MAX);
        let Some(bounds) = Index::range_bounds(lower, upper, include_null_keys) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let entries = idx.map.range(bounds);
        let keys: Box<dyn Iterator<Item = (&SortKey, &BTreeSet<RowId>)>> = if rev {
            Box::new(entries.rev())
        } else {
            Box::new(entries)
        };
        for (key, ids) in keys {
            for &id in ids {
                if out.len() >= limit {
                    return out;
                }
                let Some(chain) = self.rows.get(id) else {
                    continue;
                };
                let multi = chain.is_multi();
                let Some(row) = self.resolve_with(chain, snap) else {
                    continue;
                };
                if multi && idx.key_of(row) != *key {
                    continue;
                }
                out.push((id, row));
            }
        }
        out
    }

    /// Validate a row against NOT NULL constraints and coerce cell types.
    pub fn normalize_row(&self, mut row: Row) -> SqlResult<Row> {
        if row.len() != self.schema.columns.len() {
            return Err(SqlError::Semantic(format!(
                "table '{}' expects {} values, got {}",
                self.schema.name,
                self.schema.columns.len(),
                row.len()
            )));
        }
        for (i, col) in self.schema.columns.iter().enumerate() {
            if row[i].is_null() {
                if let Some(d) = &col.default {
                    row[i] = d.clone();
                }
            }
            if row[i].is_null() && (col.not_null || col.primary_key) {
                return Err(SqlError::Constraint(format!(
                    "column '{}' of table '{}' is NOT NULL",
                    col.name, self.schema.name
                )));
            }
            row[i] = row[i]
                .coerce(col.ty)
                .map_err(|m| SqlError::Semantic(format!("column '{}': {m}", col.name)))?;
        }
        Ok(row)
    }

    /// The stamp new versions should carry: the snapshot's stamp, or the
    /// bootstrap stamp in flat mode.
    fn write_stamp(snap: Option<&Snapshot>) -> TxnStamp {
        match snap {
            Some(s) => Arc::clone(&s.stamp),
            None => bootstrap_stamp(),
        }
    }

    /// Insert a normalized row, enforcing unique indexes. Returns its id.
    pub fn insert(&mut self, snap: Option<&Snapshot>, row: Row) -> SqlResult<RowId> {
        let row = self.normalize_row(row)?;
        self.check_unique(&row, None)?;
        let id = self.next_row_id;
        self.next_row_id += 1;
        for idx in &mut self.indexes {
            idx.add_entry(&row, id);
        }
        let stamp = Table::write_stamp(snap);
        self.rows.put(id, Chain::single(stamp, Arc::new(row)));
        self.live += 1;
        Ok(id)
    }

    /// Put a row under a specific id without constraint checks or
    /// normalization — undo of a delete or of a flat update, and WAL
    /// redo/undo, where the restored state is known-valid. Flat-mode
    /// physical restore: replaces the whole chain, and keeps the
    /// allocator past `id` so a later insert never lands on it.
    pub fn restore(&mut self, id: RowId, row: Row) {
        self.drop_chain_entries(id);
        let was_live = self.rows.get(id).is_some_and(Chain::top_is_live);
        for idx in &mut self.indexes {
            idx.add_entry(&row, id);
        }
        self.next_row_id = self.next_row_id.max(id + 1);
        self.rows
            .put(id, Chain::single(bootstrap_stamp(), Arc::new(row)));
        if !was_live {
            self.live += 1;
        }
    }

    /// Remove every retained version's index entries for `id` (prelude
    /// to physically replacing the chain).
    fn drop_chain_entries(&mut self, id: RowId) {
        let Some(chain) = self.rows.get(id) else {
            return;
        };
        for v in chain.versions() {
            if let Some(r) = &v.row {
                for idx in &mut self.indexes {
                    let key = idx.key_of(r);
                    idx.remove_entry(&key, id);
                }
            }
        }
    }

    /// Replace the row at `id`. Returns the previous (visible) row.
    ///
    /// Flat mode replaces the single version in place; versioned mode
    /// pushes a new version stamped with the snapshot's stamp and
    /// retains the old one for concurrent readers.
    pub fn update(&mut self, snap: Option<&Snapshot>, id: RowId, row: Row) -> SqlResult<Row> {
        let row = self.normalize_row(row)?;
        let Some(snap) = snap else {
            // Flat path: byte-identical to the single-version engine.
            let Some(old) = self.rows.get(id).and_then(Chain::latest).cloned() else {
                return Err(SqlError::NotFound(format!(
                    "row {id} in table '{}'",
                    self.schema.name
                )));
            };
            self.check_unique(&row, Some(id))?;
            for idx in &mut self.indexes {
                if idx.key_changed(&old, &row) {
                    let old_key = idx.key_of(&old);
                    idx.remove_entry(&old_key, id);
                    idx.add_entry(&row, id);
                }
            }
            self.rows
                .put(id, Chain::single(bootstrap_stamp(), Arc::new(row)));
            return Ok(unshare_row(old));
        };
        let Some(old) = self
            .rows
            .get(id)
            .and_then(|c| self.resolve_with(c, Some(snap)))
            .cloned()
        else {
            return Err(SqlError::NotFound(format!(
                "row {id} in table '{}'",
                self.schema.name
            )));
        };
        self.check_unique(&row, Some(id))?;
        let floor = self.mvcc.floor.load(AtomicOrd::Acquire);
        let Table {
            rows,
            indexes,
            mvcc,
            live,
            ..
        } = self;
        let chain = rows.get_mut(id).expect("chain exists: resolved above");
        for idx in indexes.iter_mut() {
            idx.add_entry(&row, id);
        }
        let was_live = chain.top_is_live();
        chain.push(RowVersion {
            begin: Arc::clone(&snap.stamp),
            row: Some(Arc::new(row)),
        });
        if !was_live {
            *live += 1;
        }
        let gced = trim_chain(indexes, id, chain, floor);
        if gced > 0 {
            mvcc.versions_gced.fetch_add(gced, AtomicOrd::Relaxed);
        }
        Ok(unshare_row(old))
    }

    /// Delete the row at `id`, returning it. Flat mode removes the chain;
    /// versioned mode pushes a tombstone so concurrent snapshots keep
    /// reading the old version.
    pub fn delete(&mut self, snap: Option<&Snapshot>, id: RowId) -> SqlResult<Row> {
        let Some(snap) = snap else {
            // Flat path: physically remove the chain.
            let chain = self.rows.remove(id).ok_or_else(|| {
                SqlError::NotFound(format!("row {id} in table '{}'", self.schema.name))
            })?;
            let was_live = chain.top_is_live();
            for v in chain.versions() {
                if let Some(r) = &v.row {
                    for idx in &mut self.indexes {
                        let key = idx.key_of(r);
                        idx.remove_entry(&key, id);
                    }
                }
            }
            if was_live {
                self.live -= 1;
            }
            let row = chain.into_latest().ok_or_else(|| {
                SqlError::NotFound(format!("row {id} in table '{}'", self.schema.name))
            })?;
            return Ok(unshare_row(row));
        };
        let Some(old) = self
            .rows
            .get(id)
            .and_then(|c| self.resolve_with(c, Some(snap)))
            .cloned()
        else {
            return Err(SqlError::NotFound(format!(
                "row {id} in table '{}'",
                self.schema.name
            )));
        };
        let floor = self.mvcc.floor.load(AtomicOrd::Acquire);
        let Table {
            rows,
            indexes,
            mvcc,
            live,
            ..
        } = self;
        let chain = rows.get_mut(id).expect("chain exists: resolved above");
        let was_live = chain.top_is_live();
        chain.push(RowVersion {
            begin: Arc::clone(&snap.stamp),
            row: None,
        });
        if was_live {
            *live -= 1;
        }
        let gced = trim_chain(indexes, id, chain, floor);
        if gced > 0 {
            mvcc.versions_gced.fetch_add(gced, AtomicOrd::Relaxed);
        }
        Ok(unshare_row(old))
    }

    /// Remove the version of `id` stamped with `stamp` (newest such, if
    /// the statement touched the row more than once). Core of stamped
    /// rollback: surgically unwinds this transaction's version without
    /// disturbing versions other transactions pushed above or below.
    fn remove_own_version(&mut self, id: RowId, stamp: &TxnStamp) {
        let Table {
            rows,
            indexes,
            live,
            ..
        } = self;
        let Some(chain) = rows.get(id) else {
            return;
        };
        let was_live = chain.top_is_live();
        let Some(pos) = chain
            .versions()
            .iter()
            .rposition(|v| Arc::ptr_eq(&v.begin, stamp))
        else {
            return;
        };
        let chain = rows.remove(id).expect("chain exists: found above");
        let (removed, rest) = chain.without(pos);
        if let Some(r) = &removed.row {
            let retained = rest.as_ref().map_or(&[][..], Chain::versions);
            unindex_unless_retained(indexes, retained, id, r);
        }
        let now_live = rest.as_ref().is_some_and(Chain::top_is_live);
        if let Some(rest) = rest {
            rows.put(id, rest);
        }
        match (was_live, now_live) {
            (true, false) => *live -= 1,
            (false, true) => *live += 1,
            _ => {}
        }
    }

    /// Undo this transaction's insert of `id` (stamped rollback).
    pub fn undo_insert(&mut self, id: RowId, stamp: &TxnStamp) {
        self.remove_own_version(id, stamp);
    }

    /// Undo this transaction's update of `id` (stamped rollback): pops
    /// the version it pushed, re-exposing whatever was underneath.
    pub fn undo_update(&mut self, id: RowId, stamp: &TxnStamp) {
        self.remove_own_version(id, stamp);
    }

    /// Undo this transaction's delete of `id` (stamped rollback): pops
    /// its tombstone.
    pub fn undo_delete(&mut self, id: RowId, stamp: &TxnStamp) {
        self.remove_own_version(id, stamp);
    }

    /// Drop versions superseded before the `floor` watermark (oldest
    /// active snapshot timestamp; `u64::MAX` when no snapshot is active)
    /// and physically remove rows whose only remaining version is a
    /// committed tombstone at or before it. Returns versions dropped.
    pub fn gc_versions(&mut self, floor: u64) -> u64 {
        let Table {
            rows,
            indexes,
            mvcc,
            ..
        } = self;
        let mut dropped = 0u64;
        rows.retain_mut(|id, chain| {
            dropped += trim_chain(indexes, id, chain, floor);
            let dead = match chain {
                Chain::One(v) if v.row.is_none() => {
                    let ts = v.committed_at();
                    ts != 0 && ts <= floor
                }
                _ => false,
            };
            if dead {
                dropped += 1;
            }
            !dead
        });
        if dropped > 0 {
            mvcc.versions_gced.fetch_add(dropped, AtomicOrd::Relaxed);
        }
        dropped
    }

    /// Total retained versions across all chains (tombstones included) —
    /// test/diagnostic aid for GC behavior.
    pub fn version_count(&self) -> usize {
        self.rows.chains().map(|c| c.versions().len()).sum()
    }

    fn check_unique(&self, row: &Row, exclude: Option<RowId>) -> SqlResult<()> {
        for idx in &self.indexes {
            if !idx.unique {
                continue;
            }
            // Keys containing NULL never clash (SQL convention); checking
            // on the borrowed row skips building the key at all.
            if idx.row_key_has_null(row) {
                continue;
            }
            let key = idx.key_of(row);
            // A candidate clashes only if its *newest* version is live and
            // still carries this key (historical entries of superseded
            // versions don't constrain new writes).
            let clash = idx.lookup(&key).any(|id| {
                Some(id) != exclude
                    && self.rows.get(id).is_some_and(|c| {
                        c.latest()
                            .is_some_and(|r| !c.is_multi() || idx.key_of(r) == key)
                    })
            });
            if clash {
                let cols: Vec<&str> = idx
                    .columns
                    .iter()
                    .map(|&i| self.schema.columns[i].name.as_str())
                    .collect();
                return Err(SqlError::Constraint(format!(
                    "duplicate key ({}) = ({}) violates unique index '{}'",
                    cols.join(", "),
                    key.0
                        .iter()
                        .map(|v| v.render())
                        .collect::<Vec<_>>()
                        .join(", "),
                    idx.name
                )));
            }
        }
        Ok(())
    }

    /// Add a secondary index over the named columns, backfilling it with
    /// every retained version's key. Uniqueness is checked against the
    /// newest live version of each row only — exactly the flat-mode
    /// behavior when every chain is single-version.
    pub fn create_index(
        &mut self,
        name: impl Into<String>,
        column_names: &[String],
        unique: bool,
    ) -> SqlResult<()> {
        let name = name.into();
        if self
            .indexes
            .iter()
            .any(|i| i.name.eq_ignore_ascii_case(&name))
        {
            return Err(SqlError::AlreadyExists(format!("index '{name}'")));
        }
        let mut columns = Vec::new();
        for c in column_names {
            columns.push(self.schema.resolve(c)?);
        }
        let mut idx = Index {
            name,
            columns,
            unique,
            map: BTreeMap::new(),
        };
        for (id, chain) in self.rows.iter() {
            if let Some(row) = chain.latest() {
                let key = idx.key_of(row);
                if unique && !Index::key_has_null(&key) && idx.map.contains_key(&key) {
                    return Err(SqlError::Constraint(format!(
                        "cannot create unique index '{}': duplicate existing keys",
                        idx.name
                    )));
                }
                idx.map.entry(key).or_default().insert(id);
            }
        }
        // Historical versions: index them too so snapshot readers keep
        // finding the rows they can see (no uniqueness constraint — only
        // the newest version constrains).
        for (id, chain) in self.rows.iter() {
            if chain.is_multi() {
                for v in chain.versions() {
                    if let Some(r) = &v.row {
                        idx.map.entry(idx.key_of(r)).or_default().insert(id);
                    }
                }
            }
        }
        self.indexes.push(idx);
        Ok(())
    }

    /// Drop an index by name. Returns it (for undo).
    pub fn drop_index(&mut self, name: &str) -> SqlResult<Index> {
        let pos = self
            .indexes
            .iter()
            .position(|i| i.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| SqlError::NotFound(format!("index '{name}'")))?;
        Ok(self.indexes.remove(pos))
    }

    /// Re-attach a previously dropped index (undo).
    pub fn restore_index(&mut self, index: Index) {
        self.indexes.push(index);
    }

    /// Find an equality index covering exactly the given column positions
    /// (used by the executor's index-lookup fast path).
    pub fn find_index(&self, columns: &[usize]) -> Option<&Index> {
        self.indexes.iter().find(|i| i.columns == columns)
    }

    /// Does an index with this name exist on this table?
    pub fn has_index(&self, name: &str) -> bool {
        self.indexes
            .iter()
            .any(|i| i.name.eq_ignore_ascii_case(name))
    }

    /// All index names (for catalog introspection).
    pub fn index_names(&self) -> Vec<String> {
        self.indexes.iter().map(|i| i.name.clone()).collect()
    }

    /// Iterate index definitions (name, column positions, uniqueness) —
    /// used by checkpoint serialization, which must rebuild the exact
    /// index set on recovery.
    pub fn index_iter(&self) -> impl Iterator<Item = &Index> {
        self.indexes.iter()
    }

    /// The row id the next insert will take. Serialized by checkpoints so
    /// a recovered table allocates ids exactly as the original would
    /// have — recovery must be byte-identical, row ids included.
    pub fn next_row_id(&self) -> RowId {
        self.next_row_id
    }

    /// Restore the row-id allocator (recovery only). Never moves it
    /// backwards: ids already in use stay unreachable.
    pub fn set_next_row_id(&mut self, next: RowId) {
        self.next_row_id = self.next_row_id.max(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::types::DataType;

    fn table() -> Table {
        let schema = TableSchema::new(
            "t",
            vec![
                {
                    let mut c = Column::new("id", DataType::Int);
                    c.primary_key = true;
                    c
                },
                Column::new("name", DataType::Text),
                Column::new("qty", DataType::Int),
            ],
            false,
        )
        .unwrap();
        Table::new(schema)
    }

    fn row(id: i64, name: &str, qty: i64) -> Row {
        vec![Value::Int(id), Value::text(name), Value::Int(qty)]
    }

    #[test]
    fn insert_and_get() {
        let mut t = table();
        let id = t.insert(None, row(1, "a", 10)).unwrap();
        assert_eq!(t.get(id).unwrap()[1], Value::text("a"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn primary_key_enforced() {
        let mut t = table();
        t.insert(None, row(1, "a", 10)).unwrap();
        let err = t.insert(None, row(1, "b", 20)).unwrap_err();
        assert_eq!(err.class(), "constraint");
    }

    #[test]
    fn pk_null_rejected() {
        let mut t = table();
        let err = t
            .insert(None, vec![Value::Null, Value::text("x"), Value::Int(1)])
            .unwrap_err();
        assert_eq!(err.class(), "constraint");
    }

    #[test]
    fn arity_checked() {
        let mut t = table();
        assert!(t.insert(None, vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn coercion_on_insert() {
        let mut t = table();
        let id = t
            .insert(
                None,
                vec![Value::text("7"), Value::Int(5), Value::Float(3.0)],
            )
            .unwrap();
        let r = t.get(id).unwrap();
        assert_eq!(r[0], Value::Int(7));
        assert_eq!(r[1], Value::text("5"));
        assert_eq!(r[2], Value::Int(3));
    }

    #[test]
    fn update_moves_index_entries() {
        let mut t = table();
        let id = t.insert(None, row(1, "a", 10)).unwrap();
        t.update(None, id, row(2, "a", 10)).unwrap();
        // old key free again
        t.insert(None, row(1, "c", 1)).unwrap();
        // new key taken
        assert!(t.insert(None, row(2, "d", 1)).is_err());
    }

    #[test]
    fn update_to_conflicting_pk_fails() {
        let mut t = table();
        let a = t.insert(None, row(1, "a", 1)).unwrap();
        t.insert(None, row(2, "b", 2)).unwrap();
        assert!(t.update(None, a, row(2, "a", 1)).is_err());
        // a unchanged
        assert_eq!(t.get(a).unwrap()[0], Value::Int(1));
    }

    #[test]
    fn update_same_key_allowed() {
        let mut t = table();
        let a = t.insert(None, row(1, "a", 1)).unwrap();
        t.update(None, a, row(1, "a2", 2)).unwrap();
        assert_eq!(t.get(a).unwrap()[1], Value::text("a2"));
    }

    #[test]
    fn delete_frees_key_and_restore_brings_back() {
        let mut t = table();
        let id = t.insert(None, row(1, "a", 1)).unwrap();
        let old = t.delete(None, id).unwrap();
        assert_eq!(t.len(), 0);
        t.restore(id, old);
        assert_eq!(t.get(id).unwrap()[0], Value::Int(1));
        assert!(t.insert(None, row(1, "again", 9)).is_err());
    }

    #[test]
    fn restore_bumps_next_row_id() {
        let mut t = table();
        let id = t.insert(None, row(1, "a", 1)).unwrap();
        let old = t.delete(None, id).unwrap();
        t.restore(id, old);
        let id2 = t.insert(None, row(2, "b", 2)).unwrap();
        assert_ne!(id, id2);
    }

    #[test]
    fn secondary_index_lookup() {
        let mut t = table();
        t.insert(None, row(1, "a", 10)).unwrap();
        t.insert(None, row(2, "a", 20)).unwrap();
        t.insert(None, row(3, "b", 30)).unwrap();
        t.create_index("t_name", &["name".into()], false).unwrap();
        let idx = t.find_index(&[1]).unwrap();
        let hits: Vec<RowId> = idx.lookup(&SortKey(vec![Value::text("a")])).collect();
        assert_eq!(hits.len(), 2);
        assert_eq!(idx.key_count(), 2);
    }

    #[test]
    fn unique_index_creation_fails_on_duplicates() {
        let mut t = table();
        t.insert(None, row(1, "a", 10)).unwrap();
        t.insert(None, row(2, "a", 20)).unwrap();
        let err = t
            .create_index("u_name", &["name".into()], true)
            .unwrap_err();
        assert_eq!(err.class(), "constraint");
    }

    #[test]
    fn unique_index_ignores_null_keys() {
        let schema = TableSchema::new(
            "t",
            vec![Column::new("a", DataType::Int), {
                let mut c = Column::new("b", DataType::Int);
                c.unique = true;
                c
            }],
            false,
        )
        .unwrap();
        let mut t = Table::new(schema);
        t.insert(None, vec![Value::Int(1), Value::Null]).unwrap();
        t.insert(None, vec![Value::Int(2), Value::Null]).unwrap(); // two NULLs fine
        t.insert(None, vec![Value::Int(3), Value::Int(9)]).unwrap();
        assert!(t.insert(None, vec![Value::Int(4), Value::Int(9)]).is_err());
    }

    #[test]
    fn drop_and_restore_index() {
        let mut t = table();
        t.create_index("x", &["qty".into()], false).unwrap();
        let idx = t.drop_index("X").unwrap();
        assert!(!t.has_index("x"));
        t.restore_index(idx);
        assert!(t.has_index("x"));
        assert!(t.drop_index("nope").is_err());
    }

    #[test]
    fn defaults_fill_nulls() {
        let schema = TableSchema::new(
            "t",
            vec![Column::new("a", DataType::Int), {
                let mut c = Column::new("b", DataType::Int);
                c.default = Some(Value::Int(42));
                c
            }],
            false,
        )
        .unwrap();
        let mut t = Table::new(schema);
        let id = t.insert(None, vec![Value::Int(1), Value::Null]).unwrap();
        assert_eq!(t.get(id).unwrap()[1], Value::Int(42));
    }

    #[test]
    fn sort_key_ordering() {
        let a = SortKey(vec![Value::Int(1), Value::text("a")]);
        let b = SortKey(vec![Value::Int(1), Value::text("b")]);
        let c = SortKey(vec![Value::Null]);
        assert!(a < b);
        assert!(c < a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn unique_composite_index_ignores_null_keys() {
        // SQL unique semantics: a key containing NULL never conflicts,
        // even with an identical NULL-containing key.
        let mut t = table();
        t.create_index("u", &["name".into(), "qty".into()], true)
            .unwrap();
        t.insert(None, vec![Value::Int(1), Value::Null, Value::Int(5)])
            .unwrap();
        t.insert(None, vec![Value::Int(2), Value::Null, Value::Int(5)])
            .unwrap();
        t.insert(None, vec![Value::Int(3), Value::text("a"), Value::Null])
            .unwrap();
        t.insert(None, vec![Value::Int(4), Value::text("a"), Value::Null])
            .unwrap();
        assert_eq!(t.len(), 4);
        // Fully non-NULL duplicates are still rejected.
        t.insert(None, row(5, "b", 7)).unwrap();
        let err = t.insert(None, row(6, "b", 7)).unwrap_err();
        assert_eq!(err.class(), "constraint");
    }

    #[test]
    fn update_moves_null_composite_keys_correctly() {
        let mut t = table();
        t.create_index("u", &["name".into(), "qty".into()], true)
            .unwrap();
        let id = t
            .insert(None, vec![Value::Int(1), Value::Null, Value::Int(5)])
            .unwrap();

        // NULL → value: the row must move to the concrete key and start
        // participating in uniqueness.
        t.update(None, id, row(1, "a", 5)).unwrap();
        let idx = t.find_index(&[1, 2]).unwrap();
        let hits: Vec<_> = idx
            .lookup(&SortKey(vec![Value::text("a"), Value::Int(5)]))
            .collect();
        assert_eq!(hits, vec![id]);
        let err = t.insert(None, row(2, "a", 5)).unwrap_err();
        assert_eq!(err.class(), "constraint");

        // value → NULL: leaves the concrete key free again.
        t.update(None, id, vec![Value::Int(1), Value::Null, Value::Int(5)])
            .unwrap();
        t.insert(None, row(2, "a", 5)).unwrap();

        // NULL-key update where the key is unchanged (the borrowed
        // comparison short-circuits; NULL == NULL under total order).
        t.update(None, id, vec![Value::Int(1), Value::Null, Value::Int(5)])
            .unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn delete_removes_null_composite_keys() {
        let mut t = table();
        t.create_index("u", &["name".into(), "qty".into()], true)
            .unwrap();
        let a = t
            .insert(None, vec![Value::Int(1), Value::Null, Value::Int(5)])
            .unwrap();
        let b = t
            .insert(None, vec![Value::Int(2), Value::Null, Value::Int(5)])
            .unwrap();
        t.delete(None, a).unwrap();
        let idx = t.find_index(&[1, 2]).unwrap();
        let hits: Vec<_> = idx
            .lookup(&SortKey(vec![Value::Null, Value::Int(5)]))
            .collect();
        assert_eq!(hits, vec![b]);
        t.delete(None, b).unwrap();
        assert_eq!(t.find_index(&[1, 2]).unwrap().key_count(), 0);
    }

    // ---- MVCC version-chain semantics (reads and writes under a snapshot) ----

    fn snap(ts: u64) -> (Snapshot, TxnStamp) {
        let stamp = new_stamp();
        (
            Snapshot {
                ts,
                stamp: Arc::clone(&stamp),
            },
            stamp,
        )
    }

    /// The version of row `id` visible to `snap`.
    fn visible<'t>(t: &'t Table, snap: &Snapshot, id: RowId) -> Option<&'t Arc<Row>> {
        t.iter(Some(snap)).find(|&(i, _)| i == id).map(|(_, r)| r)
    }

    #[test]
    fn versioned_update_preserves_old_version_for_older_snapshot() {
        let mut t = table();
        let id = t.insert(None, row(1, "a", 10)).unwrap(); // bootstrap ts=1

        // Writer at snapshot ts=5 updates; not yet committed.
        let (wsnap, wstamp) = snap(5);
        t.update(Some(&wsnap), id, row(1, "a", 20)).unwrap();
        // Writer sees its own uncommitted version.
        assert_eq!(visible(&t, &wsnap, id).unwrap()[2], Value::Int(20));
        assert_eq!(t.version_count(), 2);

        // A reader snapshot (any ts) does not see the uncommitted write.
        let (rsnap, _) = snap(9);
        assert_eq!(visible(&t, &rsnap, id).unwrap()[2], Value::Int(10));

        // Commit at ts=6: readers at ts>=6 see it, older snapshots don't.
        wstamp.store(6, AtomicOrd::Release);
        let (new_r, _) = snap(9);
        assert_eq!(visible(&t, &new_r, id).unwrap()[2], Value::Int(20));
        let (old_r, _) = snap(5);
        assert_eq!(visible(&t, &old_r, id).unwrap()[2], Value::Int(10));
    }

    #[test]
    fn versioned_delete_is_tombstone_until_gc() {
        let mut t = table();
        let id = t.insert(None, row(1, "a", 10)).unwrap();
        let (wsnap, wstamp) = snap(5);
        t.delete(Some(&wsnap), id).unwrap();
        assert!(visible(&t, &wsnap, id).is_none()); // own delete visible
                                                    // Old snapshot still sees the row.
        let (r, _) = snap(5);
        assert_eq!(visible(&t, &r, id).unwrap()[0], Value::Int(1));
        let all: Vec<_> = t.iter(Some(&r)).collect();
        assert_eq!(all.len(), 1);
        assert_eq!(t.len(), 0); // physically dead (newest is tombstone)
        wstamp.store(6, AtomicOrd::Release);
        // After commit + GC past the tombstone, the chain is gone.
        assert!(t.gc_versions(u64::MAX) >= 1);
        assert_eq!(t.version_count(), 0);
    }

    #[test]
    fn stamped_undo_restores_exact_state() {
        let mut t = table();
        let a = t.insert(None, row(1, "a", 10)).unwrap();
        let (wsnap, wstamp) = snap(5);
        let w = Some(&wsnap);
        let b = t.insert(w, row(2, "b", 20)).unwrap();
        t.update(w, a, row(1, "a", 99)).unwrap();
        t.delete(w, a).unwrap();
        // Roll all three back (reverse order, as the undo log would).
        t.undo_delete(a, &wstamp);
        t.undo_update(a, &wstamp);
        t.undo_insert(b, &wstamp);
        assert_eq!(t.len(), 1);
        assert_eq!(t.version_count(), 1);
        assert_eq!(t.get(a).unwrap()[2], Value::Int(10));
        // Index state restored: key 2 free again, key 1 still taken.
        t.insert(None, row(2, "b2", 1)).unwrap();
        assert!(t.insert(None, row(1, "dup", 1)).is_err());
    }

    #[test]
    fn index_entries_follow_visibility() {
        let mut t = table();
        let id = t.insert(None, row(1, "a", 10)).unwrap();
        t.insert(None, row(2, "b", 20)).unwrap();
        t.create_index("t_name", &["name".into()], false).unwrap();

        let (wsnap, wstamp) = snap(5);
        t.update(Some(&wsnap), id, row(1, "z", 11)).unwrap();
        wstamp.store(6, AtomicOrd::Release);

        // Old snapshot: sees the row under its old key, not the new one.
        let (old_r, _) = snap(5);
        let old_r = Some(&old_r);
        let idx = t.find_index(&[1]).unwrap();
        let a_hits = t.index_eq_entries(old_r, idx, &SortKey(vec![Value::text("a")]));
        assert_eq!(a_hits.len(), 1);
        assert_eq!(a_hits[0].1[2], Value::Int(10));
        assert!(t
            .index_eq_entries(old_r, idx, &SortKey(vec![Value::text("z")]))
            .is_empty());
        // Range walk emits each visible row exactly once.
        let all = t.index_range_entries(old_r, idx, None, None, false, true, None);
        assert_eq!(all.len(), 2);

        // New snapshot: new key only.
        let (new_r, _) = snap(6);
        let new_r = Some(&new_r);
        assert!(t
            .index_eq_entries(new_r, idx, &SortKey(vec![Value::text("a")]))
            .is_empty());
        assert_eq!(
            t.index_eq_entries(new_r, idx, &SortKey(vec![Value::text("z")]))
                .len(),
            1
        );
        let all = t.index_range_entries(new_r, idx, None, None, false, true, None);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn stale_index_entries_do_not_block_unique_inserts() {
        let mut t = table();
        let id = t.insert(None, row(1, "a", 10)).unwrap();
        let (wsnap, wstamp) = snap(5);
        // Move pk 1 -> 7; the historical pk-1 entry must not block a
        // fresh insert of pk 1, and pk 7 must now clash.
        t.update(Some(&wsnap), id, row(7, "a", 10)).unwrap();
        wstamp.store(6, AtomicOrd::Release);
        let (w2, _) = snap(6);
        t.insert(Some(&w2), row(1, "fresh", 1)).unwrap();
        assert!(t.insert(Some(&w2), row(7, "dup", 1)).is_err());
    }

    #[test]
    fn gc_respects_floor_watermark() {
        let mut t = table();
        // Pin the watermark low so inline trim retains history, as it
        // would while an old snapshot is still registered.
        let shared = Arc::new(MvccShared::default());
        shared.floor.store(1, AtomicOrd::Release);
        t.attach_mvcc(Arc::clone(&shared));
        let id = t.insert(None, row(1, "a", 0)).unwrap();
        for (i, commit_ts) in [(1i64, 10u64), (2, 20), (3, 30)] {
            let (wsnap, wstamp) = snap(commit_ts - 1);
            t.update(Some(&wsnap), id, row(1, "a", i)).unwrap();
            wstamp.store(commit_ts, AtomicOrd::Release);
        }
        assert_eq!(t.version_count(), 4);
        // Floor 15: versions at ts 1 and 10 are superseded by ts 10's
        // successor... anchor is ts=10 (newest committed <= 15), so only
        // the bootstrap version drops.
        t.gc_versions(15);
        assert_eq!(t.version_count(), 3);
        // Snapshot at 15 still reads qty=1 (the ts=10 version).
        let (r, _) = snap(15);
        assert_eq!(visible(&t, &r, id).unwrap()[2], Value::Int(1));
        // No active snapshots: everything but the newest drops.
        t.gc_versions(u64::MAX);
        assert_eq!(t.version_count(), 1);
        assert_eq!(t.get(id).unwrap()[2], Value::Int(3));
    }

    #[test]
    fn inline_trim_bounds_chain_growth() {
        let mut t = table();
        let id = t.insert(None, row(1, "a", 0)).unwrap();
        // Repeated committed autocommit updates with no active snapshots
        // (floor = MAX): chains must not grow without bound.
        for i in 1..100i64 {
            // floor stays MAX in this direct-table test
            let (wsnap, wstamp) = snap(u64::MAX - 1);
            t.update(Some(&wsnap), id, row(1, "a", i)).unwrap();
            wstamp.store(i as u64 + 1, AtomicOrd::Release);
        }
        assert!(t.version_count() <= 3, "chain grew: {}", t.version_count());
    }

    #[test]
    fn slab_stays_bounded_under_insert_delete_churn() {
        // The per-epoch pattern of a confirmations table: a batch of rows
        // arrives, some are rewritten, all are deleted under a snapshot,
        // and a checkpoint GC reclaims them.
        let mut t = table();
        let bounded = |t: &Table| t.rows.slots.len() <= 2 * t.len() + 2;
        for round in 0..50u64 {
            let ids: Vec<RowId> = (0..256)
                .map(|i| t.insert(None, row(i, "c", i)).unwrap())
                .collect();
            assert!(bounded(&t), "round {round}: {} slots", t.rows.slots.len());

            let (wsnap, wstamp) = snap(2 * round + 1);
            for (pk, &id) in ids.iter().enumerate().step_by(2) {
                t.update(Some(&wsnap), id, row(pk as i64, "u", 0)).unwrap();
            }
            wstamp.store(2 * round + 2, AtomicOrd::Release);
            t.gc_versions(u64::MAX);
            assert!(
                t.rows.chains().all(|c| !c.is_multi()),
                "round {round}: GC left a spilled chain"
            );

            let (wsnap, wstamp) = snap(2 * round + 2);
            for &id in &ids {
                t.delete(Some(&wsnap), id).unwrap();
            }
            wstamp.store(2 * round + 3, AtomicOrd::Release);
            t.gc_versions(u64::MAX);
            assert_eq!((t.len(), t.version_count()), (0, 0), "round {round}");
            assert!(bounded(&t), "round {round}: {} slots", t.rows.slots.len());
        }
    }
}
