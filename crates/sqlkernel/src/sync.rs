//! Minimal synchronization primitives with a `parking_lot`-style API.
//!
//! The engine wants infallible `lock()`/`read()`/`write()` calls: a
//! poisoned lock means a panic already unwound mid-statement, and the
//! undo log — not lock poisoning — is the consistency mechanism, so the
//! guards here are poison-transparent. Keeping the shim in-tree also
//! keeps the kernel dependency-free, which matters for hermetic builds.

use std::sync::PoisonError;

/// Mutual exclusion lock whose `lock()` never returns a poison error.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// Guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Wrap `value` in a new mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire the lock only if it is immediately available.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Reader-writer lock whose `read()`/`write()` never return poison errors.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

/// Shared guard returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// Exclusive guard returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Wrap `value` in a new reader-writer lock.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard; many readers may hold one at once.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire the exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

// ---------------------------------------------------------------- TableLock

/// Admission bookkeeping for [`TableLock`].
#[derive(Debug, Default)]
struct TableLockState {
    /// Readers currently admitted (holding or about to take the data lock).
    readers: usize,
    /// Is a writer currently admitted?
    writer: bool,
    /// Writers queued for admission. *Fresh* readers wait behind them
    /// (starvation gate); readers that already hold a table read guard
    /// do not (recursion and cycle safety).
    writers_waiting: usize,
    /// Threads blocked on the admission condvar. A release with none
    /// skips the wake-up, which is a system call even when nobody waits.
    sleepers: usize,
}

thread_local! {
    /// Table read guards the calling thread holds. Lets
    /// [`TableLock::read`] tell a nested read — made while the thread
    /// already holds a table read guard, which must bypass the
    /// pending-writer gate to stay deadlock-free — from a fresh reader,
    /// which yields to queued writers. Guards are `!Send`, so each one
    /// is counted and released on the same thread.
    static READ_HOLDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A *reader-preference* reader-writer lock for per-table data.
///
/// `std::sync::RwLock` documents that a thread re-acquiring a read lock
/// it already holds may deadlock when a writer is queued in between —
/// and the query engine does exactly that: a `SELECT` scanning table `t`
/// under a read guard can evaluate a subquery that reads `t` again
/// (self-joins do it too). This lock therefore runs its own admission
/// control — a mutex + condvar — in front of an internal `RwLock` that
/// is never contended in the dangerous way:
///
/// * readers *already holding* a read guard — on this lock or on any
///   other table lock — are admitted whenever no writer is **active**,
///   so recursive read acquisition is always safe, and so are nested
///   reads across tables (a scan of `a` evaluating a subquery over `b`):
///   gating those could close a wait cycle, with a writer queued on `a`
///   waiting for a reader that holds `a` and waits behind a writer
///   queued on `b`, which waits for a reader that holds `b` and waits
///   behind the first writer;
/// * **fresh** readers (holding no table guard) additionally wait while
///   a writer is *queued* — the pending-writer gate — so a continuous
///   reader stream cannot starve a writer: at most the readers admitted
///   before the writer queued, and their nested reads, run ahead of it;
/// * a writer is admitted only once `readers == 0`, at which point the
///   internal data lock is free, so its `write()` succeeds immediately.
///
/// Under MVCC the gate window is short by construction: writers hold this
/// lock only for the in-memory apply phase of a statement (snapshot reads
/// carry the long work), so gated readers wait out one apply, not a whole
/// statement.
#[derive(Debug, Default)]
pub struct TableLock<T> {
    state: Mutex<TableLockState>,
    admitted: std::sync::Condvar,
    data: RwLock<T>,
}

impl<T> TableLock<T> {
    /// Wrap `value` in a new table lock.
    pub fn new(value: T) -> TableLock<T> {
        TableLock {
            state: Mutex::new(TableLockState::default()),
            admitted: std::sync::Condvar::new(),
            data: RwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }

    /// Acquire a shared read guard. A thread already holding a table read
    /// guard is admitted past *waiting* writers (recursion and cycle
    /// safety); a fresh reader yields to them (starvation gate).
    pub fn read(&self) -> TableReadGuard<'_, T> {
        let nested = READ_HOLDS.get() > 0;
        let mut state = self.state.lock();
        while state.writer || (!nested && state.writers_waiting > 0) {
            state = self.wait(state);
        }
        state.readers += 1;
        drop(state);
        READ_HOLDS.set(READ_HOLDS.get() + 1);
        // No writer is admitted while readers > 0, so this cannot block.
        TableReadGuard {
            lock: self,
            guard: Some(self.data.read()),
        }
    }

    /// Acquire the exclusive write guard, waiting out current readers.
    /// While queued, fresh readers are gated behind this writer.
    pub fn write(&self) -> TableWriteGuard<'_, T> {
        let mut state = self.state.lock();
        state.writers_waiting += 1;
        while state.writer || state.readers > 0 {
            state = self.wait(state);
        }
        state.writers_waiting -= 1;
        state.writer = true;
        drop(state);
        // All reader guards released the data lock before decrementing
        // their admission count, so this cannot block either.
        TableWriteGuard {
            lock: self,
            guard: Some(self.data.write()),
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Sleep until an admission change is announced, counted as a sleeper.
    fn wait<'g>(
        &self,
        mut state: MutexGuard<'g, TableLockState>,
    ) -> MutexGuard<'g, TableLockState> {
        state.sleepers += 1;
        let mut state = self
            .admitted
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
        state.sleepers -= 1;
        state
    }

    /// Release the admission state, waking the sleepers if there are any.
    fn announce(&self, state: MutexGuard<'_, TableLockState>) {
        let wake = state.sleepers > 0;
        drop(state);
        if wake {
            self.admitted.notify_all();
        }
    }
}

/// Shared guard returned by [`TableLock::read`].
#[derive(Debug)]
pub struct TableReadGuard<'a, T> {
    lock: &'a TableLock<T>,
    guard: Option<RwLockReadGuard<'a, T>>,
}

impl<T> std::ops::Deref for TableReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present until drop")
    }
}

impl<T> Drop for TableReadGuard<'_, T> {
    fn drop(&mut self) {
        // Release the data lock *before* the admission slot: a writer
        // admitted by the decrement must find the data lock free.
        self.guard.take();
        READ_HOLDS.set(READ_HOLDS.get() - 1);
        let mut state = self.lock.state.lock();
        state.readers -= 1;
        if state.readers == 0 {
            self.lock.announce(state);
        }
    }
}

/// Exclusive guard returned by [`TableLock::write`].
#[derive(Debug)]
pub struct TableWriteGuard<'a, T> {
    lock: &'a TableLock<T>,
    guard: Option<RwLockWriteGuard<'a, T>>,
}

impl<T> std::ops::Deref for TableWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present until drop")
    }
}

impl<T> std::ops::DerefMut for TableWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present until drop")
    }
}

impl<T> Drop for TableWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.guard.take();
        let mut state = self.lock.state.lock();
        state.writer = false;
        self.lock.announce(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_survives_poison() {
        let m = std::sync::Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn rwlock_survives_poisoned_writer() {
        // A writer that panics while holding the exclusive guard must not
        // wedge later readers or writers: the shim recovers the poison.
        let l = std::sync::Arc::new(RwLock::new(1u32));
        let l2 = l.clone();
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison the rwlock");
        })
        .join();
        assert_eq!(*l.read(), 1);
        *l.write() += 1;
        assert_eq!(*l.read(), 2);
    }

    #[test]
    fn rwlock_allows_parallel_readers() {
        let l = RwLock::new(5);
        let a = l.read();
        let b = l.read();
        assert_eq!(*a + *b, 10);
    }

    #[test]
    fn try_lock_reports_contention() {
        let m = Mutex::new(());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn table_lock_read_write_round_trip() {
        let l = TableLock::new(1u32);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(*a + *b, 2);
        }
        *l.write() += 1;
        assert_eq!(*l.read(), 2);
        assert_eq!(l.into_inner(), 2);
    }

    #[test]
    fn table_lock_recursive_read_survives_waiting_writer() {
        // The scenario std::sync::RwLock documents as a deadlock: thread A
        // holds a read guard, thread B queues a write, thread A re-acquires
        // a read. Reader preference must admit A's second read anyway.
        let l = std::sync::Arc::new(TableLock::new(0u32));
        let first = l.read();
        let l2 = l.clone();
        let writer = std::thread::spawn(move || {
            *l2.write() += 1;
        });
        // Give the writer time to start waiting.
        std::thread::sleep(std::time::Duration::from_millis(30));
        let second = l.read(); // must not deadlock
        assert_eq!(*first + *second, 0);
        drop(first);
        drop(second);
        writer.join().unwrap();
        assert_eq!(*l.read(), 1);
    }

    #[test]
    fn table_lock_nested_read_of_another_lock_survives_waiting_writer() {
        // A thread holding a guard on `a` reads `b` while a writer is
        // queued on `b` behind another reader. The nested read must be
        // admitted: gating it could close a cycle with a writer queued on
        // `a` that waits for this very thread.
        let a = TableLock::new(0u32);
        let b = &TableLock::new(0u32);
        let (held, held_rx) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            s.spawn(move || {
                let _g = b.read();
                held.send(()).unwrap();
                release_rx.recv().unwrap();
            });
            held_rx.recv().unwrap();
            s.spawn(move || *b.write() += 1);
            // Give the writer time to queue behind the holder.
            std::thread::sleep(std::time::Duration::from_millis(30));
            let ga = a.read();
            assert_eq!(*ga + *b.read(), 0, "nested read waited for the writer");
            release.send(()).unwrap();
        });
        assert_eq!(*b.read(), 1);
    }

    #[test]
    fn table_lock_pending_writer_gates_fresh_readers() {
        // Writer-starvation regression: once a writer queues, a *fresh*
        // reader must not be admitted ahead of it. R1 holds a read guard,
        // the writer queues, R2 then attempts a read — R2 must observe
        // the writer's store, proving it was admitted after the write.
        let l = std::sync::Arc::new(TableLock::new(0u32));
        let r1 = l.read();
        let lw = l.clone();
        let writer = std::thread::spawn(move || {
            *lw.write() = 1;
        });
        // Give the writer time to queue behind r1.
        std::thread::sleep(std::time::Duration::from_millis(40));
        let lr = l.clone();
        let r2 = std::thread::spawn(move || *lr.read());
        // Give r2 time to hit the pending-writer gate.
        std::thread::sleep(std::time::Duration::from_millis(40));
        drop(r1);
        writer.join().unwrap();
        assert_eq!(r2.join().unwrap(), 1, "fresh reader jumped the writer");
    }

    #[test]
    fn table_lock_writer_not_starved_by_reader_stream() {
        // A continuous stream of overlapping readers must not starve a
        // writer indefinitely: the gate lets the writer in as soon as the
        // pre-queue readers drain.
        let l = std::sync::Arc::new(TableLock::new(0u32));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let l = l.clone();
                let stop = stop.clone();
                scope.spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let _g = l.read();
                        std::thread::yield_now();
                    }
                });
            }
            {
                let l = l.clone();
                let stop = stop.clone();
                scope.spawn(move || {
                    *l.write() = 7;
                    stop.store(true, std::sync::atomic::Ordering::Relaxed);
                });
            }
        });
        assert_eq!(*l.read(), 7);
    }

    #[test]
    fn table_lock_writer_excludes_readers_and_writers() {
        let l = std::sync::Arc::new(TableLock::new(0u64));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let l = l.clone();
                scope.spawn(move || {
                    for _ in 0..500 {
                        let mut g = l.write();
                        // Non-atomic read-modify-write: torn under any
                        // failure of mutual exclusion.
                        let v = *g;
                        *g = v + 1;
                    }
                });
            }
        });
        assert_eq!(*l.read(), 4000);
    }
}
