//! The bounded work queue + worker-fleet primitive shared by the
//! experiment scheduler and the serving subsystem.
//!
//! Both request paths in this workspace have the same shape: producers
//! enqueue units of work into a **bounded** queue, a fixed fleet of
//! workers drains it, and shutdown must wake every blocked party exactly
//! once. The [`ExperimentScheduler`](crate::ExperimentScheduler) streams
//! DAG nodes through one (capacity = node count, so pushes never block);
//! the `blurnet-serve` micro-batcher streams classification requests
//! through another (capacity = admission depth, so overload back-pressures
//! clients instead of growing an unbounded backlog).
//!
//! [`BoundedQueue`] is that shared substrate: a mutex-plus-condvar MPMC
//! channel with blocking [`push`](BoundedQueue::push),
//! blocking [`pop`](BoundedQueue::pop), deadline-aware
//! [`pop_timeout`](BoundedQueue::pop_timeout) (the serving flush window),
//! and [`close`](BoundedQueue::close) semantics — after a close, pending
//! items still drain, new pushes are refused, and every blocked consumer
//! wakes. [`run_workers`] is the companion fleet launcher: it runs one
//! worker body per id on a dedicated rayon pool (or inline for a single
//! worker, keeping the whole ambient rayon budget available to the work
//! itself).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use rayon::prelude::*;

/// Outcome of a [`BoundedQueue::pop_timeout`] call.
#[derive(Debug, PartialEq, Eq)]
pub enum PopTimeout<T> {
    /// An item was dequeued before the deadline.
    Item(T),
    /// The deadline passed with the queue still empty (and open).
    TimedOut,
    /// The queue was closed and fully drained — no item will ever arrive.
    Closed,
}

/// Outcome of a [`BoundedQueue::try_push`] call.
#[derive(Debug, PartialEq, Eq)]
pub enum TryPush<T> {
    /// The item was enqueued.
    Pushed,
    /// The queue is at capacity; the item is returned. This is the
    /// admission-control signal: a shedding producer maps it to an
    /// explicit `queue_full` rejection instead of blocking.
    Full(T),
    /// The queue is closed; the item is returned.
    Closed(T),
}

/// Mutable queue state guarded by one mutex (never held while running
/// work).
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded, closeable MPMC work queue.
///
/// * [`push`](BoundedQueue::push) blocks while the queue is full and
///   refuses (returning the item) once the queue is closed — back-pressure
///   instead of unbounded growth.
/// * [`pop`](BoundedQueue::pop) blocks while the queue is empty and
///   returns `None` once the queue is closed **and** drained — items
///   enqueued before the close are always delivered.
/// * [`close`](BoundedQueue::close) wakes every blocked producer and
///   consumer.
///
/// ```
/// use blurnet::queue::BoundedQueue;
///
/// let queue = BoundedQueue::new(4);
/// queue.push(1).unwrap();
/// queue.push(2).unwrap();
/// queue.close();
/// assert_eq!(queue.push(3), Err(3)); // closed: refused, item returned
/// assert_eq!(queue.pop(), Some(1)); // pending items still drain
/// assert_eq!(queue.pop(), Some(2));
/// assert_eq!(queue.pop(), None); // closed and empty
/// ```
pub struct BoundedQueue<T> {
    capacity: usize,
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedQueue")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("closed", &self.is_closed())
            .finish()
    }
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BoundedQueue {
            capacity,
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Current number of queued items.
    fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether [`close`](BoundedQueue::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Enqueues `item`, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` if the queue is (or becomes, while waiting)
    /// closed — the caller gets its item back instead of losing it.
    pub fn push(&self, item: T) -> Result<(), T> {
        // Fault site `core.queue.push`: an `Error` fault refuses the push
        // exactly like a closed queue would (the item comes back to the
        // caller), so producers must tolerate spurious refusals —
        // re-check [`BoundedQueue::is_closed`] before treating a refusal
        // as terminal.
        #[cfg(feature = "fault-injection")]
        if crate::fault::fire(crate::fault::sites::QUEUE_PUSH) {
            return Err(item);
        }
        let mut st = self.lock();
        loop {
            if st.closed {
                return Err(item);
            }
            if st.items.len() < self.capacity {
                st.items.push_back(item);
                self.not_empty.notify_one();
                return Ok(());
            }
            st = self.not_full.wait(st).expect("bounded queue lock poisoned");
        }
    }

    /// Enqueues `item` without blocking: [`TryPush::Full`] when the queue
    /// is at capacity, [`TryPush::Closed`] once closed. The item is
    /// returned in both refusal cases.
    pub fn try_push(&self, item: T) -> TryPush<T> {
        // Fault site `core.queue.push` (shared with the blocking path):
        // an `Error` fault reports a spuriously full queue.
        #[cfg(feature = "fault-injection")]
        if crate::fault::fire(crate::fault::sites::QUEUE_PUSH) {
            return TryPush::Full(item);
        }
        let mut st = self.lock();
        if st.closed {
            return TryPush::Closed(item);
        }
        if st.items.len() < self.capacity {
            st.items.push_back(item);
            self.not_empty.notify_one();
            TryPush::Pushed
        } else {
            TryPush::Full(item)
        }
    }

    /// Dequeues the oldest item, blocking while the queue is empty and
    /// open. Returns `None` once the queue is closed and drained.
    ///
    /// Under fault injection, site `core.queue.pop` can return a
    /// *spurious* `None` from an open queue (a modeled lost-wakeup), so
    /// resilient consumers confirm with
    /// [`is_closed`](BoundedQueue::is_closed) before treating `None` as
    /// shutdown.
    pub fn pop(&self) -> Option<T> {
        #[cfg(feature = "fault-injection")]
        if crate::fault::fire(crate::fault::sites::QUEUE_POP) {
            return None;
        }
        let mut st = self.lock();
        loop {
            if let Some(item) = st.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self
                .not_empty
                .wait(st)
                .expect("bounded queue lock poisoned");
        }
    }

    /// Dequeues the oldest item, waiting at most `timeout`.
    ///
    /// Already-queued items are returned immediately even with a zero (or
    /// elapsed) timeout, which is what lets a micro-batcher with a 0-width
    /// flush window still coalesce whatever is waiting in the queue.
    pub fn pop_timeout(&self, timeout: Duration) -> PopTimeout<T> {
        // Fault site `core.queue.pop_timeout`: an `Error` fault reports a
        // spurious timeout (consumers already handle real ones).
        #[cfg(feature = "fault-injection")]
        if crate::fault::fire(crate::fault::sites::QUEUE_POP_TIMEOUT) {
            return PopTimeout::TimedOut;
        }
        let deadline = Instant::now() + timeout;
        let mut st = self.lock();
        loop {
            if let Some(item) = st.items.pop_front() {
                self.not_full.notify_one();
                return PopTimeout::Item(item);
            }
            if st.closed {
                return PopTimeout::Closed;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return PopTimeout::TimedOut;
            }
            let (guard, _) = self
                .not_empty
                .wait_timeout(st, remaining)
                .expect("bounded queue lock poisoned");
            st = guard;
        }
    }

    /// Closes the queue: subsequent pushes are refused, already-queued
    /// items still drain, and every blocked producer/consumer wakes.
    /// Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        self.state.lock().expect("bounded queue lock poisoned")
    }
}

/// Runs `body(worker_id)` once per worker id in `0..workers`,
/// concurrently.
///
/// A single worker runs inline on the calling thread — no pool is built,
/// so the whole ambient rayon budget stays available to the work itself
/// (the scheduler relies on this to give single-worker runs full
/// intra-cell parallelism). Multiple workers run on a dedicated rayon pool
/// of exactly `workers` threads; if that pool cannot be built the workers
/// run sequentially on the calling thread, which is always correct for
/// queue-draining fleets (a lone consumer still drains the queue to
/// completion).
pub fn run_workers<F>(workers: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    if workers <= 1 {
        body(0);
        return;
    }
    match rayon::ThreadPoolBuilder::new().num_threads(workers).build() {
        Ok(pool) => {
            let mut ids: Vec<usize> = (0..workers).collect();
            pool.install(|| {
                ids.par_chunks_mut(1).for_each(|id| body(id[0]));
            });
        }
        Err(_) => {
            for id in 0..workers {
                body(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn push_pop_roundtrip_in_fifo_order() {
        let queue = BoundedQueue::new(8);
        assert_eq!(queue.len(), 0);
        for i in 0..5 {
            queue.push(i).unwrap();
        }
        assert_eq!(queue.len(), 5);
        for i in 0..5 {
            assert_eq!(queue.pop(), Some(i));
        }
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let queue = BoundedQueue::new(0);
        assert!(matches!(queue.try_push(1), TryPush::Pushed));
        assert!(matches!(queue.try_push(2), TryPush::Full(2)));
        assert_eq!(queue.pop(), Some(1));
    }

    #[test]
    fn close_refuses_new_items_but_drains_pending_ones() {
        let queue = BoundedQueue::new(4);
        queue.push("a").unwrap();
        queue.close();
        assert!(queue.is_closed());
        assert_eq!(queue.push("b"), Err("b"));
        assert_eq!(queue.pop(), Some("a"));
        assert_eq!(queue.pop(), None);
        // Idempotent.
        queue.close();
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn pop_timeout_returns_queued_items_even_with_zero_timeout() {
        let queue = BoundedQueue::new(2);
        queue.push(7).unwrap();
        assert_eq!(
            queue.pop_timeout(Duration::from_millis(0)),
            PopTimeout::Item(7)
        );
        assert_eq!(
            queue.pop_timeout(Duration::from_millis(0)),
            PopTimeout::TimedOut
        );
        queue.close();
        assert_eq!(
            queue.pop_timeout(Duration::from_millis(0)),
            PopTimeout::Closed
        );
    }

    #[test]
    fn full_queue_blocks_producers_until_a_consumer_drains() {
        let queue = Arc::new(BoundedQueue::new(1));
        queue.push(0u32).unwrap();
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(1).is_ok())
        };
        // The producer is blocked on the full queue; popping releases it.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(queue.pop(), Some(0));
        assert!(producer.join().unwrap());
        assert_eq!(queue.pop(), Some(1));
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let queue = Arc::new(BoundedQueue::<u32>::new(2));
        let consumer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop())
        };
        std::thread::sleep(Duration::from_millis(20));
        queue.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn worker_fleet_drains_a_closed_queue_completely() {
        let queue = Arc::new(BoundedQueue::new(64));
        for i in 0..64u64 {
            queue.push(i).unwrap();
        }
        queue.close();
        let sum = Arc::new(AtomicUsize::new(0));
        let count = Arc::new(AtomicUsize::new(0));
        run_workers(4, |_worker| {
            while let Some(v) = queue.pop() {
                sum.fetch_add(v as usize, Ordering::Relaxed);
                count.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 64);
        assert_eq!(sum.load(Ordering::Relaxed), (0..64).sum::<usize>());
    }

    #[test]
    fn single_worker_runs_inline() {
        let main_thread = std::thread::current().id();
        let hits = AtomicUsize::new(0);
        run_workers(1, |id| {
            assert_eq!(id, 0);
            // One worker means no pool: the body runs on the caller.
            assert_eq!(std::thread::current().id(), main_thread);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }
}
