//! A small in-tree MPMC channel (bounded and unbounded).
//!
//! Std-only replacement for `crossbeam_channel`, providing the two
//! properties the runtime needs that `std::sync::mpsc` lacks:
//!
//! * **cloneable receivers** — several consumer threads may drain one
//!   queue;
//! * **blocking bounded send** — a full DLU queue blocks `put`, which is
//!   the backpressure of the paper's Fig. 6a.
//!
//! Fabric links ride the same bounded channel: one shipper per directed
//! link drains it in batches ([`Receiver::drain_into`], or the
//! non-blocking [`Receiver::try_drain`] to gather a burst already
//! queued).
//!
//! Disconnection mirrors crossbeam: `recv` fails once the queue is empty
//! and every sender is gone; `send` fails once every receiver is gone.
//!
//! # Batched operations and notification discipline
//!
//! [`Sender::send_many`] and [`Receiver::drain_into`] move a whole batch
//! under **one** lock acquisition, and condvar notifications fire only on
//! state *transitions* (empty→non-empty wakes receivers, full→non-full
//! wakes senders) instead of on every operation. Skipping the steady-state
//! notifies is safe because wakeups are **baton-passed**: a receiver that
//! pops and leaves the queue non-empty re-notifies `not_empty` (another
//! receiver may be waiting on data it was never told about), and a sender
//! that was blocked on a full queue and pushes while space remains
//! re-notifies `not_full`. Unbounded channels never touch the `not_full`
//! condvar at all.
//!
//! # Examples
//!
//! A bounded channel with two competing consumers — the FLU executor
//! pool pattern (cloneable receivers, each message to exactly one
//! consumer), with batched shipping on the producer side:
//!
//! ```
//! use dataflower_rt::channel;
//!
//! let (tx, rx) = channel::bounded::<u32>(8);
//! let consumers: Vec<_> = (0..2)
//!     .map(|_| {
//!         let rx = rx.clone();
//!         std::thread::spawn(move || {
//!             let (mut got, mut buf) = (Vec::new(), Vec::new());
//!             // One lock acquisition drains up to 16 queued messages.
//!             while rx.drain_into(&mut buf, 16).is_ok() {
//!                 got.append(&mut buf);
//!             }
//!             got
//!         })
//!     })
//!     .collect();
//! drop(rx);
//!
//! // send_many blocks mid-batch while the queue is full: that is the
//! // DLU backpressure of Fig. 6a, not an error.
//! tx.send_many(0..100).unwrap();
//! drop(tx); // disconnect: drained consumers exit their loop
//!
//! let mut all: Vec<u32> = consumers
//!     .into_iter()
//!     .flat_map(|c| c.join().unwrap())
//!     .collect();
//! all.sort_unstable();
//! assert_eq!(all, (0..100).collect::<Vec<_>>());
//! ```

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Error returned by [`Sender::send`] when all receivers are dropped; the
/// unsent message is handed back.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Receiver::recv`] when the channel is empty and all
/// senders are dropped.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

struct Inner<T> {
    queue: VecDeque<T>,
    /// `None` = unbounded.
    capacity: Option<usize>,
    senders: usize,
    receivers: usize,
}

impl<T> Inner<T> {
    fn full(&self) -> bool {
        matches!(self.capacity, Some(cap) if self.queue.len() >= cap)
    }
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// The sending half; clone freely.
pub struct Sender<T>(Arc<Shared<T>>);

/// The receiving half; clone freely (messages go to exactly one receiver).
pub struct Receiver<T>(Arc<Shared<T>>);

/// Creates a channel that holds at most `capacity` queued messages;
/// `send` on a full channel blocks until a receiver drains it.
///
/// A `capacity` of 0 is clamped to 1: rendezvous channels (send blocks
/// until a receiver takes the message) are not supported, so the
/// strictest available backpressure is a single-slot buffer.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    with_capacity(Some(capacity.max(1)))
}

/// Creates a channel with no queue limit; `send` never blocks.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    with_capacity(None)
}

fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            queue: VecDeque::new(),
            capacity,
            senders: 1,
            receivers: 1,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender(Arc::clone(&shared)), Receiver(shared))
}

impl<T> Sender<T> {
    /// Enqueues `value`, blocking while the channel is full.
    ///
    /// # Errors
    ///
    /// Returns the value if every receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut inner = self.0.inner.lock().expect("channel lock poisoned");
        let mut waited = false;
        loop {
            if inner.receivers == 0 {
                return Err(SendError(value));
            }
            if inner.full() {
                waited = true;
                inner = self.0.not_full.wait(inner).expect("channel lock poisoned");
            } else {
                break;
            }
        }
        let was_empty = inner.queue.is_empty();
        inner.queue.push_back(value);
        // Baton: we consumed a not_full wakeup; if space remains, pass it
        // on so another blocked sender is not stranded.
        let pass_not_full = waited && !inner.full();
        drop(inner);
        if was_empty {
            self.0.not_empty.notify_one();
        }
        if pass_not_full {
            self.0.not_full.notify_one();
        }
        Ok(())
    }

    /// Enqueues every value of `batch` under a single lock acquisition,
    /// blocking (and releasing the lock) whenever the channel fills up
    /// mid-batch. Returns the number of values enqueued.
    ///
    /// Receivers are notified when the queue transitions empty→non-empty
    /// — including mid-batch before blocking on a full queue, so a batch
    /// larger than the capacity cannot deadlock against sleeping
    /// receivers.
    ///
    /// # Errors
    ///
    /// Returns the not-yet-sent tail of the batch if every receiver has
    /// been dropped (values already enqueued stay enqueued).
    pub fn send_many(
        &self,
        batch: impl IntoIterator<Item = T>,
    ) -> Result<usize, SendError<Vec<T>>> {
        let mut pending = batch.into_iter();
        // Pull each item *before* deciding whether to wait: a batch whose
        // last item exactly fills the queue must return, not block for
        // space it will never use.
        let mut next = pending.next();
        let mut inner = self.0.inner.lock().expect("channel lock poisoned");
        let mut sent = 0usize;
        let mut waited = false;
        loop {
            let Some(v) = next.take() else {
                // Baton: we consumed a not_full wakeup; if space remains,
                // pass it on so another blocked sender is not stranded.
                let pass_not_full = waited && !inner.full();
                drop(inner);
                if pass_not_full {
                    self.0.not_full.notify_one();
                }
                return Ok(sent);
            };
            if inner.receivers == 0 {
                let mut rest = vec![v];
                rest.extend(pending);
                return Err(SendError(rest));
            }
            if inner.full() {
                next = Some(v);
                waited = true;
                inner = self.0.not_full.wait(inner).expect("channel lock poisoned");
                continue;
            }
            if inner.queue.is_empty() {
                // Transition empty→non-empty: wake all receivers (the
                // rest of the batch is for them; notifying under the
                // lock is fine — waiters re-acquire it after we drop).
                self.0.not_empty.notify_all();
            }
            inner.queue.push_back(v);
            sent += 1;
            next = pending.next();
        }
    }
}

impl<T> Receiver<T> {
    /// Dequeues the next message, blocking while the channel is empty.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError`] once the channel is empty and every sender
    /// has been dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut inner = self.0.inner.lock().expect("channel lock poisoned");
        loop {
            if let Some(v) = inner.queue.pop_front() {
                self.after_pop(inner, 1);
                return Ok(v);
            }
            if inner.senders == 0 {
                return Err(RecvError);
            }
            inner = self.0.not_empty.wait(inner).expect("channel lock poisoned");
        }
    }

    /// Pops up to `max` queued messages into `buf` under a single lock
    /// acquisition, blocking like [`Receiver::recv`] until at least one
    /// message is available. Returns how many were appended.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError`] once the channel is empty and every sender
    /// has been dropped.
    pub fn drain_into(&self, buf: &mut Vec<T>, max: usize) -> Result<usize, RecvError> {
        if max == 0 {
            return Ok(0);
        }
        let mut inner = self.0.inner.lock().expect("channel lock poisoned");
        loop {
            if !inner.queue.is_empty() {
                return Ok(self.pop_into(inner, buf, max));
            }
            if inner.senders == 0 {
                return Err(RecvError);
            }
            inner = self.0.not_empty.wait(inner).expect("channel lock poisoned");
        }
    }

    /// Non-blocking [`Receiver::drain_into`]: pops whatever is queued
    /// right now (up to `max`) into `buf`. `Ok(0)` means the channel is
    /// currently empty but still connected.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError`] once the channel is empty and every sender
    /// has been dropped.
    pub fn try_drain(&self, buf: &mut Vec<T>, max: usize) -> Result<usize, RecvError> {
        let inner = self.0.inner.lock().expect("channel lock poisoned");
        if inner.queue.is_empty() && inner.senders == 0 {
            return Err(RecvError);
        }
        Ok(self.pop_into(inner, buf, max))
    }

    /// Moves up to `max` queued messages into `buf` and runs the
    /// post-pop notifications; returns how many moved.
    fn pop_into(&self, mut inner: MutexGuard<'_, Inner<T>>, buf: &mut Vec<T>, max: usize) -> usize {
        let n = max.min(inner.queue.len());
        if n > 0 {
            buf.extend(inner.queue.drain(..n));
            self.after_pop(inner, n);
        }
        n
    }

    /// Post-pop notification discipline, shared by [`Receiver::recv`],
    /// [`Receiver::drain_into`] and [`Receiver::try_drain`]: wake
    /// senders only on the full→non-full
    /// transition (unbounded channels never notify `not_full`), and baton
    /// a `not_empty` wakeup onward when messages remain for other
    /// receivers.
    fn after_pop(&self, inner: MutexGuard<'_, Inner<T>>, popped: usize) {
        let was_full = matches!(
            inner.capacity,
            Some(cap) if inner.queue.len() + popped >= cap
        );
        let still_nonempty = !inner.queue.is_empty();
        drop(inner);
        if was_full {
            // Freeing one slot wakes one sender (which batons onward);
            // freeing many wakes them all.
            if popped > 1 {
                self.0.not_full.notify_all();
            } else {
                self.0.not_full.notify_one();
            }
        }
        if still_nonempty {
            self.0.not_empty.notify_one();
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.inner.lock().expect("channel lock poisoned").senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0
            .inner
            .lock()
            .expect("channel lock poisoned")
            .receivers += 1;
        Receiver(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.0.inner.lock().expect("channel lock poisoned");
        inner.senders -= 1;
        if inner.senders == 0 {
            drop(inner);
            // Wake blocked receivers so they observe disconnection.
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut inner = self.0.inner.lock().expect("channel lock poisoned");
        inner.receivers -= 1;
        if inner.receivers == 0 {
            drop(inner);
            // Wake blocked senders so they observe disconnection.
            self.0.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fifo_order() {
        let (tx, rx) = unbounded();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn recv_fails_after_all_senders_drop() {
        let (tx, rx) = unbounded::<u32>();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_after_all_receivers_drop() {
        let (tx, rx) = bounded::<u32>(1);
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
    }

    #[test]
    fn bounded_send_blocks_until_drained() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let t = std::thread::spawn(move || {
            // Blocks until the main thread drains the slot.
            tx.send(2).unwrap();
        });
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        t.join().unwrap();
    }

    #[test]
    fn cloned_receivers_share_the_stream() {
        let (tx, rx1) = unbounded::<u32>();
        let rx2 = rx1.clone();
        let consumer = |rx: Receiver<u32>| {
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx.recv() {
                    got.push(v);
                }
                got
            })
        };
        let a = consumer(rx1);
        let b = consumer(rx2);
        for i in 0..200 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut all = a.join().unwrap();
        all.extend(b.join().unwrap());
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn send_many_preserves_order() {
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(tx.send_many(0..50), Ok(50));
        assert_eq!(tx.send_many(50..100), Ok(50));
        for i in 0..100 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn send_many_larger_than_capacity_does_not_deadlock() {
        // A 200-message batch through a 4-slot queue: the sender must
        // wake the concurrent receiver mid-batch or both sleep forever.
        let (tx, rx) = bounded::<u32>(4);
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Ok(v) = rx.recv() {
                got.push(v);
            }
            got
        });
        assert_eq!(tx.send_many(0..200), Ok(200));
        drop(tx);
        assert_eq!(consumer.join().unwrap(), (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn send_many_returns_unsent_tail_on_disconnect() {
        let (tx, rx) = bounded::<u32>(8);
        drop(rx);
        assert_eq!(tx.send_many(0..5), Err(SendError((0..5).collect())));
    }

    #[test]
    fn drain_into_takes_up_to_max() {
        let (tx, rx) = unbounded::<u32>();
        tx.send_many(0..10).unwrap();
        let mut buf = Vec::new();
        assert_eq!(rx.drain_into(&mut buf, 4), Ok(4));
        assert_eq!(rx.drain_into(&mut buf, 100), Ok(6));
        assert_eq!(buf, (0..10).collect::<Vec<_>>());
        drop(tx);
        assert_eq!(rx.drain_into(&mut buf, 1), Err(RecvError));
        assert_eq!(rx.drain_into(&mut buf, 0), Ok(0));
    }

    #[test]
    fn drain_into_blocks_until_data() {
        let (tx, rx) = bounded::<u32>(2);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send_many([1, 2]).unwrap();
        });
        let mut buf = Vec::new();
        assert_eq!(rx.drain_into(&mut buf, 8), Ok(2));
        assert_eq!(buf, vec![1, 2]);
        t.join().unwrap();
    }

    #[test]
    fn try_drain_never_blocks_and_wakes_a_full_sender() {
        let (tx, rx) = bounded::<u32>(1);
        let mut buf = Vec::new();
        assert_eq!(rx.try_drain(&mut buf, 8), Ok(0)); // empty, connected
        tx.send(1).unwrap();
        let t = std::thread::spawn(move || {
            tx.send(2).unwrap(); // parks on full until try_drain pops
        });
        // The sleep only makes it likely the sender is already parked;
        // the loop below is correct either way, and hangs if a pop from
        // a full channel ever fails to wake it.
        std::thread::sleep(Duration::from_millis(20));
        while buf.len() < 2 {
            let n = rx.try_drain(&mut buf, 8).expect("sender alive or queued");
            if n == 0 {
                std::thread::yield_now();
            }
        }
        t.join().unwrap();
        assert_eq!(buf, vec![1, 2]);
        assert_eq!(rx.try_drain(&mut buf, 8), Err(RecvError)); // empty, disconnected
    }

    #[test]
    fn drain_unblocks_multiple_full_senders() {
        // Two senders blocked on a full 2-slot queue; one batched drain
        // must free both (full→non-full notify_all + sender batons).
        let (tx, rx) = bounded::<u32>(2);
        tx.send_many([0, 1]).unwrap();
        let blocked: Vec<_> = (0..2)
            .map(|i| {
                let tx = tx.clone();
                std::thread::spawn(move || tx.send(10 + i).unwrap())
            })
            .collect();
        std::thread::sleep(Duration::from_millis(30));
        let mut buf = Vec::new();
        assert_eq!(rx.drain_into(&mut buf, 2), Ok(2));
        for t in blocked {
            t.join().unwrap();
        }
        drop(tx);
        while let Ok(n) = rx.drain_into(&mut buf, 16) {
            assert!(n > 0);
        }
        buf.sort_unstable();
        assert_eq!(buf, vec![0, 1, 10, 11]);
    }

    #[test]
    fn batched_producers_and_consumers_lose_nothing() {
        // Stress the transition-based notifies: 4 batching producers and
        // 4 draining consumers over a small bounded queue must deliver
        // every message exactly once and terminate.
        let (tx, rx) = bounded::<u32>(8);
        let producers: Vec<_> = (0..4u32)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for chunk in 0..10 {
                        let base = p * 1000 + chunk * 100;
                        tx.send_many(base..base + 100).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    let mut buf = Vec::new();
                    while rx.drain_into(&mut buf, 16).is_ok() {
                        got.append(&mut buf);
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let mut all = Vec::new();
        for c in consumers {
            all.extend(c.join().unwrap());
        }
        all.sort_unstable();
        let mut expected: Vec<u32> = (0..4u32).flat_map(|p| p * 1000..p * 1000 + 1000).collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }
}
