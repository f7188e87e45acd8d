//! A lock-striped concurrent map keyed by request id — the live
//! runtime's per-node Wait-Match data sink.
//!
//! The original sink was one `Mutex<HashMap<u64, _>>`, which serialized
//! every DLU routing lookup, FLU trigger check, janitor sweep and depth
//! gauge behind a single lock. [`ShardedSink`] splits the map into N
//! stripes (N rounded up to a power of two), each behind its own
//! `Mutex`; a request id is hashed to a stripe, so operations on
//! different requests proceed in parallel and a janitor sweep only ever
//! holds one stripe at a time.
//!
//! # Examples
//!
//! Concurrent producers on distinct requests, with a gauge sweep running
//! alongside — the exact access pattern of a node's data plane:
//!
//! ```
//! use std::sync::Arc;
//! use dataflower_rt::sink::ShardedSink;
//!
//! let sink: Arc<ShardedSink<Vec<u8>>> = Arc::new(ShardedSink::new(16));
//! let producers: Vec<_> = (0..4u64)
//!     .map(|req| {
//!         let sink = Arc::clone(&sink);
//!         std::thread::spawn(move || {
//!             sink.insert(req, vec![req as u8; 64]); // park a payload
//!             sink.with(req, |entry| entry.unwrap().push(0xff)); // one stripe lock
//!         })
//!     })
//!     .collect();
//! for p in producers {
//!     p.join().unwrap();
//! }
//! // A sweep (the janitor / depth-gauge path) visits every entry while
//! // holding only one stripe lock at a time.
//! let parked_bytes = sink.fold(0usize, |acc, _req, payload| acc + payload.len());
//! assert_eq!(parked_bytes, 4 * 65);
//! assert_eq!(sink.remove(2).unwrap().len(), 65);
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Mutex;

/// Multiplicative (Fibonacci) hash spreading sequential request ids
/// across stripes: without it, ids `0..N` would land on stripes `0..N`
/// in order, which is fine — but adversarial or strided id patterns
/// would collide on one stripe.
const HASH_MULT: u64 = 0x9e37_79b9_7f4a_7c15;

/// One-multiply hasher for the stripes' `HashMap`s. Request ids are
/// minted by the runtime itself (a counter; in worker-process mode the
/// coordinator's), never taken from outside the program, so SipHash's
/// collision resistance buys nothing here. hashbrown picks the bucket
/// from the low bits and the control tag from the top seven of the
/// product; stripe selection uses bits 32.., so keys that collided into
/// one stripe still spread across its buckets.
#[derive(Debug, Default, Clone, Copy)]
struct ReqIdHasher(u64);

impl Hasher for ReqIdHasher {
    fn write_u64(&mut self, k: u64) {
        self.0 = k.wrapping_mul(HASH_MULT);
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("sink keys are u64 request ids");
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type StripeMap<V> = HashMap<u64, V, BuildHasherDefault<ReqIdHasher>>;

/// A lock-striped `u64 → V` map: N independent `Mutex<HashMap>` stripes,
/// selected by key hash.
///
/// All operations lock exactly one stripe (except whole-map sweeps,
/// which visit stripes one at a time), so concurrent producers and
/// consumers working on different requests do not contend.
///
/// # Examples
///
/// ```
/// use dataflower_rt::ShardedSink;
///
/// let sink: ShardedSink<&str> = ShardedSink::new(8);
/// assert!(sink.insert(7, "payload").is_none());
/// assert_eq!(sink.with(7, |v| v.copied()), Some("payload"));
/// assert_eq!(sink.remove(7), Some("payload"));
/// assert!(sink.is_empty());
/// ```
pub struct ShardedSink<V> {
    stripes: Box<[Mutex<StripeMap<V>>]>,
    mask: u64,
}

impl<V> ShardedSink<V> {
    /// Creates a sink with `stripes` lock stripes, rounded up to the
    /// next power of two (minimum 1). `ShardedSink::new(1)` is exactly
    /// the old single-lock sink — useful as a contention baseline.
    pub fn new(stripes: usize) -> ShardedSink<V> {
        let n = stripes.max(1).next_power_of_two();
        ShardedSink {
            stripes: (0..n).map(|_| Mutex::new(StripeMap::default())).collect(),
            mask: n as u64 - 1,
        }
    }

    /// Number of lock stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    fn stripe(&self, key: u64) -> &Mutex<StripeMap<V>> {
        let idx = (key.wrapping_mul(HASH_MULT) >> 32) & self.mask;
        &self.stripes[idx as usize]
    }

    /// Inserts `value` under `key`, returning the previous value if one
    /// existed.
    pub fn insert(&self, key: u64, value: V) -> Option<V> {
        self.stripe(key)
            .lock()
            .expect("sink stripe poisoned")
            .insert(key, value)
    }

    /// Removes and returns the value under `key`.
    pub fn remove(&self, key: u64) -> Option<V> {
        self.stripe(key)
            .lock()
            .expect("sink stripe poisoned")
            .remove(&key)
    }

    /// Runs `f` on the entry under `key` (or `None` if absent) while
    /// holding only that key's stripe lock.
    pub fn with<R>(&self, key: u64, f: impl FnOnce(Option<&mut V>) -> R) -> R {
        let mut map = self.stripe(key).lock().expect("sink stripe poisoned");
        f(map.get_mut(&key))
    }

    /// Runs `f` on the entry under `key`, inserting `default()` first if
    /// the key is absent — all under one stripe lock acquisition, so a
    /// concurrent remover cannot race between the miss and the insert.
    /// This is the worker-process ingress path: a data frame may arrive
    /// before any local state for its request was seeded.
    pub fn with_or_insert<R>(
        &self,
        key: u64,
        default: impl FnOnce() -> V,
        f: impl FnOnce(&mut V) -> R,
    ) -> R {
        let mut map = self.stripe(key).lock().expect("sink stripe poisoned");
        f(map.entry(key).or_insert_with(default))
    }

    /// Visits every entry mutably, one stripe locked at a time — the
    /// janitor's sweep path. Entries inserted into an already-visited
    /// stripe during the sweep are missed until the next sweep, which is
    /// exactly the passive-expire semantics.
    pub fn for_each_mut(&self, mut f: impl FnMut(u64, &mut V)) {
        for stripe in self.stripes.iter() {
            let mut map = stripe.lock().expect("sink stripe poisoned");
            for (k, v) in map.iter_mut() {
                f(*k, v);
            }
        }
        // A sweep is maintenance, and a sweeper that immediately starts
        // the next pass holds *some* stripe lock almost all the time. On
        // saturated hosts that turns every data-plane op into a coin-flip
        // futex wait; yielding here moves the sweeper's deschedule points
        // to where it holds nothing.
        std::thread::yield_now();
    }

    /// Folds over every entry, one stripe locked at a time — the depth
    /// gauge path (e.g. summing parked payloads).
    pub fn fold<A>(&self, init: A, mut f: impl FnMut(A, u64, &V) -> A) -> A {
        let mut acc = init;
        for stripe in self.stripes.iter() {
            let map = stripe.lock().expect("sink stripe poisoned");
            for (k, v) in map.iter() {
                acc = f(acc, *k, v);
            }
        }
        // Same cooperative yield as `for_each_mut`: a gauge loop folding
        // back-to-back must not pin the data plane behind its stripe
        // locks on a saturated core.
        std::thread::yield_now();
        acc
    }

    /// Number of entries across all stripes (sweeps every stripe).
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("sink stripe poisoned").len())
            .sum()
    }

    /// True when every stripe is empty.
    pub fn is_empty(&self) -> bool {
        self.stripes
            .iter()
            .all(|s| s.lock().expect("sink stripe poisoned").is_empty())
    }
}

impl<V> std::fmt::Debug for ShardedSink<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSink")
            .field("stripes", &self.stripes.len())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn stripe_count_rounds_to_power_of_two() {
        assert_eq!(ShardedSink::<u8>::new(0).stripe_count(), 1);
        assert_eq!(ShardedSink::<u8>::new(1).stripe_count(), 1);
        assert_eq!(ShardedSink::<u8>::new(5).stripe_count(), 8);
        assert_eq!(ShardedSink::<u8>::new(16).stripe_count(), 16);
    }

    #[test]
    fn insert_with_remove_roundtrip() {
        let s: ShardedSink<String> = ShardedSink::new(4);
        for k in 0..100u64 {
            assert!(s.insert(k, format!("v{k}")).is_none());
        }
        assert_eq!(s.len(), 100);
        s.with(42, |v| {
            *v.expect("present") = "changed".into();
        });
        assert_eq!(s.remove(42).as_deref(), Some("changed"));
        assert!(!s.with(42, |v| v.is_some()));
        assert_eq!(s.len(), 99);
    }

    #[test]
    fn sweeps_and_folds_visit_everything() {
        let s: ShardedSink<u64> = ShardedSink::new(8);
        for k in 0..64u64 {
            s.insert(k, k * 2);
        }
        let mut seen = 0u64;
        s.for_each_mut(|_, v| {
            *v += 1;
            seen += 1;
        });
        assert_eq!(seen, 64);
        let sum = s.fold(0u64, |a, _, v| a + v);
        assert_eq!(sum, (0..64u64).map(|k| k * 2 + 1).sum());
    }

    #[test]
    fn with_or_insert_seeds_exactly_once() {
        let s: ShardedSink<Vec<u32>> = ShardedSink::new(4);
        let len = s.with_or_insert(9, Vec::new, |v| {
            v.push(1);
            v.len()
        });
        assert_eq!(len, 1);
        // Second call finds the seeded entry, not a fresh default.
        let len = s.with_or_insert(
            9,
            || panic!("must not re-seed"),
            |v| {
                v.push(2);
                v.len()
            },
        );
        assert_eq!(len, 2);
        assert_eq!(s.remove(9), Some(vec![1, 2]));
    }

    #[test]
    fn concurrent_inserts_and_removes_balance() {
        let s: Arc<ShardedSink<u64>> = Arc::new(ShardedSink::new(16));
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let k = t * 10_000 + i;
                        s.insert(k, k);
                        assert_eq!(s.remove(k), Some(k));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(s.is_empty());
    }
}
