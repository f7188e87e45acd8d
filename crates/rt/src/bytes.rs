//! Cheap-to-clone immutable byte buffers with zero-copy slicing.
//!
//! A std-only stand-in for the `bytes` crate: a [`Bytes`] value is a
//! `(allocation, offset, len)` view over either a shared `Vec<u8>` or a
//! `&'static [u8]`, so cloning it for every output edge a payload fans
//! out to is a reference-count bump (or a pointer copy), never a byte
//! copy — and [`Bytes::slice`] carves O(1) sub-views that share the
//! parent allocation, which is what lets the fabric ship chunk frames
//! without copying the payload per chunk. `Bytes::from(Vec<u8>)` adopts
//! the vector's allocation as it is; [`Bytes::copy_from_slice`] is the
//! one constructor that copies.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// The backing storage of a [`Bytes`] view.
#[derive(Clone)]
enum Repr {
    /// A shared heap allocation — the `Vec` a payload was built in,
    /// adopted as it is; clones bump the refcount.
    Shared(Arc<Vec<u8>>),
    /// A `'static` slice; clones copy the pointer, never the bytes.
    Static(&'static [u8]),
}

impl Repr {
    fn as_slice(&self) -> &[u8] {
        match self {
            Repr::Shared(a) => a,
            Repr::Static(s) => s,
        }
    }
}

/// An immutable, reference-counted byte payload.
///
/// Equality, ordering and hashing all act on the *visible* bytes of the
/// view, so a slice compares equal to an independently allocated copy of
/// the same bytes.
///
/// # Examples
///
/// ```
/// use dataflower_rt::Bytes;
///
/// let b = Bytes::from_static(b"dataflower");
/// let c = b.clone(); // O(1): shares the same storage
/// assert_eq!(&*c, b"dataflower");
/// assert_eq!(Bytes::from(String::from("hi")).len(), 2);
///
/// // O(1) sub-view: no bytes are copied.
/// let flower = b.slice(4..);
/// assert_eq!(&*flower, b"flower");
/// ```
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    offset: usize,
    len: usize,
}

impl Bytes {
    /// Wraps a static byte slice without copying: the view borrows the
    /// `'static` data directly, so repeated calls for the same fixed
    /// payload never allocate.
    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes {
            len: bytes.len(),
            repr: Repr::Static(bytes),
            offset: 0,
        }
    }

    /// Copies a slice into a new shared allocation.
    pub fn copy_from_slice(bytes: &[u8]) -> Bytes {
        Bytes {
            len: bytes.len(),
            repr: Repr::Shared(Arc::new(bytes.to_vec())),
            offset: 0,
        }
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns a payload that does not pin substantially more memory
    /// than it shows: when this view covers less than half of its
    /// (heap) backing allocation — its *capacity*, since an adopted
    /// `Vec` pins all of it — the visible bytes are copied into a tight
    /// new allocation and the parent is released; otherwise the view is
    /// returned as-is. Views of `'static` data never compact — they pin
    /// nothing.
    ///
    /// The runtime calls this before *parking* a payload in a data sink:
    /// zero-copy slices are free while data is in flight, but a 1 KiB
    /// slice waiting minutes for its consumer must not keep an 8 MiB
    /// parent buffer alive.
    ///
    /// # Examples
    ///
    /// ```
    /// use dataflower_rt::Bytes;
    ///
    /// let big = Bytes::from(vec![7u8; 1024]);
    /// let small = big.slice(0..10).compact();
    /// drop(big); // `small` no longer references the 1 KiB allocation
    /// assert_eq!(&*small, &[7u8; 10]);
    /// ```
    pub fn compact(self) -> Bytes {
        match &self.repr {
            Repr::Static(_) => self,
            Repr::Shared(alloc) if self.len * 2 >= alloc.capacity() => self,
            Repr::Shared(_) => Bytes::copy_from_slice(&self),
        }
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// An O(1) sub-view of `range`, sharing this view's allocation: no
    /// bytes are copied, and the allocation stays alive as long as any
    /// view of it does. This is the zero-copy path the fabric uses to
    /// cut a payload into chunk frames.
    ///
    /// # Panics
    ///
    /// Panics when the range reaches past `self.len()` or its start lies
    /// past its end.
    ///
    /// # Examples
    ///
    /// ```
    /// use dataflower_rt::Bytes;
    ///
    /// let b = Bytes::from(vec![0u8, 1, 2, 3, 4]);
    /// assert_eq!(&*b.slice(1..4), &[1, 2, 3]);
    /// assert_eq!(b.slice(2..2).len(), 0);
    /// assert_eq!(&*b.slice(..), &*b);
    /// ```
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            lo <= hi && hi <= self.len,
            "slice {lo}..{hi} out of range for Bytes of length {}",
            self.len
        );
        Bytes {
            repr: self.repr.clone(),
            offset: self.offset + lo,
            len: hi - lo,
        }
    }

    /// Extends this view over `next` in O(1) when `next` is a view of the
    /// *same* allocation starting exactly where this one ends — the
    /// inverse of [`Bytes::slice`], which is how the [`Reassembler`]
    /// puts the chunk views of one payload back together without a copy.
    /// Returns `false`, changing nothing, for any other `next`.
    ///
    /// [`Reassembler`]: crate::Reassembler
    pub(crate) fn try_join(&mut self, next: &Bytes) -> bool {
        let same_alloc = match (&self.repr, &next.repr) {
            (Repr::Shared(a), Repr::Shared(b)) => Arc::ptr_eq(a, b),
            (Repr::Static(a), Repr::Static(b)) => std::ptr::eq(*a, *b),
            _ => false,
        };
        let adjacent = same_alloc && next.offset == self.offset + self.len;
        if adjacent {
            self.len += next.len;
        }
        adjacent
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::from_static(b"")
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.repr.as_slice()[self.offset..self.offset + self.len]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    /// Adopts `v`'s allocation: one `Arc::new`, no byte is copied.
    fn from(v: Vec<u8>) -> Bytes {
        Bytes {
            len: v.len(),
            repr: Repr::Shared(Arc::new(v)),
            offset: 0,
        }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        (**self).cmp(&**other)
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} B)", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_allocation() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert!(std::ptr::eq(a.as_ref(), b.as_ref()));
    }

    #[test]
    fn from_vec_adopts_the_allocation() {
        let v = vec![7u8; 4096];
        let ptr = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), ptr);
    }

    #[test]
    fn compact_measures_an_adopted_vec_by_its_capacity() {
        let mut v = Vec::with_capacity(1 << 20);
        v.extend_from_slice(&[3u8; 10]);
        let ptr = v.as_ptr();
        let parked = Bytes::from(v).compact();
        assert_eq!(&*parked, &[3u8; 10]);
        assert_ne!(parked.as_ptr(), ptr, "10 bytes must not pin 1 MiB");
        // A tight Vec is left alone.
        let v = vec![3u8; 10];
        let ptr = v.as_ptr();
        assert_eq!(Bytes::from(v).compact().as_ptr(), ptr);
    }

    #[test]
    fn try_join_rejoins_adjacent_views_of_one_allocation_only() {
        let a = Bytes::from((0..100u8).collect::<Vec<_>>());
        let mut head = a.slice(10..40);
        assert!(!head.try_join(&a.slice(41..50)), "gap");
        assert!(!head.try_join(&a.slice(30..50)), "overlap");
        assert!(!head.try_join(&Bytes::copy_from_slice(&a[40..50])), "copy");
        assert_eq!(head.len(), 30, "a refused join changes nothing");
        assert!(head.try_join(&a.slice(40..50)));
        assert!(head.try_join(&a.slice(50..50)), "empty neighbour");
        assert!(std::ptr::eq(head.as_ref(), &a[10..50]));
        // Static data joins by the same rule; static never joins heap.
        static S: [u8; 8] = [0, 1, 2, 3, 4, 5, 6, 7];
        let s = Bytes::from_static(&S);
        let mut head = s.slice(..4);
        assert!(!head.try_join(&Bytes::copy_from_slice(&S[4..])));
        assert!(head.try_join(&s.slice(4..)));
        assert_eq!(&*head, &S);
    }

    #[test]
    fn conversions() {
        assert_eq!(&*Bytes::from_static(b"x"), b"x");
        assert_eq!(&*Bytes::from(String::from("ab")), b"ab");
        assert_eq!(&*Bytes::from("cd"), b"cd");
        assert_eq!(&*Bytes::copy_from_slice(&[9u8]), &[9u8]);
        assert!(Bytes::default().is_empty());
    }

    #[test]
    fn from_static_does_not_allocate() {
        // A static view points straight at the static data.
        let a = Bytes::from_static(b"fixed payload");
        let b = Bytes::from_static(b"fixed payload");
        assert!(std::ptr::eq(a.as_ref(), b.as_ref()));
        // Slices of it stay zero-copy too.
        let s = a.slice(6..);
        assert!(std::ptr::eq(s.as_ref(), &a.as_ref()[6..]));
    }

    #[test]
    fn slice_shares_parent_allocation() {
        let a = Bytes::from((0..100u8).collect::<Vec<_>>());
        let s = a.slice(10..20);
        assert_eq!(&*s, &(10..20u8).collect::<Vec<_>>()[..]);
        assert!(std::ptr::eq(s.as_ref(), &a.as_ref()[10..20]));
        // Nested slicing composes offsets.
        let t = s.slice(5..);
        assert_eq!(&*t, &[15, 16, 17, 18, 19]);
        // The view keeps the allocation alive after the parent drops.
        drop(a);
        assert_eq!(t[0], 15);
    }

    #[test]
    fn equality_is_by_visible_bytes() {
        let a = Bytes::from(vec![1u8, 2, 3, 4]);
        assert_eq!(a.slice(1..3), Bytes::from(vec![2u8, 3]));
        assert_ne!(a.slice(0..2), a.slice(2..4));
        use std::collections::hash_map::DefaultHasher;
        let h = |b: &Bytes| {
            let mut s = DefaultHasher::new();
            b.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&a.slice(1..3)), h(&Bytes::from(vec![2u8, 3])));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_slice_panics() {
        Bytes::from(vec![0u8; 4]).slice(2..6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn backwards_slice_panics() {
        #[allow(clippy::reversed_empty_ranges)]
        Bytes::from(vec![0u8; 4]).slice(3..1);
    }
}
