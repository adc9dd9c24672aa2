//! Offline, API-compatible subset of the `bytes` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the exact slice of the `bytes` API it uses:
//! [`Bytes`] (cheaply cloneable, sliceable, consumable view) and
//! [`BytesMut`] (growable buffer), plus the [`Buf`]/[`BufMut`] trait
//! methods the codec calls. Semantics match the real crate for this
//! subset; zero-copy internals are simplified (an `Arc<Vec<u8>>` plus
//! a range instead of the real refcounted vtable machinery).

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A cheaply cloneable, contiguous, immutable slice of memory.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn new() -> Self {
        Bytes::default()
    }

    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Split off the first `at` bytes, leaving `self` with the rest.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.start + at,
        };
        self.start += at;
        head
    }

    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len());
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::from(v.to_vec())
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            write!(f, "{}", std::ascii::escape_default(b))?;
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// A growable byte buffer with an amortized-O(1) front cursor.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
    /// Bytes before `head` have been consumed by `advance`/`split_to`.
    head: usize,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
            head: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.data.len() - self.head
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn extend_from_slice(&mut self, other: &[u8]) {
        self.data.extend_from_slice(other);
    }

    /// Drop all unconsumed bytes, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.data.clear();
        self.head = 0;
    }

    /// Shorten to `len` unconsumed bytes; no effect if already shorter.
    pub fn truncate(&mut self, len: usize) {
        self.data.truncate(self.head + len);
    }

    /// Grow or shrink to `len` unconsumed bytes, filling with `value`.
    pub fn resize(&mut self, len: usize, value: u8) {
        self.data.resize(self.head + len, value);
    }

    pub fn freeze(self) -> Bytes {
        let start = self.head;
        let end = self.data.len();
        Bytes {
            data: Arc::new(self.data),
            start,
            end,
        }
    }

    /// Split off the first `at` unconsumed bytes into a new buffer.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = BytesMut {
            data: self.data[self.head..self.head + at].to_vec(),
            head: 0,
        };
        self.head += at;
        self.compact();
        head
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.head..]
    }

    /// Drop already-consumed bytes once they dominate the buffer, so a
    /// long-lived reader does not grow without bound.
    fn compact(&mut self) {
        if self.head > 4096 && self.head * 2 > self.data.len() {
            self.data.drain(..self.head);
            self.head = 0;
        }
    }
}

impl From<&[u8]> for BytesMut {
    fn from(v: &[u8]) -> Self {
        BytesMut {
            data: v.to_vec(),
            head: 0,
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        let head = self.head;
        &mut self.data[head..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut({:?})", self.as_slice())
    }
}

/// Read-side cursor operations.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn advance(&mut self, cnt: usize);
    fn chunk(&self) -> &[u8];

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn get_u8(&mut self) -> u8 {
        assert!(self.has_remaining(), "get_u8 on empty buffer");
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    fn get_u32_le(&mut self) -> u32 {
        assert!(self.remaining() >= 4, "get_u32_le underflow");
        let c = self.chunk();
        let v = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        self.advance(4);
        v
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes;
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        self.start += cnt;
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        self.split_to(len)
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        self.head += cnt;
        self.compact();
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        self.split_to(len).freeze()
    }
}

/// Write-side append operations.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeze_and_consume() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(7);
        buf.put_u8(1);
        buf.put_slice(b"abc");
        let mut b = buf.freeze();
        assert_eq!(b.get_u32_le(), 7);
        assert_eq!(b.get_u8(), 1);
        assert_eq!(&b[..], b"abc");
    }

    #[test]
    fn split_to_shares_storage() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(&head[..], &[1, 2]);
        assert_eq!(&b[..], &[3, 4, 5]);
    }

    #[test]
    fn bytesmut_advance_and_split() {
        let mut m = BytesMut::new();
        m.extend_from_slice(&[9, 8, 7, 6]);
        m.advance(1);
        assert_eq!(&m[..], &[8, 7, 6]);
        let head = m.split_to(2);
        assert_eq!(&head[..], &[8, 7]);
        assert_eq!(&m[..], &[6]);
    }

    #[test]
    fn truncate_and_resize_count_from_the_cursor() {
        let mut m = BytesMut::from(&[9, 8, 7, 6][..]);
        m.advance(1);
        m.resize(5, 0);
        assert_eq!(&m[..], &[8, 7, 6, 0, 0]);
        m.truncate(2);
        assert_eq!(&m[..], &[8, 7]);
        m.truncate(10);
        assert_eq!(&m[..], &[8, 7]);
    }

    #[test]
    fn compaction_keeps_contents() {
        let mut m = BytesMut::new();
        for i in 0..10_000u32 {
            m.extend_from_slice(&i.to_le_bytes());
        }
        m.advance(30_000);
        assert_eq!(m.len(), 10_000);
        let tail = m.to_vec();
        assert_eq!(tail.len(), 10_000);
    }

    #[test]
    fn copy_to_bytes_advances() {
        let mut b = Bytes::from(vec![1, 2, 3, 4]);
        let taken = b.copy_to_bytes(3);
        assert_eq!(taken.to_vec(), vec![1, 2, 3]);
        assert_eq!(b.remaining(), 1);
    }
}
