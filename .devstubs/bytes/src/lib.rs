//! Offline stub of `bytes`: `Bytes`/`BytesMut` plus the `Buf`/`BufMut`
//! trait methods the workspace uses (little-endian integer/float codecs,
//! slicing, freeze). `Bytes` is a cheaply-cloneable view over a shared
//! buffer with an advancing read cursor, like the real crate. Out-of-range
//! reads panic, matching the real crate's contract — callers are expected
//! to check `remaining()` first.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of range");
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    fn take(&mut self, n: usize) -> &[u8] {
        assert!(n <= self.len(), "advance past end of Bytes");
        let at = self.start;
        self.start += n;
        &self.data[at..at + n]
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
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

/// Like the real crate: the buffer itself when this is its only view and
/// spans all of it, a copy of the viewed range otherwise.
impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Self {
        if b.start == 0 && b.end == b.data.len() {
            Arc::try_unwrap(b.data).unwrap_or_else(|shared| shared[..].to_vec())
        } else {
            b.as_slice().to_vec()
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

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

#[derive(Default, Clone, Debug)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut { data: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

macro_rules! get_le {
    ($($name:ident -> $ty:ty),* $(,)?) => {
        $(fn $name(&mut self) -> $ty {
            let mut raw = [0u8; std::mem::size_of::<$ty>()];
            self.copy_to_slice(&mut raw);
            <$ty>::from_le_bytes(raw)
        })*
    };
}

macro_rules! put_le {
    ($($name:ident($ty:ty)),* $(,)?) => {
        $(fn $name(&mut self, v: $ty) {
            self.put_slice(&v.to_le_bytes());
        })*
    };
}

/// Read side: an advancing cursor over a byte buffer.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn copy_to_slice(&mut self, dst: &mut [u8]);
    fn copy_to_bytes(&mut self, len: usize) -> Bytes;

    fn get_u8(&mut self) -> u8 {
        let mut raw = [0u8; 1];
        self.copy_to_slice(&mut raw);
        raw[0]
    }

    get_le! {
        get_u16_le -> u16,
        get_u32_le -> u32,
        get_u64_le -> u64,
        get_i16_le -> i16,
        get_i32_le -> i32,
        get_i64_le -> i64,
        get_f32_le -> f32,
        get_f64_le -> f64,
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        let src = self.take(dst.len());
        dst.copy_from_slice(src);
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(len <= self.len(), "copy_to_bytes past end of Bytes");
        let out = self.slice(0..len);
        self.start += len;
        out
    }
}

/// Write side: append-only encoding into a growable buffer.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    put_le! {
        put_u16_le(u16),
        put_u32_le(u32),
        put_u64_le(u64),
        put_i16_le(i16),
        put_i32_le(i32),
        put_i64_le(i64),
        put_f32_le(f32),
        put_f64_le(f64),
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
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
    fn roundtrip_all_widths() {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u8(7);
        buf.put_u16_le(300);
        buf.put_u32_le(70_000);
        buf.put_u64_le(1 << 40);
        buf.put_f32_le(1.5);
        buf.put_f64_le(-2.25);
        buf.put_slice(b"abc");
        let mut b = buf.freeze();
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u16_le(), 300);
        assert_eq!(b.get_u32_le(), 70_000);
        assert_eq!(b.get_u64_le(), 1 << 40);
        assert_eq!(b.get_f32_le(), 1.5);
        assert_eq!(b.get_f64_le(), -2.25);
        assert_eq!(b.copy_to_bytes(3).to_vec(), b"abc");
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn into_vec_moves_a_whole_unique_buffer_and_copies_a_view() {
        let v = vec![1u8, 2, 3, 4];
        let ptr = v.as_ptr();
        let whole: Vec<u8> = Bytes::from(v).into();
        assert_eq!((whole.as_ptr(), &whole[..]), (ptr, &[1u8, 2, 3, 4][..]));
        let b = Bytes::from(whole);
        let shared: Vec<u8> = b.clone().into();
        let view: Vec<u8> = b.slice(1..3).into();
        assert_eq!((shared, view), (vec![1, 2, 3, 4], vec![2, 3]));
    }

    #[test]
    fn slice_is_a_view() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&*s, &[2, 3, 4]);
        assert_eq!(b.len(), 5);
    }

    #[test]
    #[should_panic]
    fn read_past_end_panics() {
        let mut b = Bytes::from(vec![1]);
        let _ = b.get_u32_le();
    }
}
