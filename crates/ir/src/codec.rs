//! The one checked little-endian codec under every byte the project
//! stores: graph blobs ([`crate::serialize`]) and, in `nnlqp-db`, WAL
//! frames, snapshot segments and the manifest.
//!
//! Writers append fields with `to_le_bytes` straight into a buffer they
//! sized, narrowing each through [`narrow`] and length-prefixing through
//! [`put_bytes`], so no field is ever truncated on the way out. [`Reader`]
//! takes the fields back off a byte slice; a short read, a wrong header,
//! a count the bytes cannot hold or a leftover byte is an
//! [`IrError::Decode`] naming what was being read, never a panic.

use crate::error::{IrError, IrResult};

/// `value` at its field's width on the wire, or the error that refuses it.
pub fn narrow<T: TryFrom<u64>>(node: Option<u32>, field: &'static str, value: u64) -> IrResult<T> {
    T::try_from(value).map_err(|_| IrError::DoesNotFit {
        node,
        field,
        value,
        width: std::any::type_name::<T>(),
    })
}

/// A `u32` length, then the bytes: what [`Reader::bytes`] reads. A slice
/// longer than the prefix holds is refused, not wrapped.
pub fn put_bytes(out: &mut Vec<u8>, field: &'static str, bytes: &[u8]) -> IrResult<()> {
    let len: u32 = narrow(None, field, bytes.len() as u64)?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(bytes);
    Ok(())
}

/// One little-endian fixed-width field reader per named type.
macro_rules! fields {
    ($($t:ident),*) => {$(
        #[doc = concat!("A little-endian `", stringify!($t), "`.")]
        #[inline]
        pub fn $t(&mut self) -> IrResult<$t> {
            const N: usize = std::mem::size_of::<$t>();
            let mut le = [0; N];
            le.copy_from_slice(self.take(N)?);
            Ok($t::from_le_bytes(le))
        }
    )*};
}

/// A cursor over stored bytes.
pub struct Reader<'a> {
    rest: &'a [u8],
    /// What is being decoded, named in every error.
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// Read `buf`, naming `what` in every error.
    pub fn new(buf: &'a [u8], what: &'static str) -> Self {
        Reader { rest: buf, what }
    }

    /// The error naming what this reader decodes; cold, so that a field
    /// read inlines to a compare and a copy.
    #[cold]
    pub fn bad(&self, why: impl std::fmt::Display) -> IrError {
        IrError::Decode(format!("{}: {why}", self.what))
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> IrResult<&'a [u8]> {
        let Some((out, rest)) = self.rest.split_at_checked(n) else {
            return Err(self.bad("truncated"));
        };
        self.rest = rest;
        Ok(out)
    }

    /// The magic and version an artifact starts with.
    pub fn header(&mut self, magic: &[u8; 4], version: u8) -> IrResult<()> {
        if self.take(magic.len())? != magic {
            return Err(self.bad("bad magic"));
        }
        match self.u8()? {
            v if v == version => Ok(()),
            v => Err(self.bad(format!("unsupported version {v}"))),
        }
    }

    fields!(u8, u16, u32, u64, f32, f64);

    /// What [`put_bytes`] wrote.
    #[inline]
    pub fn bytes(&mut self) -> IrResult<&'a [u8]> {
        let n = self.u32()?;
        self.take(n as usize)
    }

    /// What [`put_bytes`] wrote of a UTF-8 string.
    pub fn string(&mut self) -> IrResult<String> {
        let raw = self.bytes()?;
        self.utf8(raw)
    }

    /// `raw` as an owned string, refused when it is not UTF-8.
    pub fn utf8(&self, raw: &[u8]) -> IrResult<String> {
        String::from_utf8(raw.to_vec()).map_err(|_| self.bad("string not utf-8"))
    }

    /// A `u32` count of items that take at least `min_bytes` each. Counts
    /// are as untrusted as the rest of the bytes: one the remaining bytes
    /// cannot hold is refused here, before any caller reserves for it.
    pub fn count(&mut self, min_bytes: usize) -> IrResult<usize> {
        let n = self.u32()? as usize;
        if n > self.rest.len() / min_bytes {
            return Err(self.bad(format!("{n} announced, {} bytes left", self.rest.len())));
        }
        Ok(n)
    }

    /// Refuse bytes left over after the last field.
    pub fn finish(self) -> IrResult<()> {
        match self.rest {
            [] => Ok(()),
            _ => Err(self.bad("trailing bytes")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_read_back_as_written() {
        let mut out = vec![b'T', b'E', b'S', b'T', 3];
        out.extend_from_slice(&0xBEEFu16.to_le_bytes());
        out.extend_from_slice(&7u32.to_le_bytes());
        out.extend_from_slice(&u64::MAX.to_le_bytes());
        out.extend_from_slice(&1.5f32.to_le_bytes());
        out.extend_from_slice(&(-2.25f64).to_le_bytes());
        put_bytes(&mut out, "name", "héllo".as_bytes()).unwrap();
        let mut r = Reader::new(&out, "test");
        r.header(b"TEST", 3).unwrap();
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(7));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.f32(), Ok(1.5));
        assert_eq!(r.f64(), Ok(-2.25));
        assert_eq!(r.string().as_deref(), Ok("héllo"));
        r.finish().unwrap();
    }

    #[test]
    fn every_cut_and_a_leftover_byte_are_refused() {
        let mut out = Vec::new();
        put_bytes(&mut out, "blob", b"abcdef").unwrap();
        for cut in 0..out.len() {
            let err = Reader::new(&out[..cut], "blob").bytes().unwrap_err();
            assert_eq!(err, IrError::Decode("blob: truncated".into()), "cut {cut}");
        }
        out.push(0);
        let mut r = Reader::new(&out, "blob");
        assert_eq!(r.bytes(), Ok(&b"abcdef"[..]));
        assert_eq!(
            r.finish(),
            Err(IrError::Decode("blob: trailing bytes".into()))
        );
    }

    #[test]
    fn a_wrong_header_is_refused() {
        let mut r = Reader::new(b"NOPE\x01", "test");
        assert_eq!(
            r.header(b"TEST", 1),
            Err(IrError::Decode("test: bad magic".into()))
        );
        let mut r = Reader::new(b"TEST\x02", "test");
        assert_eq!(
            r.header(b"TEST", 1),
            Err(IrError::Decode("test: unsupported version 2".into()))
        );
    }

    #[test]
    fn a_count_is_refused_past_what_the_bytes_hold() {
        let mut raw = 3u32.to_le_bytes().to_vec();
        raw.extend_from_slice(&[0; 12]);
        assert_eq!(Reader::new(&raw, "list").count(4), Ok(3));
        assert!(Reader::new(&raw, "list").count(5).is_err());
        raw[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Reader::new(&raw, "list").count(1).is_err());
    }

    #[test]
    fn narrow_refuses_what_its_width_cannot_hold() {
        assert_eq!(narrow::<u8>(Some(3), "stride", 255), Ok(255));
        assert_eq!(
            narrow::<u8>(Some(3), "stride", 256)
                .unwrap_err()
                .to_string(),
            "node 3: stride 256 overflows the stored u8"
        );
        assert_eq!(
            narrow::<u32>(None, "name length", 1 << 32),
            Err(IrError::DoesNotFit {
                node: None,
                field: "name length",
                value: 1 << 32,
                width: "u32",
            })
        );
    }
}
