//! The store's little-endian field codec, shared by WAL frames, snapshot
//! segments, the manifest and the snapshot oracle. Fields are written with
//! `to_le_bytes`; [`Reader`] takes them off a byte slice and turns every
//! short read into an `InvalidData` error.

use std::io;

/// A `u32` length, then the bytes: what [`Reader::bytes`] reads.
pub(crate) fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

pub(crate) struct Reader<'a> {
    rest: &'a [u8],
    /// What is being decoded, named in every error.
    what: &'static str,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8], what: &'static str) -> Self {
        Reader { rest: buf, what }
    }

    pub(crate) fn bad(&self, why: &str) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, format!("{}: {why}", self.what))
    }

    pub(crate) fn remaining(&self) -> usize {
        self.rest.len()
    }

    pub(crate) fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.rest.len() < n {
            return Err(self.bad("truncated"));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// The magic and version a store file starts with.
    pub(crate) fn header(&mut self, magic: &[u8; 4], version: u8) -> io::Result<()> {
        if self.take(magic.len())? != magic {
            return Err(self.bad("bad magic"));
        }
        if self.u8()? != version {
            return Err(self.bad("unsupported version"));
        }
        Ok(())
    }

    pub(crate) fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> io::Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> io::Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    pub(crate) fn f64(&mut self) -> io::Result<f64> {
        self.array().map(f64::from_le_bytes)
    }

    /// What [`put_bytes`] wrote.
    pub(crate) fn bytes(&mut self) -> io::Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    pub(crate) fn string(&mut self) -> io::Result<String> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| self.bad("string not utf-8"))
    }

    /// Refuse bytes left over after the last field.
    pub(crate) fn finish(self) -> io::Result<()> {
        match self.rest {
            [] => Ok(()),
            _ => Err(self.bad("trailing bytes")),
        }
    }
}
