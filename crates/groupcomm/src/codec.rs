//! Length-prefixed binary primitives: what [`Wire`](crate::wire::Wire)
//! frames and HDNS proposals are built from.
//!
//! Integers are fixed-width little endian; a byte string is its `u32`
//! length and then its bytes. Fixed widths keep an encoding's length a
//! sum of its field lengths (see [`bytes_len`]), which is how
//! `Wire::size()` knows it without encoding.
//!
//! [`Reader`] is defensive by construction: every length is checked
//! against the input that *remains* before anything is read or allocated
//! for it, text is validated as UTF-8, and [`Reader::finish`] rejects
//! trailing bytes — so a decoder built on it allocates in proportion to
//! the input it was given, not to the lengths that input claims, and never
//! panics on it.

use std::fmt;

/// Why a byte string is not a valid encoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ends inside the named field.
    Truncated(&'static str),
    /// A version or variant byte this build does not know.
    UnknownTag { what: &'static str, tag: u8 },
    /// The named text field is not UTF-8.
    NotUtf8(&'static str),
    /// The named field holds a value no encoder writes.
    Invalid(&'static str),
    /// This many bytes follow a complete value.
    Trailing(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated(what) => write!(f, "truncated {what}"),
            DecodeError::UnknownTag { what, tag } => write!(f, "unknown {what} {tag:#04x}"),
            DecodeError::NotUtf8(what) => write!(f, "non-UTF-8 {what}"),
            DecodeError::Invalid(what) => write!(f, "invalid {what}"),
            DecodeError::Trailing(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for DecodeError {}

pub const U8_LEN: usize = 1;
pub const U32_LEN: usize = 4;
pub const U64_LEN: usize = 8;

/// Encoded length of an `n`-byte string.
pub const fn bytes_len(n: usize) -> usize {
    U32_LEN + n
}

pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// An element count or byte length as its `u32` prefix.
pub fn put_len(out: &mut Vec<u8>, n: usize) {
    put_u32(
        out,
        u32::try_from(n).expect("a group message is far below 4 GiB"),
    );
}

pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_len(out, b.len());
    out.extend_from_slice(b);
}

pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// A bounds-checked cursor over one encoded value.
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { rest: buf }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        if n > self.rest.len() {
            return Err(DecodeError::Truncated(what));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    pub fn u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(U8_LEN, what)?[0])
    }

    pub fn u32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        let b = self.take(U32_LEN, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("took 4 bytes")))
    }

    pub fn u64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        let b = self.take(U64_LEN, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("took 8 bytes")))
    }

    pub fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], DecodeError> {
        let len = self.u32(what)? as usize;
        self.take(len, what)
    }

    pub fn str(&mut self, what: &'static str) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.bytes(what)?).map_err(|_| DecodeError::NotUtf8(what))
    }

    /// An element count, refused unless that many elements of at least
    /// `min_each` bytes can still follow — so the caller may reserve for
    /// it without trusting it.
    pub fn count(&mut self, min_each: usize, what: &'static str) -> Result<usize, DecodeError> {
        let n = self.u32(what)? as usize;
        match n.checked_mul(min_each) {
            Some(needed) if needed <= self.rest.len() => Ok(n),
            _ => Err(DecodeError::Truncated(what)),
        }
    }

    /// What is left to read: a caller that checked a value field by field
    /// slices the value's bytes out as this before and after.
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// The value is complete: nothing may follow it.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(DecodeError::Trailing(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip_and_lengths_add_up() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_bytes(&mut out, b"abc");
        put_str(&mut out, "né");
        assert_eq!(
            out.len(),
            U8_LEN + U32_LEN + U64_LEN + bytes_len(3) + bytes_len("né".len())
        );
        let mut r = Reader::new(&out);
        assert_eq!(r.u8("a"), Ok(7));
        assert_eq!(r.u32("b"), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64("c"), Ok(u64::MAX - 1));
        assert_eq!(r.bytes("d"), Ok(&b"abc"[..]));
        assert_eq!(r.str("e"), Ok("né"));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn hostile_lengths_fail_before_anything_is_read() {
        let mut out = Vec::new();
        put_u32(&mut out, u32::MAX);
        out.extend_from_slice(b"xy");
        assert_eq!(
            Reader::new(&out).bytes("body"),
            Err(DecodeError::Truncated("body"))
        );
        assert_eq!(
            Reader::new(&out).count(16, "entries"),
            Err(DecodeError::Truncated("entries"))
        );
        let mut bad = Vec::new();
        put_bytes(&mut bad, &[0xFF, 0xFE]);
        assert_eq!(
            Reader::new(&bad).str("path"),
            Err(DecodeError::NotUtf8("path"))
        );
        assert_eq!(Reader::new(b"x").finish(), Err(DecodeError::Trailing(1)));
    }
}
