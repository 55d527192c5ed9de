//! Little-endian byte-codec primitives for the multi-node fabric.
//!
//! Every integer travels little-endian and every variable-length field is
//! length-prefixed, so the format has no alignment, no padding, and no
//! ambiguity: a [`WireReader`] either yields exactly the value that was
//! written or reports [`WireError::Truncated`]. Higher layers (flow records,
//! report fragments, the fabric frame codec) compose these primitives; none
//! of them hand-roll byte twiddling of their own.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Decode-side failure: the bytes cannot be the output of the encoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value it promised.
    Truncated,
    /// A tag or enum discriminant holds a value the protocol never emits.
    BadTag(u8),
    /// A length prefix or count exceeds the protocol's sanity bound.
    Oversize(u64),
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// The bytes decode, but into a value the type they build refuses
    /// (the payload names the broken invariant).
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire payload truncated"),
            WireError::BadTag(tag) => write!(f, "unknown wire tag {tag:#04x}"),
            WireError::Oversize(n) => write!(f, "wire length {n} exceeds sanity bound"),
            WireError::BadUtf8 => write!(f, "wire string is not valid UTF-8"),
            WireError::Invalid(what) => write!(f, "invalid wire value: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Result alias for decoders.
pub type WireResult<T> = std::result::Result<T, WireError>;

/// Appends a `u8`.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a `u16`, little-endian.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`, little-endian.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`, little-endian.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern — decoding is bitwise
/// lossless, which the score-parity guarantees require.
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a `bool` as one byte (0 or 1).
#[inline]
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Appends a `u32`-length-prefixed byte slice.
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Appends a `u32`-length-prefixed UTF-8 string.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Appends an IP address: a family tag byte then 4 or 16 address octets.
pub fn put_ip(out: &mut Vec<u8>, ip: IpAddr) {
    match ip {
        IpAddr::V4(v4) => {
            out.push(4);
            out.extend_from_slice(&v4.octets());
        }
        IpAddr::V6(v6) => {
            out.push(6);
            out.extend_from_slice(&v6.octets());
        }
    }
}

/// Appends a `u32` element count, then every item through `put` — the one
/// list layout, read back by [`WireReader::list`].
#[inline]
pub fn put_list<T>(out: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    put_u32(out, items.len() as u32);
    for item in items {
        put(out, item);
    }
}

/// Elements a [`WireReader::list`] (or any list decoder) reserves up front
/// at most: a corrupt count fails on the bytes it lacks, not on a huge
/// allocation.
pub const LIST_RESERVE: usize = 1024;

/// A checked cursor over an encoded buffer. Every read either returns the
/// decoded value or a [`WireError`]; nothing panics and nothing reads past
/// the end.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
}

impl<'a> WireReader<'a> {
    /// Wraps a buffer for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is fully consumed — decoders use this to reject
    /// trailing garbage.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> WireResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> WireResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> WireResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> WireResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`; any byte other than 0 or 1 is a [`WireError::BadTag`].
    pub fn bool(&mut self) -> WireResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag(tag)),
        }
    }

    /// Reads a `u32`-length-prefixed byte slice (borrowed from the buffer).
    pub fn bytes(&mut self) -> WireResult<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> WireResult<&'a str> {
        std::str::from_utf8(self.bytes()?).map_err(|_| WireError::BadUtf8)
    }

    /// Reads an IP address written by [`put_ip`].
    pub fn ip(&mut self) -> WireResult<IpAddr> {
        match self.u8()? {
            4 => {
                let b = self.take(4)?;
                Ok(IpAddr::V4(Ipv4Addr::new(b[0], b[1], b[2], b[3])))
            }
            6 => {
                let b = self.take(16)?;
                let mut octets = [0u8; 16];
                octets.copy_from_slice(b);
                Ok(IpAddr::V6(Ipv6Addr::from(octets)))
            }
            tag => Err(WireError::BadTag(tag)),
        }
    }

    /// Reads a `u32` element count, validated against `max` so a corrupt
    /// length prefix fails cleanly instead of triggering a huge allocation.
    pub fn count(&mut self, max: usize) -> WireResult<usize> {
        let n = self.u32()? as usize;
        if n > max {
            return Err(WireError::Oversize(n as u64));
        }
        Ok(n)
    }

    /// Reads a list written by [`put_list`]: a count validated against
    /// `max` (see [`WireReader::count`]), then that many items through
    /// `read`.
    #[inline]
    pub fn list<T>(
        &mut self,
        max: usize,
        mut read: impl FnMut(&mut Self) -> WireResult<T>,
    ) -> WireResult<Vec<T>> {
        let count = self.count(max)?;
        let mut items = Vec::with_capacity(count.min(LIST_RESERVE));
        for _ in 0..count {
            items.push(read(self)?);
        }
        Ok(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xAB);
        put_u16(&mut buf, 0xBEEF);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 7);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, f64::NAN);
        put_bool(&mut buf, true);
        put_str(&mut buf, "héllo");
        put_ip(&mut buf, IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)));
        put_ip(&mut buf, IpAddr::V6(Ipv6Addr::LOCALHOST));

        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 7);
        // Bitwise, not semantic, equality: -0.0 and NaN payloads survive.
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.ip().unwrap(), IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(r.ip().unwrap(), IpAddr::V6(Ipv6Addr::LOCALHOST));
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hello");
        for cut in 0..buf.len() {
            let mut r = WireReader::new(&buf[..cut]);
            assert!(r.str().is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn bad_tags_are_rejected() {
        let mut r = WireReader::new(&[9, 0, 0, 0, 0]);
        assert_eq!(r.ip().unwrap_err(), WireError::BadTag(9));
        let mut r = WireReader::new(&[2]);
        assert_eq!(r.bool().unwrap_err(), WireError::BadTag(2));
    }

    #[test]
    fn counts_enforce_the_sanity_bound() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 1_000_000);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.count(100).unwrap_err(), WireError::Oversize(1_000_000));
    }

    #[test]
    fn lists_roundtrip_and_enforce_the_bound() {
        let mut buf = Vec::new();
        put_list(&mut buf, &[3u16, 1, 4], |out, &v| put_u16(out, v));
        assert_eq!(buf, [3, 0, 0, 0, 3, 0, 1, 0, 4, 0]);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.list(3, |r| r.u16()).unwrap(), [3, 1, 4]);
        assert!(r.is_empty());
        assert_eq!(WireReader::new(&buf).list(2, |r| r.u16()).unwrap_err(), WireError::Oversize(3));
        for cut in 0..buf.len() {
            assert!(WireReader::new(&buf[..cut]).list(3, |r| r.u16()).is_err(), "cut at {cut}");
        }
    }
}
