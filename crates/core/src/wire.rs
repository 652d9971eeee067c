//! Minimal big-endian wire encoding shared across the workspace (a local
//! replacement for the `bytes` crate: the workspace builds hermetically,
//! with no external dependencies).
//!
//! The codec started life inside `ccm-proxy` for the history-tape and
//! restart records and was hoisted here so the `sxd` daemon can reuse it
//! for cache-key canonicalization. It now offers two read disciplines:
//!
//! - the legacy `get_*` methods follow `bytes::Buf` semantics and panic on
//!   underflow — callers (like the history-tape decoder) check
//!   [`WireReader::remaining`] before pulling fixed-size fields;
//! - the `try_get_*` methods are fully fallible and never panic, for
//!   decoding *untrusted* input: truncated, garbage or oversized frames
//!   yield a [`WireError`], and length-prefixed reads are validated
//!   against the bytes actually present before any allocation happens.

use crate::hash::fnv64;

/// Hard cap on a single length-prefixed field ([`WireWriter::put_str`] /
/// [`WireReader::try_get_str`]). Decoders reject longer claims before
/// allocating, so a hostile 4 GB length prefix on a 10-byte frame costs
/// nothing.
pub const MAX_FIELD_BYTES: usize = 1 << 20;

/// Hard cap on one checksummed record ([`WireWriter::put_record`] /
/// [`WireReader::try_get_record`]). Records carry whole serialized result
/// payloads (up to a reply frame), so the cap matches the 16 MiB reply
/// frame rather than the 1 MiB identifier-field cap.
pub const MAX_RECORD_BYTES: usize = 16 << 20;

/// Typed decode failure for the fallible reader API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A fixed- or prefixed-size read needed more bytes than remain.
    Underflow { needed: usize, remaining: usize },
    /// A length prefix claims more than [`MAX_FIELD_BYTES`].
    FieldTooLong { len: usize, max: usize },
    /// A string field decoded to invalid UTF-8.
    BadUtf8,
    /// A record's stored FNV-1a digest does not match its bytes (torn or
    /// corrupted write).
    BadDigest { expect: u64, got: u64 },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Underflow { needed, remaining } => {
                write!(f, "wire underflow: need {needed} bytes, {remaining} remain")
            }
            WireError::FieldTooLong { len, max } => {
                write!(f, "wire field of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::BadUtf8 => write!(f, "wire string field is not valid UTF-8"),
            WireError::BadDigest { expect, got } => {
                write!(f, "wire record digest mismatch: stored {expect:016x}, computed {got:016x}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only binary writer.
#[derive(Debug, Default, Clone)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    pub fn with_capacity(n: usize) -> WireWriter {
        WireWriter { buf: Vec::with_capacity(n) }
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string (u32 byte count + bytes), the framing
    /// [`WireReader::try_get_str`] undoes. Strings longer than
    /// [`MAX_FIELD_BYTES`] are truncated at a char boundary — the codec is
    /// for short identifiers (suite names, parameter keys), not payloads.
    pub fn put_str(&mut self, s: &str) {
        let mut end = s.len().min(MAX_FIELD_BYTES);
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        self.put_u32(end as u32);
        self.buf.extend_from_slice(&s.as_bytes()[..end]);
    }

    /// Append one checksummed record: `u32` byte count, the payload bytes,
    /// then the payload's FNV-1a/64 digest. This is the unit of the `sxd`
    /// result journal: a reader that hits a short or digest-mismatched
    /// record knows the stream ends in a torn write and can truncate there.
    /// Payloads longer than [`MAX_RECORD_BYTES`] are truncated (journal
    /// records are bounded by the reply-frame cap, so this never fires in
    /// practice).
    pub fn put_record(&mut self, payload: &[u8]) {
        let end = payload.len().min(MAX_RECORD_BYTES);
        self.put_u32(end as u32);
        self.buf.extend_from_slice(&payload[..end]);
        self.put_u64(fnv64(&payload[..end]));
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish writing and take the encoded record.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over an encoded record.
#[derive(Debug, Clone, Copy)]
pub struct WireReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(data: &'a [u8]) -> WireReader<'a> {
        WireReader { data, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take<const N: usize>(&mut self) -> [u8; N] {
        let s = &self.data[self.pos..self.pos + N];
        self.pos += N;
        s.try_into().expect("slice length is N by construction")
    }

    fn try_take<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        if self.remaining() < N {
            return Err(WireError::Underflow { needed: N, remaining: self.remaining() });
        }
        Ok(self.take::<N>())
    }

    pub fn get_u16(&mut self) -> u16 {
        u16::from_be_bytes(self.take::<2>())
    }

    pub fn get_u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take::<4>())
    }

    pub fn get_u64(&mut self) -> u64 {
        u64::from_be_bytes(self.take::<8>())
    }

    pub fn get_f64(&mut self) -> f64 {
        f64::from_be_bytes(self.take::<8>())
    }

    pub fn try_get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.try_take::<2>()?))
    }

    pub fn try_get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.try_take::<4>()?))
    }

    pub fn try_get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.try_take::<8>()?))
    }

    pub fn try_get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_be_bytes(self.try_take::<8>()?))
    }

    /// Take every remaining byte, advancing the cursor to the end. Used by
    /// decoders whose last field is "the rest of the record" (the `sxd`
    /// journal stores result payloads this way, unprefixed, because the
    /// enclosing record already carries the length and digest).
    pub fn rest(&mut self) -> &'a [u8] {
        let r = &self.data[self.pos..];
        self.pos = self.data.len();
        r
    }

    /// Read a [`WireWriter::put_str`] field. The claimed length is checked
    /// against both the cap and the bytes present before anything is
    /// copied.
    pub fn try_get_str(&mut self) -> Result<String, WireError> {
        let len = self.try_get_u32()? as usize;
        if len > MAX_FIELD_BYTES {
            return Err(WireError::FieldTooLong { len, max: MAX_FIELD_BYTES });
        }
        if len > self.remaining() {
            return Err(WireError::Underflow { needed: len, remaining: self.remaining() });
        }
        let bytes = &self.data[self.pos..self.pos + len];
        self.pos += len;
        std::str::from_utf8(bytes).map(str::to_owned).map_err(|_| WireError::BadUtf8)
    }

    /// Read one [`WireWriter::put_record`] record, verifying its digest.
    /// The claimed length is checked against the cap and the bytes present
    /// before anything is hashed; a digest mismatch is a typed error. On
    /// any error the cursor is left where the record started, so a journal
    /// reader can truncate the stream at the last good record boundary.
    pub fn try_get_record(&mut self) -> Result<&'a [u8], WireError> {
        let start = self.pos;
        let rewind = |r: &mut Self, e: WireError| {
            r.pos = start;
            Err(e)
        };
        let len = match self.try_get_u32() {
            Ok(n) => n as usize,
            Err(e) => return rewind(self, e),
        };
        if len > MAX_RECORD_BYTES {
            return rewind(self, WireError::FieldTooLong { len, max: MAX_RECORD_BYTES });
        }
        if len + 8 > self.remaining() {
            return rewind(
                self,
                WireError::Underflow { needed: len + 8, remaining: self.remaining() },
            );
        }
        let payload = &self.data[self.pos..self.pos + len];
        self.pos += len;
        let expect = self.get_u64();
        let got = fnv64(payload);
        if expect != got {
            return rewind(self, WireError::BadDigest { expect, got });
        }
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;

    #[test]
    fn roundtrip_all_field_types() {
        let mut w = WireWriter::with_capacity(32);
        w.put_u16(0xBEEF);
        w.put_u32(0x4e43_4152);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-1234.5678);
        let v = w.into_vec();
        assert_eq!(v.len(), 2 + 4 + 8 + 8);
        let mut r = WireReader::new(&v);
        assert_eq!(r.get_u16(), 0xBEEF);
        assert_eq!(r.get_u32(), 0x4e43_4152);
        assert_eq!(r.get_u64(), u64::MAX - 1);
        assert_eq!(r.get_f64(), -1234.5678);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn rest_takes_everything_left_exactly_once() {
        let mut w = WireWriter::default();
        w.put_u16(3);
        w.put_bytes(b"tail bytes");
        let v = w.into_vec();
        let mut r = WireReader::new(&v);
        assert_eq!(r.get_u16(), 3);
        assert_eq!(r.rest(), b"tail bytes");
        assert_eq!(r.rest(), b"");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    #[should_panic]
    fn underflow_panics() {
        let v = vec![1u8, 2];
        let mut r = WireReader::new(&v);
        r.get_u32();
    }

    #[test]
    fn try_reads_report_underflow_instead_of_panicking() {
        let v = vec![1u8, 2];
        let mut r = WireReader::new(&v);
        assert_eq!(r.try_get_u32(), Err(WireError::Underflow { needed: 4, remaining: 2 }));
        // The failed read consumed nothing; a fitting read still works.
        assert_eq!(r.try_get_u16(), Ok(0x0102));
        assert_eq!(r.try_get_u16(), Err(WireError::Underflow { needed: 2, remaining: 0 }));
    }

    #[test]
    fn string_roundtrip_and_hostile_length_prefix() {
        let mut w = WireWriter::default();
        w.put_str("RADABS");
        w.put_str("grüße"); // multibyte UTF-8
        let v = w.into_vec();
        let mut r = WireReader::new(&v);
        assert_eq!(r.try_get_str().unwrap(), "RADABS");
        assert_eq!(r.try_get_str().unwrap(), "grüße");

        // A frame claiming a 4 GB string must fail cheaply, not allocate.
        let mut w = WireWriter::default();
        w.put_u32(u32::MAX);
        w.put_bytes(b"xx");
        let hostile = w.into_vec();
        let mut r = WireReader::new(&hostile);
        assert!(matches!(r.try_get_str(), Err(WireError::FieldTooLong { .. })));

        // A plausible length prefix with missing bytes is an underflow.
        let mut w = WireWriter::default();
        w.put_u32(10);
        w.put_bytes(b"short");
        let v = w.into_vec();
        let mut r = WireReader::new(&v);
        assert_eq!(r.try_get_str(), Err(WireError::Underflow { needed: 10, remaining: 5 }));
    }

    #[test]
    fn invalid_utf8_is_a_typed_error() {
        let mut w = WireWriter::default();
        w.put_u32(2);
        w.put_bytes(&[0xff, 0xfe]);
        let v = w.into_vec();
        let mut r = WireReader::new(&v);
        assert_eq!(r.try_get_str(), Err(WireError::BadUtf8));
    }

    #[test]
    fn put_str_caps_field_length_at_char_boundary() {
        // 3-byte chars straddling the cap: the writer must truncate to a
        // boundary so the reader gets valid UTF-8 back.
        let s = "€".repeat(MAX_FIELD_BYTES / 3 + 8);
        let mut w = WireWriter::default();
        w.put_str(&s);
        let v = w.into_vec();
        let mut r = WireReader::new(&v);
        let back = r.try_get_str().unwrap();
        assert!(back.len() <= MAX_FIELD_BYTES);
        assert!(s.starts_with(&back));
    }

    #[test]
    fn records_roundtrip_and_leave_the_cursor_between_records() {
        let mut w = WireWriter::default();
        w.put_record(b"first payload");
        w.put_record(b"");
        w.put_record(b"third");
        let v = w.into_vec();
        let mut r = WireReader::new(&v);
        assert_eq!(r.try_get_record().unwrap(), b"first payload");
        assert_eq!(r.try_get_record().unwrap(), b"");
        assert_eq!(r.try_get_record().unwrap(), b"third");
        assert_eq!(r.remaining(), 0);
        assert!(matches!(r.try_get_record(), Err(WireError::Underflow { .. })));
    }

    #[test]
    fn torn_and_corrupted_records_rewind_to_the_record_boundary() {
        let mut w = WireWriter::default();
        w.put_record(b"good");
        w.put_record(b"torn-away");
        let v = w.into_vec();
        let good_end = 4 + 4 + 8; // len + "good" + digest

        // Every strict truncation of the second record fails and leaves
        // the cursor exactly at the end of the first (truncation point).
        for cut in good_end..v.len() {
            let mut r = WireReader::new(&v[..cut]);
            assert_eq!(r.try_get_record().unwrap(), b"good");
            assert!(r.try_get_record().is_err(), "cut at {cut} decoded");
            assert_eq!(r.remaining(), cut - good_end, "cursor must rewind to the boundary");
        }

        // A flipped payload byte is a digest mismatch, not silent data.
        let mut corrupt = v.clone();
        corrupt[good_end + 4] ^= 0x40;
        let mut r = WireReader::new(&corrupt);
        assert_eq!(r.try_get_record().unwrap(), b"good");
        assert!(matches!(r.try_get_record(), Err(WireError::BadDigest { .. })));

        // A hostile length prefix is rejected before hashing anything.
        let mut w = WireWriter::default();
        w.put_u32((MAX_RECORD_BYTES + 1) as u32);
        w.put_bytes(b"xx");
        let hostile = w.into_vec();
        let mut r = WireReader::new(&hostile);
        assert!(matches!(r.try_get_record(), Err(WireError::FieldTooLong { .. })));
        assert_eq!(r.remaining(), hostile.len(), "failed record read consumes nothing");
    }

    /// Property-style round-trip: a seeded random schema of typed fields
    /// writes then reads back identically, and any truncation of the
    /// encoded record decodes to `Err`, never a panic.
    #[test]
    fn random_schemas_roundtrip_and_truncations_never_panic() {
        let mut rng = SmallRng::seed_from_u64(0x5358_4434); // "SXD4"
        for _ in 0..200 {
            let nfields = rng.range(1, 12);
            let kinds: Vec<usize> = (0..nfields).map(|_| rng.next_below(5)).collect();
            let mut w = WireWriter::default();
            let mut expect: Vec<String> = Vec::new();
            for &k in &kinds {
                match k {
                    0 => {
                        let v = rng.next_u64() as u16;
                        w.put_u16(v);
                        expect.push(format!("u16:{v}"));
                    }
                    1 => {
                        let v = rng.next_u64() as u32;
                        w.put_u32(v);
                        expect.push(format!("u32:{v}"));
                    }
                    2 => {
                        let v = rng.next_u64();
                        w.put_u64(v);
                        expect.push(format!("u64:{v}"));
                    }
                    3 => {
                        let v = rng.next_f64() * 1e6 - 5e5;
                        w.put_f64(v);
                        expect.push(format!("f64:{v:?}"));
                    }
                    _ => {
                        let len = rng.next_below(24);
                        let s: String =
                            (0..len).map(|_| (b'a' + rng.next_below(26) as u8) as char).collect();
                        w.put_str(&s);
                        expect.push(format!("str:{s}"));
                    }
                }
            }
            let bytes = w.into_vec();

            // Full read-back matches what was written.
            let mut r = WireReader::new(&bytes);
            for (i, &k) in kinds.iter().enumerate() {
                let got = match k {
                    0 => format!("u16:{}", r.try_get_u16().unwrap()),
                    1 => format!("u32:{}", r.try_get_u32().unwrap()),
                    2 => format!("u64:{}", r.try_get_u64().unwrap()),
                    3 => format!("f64:{:?}", r.try_get_f64().unwrap()),
                    _ => format!("str:{}", r.try_get_str().unwrap()),
                };
                assert_eq!(got, expect[i]);
            }
            assert_eq!(r.remaining(), 0);

            // Any strict truncation must end in a typed error by the time
            // the schema is exhausted (never a panic, never phantom data).
            if !bytes.is_empty() {
                let cut = rng.next_below(bytes.len());
                let mut r = WireReader::new(&bytes[..cut]);
                let mut failed = false;
                for &k in &kinds {
                    let res = match k {
                        0 => r.try_get_u16().map(|_| ()),
                        1 => r.try_get_u32().map(|_| ()),
                        2 => r.try_get_u64().map(|_| ()),
                        3 => r.try_get_f64().map(|_| ()),
                        _ => r.try_get_str().map(|_| ()),
                    };
                    if res.is_err() {
                        failed = true;
                        break;
                    }
                }
                assert!(failed, "truncated record decoded cleanly");
            }
        }
    }
}
