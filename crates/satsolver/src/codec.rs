//! Byte-level primitives of the packed snapshot format: LEB128 varints, a
//! bounds-checked reader, and standard (RFC 4648, padded) base64.
//!
//! Every decoding function returns `Err` on malformed input instead of
//! panicking, and a length prefix is checked against the bytes that remain
//! before anything is allocated for it, so a corrupt prefix cannot request
//! more memory than the input could possibly describe.

/// Appends `v` as an unsigned LEB128 varint (7 bits per byte, low first).
#[inline]
pub(crate) fn put_uvar(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Appends `v` as the zigzag varint of its wrapping difference from `*prev`
/// and advances `*prev`: runs of nearby values (clause indices in a watch
/// list, literal codes of one circuit copy) cost one or two bytes each
/// whatever their magnitude. The mapping is a bijection on `u64`.
#[inline]
pub(crate) fn put_delta(out: &mut Vec<u8>, prev: &mut u64, v: u64) {
    let d = v.wrapping_sub(*prev) as i64;
    put_uvar(out, ((d << 1) ^ (d >> 63)) as u64);
    *prev = v;
}

/// Appends the IEEE-754 bit pattern of `f`, little-endian — exact for every
/// value, including the sign of zero.
#[inline]
pub(crate) fn put_f64(out: &mut Vec<u8>, f: f64) {
    out.extend_from_slice(&f.to_bits().to_le_bytes());
}

/// A bounds-checked cursor over packed bytes.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.remaining() {
            return Err(format!(
                "snapshot truncated: needed {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            ));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// A canonical LEB128 varint: at most 64 significant bits and no
    /// redundant trailing zero groups, so every accepted value has exactly
    /// one encoding.
    pub(crate) fn uvar(&mut self) -> Result<u64, String> {
        let start = self.pos;
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            let bits = u64::from(byte & 0x7F);
            if shift == 63 && bits > 1 {
                return Err(format!("varint at offset {start} overflows 64 bits"));
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err(format!("non-canonical varint at offset {start}"));
                }
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(format!("varint at offset {start} overflows 64 bits"));
            }
        }
    }

    pub(crate) fn usize(&mut self) -> Result<usize, String> {
        let v = self.uvar()?;
        usize::try_from(v).map_err(|_| format!("value {v} does not fit in usize"))
    }

    /// Inverse of [`put_delta`].
    pub(crate) fn delta(&mut self, prev: &mut u64) -> Result<u64, String> {
        let z = self.uvar()?;
        let d = (z >> 1) ^ (z & 1).wrapping_neg();
        *prev = prev.wrapping_add(d);
        Ok(*prev)
    }

    /// A [`Reader::delta`] value as a `usize`.
    pub(crate) fn delta_usize(&mut self, prev: &mut u64) -> Result<usize, String> {
        let v = self.delta(prev)?;
        usize::try_from(v).map_err(|_| format!("value {v} does not fit in usize"))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, String> {
        let raw = self.take(8)?;
        Ok(f64::from_bits(u64::from_le_bytes(
            raw.try_into().expect("take(8) yields 8 bytes"),
        )))
    }

    /// A length prefix for `n` items that each occupy at least
    /// `min_item_bytes` bytes; rejected when the remaining input is too short
    /// to hold them, which caps every allocation sized by a prefix.
    pub(crate) fn count(&mut self, what: &str, min_item_bytes: usize) -> Result<usize, String> {
        let n = self.usize()?;
        self.check_fits(what, n, min_item_bytes)?;
        Ok(n)
    }

    /// Rejects `n` items of at least `min_item_bytes` each when they cannot
    /// fit in the remaining input.
    pub(crate) fn check_fits(
        &self,
        what: &str,
        n: usize,
        min_item_bytes: usize,
    ) -> Result<(), String> {
        match n.checked_mul(min_item_bytes) {
            Some(need) if need <= self.remaining() => Ok(()),
            _ => Err(format!(
                "{what}: length {n} exceeds the {} bytes left",
                self.remaining()
            )),
        }
    }

    /// Succeeds only when every byte has been consumed.
    pub(crate) fn finish(&self) -> Result<(), String> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after the snapshot")),
        }
    }
}

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Reverse alphabet; `INVALID` marks bytes outside it.
const INVALID: u8 = 0xFF;
const DECODE: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Standard padded base64 of `bytes`.
pub(crate) fn base64_encode(bytes: &[u8]) -> String {
    let mut out = vec![0u8; bytes.len().div_ceil(3) * 4];
    let chunks = bytes.chunks_exact(3);
    let tail = chunks.remainder();
    let mut slots = out.chunks_exact_mut(4);
    for (src, dst) in chunks.zip(&mut slots) {
        let n = u32::from(src[0]) << 16 | u32::from(src[1]) << 8 | u32::from(src[2]);
        dst[0] = ALPHABET[(n >> 18) as usize];
        dst[1] = ALPHABET[(n >> 12) as usize & 63];
        dst[2] = ALPHABET[(n >> 6) as usize & 63];
        dst[3] = ALPHABET[n as usize & 63];
    }
    if let Some(dst) = slots.next() {
        let b1 = tail.get(1).copied().unwrap_or(0);
        let n = u32::from(tail[0]) << 16 | u32::from(b1) << 8;
        dst[0] = ALPHABET[(n >> 18) as usize];
        dst[1] = ALPHABET[(n >> 12) as usize & 63];
        dst[2] = if tail.len() == 2 {
            ALPHABET[(n >> 6) as usize & 63]
        } else {
            b'='
        };
        dst[3] = b'=';
    }
    String::from_utf8(out).expect("base64 output is ASCII")
}

/// Decodes standard padded base64, rejecting foreign characters, misplaced
/// padding and non-zero padding bits (so each byte string has exactly one
/// accepted encoding).
pub(crate) fn base64_decode(text: &str) -> Result<Vec<u8>, String> {
    let b = text.as_bytes();
    if b.len() / 4 * 4 != b.len() {
        return Err(format!("base64 length {} is not a multiple of 4", b.len()));
    }
    let pad = b.iter().rev().take(2).take_while(|&&c| c == b'=').count();
    let mut out = Vec::with_capacity(b.len() / 4 * 3);
    let sextet = |c: u8, at: usize| match DECODE[usize::from(c)] {
        INVALID => Err(format!("invalid base64 byte 0x{c:02x} at offset {at}")),
        v => Ok(u32::from(v)),
    };
    let body = if pad > 0 { b.len() - 4 } else { b.len() };
    for (i, quad) in b[..body].chunks_exact(4).enumerate() {
        let at = i * 4;
        let n = sextet(quad[0], at)? << 18
            | sextet(quad[1], at + 1)? << 12
            | sextet(quad[2], at + 2)? << 6
            | sextet(quad[3], at + 3)?;
        out.extend_from_slice(&[(n >> 16) as u8, (n >> 8) as u8, n as u8]);
    }
    if pad > 0 {
        let quad = &b[body..];
        let n = sextet(quad[0], body)? << 18
            | sextet(quad[1], body + 1)? << 12
            | if pad == 1 {
                sextet(quad[2], body + 2)? << 6
            } else {
                0
            };
        let kept = 3 - pad;
        if n & (0xFF_FFFF >> (8 * kept)) != 0 {
            return Err("non-zero base64 padding bits".to_string());
        }
        out.extend_from_slice(&[(n >> 16) as u8, (n >> 8) as u8][..kept]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_at_every_width() {
        let values = [
            0,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &values {
            put_uvar(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for &v in &values {
            assert_eq!(r.uvar().unwrap(), v);
        }
        r.finish().unwrap();
    }

    #[test]
    fn deltas_round_trip_across_the_whole_range() {
        let values = [5, 3, 3, 1000, 0, u64::MAX, 7, u64::MAX - 1, 1 << 63];
        let (mut buf, mut prev) = (Vec::new(), 0);
        for &v in &values {
            put_delta(&mut buf, &mut prev, v);
        }
        let (mut r, mut prev) = (Reader::new(&buf), 0);
        for &v in &values {
            assert_eq!(r.delta(&mut prev).unwrap(), v);
        }
        r.finish().unwrap();
        // Small steps in either direction take one byte.
        let (mut buf, mut prev) = (Vec::new(), 1 << 40);
        put_delta(&mut buf, &mut prev, (1 << 40) - 3);
        put_delta(&mut buf, &mut prev, (1 << 40) + 60);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn malformed_varints_are_rejected() {
        // Truncated continuation, 65-bit value, redundant zero group.
        for bad in [&[0x80u8][..], &[0xFF; 10][..], &[0x81, 0x00][..]] {
            assert!(Reader::new(bad).uvar().is_err(), "{bad:?}");
        }
        let mut max = Vec::new();
        put_uvar(&mut max, u64::MAX);
        assert_eq!(max.len(), 10);
        let mut over = max.clone();
        over[9] = 0x02;
        assert!(Reader::new(&over).uvar().is_err());
    }

    #[test]
    fn counts_are_capped_by_the_remaining_input() {
        let mut buf = Vec::new();
        put_uvar(&mut buf, 3);
        buf.extend_from_slice(&[0; 24]);
        assert_eq!(Reader::new(&buf).count("f64s", 8).unwrap(), 3);
        assert!(Reader::new(&buf[..24]).count("f64s", 8).is_err());
        let mut huge = Vec::new();
        put_uvar(&mut huge, u64::MAX);
        assert!(Reader::new(&huge).count("items", 2).is_err());
    }

    #[test]
    fn base64_matches_rfc4648_vectors() {
        for (plain, coded) in [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ] {
            assert_eq!(base64_encode(plain.as_bytes()), coded);
            assert_eq!(base64_decode(coded).unwrap(), plain.as_bytes());
        }
        let all: Vec<u8> = (0..=255).collect();
        assert_eq!(base64_decode(&base64_encode(&all)).unwrap(), all);
    }

    #[test]
    fn base64_rejects_malformed_text() {
        for bad in [
            "Zg=", "Zg", "Z===", "Zh==", "Zm9=", "Zm9v!A==", "=Zm9", "Zg==Zm9v",
        ] {
            assert!(base64_decode(bad).is_err(), "{bad}");
        }
    }
}
