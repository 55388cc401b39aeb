//! The snapshot byte codec: deterministic, std-only serialization
//! primitives shared by every layer's checkpoint/resume support.
//!
//! The paper's mechanisms are small fixed hardware structures (the CLS,
//! the LET/LIT, the speculation engine's per-execution bookkeeping), so
//! their software twins are snapshotable at any retired-instruction
//! boundary. This module provides the wire primitives those snapshots
//! are written in: a byte [`Enc`]oder and a bounds-checked
//! [`Dec`]oder over fixed-width little-endian fields, plus the
//! [`checksum`] trailer and [`seal`]/[`unseal`] for entries at rest.
//! The stream frame container (`len | payload | checksum`) that carries
//! encoded state across a pipe or socket is owned by the dist wire,
//! which writes and reads it in one place.
//!
//! Two hashes, two jobs. [`checksum`] (XXH64, seed 0) is the
//! *integrity* trailer on every stream frame, [`seal`]ed entry and
//! snapshot container: it runs over every handed-off byte, so it must run at
//! memory speed, and it may change with the container versions.
//! [`fnv1a`] is the *identity* hash behind job fingerprints, the
//! kernel-registry echo and oracle-feed fingerprints: cache keys and
//! golden digests derive from it, so its values never move.
//!
//! Design rules, chosen so snapshots can cross process boundaries and
//! be compared byte-for-byte:
//!
//! * **Deterministic.** Equal state must produce equal bytes. Writers
//!   must therefore iterate unordered containers (hash maps) in a
//!   sorted order; every `save_state` in the workspace does.
//! * **Self-checking.** Every variable-length read is bounds-checked
//!   ([`SnapError::Truncated`]); collection counts are validated
//!   against the remaining input ([`Dec::count`]) so corrupt input can
//!   never trigger an over-allocation; decoders verify layout tags
//!   ([`Dec::tag`]) and configuration echoes
//!   ([`SnapError::Mismatch`]).
//! * **No external dependencies.** The build environment is offline by
//!   policy; the codec is ~200 lines of `std`.
//!
//! ```
//! use loopspec_isa::snap::{Dec, Enc};
//!
//! let mut enc = Enc::new();
//! enc.u32(7);
//! enc.bytes(b"loop");
//! let buf = enc.into_bytes();
//!
//! let mut dec = Dec::new(&buf);
//! assert_eq!(dec.u32()?, 7);
//! assert_eq!(dec.bytes()?, b"loop");
//! dec.finish()?;
//! # Ok::<(), loopspec_isa::snap::SnapError>(())
//! ```

use std::fmt;

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapError {
    /// The input ended before the field at byte offset `at` was complete.
    Truncated {
        /// Byte offset at which the read was attempted.
        at: usize,
    },
    /// A field held a value no writer produces (bad tag, bad bool,
    /// impossible count).
    Corrupt {
        /// What was being decoded.
        what: &'static str,
    },
    /// The snapshot is well-formed but was taken from a differently
    /// configured object (e.g. an engine with another TU count).
    Mismatch {
        /// Which configuration echo disagreed.
        what: &'static str,
    },
    /// Decoding finished with input left over.
    Trailing {
        /// Number of undecoded bytes.
        bytes: usize,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated { at } => write!(f, "snapshot truncated at byte {at}"),
            SnapError::Corrupt { what } => write!(f, "snapshot corrupt: bad {what}"),
            SnapError::Mismatch { what } => {
                write!(
                    f,
                    "snapshot was taken from a different configuration: {what}"
                )
            }
            SnapError::Trailing { bytes } => {
                write!(f, "snapshot has {bytes} trailing bytes after decoding")
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// The FNV-1a 64 offset basis — the seed for incremental
/// [`fnv1a_update`] folds.
pub const FNV1A_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// One incremental step of [`fnv1a`]: folds `bytes` into the running
/// hash `h`. Seed with [`FNV1A_INIT`]; folding a byte stream in any
/// chunking yields the same digest as one [`fnv1a`] over the whole.
pub fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64 over `bytes` — the workspace's *identity* hash. Job
/// fingerprints (and so the report-cache keys), the kernel-registry
/// echo and oracle-feed fingerprints are FNV-1a digests, so their
/// values must never move. It is byte-serial, one multiply per byte;
/// integrity trailers use [`checksum`] instead.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(FNV1A_INIT, bytes)
}

const XXH_P1: u64 = 0x9e37_79b1_85eb_ca87;
const XXH_P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const XXH_P3: u64 = 0x1656_67b1_9e37_79f9;
const XXH_P4: u64 = 0x85eb_ca77_c2b2_ae63;
const XXH_P5: u64 = 0x27d4_eb2f_1656_67c5;

#[inline(always)]
fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

#[inline(always)]
fn xxh_merge(h: u64, acc: u64) -> u64 {
    (h ^ xxh_round(0, acc))
        .wrapping_mul(XXH_P1)
        .wrapping_add(XXH_P4)
}

#[inline(always)]
fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

/// XXH64 with seed 0 over `bytes` — the workspace's *integrity*
/// checksum. Every trailer closes with it: the dist wire's stream
/// frames, [`seal`]ed entries and pipeline snapshot containers. It catches truncation and bit rot, not tampering.
///
/// Integrity and identity use different hashes on purpose. A trailer
/// is recomputed over every handed-off byte (megabytes per snapshot),
/// and XXH64's four independent 8-byte lanes run at memory speed where
/// byte-serial [`fnv1a`] does not. A word-wise FNV-1a would be fast
/// but weak: multiplication carries only upward, so in
/// `h = (h ^ w) * P` two flips of bit 63 in different words cancel.
/// XXH64's rotations mix every bit into the low half, and it is a
/// published algorithm with published test values.
///
/// ```
/// use loopspec_isa::snap::checksum;
///
/// assert_eq!(checksum(b""), 0xef46_db37_51d8_e999);
/// assert_eq!(checksum(b"abc"), 0x44bc_2cf5_ad77_0999);
/// ```
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut v = [
            XXH_P1.wrapping_add(XXH_P2),
            XXH_P2,
            0,
            0u64.wrapping_sub(XXH_P1),
        ];
        for s in &mut stripes {
            v[0] = xxh_round(v[0], le_u64(&s[0..]));
            v[1] = xxh_round(v[1], le_u64(&s[8..]));
            v[2] = xxh_round(v[2], le_u64(&s[16..]));
            v[3] = xxh_round(v[3], le_u64(&s[24..]));
        }
        let mut h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        for acc in v {
            h = xxh_merge(h, acc);
        }
        h
    } else {
        XXH_P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut tail = stripes.remainder();
    while tail.len() >= 8 {
        h ^= xxh_round(0, le_u64(tail));
        h = h.rotate_left(27).wrapping_mul(XXH_P1).wrapping_add(XXH_P4);
        tail = &tail[8..];
    }
    if tail.len() >= 4 {
        let w = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
        h ^= (w as u64).wrapping_mul(XXH_P1);
        h = h.rotate_left(23).wrapping_mul(XXH_P2).wrapping_add(XXH_P3);
        tail = &tail[4..];
    }
    for &b in tail {
        h ^= (b as u64).wrapping_mul(XXH_P5);
        h = h.rotate_left(11).wrapping_mul(XXH_P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_P3);
    h ^ (h >> 32)
}

/// Bytes a stream frame or a [`seal`]ed entry carries after the payload
/// (the `u64` [`checksum`]).
pub const FRAME_TRAILER: usize = 8;

/// Seals `payload` for storage at rest by appending its [`checksum`]:
/// `payload | checksum(payload): u64 LE`.
///
/// This is the cache-entry twin of a stream frame: entries that sit in
/// a content-addressed store (rather than crossing a stream) need no
/// length prefix — the container they live in delimits them — but they
/// do need the integrity trailer, so a flipped bit surfaces as a clean
/// [`SnapError::Corrupt`] on [`unseal`] instead of a misparse. Sealing
/// is deterministic: equal payloads seal to equal bytes, so sealed
/// entries can be compared and deduplicated like the payloads
/// themselves. Reserve [`FRAME_TRAILER`] spare bytes in `payload` to
/// keep the trailer from reallocating it.
pub fn seal(mut payload: Vec<u8>) -> Vec<u8> {
    let sum = checksum(&payload);
    payload.extend_from_slice(&sum.to_le_bytes());
    payload
}

/// Verifies and strips the trailer of a [`seal`]ed entry, returning the
/// payload.
///
/// # Errors
///
/// [`SnapError::Truncated`] when `bytes` is shorter than the trailer;
/// [`SnapError::Corrupt`] when the checksum does not match the payload
/// (bit rot, a torn write, or deliberate fault injection).
pub fn unseal(bytes: &[u8]) -> Result<&[u8], SnapError> {
    if bytes.len() < FRAME_TRAILER {
        return Err(SnapError::Truncated { at: bytes.len() });
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - FRAME_TRAILER);
    if checksum(payload) != le_u64(trailer) {
        return Err(SnapError::Corrupt {
            what: "sealed entry checksum",
        });
    }
    Ok(payload)
}

/// A snapshot byte encoder: fixed-width little-endian fields appended to
/// a growable buffer. See the [module docs](self) for the format rules.
#[derive(Debug, Default, Clone)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// An empty encoder with room for `bytes` bytes — size it for the
    /// whole output, trailer included, so a multi-megabyte buffer is
    /// allocated once instead of doubled.
    pub fn with_capacity(bytes: usize) -> Self {
        Enc {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The encoded bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian two's complement.
    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `bool` as one byte (`0`/`1`).
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a length-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }
}

/// A bounds-checked snapshot decoder over a byte slice.
///
/// Every read either returns the decoded value or a [`SnapError`]; no
/// read panics and no count can cause an allocation larger than the
/// input itself.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated { at: self.at });
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a little-endian `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `bool` written by [`Enc::bool`].
    #[inline]
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt { what: "bool" }),
        }
    }

    /// Reads a length-prefixed byte string written by [`Enc::bytes`].
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(SnapError::Truncated { at: self.at });
        }
        self.take(n as usize)
    }

    /// Reads a collection count, validating it against the remaining
    /// input (every element occupies at least one byte, so a count
    /// larger than `remaining()` is corrupt — this is what makes
    /// pre-allocating `count` elements safe).
    #[inline]
    pub fn count(&mut self) -> Result<usize, SnapError> {
        self.count_elems(1)
    }

    /// Reads a collection count for elements that each occupy at least
    /// `min_elem_bytes` of encoded input, validating `count *
    /// min_elem_bytes` against the remaining input. Use this instead of
    /// [`Dec::count`] when the *in-memory* element is much larger than
    /// one byte: it keeps a corrupt or hostile count from reserving
    /// `count * size_of::<Elem>()` — a multiplied, possibly OOM-sized
    /// allocation — before the first element even decodes.
    #[inline]
    pub fn count_elems(&mut self, min_elem_bytes: usize) -> Result<usize, SnapError> {
        let n = self.u64()?;
        if n.checked_mul(min_elem_bytes.max(1) as u64)
            .is_none_or(|bytes| bytes > self.remaining() as u64)
        {
            return Err(SnapError::Corrupt { what: "count" });
        }
        Ok(n as usize)
    }

    /// Reads one byte and requires it to equal `expected` — layout tags
    /// that catch section mix-ups early.
    pub fn tag(&mut self, expected: u8, what: &'static str) -> Result<(), SnapError> {
        if self.u8()? != expected {
            return Err(SnapError::Corrupt { what });
        }
        Ok(())
    }

    /// Requires the whole input to have been consumed.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::Trailing {
                bytes: self.remaining(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut e = Enc::new();
        e.u8(0xab);
        e.u32(0xdead_beef);
        e.u64(u64::MAX - 1);
        e.i64(-42);
        e.bool(true);
        e.bool(false);
        e.bytes(b"chunk");
        let buf = e.into_bytes();

        let mut d = Dec::new(&buf);
        assert_eq!(d.u8().unwrap(), 0xab);
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.i64().unwrap(), -42);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.bytes().unwrap(), b"chunk");
        d.finish().unwrap();
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut e = Enc::new();
        e.u64(7);
        let buf = e.into_bytes();
        let mut d = Dec::new(&buf[..3]);
        assert_eq!(d.u64(), Err(SnapError::Truncated { at: 0 }));
    }

    #[test]
    fn oversized_counts_and_byte_strings_are_corrupt() {
        let mut e = Enc::new();
        e.u64(1 << 40); // a count no writer would emit for 8 bytes of input
        let buf = e.into_bytes();
        assert_eq!(
            Dec::new(&buf).count(),
            Err(SnapError::Corrupt { what: "count" })
        );
        assert!(matches!(
            Dec::new(&buf).bytes(),
            Err(SnapError::Truncated { .. })
        ));
    }

    #[test]
    fn element_sized_counts_bound_the_multiplied_reservation() {
        // 32 bytes of input claiming 20 17-byte elements: plain count()
        // would accept (20 < 32), but the multiplied check must refuse
        // — 20 elements cannot fit in 32 bytes.
        let mut e = Enc::new();
        e.u64(20);
        for _ in 0..24 {
            e.u8(0);
        }
        let buf = e.into_bytes();
        assert_eq!(Dec::new(&buf).count(), Ok(20));
        assert_eq!(
            Dec::new(&buf).count_elems(17),
            Err(SnapError::Corrupt { what: "count" })
        );
        assert_eq!(Dec::new(&buf).count_elems(1), Ok(20));
        // Overflow of count * min_elem_bytes is corrupt, not a wrap.
        let mut e = Enc::new();
        e.u64(u64::MAX / 2);
        let buf = e.into_bytes();
        assert_eq!(
            Dec::new(&buf).count_elems(1024),
            Err(SnapError::Corrupt { what: "count" })
        );
    }

    #[test]
    fn bad_bool_and_bad_tag_are_corrupt() {
        let buf = [7u8];
        assert_eq!(
            Dec::new(&buf).bool(),
            Err(SnapError::Corrupt { what: "bool" })
        );
        assert_eq!(
            Dec::new(&buf).tag(3, "section"),
            Err(SnapError::Corrupt { what: "section" })
        );
        assert!(Dec::new(&buf).tag(7, "section").is_ok());
    }

    #[test]
    fn finish_reports_trailing_bytes() {
        let buf = [0u8; 3];
        let mut d = Dec::new(&buf);
        d.u8().unwrap();
        assert_eq!(d.finish(), Err(SnapError::Trailing { bytes: 2 }));
        assert_eq!(d.remaining(), 2);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn checksum_matches_xxh64_reference_vectors() {
        // Published XXH64 (seed 0) values; the last input is longer
        // than one 32-byte stripe, so it covers the four-lane loop.
        assert_eq!(checksum(b""), 0xef46_db37_51d8_e999);
        assert_eq!(checksum(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(checksum(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            checksum(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
    }

    #[test]
    fn checksum_catches_paired_top_bit_flips() {
        // The cancellation a word-wise multiplicative hash misses:
        // bit 63 flipped in two different words.
        let data = [0x3cu8; 96];
        for (a, b) in [(0, 1), (0, 11), (3, 7)] {
            let mut poked = data;
            poked[a * 8 + 7] ^= 0x80;
            poked[b * 8 + 7] ^= 0x80;
            assert_ne!(checksum(&poked), checksum(&data), "words {a} and {b}");
        }
    }

    #[test]
    fn one_flipped_trailer_bit_fails_a_seal() {
        let sealed = seal(b"payload".to_vec());
        for bit in 0..FRAME_TRAILER * 8 {
            let mut bad = sealed.clone();
            bad[sealed.len() - FRAME_TRAILER + bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                unseal(&bad),
                Err(SnapError::Corrupt {
                    what: "sealed entry checksum"
                }),
                "trailer bit {bit}"
            );
        }
    }

    #[test]
    fn seal_round_trips_and_is_deterministic() {
        let sealed = seal(b"report grid".to_vec());
        assert_eq!(sealed, seal(b"report grid".to_vec()));
        assert_eq!(unseal(&sealed).unwrap(), b"report grid");
        // The empty payload is a valid entry too.
        assert_eq!(unseal(&seal(Vec::new())).unwrap(), b"");
    }

    #[test]
    fn unseal_detects_every_single_bit_flip() {
        let sealed = seal(vec![0xa5; 32]);
        for byte in 0..sealed.len() {
            for bit in 0..8 {
                let mut poked = sealed.clone();
                poked[byte] ^= 1 << bit;
                assert!(
                    unseal(&poked).is_err(),
                    "flip of byte {byte} bit {bit} must not unseal"
                );
            }
        }
    }

    #[test]
    fn unseal_rejects_truncation() {
        let sealed = seal(vec![7; 16]);
        for cut in 0..FRAME_TRAILER {
            assert!(matches!(
                unseal(&sealed[..cut]),
                Err(SnapError::Truncated { .. })
            ));
        }
        // Cutting into the payload shifts the trailer: corrupt.
        assert!(unseal(&sealed[..sealed.len() - 1]).is_err());
    }

    #[test]
    fn errors_display_their_cause() {
        assert!(SnapError::Truncated { at: 9 }.to_string().contains('9'));
        assert!(SnapError::Corrupt { what: "tag" }
            .to_string()
            .contains("tag"));
        assert!(SnapError::Mismatch { what: "tus" }
            .to_string()
            .contains("tus"));
        assert!(SnapError::Trailing { bytes: 2 }.to_string().contains('2'));
    }
}
