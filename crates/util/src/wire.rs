//! Hand-rolled little-endian wire format: one field list per layout.
//!
//! The versioned byte formats of the workspace — the APRL machine
//! snapshot and the APRT run-time snapshot (DESIGN.md §11), and the
//! april-serve frames (PROTOCOL.md) — use **no external
//! dependencies**, and each layout is written down once. A type
//! implements [`Wire`] with a single `wire` body that visits its fields
//! in wire order through a [`Codec`]. The codec is either a
//! [`ByteWriter`], which appends the fields, or a [`ByteReader`], which
//! overwrites them with what the input holds, so the encoder and the
//! decoder of a layout cannot disagree. All integers are fixed-width
//! little-endian, variable-length data is count- or length-prefixed,
//! and floating-point values travel as their IEEE-754 bit patterns so
//! a round trip is exact.
//!
//! Three rules are enforced by the codec's helpers rather than by each
//! layout:
//!
//! * Determinism: equal state encodes to equal bytes, so hash maps and
//!   sets are written in sorted key order (their [`Wire`] impls).
//! * Counts are bounded by the input: every element takes at least one
//!   byte, so a count larger than the bytes remaining is
//!   [`WireError::BadLen`] before anything is allocated
//!   ([`Codec::count`]).
//! * A tag with no meaning is [`WireError::BadTag`] at its offset
//!   ([`Codec::tag`]); a field that must match the receiving object is
//!   [`WireError::Corrupt`] ([`Codec::same`]).

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};

/// An error while decoding a wire buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the requested field.
    Eof {
        /// Byte offset at which the read was attempted.
        at: usize,
    },
    /// A tag or discriminant byte had no defined meaning.
    BadTag {
        /// Byte offset of the offending tag.
        at: usize,
        /// The tag value found.
        tag: u8,
    },
    /// A length prefix or count was implausible for the input.
    BadLen {
        /// Byte offset of the offending length.
        at: usize,
        /// The length value found.
        len: u64,
    },
    /// A decoded value violated an invariant of the target type.
    Corrupt(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Eof { at } => write!(f, "unexpected end of buffer at byte {at}"),
            WireError::BadTag { at, tag } => write!(f, "unknown tag {tag:#x} at byte {at}"),
            WireError::BadLen { at, len } => write!(f, "implausible length {len} at byte {at}"),
            WireError::Corrupt(what) => write!(f, "corrupt field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A type with a wire layout, stated once for both directions.
pub trait Wire {
    /// Visits every field of `self`, in wire order, through `c`:
    /// writes them to a [`ByteWriter`], or overwrites them from a
    /// [`ByteReader`].
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError>;

    /// Visits `items` in order, without a count (the layout of `[T]`);
    /// bytes override it with one bulk copy.
    fn wire_slice<C: Codec>(items: &mut [Self], c: &mut C) -> Result<(), WireError>
    where
        Self: Sized,
    {
        items.iter_mut().try_for_each(|x| x.wire(c))
    }
}

/// A direction of the wire format: [`ByteWriter`] or [`ByteReader`].
///
/// Every method takes the field it visits by `&mut`: the writer reads
/// it, the reader overwrites it. The writer never fails. The
/// primitives are monomorphized and inlined into each layout, so a
/// layout costs what hand-written encode and decode code costs.
pub trait Codec: Sized {
    /// `true` for the reader: visited fields are overwritten.
    const READS: bool;

    /// The current byte offset (reported in errors).
    fn pos(&self) -> usize;

    /// Bytes left to read (`usize::MAX` for the writer).
    fn remaining(&self) -> usize;

    /// `v.len()` raw bytes.
    fn raw(&mut self, v: &mut [u8]) -> Result<(), WireError>;

    /// A block prefixed with its byte length (`usize`): the writer
    /// back-patches the length after `body` has written the block; the
    /// reader confines `body` to the block and requires it to consume
    /// the block exactly.
    fn nested<E: From<WireError>>(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<(), E>,
    ) -> Result<(), E>;

    /// One byte.
    #[inline]
    fn u8(&mut self, v: &mut u8) -> Result<(), WireError> {
        self.raw(std::slice::from_mut(v))
    }

    /// A little-endian `u32`.
    #[inline]
    fn u32(&mut self, v: &mut u32) -> Result<(), WireError> {
        let mut b = v.to_le_bytes();
        self.raw(&mut b)?;
        *v = u32::from_le_bytes(b);
        Ok(())
    }

    /// A little-endian `u64`.
    #[inline]
    fn u64(&mut self, v: &mut u64) -> Result<(), WireError> {
        let mut b = v.to_le_bytes();
        self.raw(&mut b)?;
        *v = u64::from_le_bytes(b);
        Ok(())
    }

    /// A `usize` as a `u64` (the format is platform-independent).
    #[inline]
    fn usize(&mut self, v: &mut usize) -> Result<(), WireError> {
        let at = self.pos();
        let mut x = *v as u64;
        self.u64(&mut x)?;
        *v = usize::try_from(x).map_err(|_| WireError::BadLen { at, len: x })?;
        Ok(())
    }

    /// A `bool` as one byte; the reader rejects values other than 0
    /// and 1.
    #[inline]
    fn bool(&mut self, v: &mut bool) -> Result<(), WireError> {
        let at = self.pos();
        let mut b = *v as u8;
        self.u8(&mut b)?;
        *v = match b {
            0 => false,
            1 => true,
            tag => return Err(WireError::BadTag { at, tag }),
        };
        Ok(())
    }

    /// An `f64` as its IEEE-754 bit pattern, so the round trip is
    /// exact (NaN payloads and signed zero included).
    ///
    /// # Examples
    ///
    /// ```
    /// use april_util::wire::{ByteReader, ByteWriter, Codec};
    ///
    /// let mut w = ByteWriter::new();
    /// w.f64(&mut -0.0).unwrap();
    /// w.f64(&mut f64::NAN).unwrap();
    /// let bytes = w.finish();
    /// let mut r = ByteReader::new(&bytes);
    /// let (mut a, mut b) = (0.0, 0.0);
    /// r.f64(&mut a).unwrap();
    /// r.f64(&mut b).unwrap();
    /// assert_eq!(a.to_bits(), (-0.0f64).to_bits());
    /// assert!(b.is_nan());
    /// ```
    #[inline]
    fn f64(&mut self, v: &mut f64) -> Result<(), WireError> {
        let mut bits = v.to_bits();
        self.u64(&mut bits)?;
        *v = f64::from_bits(bits);
        Ok(())
    }

    /// A length-prefixed UTF-8 string.
    fn str(&mut self, v: &mut String) -> Result<(), WireError> {
        let mut b = std::mem::take(v).into_bytes();
        b.wire(self)?;
        *v = String::from_utf8(b).map_err(|_| WireError::Corrupt("invalid UTF-8"))?;
        Ok(())
    }

    /// A count of following elements, as a `usize`: the writer writes
    /// `n`, the reader returns the count read. Every element takes at
    /// least one byte, so a count larger than the bytes remaining is
    /// [`WireError::BadLen`] — checked before the caller allocates.
    #[inline]
    fn count(&mut self, n: usize) -> Result<usize, WireError> {
        let at = self.pos();
        let mut n = n;
        self.usize(&mut n)?;
        if n > self.remaining() {
            return Err(WireError::BadLen { at, len: n as u64 });
        }
        Ok(n)
    }

    /// A field that must equal the receiving object's own value `own`
    /// (a node id, a geometry, a memory size): written as is; on read,
    /// a different value is [`WireError::Corrupt`] with `what`.
    #[inline]
    fn same<T: Wire + PartialEq + Copy>(
        &mut self,
        own: T,
        what: &'static str,
    ) -> Result<(), WireError> {
        let mut v = own;
        v.wire(self)?;
        if v != own {
            return Err(WireError::Corrupt(what));
        }
        Ok(())
    }

    /// A tagged enum's tag byte: the writer writes `tag_of(v)`; the
    /// reader sets `*v = blank(tag)` — the variant, its fields still to
    /// be visited — and a tag with no variant is
    /// [`WireError::BadTag`] at the tag's offset.
    #[inline]
    fn tag<T>(
        &mut self,
        v: &mut T,
        tag_of: impl FnOnce(&T) -> u8,
        blank: impl FnOnce(u8) -> Option<T>,
    ) -> Result<(), WireError> {
        let at = self.pos();
        let mut tag = if Self::READS { 0 } else { tag_of(v) };
        self.u8(&mut tag)?;
        if Self::READS {
            *v = blank(tag).ok_or(WireError::BadTag { at, tag })?;
        }
        Ok(())
    }

    /// [`Codec::tag`] for an enum whose tag is its variant's index in
    /// `table`, a list of blank variants.
    #[inline]
    fn variant<T: Clone>(&mut self, v: &mut T, table: &[T]) -> Result<(), WireError> {
        let same = |t: &T, v: &T| std::mem::discriminant(t) == std::mem::discriminant(v);
        self.tag(
            v,
            |v| {
                table
                    .iter()
                    .position(|t| same(t, v))
                    .expect("variant in its wire table") as u8
            },
            |tag| table.get(tag as usize).cloned(),
        )
    }

    /// A field stored on the wire as another type `W`: the writer
    /// writes `to(v)`; the reader sets `*v = from(w)`.
    #[inline]
    fn via<T, W: Wire + Default>(
        &mut self,
        v: &mut T,
        to: impl FnOnce(&T) -> W,
        from: impl FnOnce(W) -> Result<T, WireError>,
    ) -> Result<(), WireError> {
        if Self::READS {
            let mut w = W::default();
            w.wire(self)?;
            *v = from(w)?;
            Ok(())
        } else {
            to(v).wire(self)
        }
    }

    /// A sparse indexed sequence: the count of the `present` items,
    /// then each one as its index (visited by `index`) and its fields
    /// (visited by `item`), in ascending index order. On read every
    /// item first becomes `T::default()`, and an index out of range or
    /// not above the previous one is [`WireError::Corrupt`].
    fn sparse<T: Default>(
        &mut self,
        items: &mut [T],
        present: impl Fn(&T) -> bool,
        mut index: impl FnMut(&mut Self, &mut usize) -> Result<(), WireError>,
        mut item: impl FnMut(&mut Self, &mut T) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        if Self::READS {
            let n = self.count(0)?;
            items.iter_mut().for_each(|t| *t = T::default());
            let mut next = 0;
            for _ in 0..n {
                let mut i = 0;
                index(self, &mut i)?;
                if i < next || i >= items.len() {
                    return Err(WireError::Corrupt("sparse index out of range or order"));
                }
                next = i + 1;
                item(self, &mut items[i])?;
            }
        } else {
            self.count(items.iter().filter(|t| present(t)).count())?;
            for (mut i, t) in items.iter_mut().enumerate() {
                if present(t) {
                    index(self, &mut i)?;
                    item(self, t)?;
                }
            }
        }
        Ok(())
    }
}

/// The index form [`Codec::sparse`] uses for memory chunks and
/// histogram buckets: a `u32`.
#[inline]
pub fn u32_index<C: Codec>(c: &mut C, i: &mut usize) -> Result<(), WireError> {
    c.via(i, |&i| i as u32, |i: u32| Ok(i as usize))
}

/// Implements [`Wire`] for a struct as the listed fields, visited in
/// the order given: the struct's whole wire layout. A leading
/// `[P, ..]` names type parameters, which must be [`Wire`] too.
///
/// # Examples
///
/// ```
/// use april_util::wire::{ByteReader, ByteWriter, Wire};
///
/// #[derive(Debug, Default, PartialEq)]
/// struct Span {
///     start: u64,
///     len: u32,
/// }
/// april_util::wire_fields!(Span { start, len });
///
/// let mut s = Span { start: 9, len: 3 };
/// let mut w = ByteWriter::new();
/// s.wire(&mut w).unwrap();
/// let bytes = w.finish();
/// assert_eq!(bytes.len(), 12);
/// let mut back = Span::default();
/// back.wire(&mut ByteReader::new(&bytes)).unwrap();
/// assert_eq!(back, s);
/// ```
#[macro_export]
macro_rules! wire_fields {
    ([$($g:ident),*] $t:ty { $($f:tt),+ $(,)? }) => {
        impl<$($g: $crate::wire::Wire),*> $crate::wire::Wire for $t {
            #[inline]
            fn wire<C: $crate::wire::Codec>(
                &mut self,
                c: &mut C,
            ) -> ::core::result::Result<(), $crate::wire::WireError> {
                $($crate::wire::Wire::wire(&mut self.$f, c)?;)+
                Ok(())
            }
        }
    };
    ($t:ty { $($f:tt),+ $(,)? }) => {
        $crate::wire_fields!([] $t { $($f),+ });
    };
}

macro_rules! wire_primitive {
    ($($t:ty => $m:ident),*) => {$(
        impl Wire for $t {
            #[inline]
            fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
                c.$m(self)
            }
        }
    )*};
}
wire_primitive!(u32 => u32, u64 => u64, usize => usize, bool => bool, f64 => f64, String => str);

impl Wire for u8 {
    #[inline]
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        c.u8(self)
    }

    #[inline]
    fn wire_slice<C: Codec>(items: &mut [u8], c: &mut C) -> Result<(), WireError> {
        c.raw(items)
    }
}

wire_fields!([T0, T1] (T0, T1) { 0, 1 });
wire_fields!([T0, T1, T2] (T0, T1, T2) { 0, 1, 2 });
wire_fields!([T0, T1, T2, T3] (T0, T1, T2, T3) { 0, 1, 2, 3 });

/// A fixed number of elements, without a count.
impl<T: Wire> Wire for [T] {
    #[inline]
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        T::wire_slice(self, c)
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    #[inline]
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        self.as_mut_slice().wire(c)
    }
}

/// A count, then the elements.
impl<T: Wire + Default> Wire for Vec<T> {
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        let n = c.count(self.len())?;
        if C::READS {
            self.clear();
            self.resize_with(n, T::default);
        }
        self.as_mut_slice().wire(c)
    }
}

/// A count, then the elements, front to back.
impl<T: Wire + Default> Wire for VecDeque<T> {
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        let n = c.count(self.len())?;
        if C::READS {
            self.clear();
            self.resize_with(n, T::default);
        }
        self.iter_mut().try_for_each(|x| x.wire(c))
    }
}

/// A presence `bool`, then the value when present.
impl<T: Wire + Default> Wire for Option<T> {
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        let mut some = self.is_some();
        c.bool(&mut some)?;
        if C::READS {
            *self = some.then(T::default);
        }
        match self {
            Some(v) => v.wire(c),
            None => Ok(()),
        }
    }
}

/// A count, then key–value pairs in sorted key order. On read the map
/// is replaced, and a repeated key is [`WireError::Corrupt`].
impl<K, V, S> Wire for HashMap<K, V, S>
where
    K: Wire + Ord + Hash + Copy + Default,
    V: Wire + Default,
    S: BuildHasher,
{
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        let n = c.count(self.len())?;
        if C::READS {
            self.clear();
            for _ in 0..n {
                let (mut k, mut v) = (K::default(), V::default());
                k.wire(c)?;
                v.wire(c)?;
                if self.insert(k, v).is_some() {
                    return Err(WireError::Corrupt("repeated map key"));
                }
            }
        } else {
            let mut entries: Vec<(&K, &mut V)> = self.iter_mut().collect();
            entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
            for (k, v) in entries {
                let mut k = *k;
                k.wire(c)?;
                v.wire(c)?;
            }
        }
        Ok(())
    }
}

/// A count, then the members in sorted order. On read the set is
/// replaced, and a repeated member is [`WireError::Corrupt`].
impl<K, S> Wire for HashSet<K, S>
where
    K: Wire + Ord + Hash + Copy + Default,
    S: BuildHasher,
{
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        let n = c.count(self.len())?;
        if C::READS {
            self.clear();
            for _ in 0..n {
                let mut k = K::default();
                k.wire(c)?;
                if !self.insert(k) {
                    return Err(WireError::Corrupt("repeated set member"));
                }
            }
        } else {
            let mut keys: Vec<K> = self.iter().copied().collect();
            keys.sort_unstable();
            keys.as_mut_slice().wire(c)?;
        }
        Ok(())
    }
}

impl<T: Wire + ?Sized> Wire for Box<T> {
    #[inline]
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        (**self).wire(c)
    }
}

/// Append-only binary encoder: the writing [`Codec`].
///
/// # Examples
///
/// ```
/// use april_util::wire::{ByteWriter, Codec};
///
/// let mut w = ByteWriter::new();
/// w.u32(&mut 7).unwrap();
/// w.str(&mut "april".to_string()).unwrap();
/// assert_eq!(w.finish(), b"\x07\0\0\0\x05\0\0\0\0\0\0\0april");
/// ```
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

impl Codec for ByteWriter {
    const READS: bool = false;

    #[inline]
    fn pos(&self) -> usize {
        self.buf.len()
    }

    #[inline]
    fn remaining(&self) -> usize {
        usize::MAX
    }

    #[inline]
    fn raw(&mut self, v: &mut [u8]) -> Result<(), WireError> {
        self.buf.extend_from_slice(v);
        Ok(())
    }

    fn nested<E: From<WireError>>(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        let at = self.buf.len();
        self.u64(&mut 0)?;
        body(self)?;
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
        Ok(())
    }
}

/// Sequential binary decoder over a borrowed buffer: the reading
/// [`Codec`].
///
/// Every read is bounds-checked and returns a typed [`WireError`]
/// rather than panicking, so corrupt or truncated input surfaces as an
/// ordinary error.
///
/// # Examples
///
/// ```
/// use april_util::wire::{ByteReader, Codec, WireError};
///
/// let bytes = 0xA981_1990u32.to_le_bytes();
/// let mut v = 0;
/// ByteReader::new(&bytes).u32(&mut v).unwrap();
/// assert_eq!(v, 0xA981_1990);
///
/// // Truncating the buffer turns the read into a typed error, with
/// // the offset at which decoding failed.
/// let mut r = ByteReader::new(&bytes[..3]);
/// assert_eq!(r.u32(&mut v), Err(WireError::Eof { at: 0 }));
/// ```
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(WireError::Eof { at: self.pos })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Consumes every byte left, borrowed from the buffer.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// Reads a length-prefixed byte slice, borrowed from the buffer
    /// (no copy). The length prefix is checked against the bytes
    /// actually remaining, so a corrupt prefix cannot over-read.
    ///
    /// # Examples
    ///
    /// ```
    /// use april_util::wire::{ByteReader, ByteWriter, Wire};
    ///
    /// let mut w = ByteWriter::new();
    /// vec![0xAAu8, 0xBB].wire(&mut w).unwrap();
    /// let bytes = w.finish();
    /// let mut r = ByteReader::new(&bytes);
    /// assert_eq!(r.bytes().unwrap(), &[0xAA, 0xBB]);
    /// assert!(r.is_empty());
    /// ```
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.count(0)?;
        self.take(n)
    }
}

impl Codec for ByteReader<'_> {
    const READS: bool = true;

    #[inline]
    fn pos(&self) -> usize {
        self.pos
    }

    #[inline]
    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    #[inline]
    fn raw(&mut self, v: &mut [u8]) -> Result<(), WireError> {
        v.copy_from_slice(self.take(v.len())?);
        Ok(())
    }

    fn nested<E: From<WireError>>(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        let n = self.count(0)?;
        let end = self.pos + n;
        let mut inner = ByteReader {
            buf: &self.buf[..end],
            pos: self.pos,
        };
        body(&mut inner)?;
        if !inner.is_empty() {
            return Err(WireError::Corrupt("length-prefixed block not fully consumed").into());
        }
        self.pos = end;
        Ok(())
    }
}

/// A 64-bit content digest: FNV-1a over the bytes, finalized with
/// [`splitmix64`](crate::splitmix64) for avalanche. Used by snapshots
/// to fingerprint the loaded program without storing it.
///
/// # Examples
///
/// ```
/// let a = april_util::wire::digest64(b"april");
/// let b = april_util::wire::digest64(b"april");
/// assert_eq!(a, b);
/// assert_ne!(a, april_util::wire::digest64(b"alewife"));
/// ```
pub fn digest64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    crate::splitmix64(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes `v`, reads it back into a default value, and checks the
    /// reader consumed everything.
    fn roundtrip<T: Wire + Default>(v: &mut T) -> T {
        let mut w = ByteWriter::new();
        v.wire(&mut w).unwrap();
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        let mut back = T::default();
        back.wire(&mut r).unwrap();
        assert!(r.is_empty());
        back
    }

    #[test]
    fn scalar_roundtrip() {
        let mut v = (
            (0xabu8, 0xdead_beefu32, u64::MAX - 1),
            (12345usize, true, false),
            (-0.125f64, String::from("snapshot"), vec![1u8, 2, 3]),
        );
        assert_eq!(roundtrip(&mut v), v);
        let mut w = ByteWriter::new();
        v.wire(&mut w).unwrap();
        assert_eq!(w.finish().len(), 1 + 4 + 8 + 8 + 1 + 1 + 8 + 8 + 8 + 8 + 3);
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let bytes = 7u64.to_le_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        assert_eq!(r.u64(&mut 0), Err(WireError::Eof { at: 0 }));
    }

    #[test]
    fn bad_bool_and_bad_len_are_rejected() {
        let mut b = false;
        assert_eq!(
            ByteReader::new(&[7]).bool(&mut b),
            Err(WireError::BadTag { at: 0, tag: 7 })
        );
        let bytes = u64::MAX.to_le_bytes(); // absurd length prefix
        assert!(matches!(
            ByteReader::new(&bytes).bytes(),
            Err(WireError::BadLen { .. })
        ));
        // A count is bounded by the input before anything is allocated.
        let mut v: Vec<u64> = Vec::new();
        assert_eq!(
            v.wire(&mut ByteReader::new(&(1u64 << 40).to_le_bytes())),
            Err(WireError::BadLen {
                at: 0,
                len: 1 << 40
            })
        );
    }

    #[test]
    fn f64_bits_are_exact() {
        for mut v in [0.0, -0.0, f64::NAN, f64::INFINITY, 1.0 / 3.0] {
            assert_eq!(roundtrip(&mut v).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn maps_and_sets_encode_in_key_order_and_reject_repeats() {
        let mut m: HashMap<u32, (u64, bool)> = (0..50)
            .map(|k| (k * 7 % 50, (k as u64, k % 2 == 0)))
            .collect();
        let mut s: HashSet<usize> = (0..50).map(|k| k * 3).collect();
        assert_eq!(roundtrip(&mut m), m);
        assert_eq!(roundtrip(&mut s), s);
        let mut w = ByteWriter::new();
        (2usize, 9u32, 9u32).wire(&mut w).unwrap();
        let bytes = w.finish();
        let mut set: HashSet<u32> = HashSet::new();
        assert_eq!(
            set.wire(&mut ByteReader::new(&bytes)),
            Err(WireError::Corrupt("repeated set member"))
        );
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        assert_eq!(digest64(b""), digest64(b""));
        assert_ne!(digest64(b"a"), digest64(b"b"));
    }
}
