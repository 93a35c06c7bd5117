//! Attribute values — the primitive types of data descriptors (§II-B).
//!
//! [`AttrValue`] is an owned value, as a builder or a predicate holds it;
//! [`AttrRef`] is the same value read in place from an encoding, as a
//! descriptor hands it out. Both share one wire form and one reader.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use bytes::BufMut;
use std::cmp::Ordering;
use std::fmt;

/// A primitive attribute value: string, integer, float or Unix time.
///
/// Values of the same variant are totally ordered (floats compare by IEEE
/// total order of their finite values; descriptors never carry NaN — the
/// builder rejects it). Cross-variant comparisons yield `None`, so a
/// predicate on the wrong type simply does not match.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A UTF-8 string (e.g. a data type name).
    Str(String),
    /// A signed integer (e.g. a chunk count).
    Int(i64),
    /// A float (e.g. a GPS coordinate).
    Float(f64),
    /// Seconds since the Unix epoch (e.g. sample generation time).
    Time(i64),
}

/// An attribute value borrowed from an encoding: what
/// [`DataDescriptor::get`](crate::DataDescriptor::get) and
/// [`DataDescriptor::iter`](crate::DataDescriptor::iter) return, read from
/// the descriptor's bytes without allocating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrRef<'a> {
    /// A UTF-8 string.
    Str(&'a str),
    /// A signed integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// Seconds since the Unix epoch.
    Time(i64),
}

impl AttrValue {
    /// This value borrowed as an [`AttrRef`].
    #[must_use]
    pub(crate) fn view(&self) -> AttrRef<'_> {
        match self {
            AttrValue::Str(s) => AttrRef::Str(s),
            AttrValue::Int(i) => AttrRef::Int(*i),
            AttrValue::Float(f) => AttrRef::Float(*f),
            AttrValue::Time(t) => AttrRef::Time(*t),
        }
    }

    /// Compares two values of the same variant; `None` across variants.
    #[cfg(test)]
    pub(crate) fn partial_cmp_same_type(&self, other: &AttrValue) -> Option<Ordering> {
        self.view().partial_cmp_same_type(other)
    }

    /// Serializes the value (tag byte + body).
    pub fn encode(&self, out: &mut impl BufMut) {
        self.view().encode(out);
    }
}

impl<'a> AttrRef<'a> {
    /// Reads a value written by [`AttrValue::encode`] from the front of
    /// `buf`, advancing it past the value.
    ///
    /// Returns `None` (leaving `buf` as it was) on truncation, an unknown
    /// tag, or invalid UTF-8.
    pub(crate) fn read(buf: &mut &'a [u8]) -> Option<Self> {
        let (&tag, rest) = buf.split_first()?;
        let (value, rest) = if tag == 0 {
            let (len, rest) = rest.split_first_chunk::<2>()?;
            let (s, rest) = rest.split_at_checked(usize::from(u16::from_le_bytes(*len)))?;
            (AttrRef::Str(std::str::from_utf8(s).ok()?), rest)
        } else {
            let (body, rest) = rest.split_first_chunk::<8>()?;
            let value = match tag {
                1 => AttrRef::Int(i64::from_le_bytes(*body)),
                2 => AttrRef::Float(f64::from_le_bytes(*body)),
                3 => AttrRef::Time(i64::from_le_bytes(*body)),
                _ => return None,
            };
            (value, rest)
        };
        *buf = rest;
        Some(value)
    }

    /// Serializes the value (tag byte + body).
    pub(crate) fn encode(self, out: &mut impl BufMut) {
        match self {
            AttrRef::Str(s) => {
                out.put_u8(0);
                out.put_slice(&(s.len() as u16).to_le_bytes());
                out.put_slice(s.as_bytes());
            }
            AttrRef::Int(i) => {
                out.put_u8(1);
                out.put_slice(&i.to_le_bytes());
            }
            AttrRef::Float(f) => {
                out.put_u8(2);
                out.put_slice(&f.to_le_bytes());
            }
            AttrRef::Time(t) => {
                out.put_u8(3);
                out.put_slice(&t.to_le_bytes());
            }
        }
    }

    /// Wire size of the encoded form in bytes.
    #[must_use]
    pub(crate) fn encoded_len(self) -> usize {
        match self {
            AttrRef::Str(s) => 3 + s.len(),
            _ => 9,
        }
    }

    /// An owned copy of the value.
    #[must_use]
    pub fn to_owned(self) -> AttrValue {
        match self {
            AttrRef::Str(s) => AttrValue::Str(s.to_owned()),
            AttrRef::Int(i) => AttrValue::Int(i),
            AttrRef::Float(f) => AttrValue::Float(f),
            AttrRef::Time(t) => AttrValue::Time(t),
        }
    }

    /// Compares with an owned value of the same variant; `None` across
    /// variants.
    #[must_use]
    pub fn partial_cmp_same_type(self, other: &AttrValue) -> Option<Ordering> {
        match (self, other) {
            (AttrRef::Str(a), AttrValue::Str(b)) => Some(a.cmp(b.as_str())),
            (AttrRef::Int(a), AttrValue::Int(b)) | (AttrRef::Time(a), AttrValue::Time(b)) => {
                Some(a.cmp(b))
            }
            (AttrRef::Float(a), AttrValue::Float(b)) => a.partial_cmp(b),
            _ => None,
        }
    }
}

impl fmt::Display for AttrRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrRef::Str(s) => f.write_str(s),
            AttrRef::Int(i) => write!(f, "{i}"),
            AttrRef::Float(x) => write!(f, "{x}"),
            AttrRef::Time(t) => write!(f, "@{t}"),
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Str(s.to_owned())
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Str(s)
    }
}

impl From<i64> for AttrValue {
    fn from(i: i64) -> Self {
        AttrValue::Int(i)
    }
}

impl From<u32> for AttrValue {
    fn from(i: u32) -> Self {
        AttrValue::Int(i64::from(i))
    }
}

impl From<f64> for AttrValue {
    fn from(f: f64) -> Self {
        AttrValue::Float(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &AttrValue) -> AttrValue {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        assert_eq!(buf.len(), v.view().encoded_len());
        let mut slice = &buf[..];
        let out = AttrRef::read(&mut slice).expect("decodes").to_owned();
        assert!(slice.is_empty());
        out
    }

    #[test]
    fn encode_decode_all_variants() {
        for v in [
            AttrValue::Str("hello".into()),
            AttrValue::Int(-42),
            AttrValue::Float(3.25),
            AttrValue::Time(1_451_635_200),
        ] {
            assert_eq!(roundtrip(&v), v);
        }
    }

    #[test]
    fn empty_string_round_trips() {
        assert_eq!(
            roundtrip(&AttrValue::Str(String::new())),
            AttrValue::Str(String::new())
        );
    }

    #[test]
    fn same_type_comparisons() {
        use Ordering::*;
        assert_eq!(
            AttrValue::Int(1).partial_cmp_same_type(&AttrValue::Int(2)),
            Some(Less)
        );
        assert_eq!(
            AttrValue::Str("b".into()).partial_cmp_same_type(&AttrValue::Str("a".into())),
            Some(Greater)
        );
        assert_eq!(
            AttrValue::Float(1.0).partial_cmp_same_type(&AttrValue::Float(1.0)),
            Some(Equal)
        );
        assert_eq!(
            AttrValue::Time(5).partial_cmp_same_type(&AttrValue::Time(9)),
            Some(Less)
        );
    }

    #[test]
    fn cross_type_comparison_is_none() {
        assert_eq!(
            AttrValue::Int(1).partial_cmp_same_type(&AttrValue::Float(1.0)),
            None
        );
        assert_eq!(
            AttrValue::Time(1).partial_cmp_same_type(&AttrValue::Int(1)),
            None
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        for garbage in [&[9, 0, 0][..], &[1, 0], &[], &[0, 2, 0, 0xff, 0xfe]] {
            let mut buf = garbage;
            assert_eq!(AttrRef::read(&mut buf), None);
            assert_eq!(buf, garbage, "a failed read leaves the buffer alone");
        }
    }

    #[test]
    fn conversions_from_primitives() {
        assert_eq!(AttrValue::from("x"), AttrValue::Str("x".into()));
        assert_eq!(AttrValue::from(3i64), AttrValue::Int(3));
        assert_eq!(AttrValue::from(2.5f64), AttrValue::Float(2.5));
        assert_eq!(AttrValue::from(7u32), AttrValue::Int(7));
    }

    #[test]
    fn float_ordering_is_total_over_finite_values() {
        use Ordering::*;
        let cases = [(-1.5, 0.0, Less), (2.5, 2.5, Equal), (1e9, -1e9, Greater)];
        for (a, b, expect) in cases {
            assert_eq!(
                AttrValue::Float(a).partial_cmp_same_type(&AttrValue::Float(b)),
                Some(expect),
                "{a} vs {b}"
            );
        }
    }

    #[test]
    fn encoded_len_matches_for_long_strings() {
        let v = AttrValue::Str("x".repeat(500));
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(AttrValue::Str("a".into()).to_string(), "a");
        assert_eq!(AttrValue::Time(5).to_string(), "@5");
    }
}
