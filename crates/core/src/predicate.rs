//! Query predicates and filters (§II-C).
//!
//! A query carries a conjunction of predicates, each constraining one
//! attribute with a relation (`=`, `≠`, `<`, `≤`, `>`, `≥`, or a closed
//! range — the paper's `∈`). A descriptor matches when every predicate
//! holds; a predicate on a missing attribute, or one whose value has a
//! different type, does not hold.

use crate::descriptor::DataDescriptor;
use crate::value::{AttrRef, AttrValue};
use bytes::{Buf, BufMut};
use std::cmp::Ordering;
use std::fmt;

/// The relation of a [`Predicate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// Attribute equals the value.
    Eq,
    /// Attribute differs from the value (but exists with the same type).
    Ne,
    /// Attribute is strictly less than the value.
    Lt,
    /// Attribute is at most the value.
    Le,
    /// Attribute is strictly greater than the value.
    Gt,
    /// Attribute is at least the value.
    Ge,
    /// Attribute lies in the closed range `[value, value2]`.
    InRange,
}

impl Relation {
    fn code(self) -> u8 {
        match self {
            Relation::Eq => 0,
            Relation::Ne => 1,
            Relation::Lt => 2,
            Relation::Le => 3,
            Relation::Gt => 4,
            Relation::Ge => 5,
            Relation::InRange => 6,
        }
    }

    fn from_code(c: u8) -> Option<Self> {
        Some(match c {
            0 => Relation::Eq,
            1 => Relation::Ne,
            2 => Relation::Lt,
            3 => Relation::Le,
            4 => Relation::Gt,
            5 => Relation::Ge,
            6 => Relation::InRange,
            _ => return None,
        })
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Relation::Eq => "=",
            Relation::Ne => "!=",
            Relation::Lt => "<",
            Relation::Le => "<=",
            Relation::Gt => ">",
            Relation::Ge => ">=",
            Relation::InRange => "in",
        })
    }
}

/// A single attribute constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    attr: String,
    relation: Relation,
    value: AttrValue,
    value2: Option<AttrValue>,
}

impl Predicate {
    /// Builds a predicate with a unary relation.
    ///
    /// # Panics
    ///
    /// Panics if `relation` is [`Relation::InRange`] (use
    /// [`Predicate::range`]).
    #[must_use]
    pub fn new(attr: impl Into<String>, relation: Relation, value: impl Into<AttrValue>) -> Self {
        assert!(
            relation != Relation::InRange,
            "use Predicate::range for InRange"
        );
        Self {
            attr: attr.into(),
            relation,
            value: value.into(),
            value2: None,
        }
    }

    /// Builds a closed-range predicate `lo ≤ attr ≤ hi`.
    #[must_use]
    pub fn range(
        attr: impl Into<String>,
        lo: impl Into<AttrValue>,
        hi: impl Into<AttrValue>,
    ) -> Self {
        Self {
            attr: attr.into(),
            relation: Relation::InRange,
            value: lo.into(),
            value2: Some(hi.into()),
        }
    }

    /// Whether `descriptor` satisfies this predicate.
    #[must_use]
    pub fn matches(&self, descriptor: &DataDescriptor) -> bool {
        let Some(actual) = descriptor.get(&self.attr) else {
            return false;
        };
        let Some(ord) = actual.partial_cmp_same_type(&self.value) else {
            return false;
        };
        match self.relation {
            Relation::Eq => ord == Ordering::Equal,
            Relation::Ne => ord != Ordering::Equal,
            Relation::Lt => ord == Ordering::Less,
            Relation::Le => ord != Ordering::Greater,
            Relation::Gt => ord == Ordering::Greater,
            Relation::Ge => ord != Ordering::Less,
            Relation::InRange => {
                if ord == Ordering::Less {
                    return false;
                }
                let Some(hi) = &self.value2 else { return false };
                matches!(
                    actual.partial_cmp_same_type(hi),
                    Some(Ordering::Less | Ordering::Equal)
                )
            }
        }
    }

    fn encode(&self, out: &mut impl BufMut) {
        out.put_u8(self.attr.len() as u8);
        out.put_slice(self.attr.as_bytes());
        out.put_u8(self.relation.code());
        self.value.encode(out);
        if let Some(v2) = &self.value2 {
            out.put_u8(1);
            v2.encode(out);
        } else {
            out.put_u8(0);
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        if buf.remaining() < 1 {
            return None;
        }
        let alen = buf.get_u8() as usize;
        if buf.remaining() < alen + 1 {
            return None;
        }
        let mut ab = vec![0u8; alen];
        buf.copy_to_slice(&mut ab);
        let attr = String::from_utf8(ab).ok()?;
        let relation = Relation::from_code(buf.get_u8())?;
        let value = AttrRef::read(buf)?.to_owned();
        if buf.remaining() < 1 {
            return None;
        }
        let value2 = match buf.get_u8() {
            0 => None,
            1 => Some(AttrRef::read(buf)?.to_owned()),
            _ => return None,
        };
        if relation == Relation::InRange && value2.is_none() {
            return None;
        }
        Some(Self {
            attr,
            relation,
            value,
            value2,
        })
    }

    fn encoded_len(&self) -> usize {
        1 + self.attr.len()
            + 1
            + self.value.encoded_len()
            + 1
            + self.value2.as_ref().map_or(0, AttrValue::encoded_len)
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.relation, &self.value2) {
            (Relation::InRange, Some(hi)) => {
                write!(f, "{} in [{}, {}]", self.attr, self.value, hi)
            }
            _ => write!(f, "{} {} {}", self.attr, self.relation, self.value),
        }
    }
}

/// A conjunction of predicates; the empty filter matches everything.
///
/// # Examples
///
/// ```
/// use pds_core::{DataDescriptor, Predicate, QueryFilter, Relation};
///
/// let all = QueryFilter::match_all();
/// let d = DataDescriptor::builder().attr("type", "no2").build();
/// assert!(all.matches(&d));
/// let typed = QueryFilter::new(vec![Predicate::new("type", Relation::Eq, "co2")]);
/// assert!(!typed.matches(&d));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryFilter {
    predicates: Vec<Predicate>,
}

impl QueryFilter {
    /// A filter from the given predicates (conjunction).
    #[must_use]
    pub fn new(predicates: Vec<Predicate>) -> Self {
        Self { predicates }
    }

    /// The filter that matches every descriptor.
    #[must_use]
    pub fn match_all() -> Self {
        Self::default()
    }

    /// Whether `descriptor` satisfies every predicate.
    #[must_use]
    pub fn matches(&self, descriptor: &DataDescriptor) -> bool {
        self.predicates.iter().all(|p| p.matches(descriptor))
    }

    /// Serializes the filter.
    pub fn encode(&self, out: &mut impl BufMut) {
        out.put_u8(self.predicates.len() as u8);
        for p in &self.predicates {
            p.encode(out);
        }
    }

    /// Deserializes a filter; `None` on malformed input.
    pub fn decode(buf: &mut &[u8]) -> Option<Self> {
        if buf.remaining() < 1 {
            return None;
        }
        let n = buf.get_u8() as usize;
        let mut predicates = Vec::with_capacity(n);
        for _ in 0..n {
            predicates.push(Predicate::decode(buf)?);
        }
        Some(Self { predicates })
    }

    /// Wire size of the encoded form.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        1 + self
            .predicates
            .iter()
            .map(Predicate::encoded_len)
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::AttrValue;

    fn d(t: &str, x: f64, time: i64) -> DataDescriptor {
        DataDescriptor::builder()
            .attr("type", t)
            .attr("x", x)
            .attr("time", AttrValue::Time(time))
            .build()
    }

    #[test]
    fn relations_behave() {
        let desc = d("no2", 5.0, 100);
        assert!(Predicate::new("x", Relation::Eq, 5.0).matches(&desc));
        assert!(Predicate::new("x", Relation::Ne, 4.0).matches(&desc));
        assert!(Predicate::new("x", Relation::Lt, 6.0).matches(&desc));
        assert!(Predicate::new("x", Relation::Le, 5.0).matches(&desc));
        assert!(Predicate::new("x", Relation::Gt, 4.0).matches(&desc));
        assert!(Predicate::new("x", Relation::Ge, 5.0).matches(&desc));
        assert!(!Predicate::new("x", Relation::Lt, 5.0).matches(&desc));
        assert!(!Predicate::new("x", Relation::Gt, 5.0).matches(&desc));
    }

    #[test]
    fn range_is_closed() {
        let desc = d("no2", 5.0, 100);
        assert!(Predicate::range("x", 5.0, 10.0).matches(&desc));
        assert!(Predicate::range("x", 0.0, 5.0).matches(&desc));
        assert!(!Predicate::range("x", 5.1, 10.0).matches(&desc));
        assert!(!Predicate::range("x", 0.0, 4.9).matches(&desc));
    }

    #[test]
    fn missing_attribute_never_matches() {
        let desc = d("no2", 5.0, 100);
        assert!(!Predicate::new("absent", Relation::Eq, 1i64).matches(&desc));
        assert!(!Predicate::new("absent", Relation::Ne, 1i64).matches(&desc));
    }

    #[test]
    fn type_mismatch_never_matches() {
        let desc = d("no2", 5.0, 100);
        // "x" is a float; comparing against an int should not match.
        assert!(!Predicate::new("x", Relation::Eq, 5i64).matches(&desc));
        assert!(!Predicate::new("x", Relation::Ne, 5i64).matches(&desc));
    }

    #[test]
    fn filter_is_conjunction() {
        let desc = d("no2", 5.0, 100);
        let f = QueryFilter::new(vec![
            Predicate::new("type", Relation::Eq, "no2"),
            Predicate::range("time", AttrValue::Time(50), AttrValue::Time(150)),
        ]);
        assert!(f.matches(&desc));
        let f2 = QueryFilter::new(vec![
            Predicate::new("type", Relation::Eq, "no2"),
            Predicate::new("x", Relation::Gt, 10.0),
        ]);
        assert!(!f2.matches(&desc));
    }

    #[test]
    fn match_all_matches_everything() {
        assert!(QueryFilter::match_all().matches(&d("a", 0.0, 0)));
        assert!(QueryFilter::match_all().matches(&DataDescriptor::default()));
    }

    #[test]
    fn filter_codec_round_trips() {
        let f = QueryFilter::new(vec![
            Predicate::new("type", Relation::Eq, "no2"),
            Predicate::range("x", 0.0, 5.0),
            Predicate::new("time", Relation::Ge, AttrValue::Time(10)),
        ]);
        let mut buf = Vec::new();
        f.encode(&mut buf);
        assert_eq!(buf.len(), f.encoded_len());
        let mut slice = &buf[..];
        let back = QueryFilter::decode(&mut slice).expect("decodes");
        assert_eq!(back, f);
    }

    #[test]
    fn decode_rejects_truncation() {
        let f = QueryFilter::new(vec![Predicate::range("x", 0.0, 5.0)]);
        let mut buf = Vec::new();
        f.encode(&mut buf);
        for cut in 1..buf.len() {
            let mut slice = &buf[..cut];
            assert_eq!(QueryFilter::decode(&mut slice), None, "cut {cut}");
        }
    }

    #[test]
    fn decode_rejects_a_presence_byte_other_than_0_or_1() {
        let f = QueryFilter::new(vec![Predicate::new("x", Relation::Eq, 1i64)]);
        let mut buf = Vec::new();
        f.encode(&mut buf);
        // The last byte says whether a second value follows.
        assert_eq!(buf.pop(), Some(0));
        buf.push(2);
        assert_eq!(QueryFilter::decode(&mut &buf[..]), None);
    }

    #[test]
    #[should_panic(expected = "InRange")]
    fn new_rejects_inrange() {
        let _ = Predicate::new("x", Relation::InRange, 1i64);
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            Predicate::new("type", Relation::Eq, "a").to_string(),
            "type = a"
        );
        assert_eq!(Predicate::range("x", 1i64, 2i64).to_string(), "x in [1, 2]");
    }
}
