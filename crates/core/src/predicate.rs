//! Query predicates and filters (§II-C).
//!
//! A query carries a conjunction of predicates, each constraining one
//! attribute with a relation (`=`, `≠`, `<`, `≤`, `>`, `≥`, or a closed
//! range — the paper's `∈`). A descriptor matches when every predicate
//! holds; a predicate on a missing attribute, or one whose value has a
//! different type, does not hold.

use crate::descriptor::{assert_fits_wire, DataDescriptor};
use crate::value::AttrValue;
use std::cmp::Ordering;
use std::fmt;

/// The relation of a [`Predicate`]. Its discriminant is its wire code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Relation {
    /// Attribute equals the value.
    Eq = 0,
    /// Attribute differs from the value (but exists with the same type).
    Ne = 1,
    /// Attribute is strictly less than the value.
    Lt = 2,
    /// Attribute is at most the value.
    Le = 3,
    /// Attribute is strictly greater than the value.
    Gt = 4,
    /// Attribute is at least the value.
    Ge = 5,
    /// Attribute lies in the closed range `[value, value2]`.
    InRange = 6,
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
    pub(crate) attr: String,
    pub(crate) relation: Relation,
    pub(crate) value: AttrValue,
    /// The range's upper bound: present for [`Relation::InRange`] only.
    pub(crate) value2: Option<AttrValue>,
}

impl Predicate {
    /// Builds a predicate with a unary relation.
    ///
    /// # Panics
    ///
    /// Panics if `relation` is [`Relation::InRange`] (use
    /// [`Predicate::range`]), if the name is empty or longer than 255
    /// bytes, or if a string value is longer than 65 535 bytes (either
    /// length would wrap on the wire).
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
        .checked()
    }

    /// Builds a closed-range predicate `lo ≤ attr ≤ hi`.
    ///
    /// # Panics
    ///
    /// Panics if the name is empty or longer than 255 bytes, or if a
    /// string bound is longer than 65 535 bytes.
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
        .checked()
    }

    /// Asserts that the name and every value fit their wire lengths.
    fn checked(self) -> Self {
        for value in std::iter::once(&self.value).chain(&self.value2) {
            assert_fits_wire(&self.attr, value);
        }
        self
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
    pub(crate) predicates: Vec<Predicate>,
}

impl QueryFilter {
    /// A filter from the given predicates (conjunction).
    ///
    /// # Panics
    ///
    /// Panics on more than 255 predicates: the count travels as one byte.
    #[must_use]
    pub fn new(predicates: Vec<Predicate>) -> Self {
        assert!(
            predicates.len() <= 255,
            "a filter holds at most 255 predicates"
        );
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::tests::{filter_bytes, filter_from};
    use crate::message::DecodeError;
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
        // Filters at every wire bound: a 255-byte name, 65 535-byte
        // strings, 255 predicates.
        let (name, long) = ("n".repeat(255), "s".repeat(65_535));
        for f in [
            QueryFilter::new(vec![
                Predicate::new("type", Relation::Eq, "no2"),
                Predicate::range("x", 0.0, 5.0),
                Predicate::new("time", Relation::Ge, AttrValue::Time(10)),
            ]),
            QueryFilter::new(vec![
                Predicate::new(name.as_str(), Relation::Eq, long.as_str()),
                Predicate::range("a", long.as_str(), long.as_str()),
            ]),
            QueryFilter::new(vec![Predicate::new("a", Relation::Le, 1i64); 255]),
        ] {
            assert_eq!(filter_from(&filter_bytes(&f)), Ok(f));
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let f = QueryFilter::new(vec![Predicate::range("x", 0.0, 5.0)]);
        let buf = filter_bytes(&f);
        for cut in 0..buf.len() {
            assert!(filter_from(&buf[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn decode_rejects_a_presence_byte_other_than_0_or_1() {
        let f = QueryFilter::new(vec![Predicate::new("x", Relation::Eq, 1i64)]);
        let mut buf = filter_bytes(&f);
        // The last byte says whether a second value follows.
        assert_eq!(buf.pop(), Some(0));
        buf.push(2);
        assert_eq!(filter_from(&buf), Err(DecodeError::BadTag(2)));
    }

    #[test]
    fn forms_no_encoder_writes_are_bad_bodies() {
        // A range bound travels with `InRange` and no other relation.
        let one = |p| filter_bytes(&QueryFilter::new(vec![p]));
        let eq = one(Predicate::new("x", Relation::Eq, 1i64));
        let range = one(Predicate::range("x", 1i64, 2i64));
        // `x` and its relation code sit after the count and name length.
        let (code, bound) = (3, eq.len() - 1);
        let mut unbounded_range = eq.clone();
        unbounded_range[code] = Relation::InRange as u8;
        let mut bounded_eq = range.clone();
        bounded_eq[code] = Relation::Eq as u8;
        assert_eq!(range[code], Relation::InRange as u8);
        assert_eq!((eq[bound], range[bound]), (0, 1));
        // And a name no predicate has.
        let unnamed = [&[1, 0][..], &eq[3..]].concat();
        for hostile in [unbounded_range, bounded_eq, unnamed] {
            assert_eq!(filter_from(&hostile), Err(DecodeError::BadBody));
        }
    }

    #[test]
    #[should_panic(expected = "1–255")]
    fn an_empty_name_is_refused() {
        let _ = Predicate::new("", Relation::Eq, 1i64);
    }

    #[test]
    #[should_panic(expected = "1–255")]
    fn a_name_past_255_bytes_is_refused() {
        let _ = Predicate::range("n".repeat(256), 1i64, 2i64);
    }

    #[test]
    #[should_panic(expected = "at most 65535 bytes")]
    fn a_string_value_past_65535_bytes_is_refused() {
        let _ = Predicate::new("a", Relation::Eq, "s".repeat(65_536));
    }

    #[test]
    #[should_panic(expected = "at most 65535 bytes")]
    fn a_string_range_bound_past_65535_bytes_is_refused() {
        let _ = Predicate::range("a", "s", "s".repeat(65_536));
    }

    #[test]
    #[should_panic(expected = "at most 255 predicates")]
    fn a_256th_predicate_is_refused() {
        let _ = QueryFilter::new(vec![Predicate::new("a", Relation::Le, 1i64); 256]);
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
