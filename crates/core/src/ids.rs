//! Protocol identifiers.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// Globally unique identifier of a query, used to detect redundant copies
/// (the paper's "globally unique query ID"). Generated from per-node
/// randomness, so collisions are negligible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u64);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{:016x}", self.0)
    }
}

/// Globally unique identifier of a response message ("a random thus globally
/// unique response ID to detect redundant copies").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResponseId(pub u64);

impl fmt::Display for ResponseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{:016x}", self.0)
    }
}

/// Unique name of a (large, chunked) data item — the value of its `name`
/// attribute. Cheaply cloneable.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemName(Arc<str>);

impl ItemName {
    /// Creates an item name.
    #[must_use]
    pub fn new(name: impl AsRef<str>) -> Self {
        Self(Arc::from(name.as_ref()))
    }

    /// The name as a string slice.
    #[must_use]
    pub(crate) fn as_str(&self) -> &str {
        &self.0
    }
}

/// Lets maps keyed by `ItemName` be probed with a `&str` (derived `Hash`
/// and `Eq` go through the string), without allocating a name to ask.
impl Borrow<str> for ItemName {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ItemName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ItemName {
    fn from(s: &str) -> Self {
        Self::new(s)
    }
}

impl From<String> for ItemName {
    fn from(s: String) -> Self {
        Self(Arc::from(s))
    }
}

/// Index of a chunk within a large data item (`chunk id` attribute).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkId(pub u32);

impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_name_round_trips() {
        let n = ItemName::new("concert-video");
        assert_eq!(n.as_str(), "concert-video");
        assert_eq!(n, ItemName::from("concert-video"));
        assert_eq!(n.to_string(), "concert-video");
    }

    #[test]
    fn ids_format_distinctly() {
        assert!(QueryId(0xab).to_string().starts_with('q'));
        assert!(ResponseId(0xab).to_string().starts_with('r'));
        assert_eq!(ChunkId(3).to_string(), "c3");
    }

    #[test]
    fn item_name_is_cheap_to_clone() {
        let a = ItemName::new("x");
        let b = a.clone();
        assert_eq!(a, b);
    }
}
