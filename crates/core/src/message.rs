//! PDS wire messages and their binary codec.
//!
//! A message is either a [`QueryMessage`] or a [`ResponseMessage`]. Intended
//! next-hop receiver lists live at the transport layer
//! ([`MessageMeta::intended`](crate::MessageMeta::intended)), as in the prototype where they are
//! part of the UDP broadcast header; everything else the paper's message
//! formats describe (§III-A) is here, stated once: each field type's
//! `Wire` impl is its wire form and bound, and two tables lay out the rest.
//!
//! A message the decoder accepts is exactly its bytes: it encodes back to
//! the bytes it was read from. A form no encoder writes is refused — a
//! descriptor whose attributes are not in canonical order is `BadBody` —
//! so a relay can forward what it received as the message it decoded.

use crate::config::MAX_ITEM_CHUNKS;
use crate::descriptor::DataDescriptor;
use crate::ids::{ChunkId, ItemName, QueryId, ResponseId};
use crate::predicate::{Predicate, QueryFilter, Relation};
use crate::value::{AttrRef, AttrValue};
use crate::{NodeId, SimTime};
use bytes::{BufMut, Bytes};
use pds_obs::Phase;
use std::fmt;

/// A PDS query (§III-A): unique id, expiration (the *lingering* horizon),
/// current-hop sender, optional attribute filter, optional Bloom filter of
/// already-received entries, and the discovery round that built it.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryMessage {
    /// Globally unique query id (redundant-copy detection).
    pub id: QueryId,
    /// What is being asked for.
    pub kind: QueryKind,
    /// The node that transmitted this copy (rewritten every hop — the paper's
    /// `sender_id`, used to route responses back).
    pub sender: NodeId,
    /// When the lingering query expires and is removed from LQTs.
    pub expires_at: SimTime,
    /// Attribute predicates scoping the request.
    pub filter: QueryFilter,
    /// Serialized Bloom filter of entries the consumer already has
    /// (redundancy detection, §III-B-2); rewritten en-route.
    pub bloom: Option<Vec<u8>>,
    /// Discovery round number (selects the Bloom hash family); doubles as
    /// the division depth for directed chunk queries.
    pub round: u32,
    /// Remaining hop budget; 0 means unlimited (the paper's default — PDS
    /// targets limited-size networks, but notes "such limiting can be
    /// achieved easily with a hop counter if needed", §III-A-1).
    pub ttl_hops: u8,
}

/// A PDS response (§III-A).
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseMessage {
    /// Random, globally unique response id (redundant-copy detection).
    pub id: ResponseId,
    /// The node that built this response; a relayed chunk keeps it, and
    /// the transmitter is [`MessageMeta::from`](crate::MessageMeta::from).
    pub sender: NodeId,
    /// The payload.
    pub kind: ResponseKind,
}

/// Any PDS message.
#[derive(Debug, Clone, PartialEq)]
pub enum PdsMessage {
    /// A query.
    Query(QueryMessage),
    /// A response.
    Response(ResponseMessage),
}

/// Error decoding a [`PdsMessage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer ended before the message did.
    Truncated,
    /// An unknown message, kind or relation tag, or a presence byte other
    /// than 0 or 1, was encountered.
    BadTag(u8),
    /// An embedded string was not valid UTF-8.
    BadString,
    /// An embedded descriptor or attribute value failed to decode, an
    /// attribute name was empty, a descriptor's attributes were not in
    /// canonical order, a predicate's range bound was missing on `InRange`
    /// or present on another relation, or a field was past its bound: a
    /// chunk id of `MAX_ITEM_CHUNKS` or more, or a chunk count above
    /// `MAX_ITEM_CHUNKS`.
    BadBody,
    /// Bytes were left over after a complete message. Rejected because a
    /// chunk is kept as a view of its whole message: a tiny chunk with
    /// padding behind it would pin all of the padding.
    TrailingBytes,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "message truncated"),
            Self::BadTag(t) => write!(f, "unknown tag {t}"),
            Self::BadString => write!(f, "invalid UTF-8 in message"),
            Self::BadBody => write!(f, "malformed body or field past its bound"),
            Self::TrailingBytes => write!(f, "trailing bytes after message"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The unread rest of a received message, and the whole of it (so a field
/// can come back as a view).
struct Reader<'a> {
    whole: &'a Bytes,
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], DecodeError> {
        let head = self.rest.get(..len).ok_or(DecodeError::Truncated)?;
        self.rest = &self.rest[len..];
        Ok(head)
    }

    /// A `u32` length, then that many bytes.
    fn prefixed(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = u32::get(self)?;
        self.take(len as usize)
    }
}

/// Counts the bytes `Wire::put` would write.
struct Len(usize);

impl BufMut for Len {
    fn put_slice(&mut self, src: &[u8]) {
        self.0 += src.len();
    }
}

/// A field's wire form, little-endian: `get` reads what `put` writes and
/// enforces the field's bound. `T` is `Self` but for a marker form, which
/// puts an existing type on the wire its own way.
trait Wire<T = Self> {
    fn put(value: &T, out: &mut impl BufMut);
    fn get(r: &mut Reader<'_>) -> Result<T, DecodeError>;

    /// The bytes `put` writes.
    fn wire_len(value: &T) -> usize {
        let mut len = Len(0);
        Self::put(value, &mut len);
        len.0
    }
}

impl<const N: usize> Wire for [u8; N] {
    fn put(value: &Self, out: &mut impl BufMut) {
        out.put_slice(value);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.take(N)?.try_into().map_err(|_| DecodeError::Truncated)
    }
}

/// A field's wire form: its type, or the marker form named after it.
macro_rules! form {
    ($ty:ty) => {
        $ty
    };
    ($ty:ty, $form:ty) => {
        $form
    };
}

/// Fields that travel as a fixed-size carrier: `type [as form]: carrier =
/// |value| carrier, |carrier| value`, then for a bounded field the largest
/// carrier it admits; anything larger is `BadBody`.
macro_rules! wire_scalars {
    ($(
        $ty:ty $(as $form:ty)?: $carrier:ty = |$v:ident| $to:expr, |$c:ident| $from:expr
        $(, ..= $max:expr)?;
    )+) => {$(
        impl Wire<$ty> for form!($ty $(, $form)?) {
            fn put($v: &$ty, out: &mut impl BufMut) {
                <$carrier>::put(&$to, out);
            }
            fn get(r: &mut Reader<'_>) -> Result<$ty, DecodeError> {
                let $c = <$carrier>::get(r)?;
                $(if $c > $max {
                    return Err(DecodeError::BadBody);
                })?
                Ok($from)
            }
        }
    )+};
}

wire_scalars! {
    u8: [u8; 1] = |v| v.to_le_bytes(), |c| u8::from_le_bytes(c);
    u16: [u8; 2] = |v| v.to_le_bytes(), |c| u16::from_le_bytes(c);
    u32: [u8; 4] = |v| v.to_le_bytes(), |c| u32::from_le_bytes(c);
    u64: [u8; 8] = |v| v.to_le_bytes(), |c| u64::from_le_bytes(c);
    QueryId: u64 = |id| id.0, |c| QueryId(c);
    ResponseId: u64 = |id| id.0, |c| ResponseId(c);
    NodeId: u32 = |id| id.0, |c| NodeId(c);
    SimTime: u64 = |t| t.as_micros(), |c| SimTime::from_micros(c);
    // A lingering chunk set or a CDI table is sized from the largest id.
    ChunkId: u32 = |id| id.0, |c| ChunkId(c), ..= MAX_ITEM_CHUNKS - 1;
    u32 as ChunkCount: u32 = |n| *n, |c| c, ..= MAX_ITEM_CHUNKS;
}

/// A chunk count: the size of an item's chunk-id space.
enum ChunkCount {}

/// A `u16` length, then UTF-8.
impl Wire for ItemName {
    fn put(value: &Self, out: &mut impl BufMut) {
        let name = value.as_str().as_bytes();
        u16::put(&(name.len() as u16), out);
        out.put_slice(name);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = u16::get(r)?;
        std::str::from_utf8(r.take(len.into())?)
            .map(ItemName::new)
            .map_err(|_| DecodeError::BadString)
    }
}

impl Wire for DataDescriptor {
    fn put(value: &Self, out: &mut impl BufMut) {
        out.put_slice(value.encode());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        DataDescriptor::decode(&mut r.rest).ok_or(DecodeError::BadBody)
    }
}

/// A `u8` count, then the predicates.
impl Wire for QueryFilter {
    fn put(value: &Self, out: &mut impl BufMut) {
        u8::put(&(value.predicates.len() as u8), out);
        for p in &value.predicates {
            Predicate::put(p, out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = u8::get(r)?;
        let mut predicates = Vec::with_capacity(n.into());
        for _ in 0..n {
            predicates.push(Predicate::get(r)?);
        }
        Ok(QueryFilter { predicates })
    }
}

/// The name, relation and value, then the range's upper bound: present
/// for `InRange` and for no other relation.
impl Wire for Predicate {
    fn put(value: &Self, out: &mut impl BufMut) {
        AttrName::put(&value.attr, out);
        Relation::put(&value.relation, out);
        AttrValue::put(&value.value, out);
        Option::<AttrValue>::put(&value.value2, out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let (attr, relation, value) = (AttrName::get(r)?, Relation::get(r)?, AttrValue::get(r)?);
        let value2 = Option::<AttrValue>::get(r)?;
        if value2.is_some() != (relation == Relation::InRange) {
            return Err(DecodeError::BadBody);
        }
        Ok(Predicate {
            attr,
            relation,
            value,
            value2,
        })
    }
}

/// One byte, the relation's discriminant.
impl Wire for Relation {
    fn put(value: &Self, out: &mut impl BufMut) {
        u8::put(&(*value as u8), out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        use Relation::{Eq, Ge, Gt, InRange, Le, Lt, Ne};
        let code = u8::get(r)?;
        let all = [Eq, Ne, Lt, Le, Gt, Ge, InRange];
        all.into_iter()
            .find(|&relation| relation as u8 == code)
            .ok_or(DecodeError::BadTag(code))
    }
}

/// An attribute name: a `u8` length, then UTF-8; an empty name is
/// `BadBody`, as no predicate has one.
enum AttrName {}

impl Wire<String> for AttrName {
    fn put(value: &String, out: &mut impl BufMut) {
        u8::put(&(value.len() as u8), out);
        out.put_slice(value.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<String, DecodeError> {
        let len = u8::get(r)?;
        if len == 0 {
            return Err(DecodeError::BadBody);
        }
        std::str::from_utf8(r.take(len.into())?)
            .map(str::to_owned)
            .map_err(|_| DecodeError::BadString)
    }
}

/// An attribute value as a descriptor holds it, a tag byte and the value,
/// read by the descriptor's reader: anything malformed is `BadBody`.
impl Wire for AttrValue {
    fn put(value: &Self, out: &mut impl BufMut) {
        value.encode(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let value = AttrRef::read(&mut r.rest).ok_or(DecodeError::BadBody)?;
        Ok(value.to_owned())
    }
}

/// A presence byte, 0 or 1, then for 1 the value.
impl<T, F: Wire<T>> Wire<Option<T>> for Option<F> {
    fn put(value: &Option<T>, out: &mut impl BufMut) {
        u8::put(&value.is_some().into(), out);
        if let Some(v) = value {
            F::put(v, out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Option<T>, DecodeError> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => F::get(r).map(Some),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

/// A `u32` count, then the elements. Each takes a byte or more, so a count
/// above the bytes left is a truncation, and no count reserves more memory
/// than the bytes left take.
impl<T: Wire> Wire for Vec<T> {
    fn put(value: &Self, out: &mut impl BufMut) {
        u32::put(&(value.len() as u32), out);
        for v in value {
            T::put(v, out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = u32::get(r)? as usize;
        if n > r.rest.len() {
            return Err(DecodeError::Truncated);
        }
        let mut all = Vec::with_capacity(n.min(r.rest.len() / size_of::<T>().max(1)));
        for _ in 0..n {
            all.push(T::get(r)?);
        }
        Ok(all)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put((a, b): &Self, out: &mut impl BufMut) {
        A::put(a, out);
        B::put(b, out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// A `u32` length, then the bytes, copied out: a response batches many
/// small items, and one kept as a view would pin the whole batch.
impl Wire for Bytes {
    fn put(value: &Self, out: &mut impl BufMut) {
        u32::put(&(value.len() as u32), out);
        out.put_slice(value);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.prefixed().map(Bytes::from)
    }
}

/// A payload as [`Bytes`] puts it, read back as a view of the message: a
/// chunk is > 99.9 % of its message, so the view pins next to nothing.
enum Shared {}

impl Wire<Bytes> for Shared {
    fn put(value: &Bytes, out: &mut impl BufMut) {
        Bytes::put(value, out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Bytes, DecodeError> {
        let len = r.prefixed()?.len();
        let end = r.whole.len() - r.rest.len();
        Ok(r.whole.slice(end - len..end))
    }
}

/// A `u32` length, then the bytes: a Bloom filter.
enum Blob {}

impl Wire<Vec<u8>> for Blob {
    fn put(value: &Vec<u8>, out: &mut impl BufMut) {
        u32::put(&(value.len() as u32), out);
        out.put_slice(value);
    }
    fn get(r: &mut Reader<'_>) -> Result<Vec<u8>, DecodeError> {
        r.prefixed().map(<[u8]>::to_vec)
    }
}

/// Declares the kinds: each row is a variant with its docs, wire tag,
/// [`Phase`] and fields in wire order (`as` names a marker form). A kind
/// travels as its tag, then its fields. Generates the enums, their
/// [`Wire`] impls, the tag → phase map and the test-only `edges`.
macro_rules! wire_kinds {
    ($(
        $(#[$doc:meta])*
        pub enum $kind:ident {$(
            $(#[$vdoc:meta])*
            $variant:ident = $tag:literal @ $phase:ident $({$(
                $(#[$fdoc:meta])* $field:ident: $ty:ty $(as $form:ty)?
            ),+ $(,)?})?
        ),+ $(,)?}
    )+) => {$(
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum $kind {$(
            $(#[$vdoc])*
            $variant $({$( $(#[$fdoc])* $field: $ty ),+})?,
        )+}

        impl $kind {
            /// The phase of the kind with wire tag `tag`, if any.
            fn phase_of_tag(tag: u8) -> Option<Phase> {
                match tag {
                    $( $tag => Some(Phase::$phase), )+
                    _ => None,
                }
            }
            /// The protocol phase this kind's overhead is charged to.
            pub(crate) fn phase(&self) -> Phase {
                match self {
                    $( Self::$variant { .. } => Phase::$phase, )+
                }
            }
        }

        #[cfg(test)]
        tests::kind_edges! { $kind {$( $variant $({$( $field: $ty $(as $form)? ),+})? ),+} }

        impl Wire for $kind {
            fn put(value: &Self, out: &mut impl BufMut) {
                match value {$(
                    Self::$variant $({ $($field),+ })? => {
                        out.put_u8($tag);
                        $($( <form!($ty $(, $form)?) as Wire<$ty>>::put($field, out); )+)?
                    }
                )+}
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(match u8::get(r)? {
                    $( $tag => Self::$variant $({$(
                        $field: <form!($ty $(, $form)?) as Wire<$ty>>::get(r)?
                    ),+})?, )+
                    t => return Err(DecodeError::BadTag(t)),
                })
            }
        }
    )+};
}

wire_kinds! {
    /// What a query asks for.
    pub enum QueryKind {
        /// All (filter-matching) metadata entries — PDD (§III).
        Metadata = 0 @ Pdd,
        /// Small data items matching the filter, payloads included (§IV: "the
        /// latter follows almost the same process as metadata discovery").
        SmallData = 1 @ Pdd,
        /// Chunk Distribution Information for one item — PDR phase 1 (§IV-A).
        /// Carries the item's full descriptor, as the paper specifies
        /// ("'descriptor' whose value is the requested data item's metadata").
        Cdi = 2 @ Pdr {
            /// Descriptor of the large item whose chunk distribution is
            /// requested; its `name` attribute identifies the item.
            descriptor: DataDescriptor,
        },
        /// Specific chunks of one item — PDR phase 2 (§IV-B).
        Chunks = 3 @ Pdr {
            /// The large item.
            item: ItemName,
            /// The chunks requested from this neighbor.
            chunks: Vec<ChunkId>,
        },
        /// All not-yet-received chunks of one item — the MDR baseline
        /// (§VI-B-3); "not yet received" is carried by the query's Bloom filter.
        MdrChunks = 4 @ Mdr {
            /// The large item.
            item: ItemName,
            /// Total number of chunks (so providers know the id space).
            total_chunks: u32 as ChunkCount,
        },
    }

    /// The payload of a response.
    pub enum ResponseKind {
        /// Metadata entries (PDD).
        Metadata = 0 @ Pdd {
            /// The entries, pruned en-route by mixedcast rewriting.
            entries: Vec<DataDescriptor>,
        },
        /// Small data items with payloads.
        SmallData = 1 @ Pdd {
            /// (descriptor, payload) pairs.
            items: Vec<(DataDescriptor, Bytes)>,
        },
        /// CDI: which chunks are reachable at what distance (PDR phase 1).
        Cdi = 2 @ Pdr {
            /// The large item.
            item: ItemName,
            /// `(chunk, hop count)` pairs as seen from the transmitting node.
            pairs: Vec<(ChunkId, u32)>,
        },
        /// One chunk of a large item (PDR phase 2 / MDR). Self-describing so
        /// any overhearing node can cache it (content-centric caching).
        Chunk = 3 @ Pdr {
            /// Descriptor of the item the chunk belongs to.
            descriptor: DataDescriptor,
            /// Which chunk this is.
            chunk: ChunkId,
            /// The chunk bytes.
            data: Bytes as Shared,
        },
    }
}

/// Declares each message's tag, the head a [`MessageHeader`] holds, then
/// the kind and what follows it. Generates [`MessageHeader`] and its
/// reader, which decoding and the peek share, and [`PdsMessage`]'s [`Wire`].
macro_rules! wire_messages {
    ($(
        $variant:ident($message:ident) = $tag:literal {
            $($head:ident: $hty:ty),+; $kind:ident: $kty:ident
            $(, $tail:ident: $tty:ty $(as $tform:ty)?)* $(,)?
        }
    ),+ $(,)?) => {
        /// An encoded message's fixed head, read without the body: enough to
        /// tell a redundant copy (Algorithms 1 and 2 discard those at the
        /// LQT / recent-response lookup) and to attribute it to a phase.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum MessageHeader {$(
            #[doc = concat!("The head fields of a [`", stringify!($message), "`], and its kind's phase.")]
            $variant { $($head: $hty,)+ phase: Phase },
        )+}

        impl MessageHeader {
            /// Reads the header of an encoded [`PdsMessage`]. `None` when
            /// `whole` is shorter than the fixed head or carries an unknown
            /// message or kind tag — all of which [`PdsMessage::decode`]
            /// rejects too. A header does not vouch for the body behind it.
            #[cfg(test)]
            pub(crate) fn peek(whole: &Bytes) -> Option<Self> {
                Peeked::new(whole).ok().map(|p| p.header)
            }
            /// Reads the head, and the phase of the kind tag it leaves.
            fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(match u8::get(r)? {
                    $($tag => Self::$variant {
                        $($head: <$hty>::get(r)?,)+
                        phase: {
                            let tag = *r.rest.first().ok_or(DecodeError::Truncated)?;
                            $kty::phase_of_tag(tag).ok_or(DecodeError::BadTag(tag))?
                        },
                    },)+
                    t => return Err(DecodeError::BadTag(t)),
                })
            }
            /// The protocol phase the message's overhead is attributed to.
            #[must_use]
            pub(crate) fn phase(&self) -> Phase {
                match *self {
                    $(Self::$variant { phase, .. })|+ => phase,
                }
            }
        }

        impl Wire for PdsMessage {
            fn put(value: &Self, out: &mut impl BufMut) {
                match value {$(
                    Self::$variant(m) => {
                        out.put_u8($tag);
                        $(<$hty>::put(&m.$head, out);)+
                        $kty::put(&m.$kind, out);
                        $(<form!($tty $(, $tform)?) as Wire<$tty>>::put(&m.$tail, out);)*
                    }
                )+}
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let header = MessageHeader::get(r)?;
                Self::get_body(header, r)
            }
        }

        impl PdsMessage {
            /// Reads the body that follows `header`'s head.
            fn get_body(header: MessageHeader, r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(match header {$(
                    MessageHeader::$variant { $($head,)+ .. } => Self::$variant($message {
                        $($head,)+
                        $kind: $kty::get(r)?,
                        $($tail: <form!($tty $(, $tform)?) as Wire<$tty>>::get(r)?,)*
                    }),
                )+})
            }
        }
    };
}

wire_messages! {
    Query(QueryMessage) = 0 {
        id: QueryId, sender: NodeId, expires_at: SimTime, round: u32, ttl_hops: u8;
        kind: QueryKind, filter: QueryFilter, bloom: Option<Vec<u8>> as Option<Blob>,
    },
    Response(ResponseMessage) = 1 { id: ResponseId, sender: NodeId; kind: ResponseKind },
}

impl PdsMessage {
    /// Serializes the message for transmission.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(Self::wire_len(self));
        Self::put(self, &mut out);
        Bytes::from(out)
    }

    /// The protocol phase the message's overhead is attributed to, derived
    /// from its wire kind. MDR chunk *responses* travel as ordinary `Chunk`
    /// responses and are classified where they originate (an MDR holder
    /// sends them slow-jittered and charged to MDR); relay hops re-derive
    /// the phase from the wire kind, so relayed MDR chunk data counts as
    /// PDR — a documented approximation (DESIGN.md §9).
    pub(crate) fn phase(&self) -> Phase {
        match self {
            Self::Query(q) => q.kind.phase(),
            Self::Response(r) => r.kind.phase(),
        }
    }

    /// Deserializes a received message.
    ///
    /// A [`ResponseKind::Chunk`]'s `data` is a [`Bytes::slice`] of `whole`,
    /// not a copy: it shares `whole`'s allocation and keeps all of it alive
    /// (the chunk plus the ≈ 100 bytes of header in front of it) for as long
    /// as the chunk is stored or relayed. Every other field is owned by the
    /// returned message and `whole` can be dropped without cost.
    ///
    /// Only the bytes an encoder writes are read, so a returned message
    /// [`encode`](Self::encode)s to exactly `whole`.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the buffer is truncated, malformed,
    /// in a form no encoder writes (such as a descriptor whose attributes
    /// are out of order), or longer than the message it holds.
    pub fn decode(whole: &Bytes) -> Result<Self, DecodeError> {
        Peeked::new(whole)?.decode()
    }
}

impl QueryMessage {
    /// The query's Bloom filter as a view of `wire`, the bytes the query
    /// was decoded from: the filter is a query's last field, so it is the
    /// tail of its wire bytes.
    pub(crate) fn bloom_in(&self, wire: &Bytes) -> Option<Bytes> {
        let len = self.bloom.as_ref()?.len();
        let view = wire.slice(wire.len().checked_sub(len)?..);
        debug_assert_eq!(self.bloom.as_deref(), Some(&view[..]), "the query's wire");
        Some(view)
    }
}

/// A received message whose fixed head is read: its header, and the
/// reader where the head ends, so that the body of a fresh copy is decoded
/// without reading the head again.
pub(crate) struct Peeked<'a> {
    pub(crate) header: MessageHeader,
    body: Reader<'a>,
}

impl<'a> Peeked<'a> {
    /// Reads the head of `whole`, failing as [`PdsMessage::decode`] does
    /// on a truncated head or an unknown message or kind tag.
    pub(crate) fn new(whole: &'a Bytes) -> Result<Self, DecodeError> {
        let mut body = Reader { whole, rest: whole };
        let header = MessageHeader::get(&mut body)?;
        Ok(Self { header, body })
    }

    /// Decodes the body: what [`PdsMessage::decode`] returns for the whole.
    pub(crate) fn decode(mut self) -> Result<PdsMessage, DecodeError> {
        let message = PdsMessage::get_body(self.header, &mut self.body)?;
        match self.body.rest {
            [] => Ok(message),
            _ => Err(DecodeError::TrailingBytes),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One message of every query and response kind.
    pub(crate) fn one_of_each_kind() -> Vec<PdsMessage> {
        let entry = |n: i64| {
            DataDescriptor::builder()
                .attr("type", "no2")
                .attr("seq", n)
                .build()
        };
        let video = || {
            DataDescriptor::builder()
                .attr("type", "video")
                .attr("name", "vid")
                .attr("total_chunks", 8i64)
                .build()
        };
        let query = |kind| {
            PdsMessage::Query(QueryMessage {
                id: QueryId(0x0123_4567_89ab_cdef),
                kind,
                sender: NodeId(7),
                expires_at: SimTime::from_secs_f64(12.5),
                filter: QueryFilter::new(vec![Predicate::new("type", Relation::Eq, "no2")]),
                bloom: Some(vec![1, 2, 3, 4]),
                round: 2,
                ttl_hops: 5,
            })
        };
        let response = |kind| {
            PdsMessage::Response(ResponseMessage {
                id: ResponseId(0xfedc_ba98_7654_3210),
                sender: NodeId(3),
                kind,
            })
        };
        vec![
            query(QueryKind::Metadata),
            query(QueryKind::SmallData),
            query(QueryKind::Cdi {
                descriptor: video(),
            }),
            query(QueryKind::Chunks {
                item: ItemName::new("vid"),
                chunks: vec![ChunkId(0), ChunkId(5)],
            }),
            query(QueryKind::MdrChunks {
                item: ItemName::new("vid"),
                total_chunks: 8,
            }),
            response(ResponseKind::Metadata {
                entries: vec![entry(1), entry(2)],
            }),
            response(ResponseKind::SmallData {
                items: vec![(entry(1), Bytes::from_static(b"12ppb"))],
            }),
            response(ResponseKind::Cdi {
                item: ItemName::new("vid"),
                pairs: vec![(ChunkId(0), 0), (ChunkId(1), 3)],
            }),
            response(ResponseKind::Chunk {
                descriptor: video(),
                chunk: ChunkId(4),
                data: Bytes::from(vec![9u8; 64]),
            }),
        ]
    }

    /// The bound edges of a form: values at its bound and one past it. A
    /// form without a bound has none.
    pub(crate) trait Edges<T = Self> {
        fn edges(_value: &T) -> Vec<(T, T)> {
            Vec::new()
        }
    }

    impl Edges for u32 {}
    impl Edges for ItemName {}
    impl Edges for DataDescriptor {}
    impl Edges for Bytes {}
    impl Edges<Bytes> for Shared {}

    impl Edges for ChunkId {
        fn edges(_: &Self) -> Vec<(Self, Self)> {
            vec![(ChunkId(MAX_ITEM_CHUNKS - 1), ChunkId(MAX_ITEM_CHUNKS))]
        }
    }

    impl Edges<u32> for ChunkCount {
        fn edges(_: &u32) -> Vec<(u32, u32)> {
            vec![(MAX_ITEM_CHUNKS, MAX_ITEM_CHUNKS + 1)]
        }
    }

    /// The edges of the first element, the rest kept.
    impl<T: Edges + Clone> Edges for Vec<T> {
        fn edges(value: &Self) -> Vec<(Self, Self)> {
            let Some((first, rest)) = value.split_first() else {
                return Vec::new();
            };
            let with = |v: T| [vec![v], rest.to_vec()].concat();
            let edges = T::edges(first).into_iter();
            edges.map(|(at, past)| (with(at), with(past))).collect()
        }
    }

    impl<A: Edges + Clone, B: Edges + Clone> Edges for (A, B) {
        fn edges((a, b): &Self) -> Vec<(Self, Self)> {
            let left = A::edges(a).into_iter();
            let left = left.map(|(at, past)| ((at, b.clone()), (past, b.clone())));
            let right = B::edges(b).into_iter();
            let right = right.map(|(at, past)| ((a.clone(), at), (a.clone(), past)));
            left.chain(right).collect()
        }
    }

    /// Generates a kind enum's `edges` from its `wire_kinds!` rows: for
    /// each bounded field, the kind with the field at its bound and one
    /// past it.
    macro_rules! kind_edges {
        ($kind:ident {$(
            $variant:ident $({$( $field:ident: $ty:ty $(as $form:ty)? ),+})?
        ),+}) => {
            impl $kind {
                pub(crate) fn edges(&self) -> Vec<(Self, Self)> {
                    use $crate::message::tests::Edges;
                    let mut out = Vec::new();
                    match self {$(
                        Self::$variant $({ $($field),+ })? => {$($(
                            for (at, past) in <form!($ty $(, $form)?) as Edges<$ty>>::edges($field) {
                                let with = |v: $ty| {
                                    let mut kind = self.clone();
                                    if let Self::$variant { $field: slot, .. } = &mut kind {
                                        *slot = v;
                                    }
                                    kind
                                };
                                out.push((with(at), with(past)));
                            }
                        )+)?}
                    )+}
                    out
                }
            }
        };
    }
    pub(crate) use kind_edges;

    /// For each bounded field of `m`'s kind: `m` with the field at its
    /// bound, and one past it. Honest encoders never go past a bound, so
    /// each second message is what only a hostile sender puts on the air.
    pub(crate) fn bound_edges(m: &PdsMessage) -> Vec<(PdsMessage, PdsMessage)> {
        match m {
            PdsMessage::Query(q) => q
                .kind
                .edges()
                .into_iter()
                .map(|(at, past)| {
                    let with = |kind| PdsMessage::Query(QueryMessage { kind, ..q.clone() });
                    (with(at), with(past))
                })
                .collect(),
            PdsMessage::Response(r) => r
                .kind
                .edges()
                .into_iter()
                .map(|(at, past)| {
                    let with = |kind| PdsMessage::Response(ResponseMessage { kind, ..r.clone() });
                    (with(at), with(past))
                })
                .collect(),
        }
    }

    #[test]
    fn every_bounded_field_decodes_at_its_bound_and_not_past_it() {
        let mut bounded = Vec::new();
        for m in one_of_each_kind() {
            for (at, past) in bound_edges(&m) {
                assert_eq!(PdsMessage::decode(&at.encode()).as_ref(), Ok(&at));
                assert_eq!(
                    PdsMessage::decode(&past.encode()),
                    Err(DecodeError::BadBody),
                    "{past:?}"
                );
                bounded.push(past);
            }
        }
        // `Chunks.chunks`, `MdrChunks.total_chunks`, `Cdi.pairs` and
        // `Chunk.chunk`.
        assert_eq!(bounded.len(), 4, "{bounded:#?}");
    }

    #[test]
    fn a_bloom_presence_byte_other_than_0_or_1_is_a_bad_tag() {
        let m = one_of_each_kind().swap_remove(0);
        let mut wire = m.encode().to_vec();
        // The presence byte, then the 4-byte length and the 4 filter
        // bytes, end the query.
        let at = wire.len() - 9;
        assert_eq!(wire[at], 1);
        wire[at] = 2;
        assert_eq!(
            PdsMessage::decode(&Bytes::from(wire)),
            Err(DecodeError::BadTag(2))
        );
    }

    /// [`one_of_each_kind`], then each of its queries again without a Bloom
    /// filter.
    #[test]
    fn a_query_s_bloom_is_the_tail_of_its_wire_bytes() {
        let mut blooms = 0;
        for m in every_wire_shape() {
            let PdsMessage::Query(q) = &m else { continue };
            let wire = m.encode();
            let view = q.bloom_in(&wire);
            assert_eq!(view.as_deref(), q.bloom.as_deref(), "{m:?}");
            if let Some(view) = view {
                assert!(wire.as_ptr_range().contains(&view.as_ptr()), "a view");
                blooms += 1;
            }
        }
        assert!(blooms > 0, "some shape carries a filter");
    }

    fn every_wire_shape() -> Vec<PdsMessage> {
        let all = one_of_each_kind();
        let bloomless = all.iter().filter_map(|m| match m {
            PdsMessage::Query(q) => Some(PdsMessage::Query(QueryMessage {
                bloom: None,
                ..q.clone()
            })),
            PdsMessage::Response(_) => None,
        });
        let bloomless: Vec<PdsMessage> = bloomless.collect();
        all.into_iter().chain(bloomless).collect()
    }

    fn to_hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn from_hex(hex: &str) -> Bytes {
        let digit = |at: usize| u8::from_str_radix(&hex[at..at + 2], 16).expect("hex");
        Bytes::from((0..hex.len()).step_by(2).map(digit).collect::<Vec<u8>>())
    }

    /// The encoding of every [`every_wire_shape`] message, in order. Any
    /// change here is a wire-format change: peers and recorded traces
    /// would no longer agree.
    const PINNED: [&str; 14] = [
        "00efcdab89674523010700000020bcbe0000000000020000000500010474797065000003006e6f3200010400000001020304",
        "00efcdab89674523010700000020bcbe0000000000020000000501010474797065000003006e6f3200010400000001020304",
        "00efcdab89674523010700000020bcbe000000000002000000050203046e616d650003007669640c746f74616c5f6368756e6b730108000000000000000474797065000500766964656f010474797065000003006e6f3200010400000001020304",
        "00efcdab89674523010700000020bcbe00000000000200000005030300766964020000000000000005000000010474797065000003006e6f3200010400000001020304",
        "00efcdab89674523010700000020bcbe0000000000020000000504030076696408000000010474797065000003006e6f3200010400000001020304",
        "011032547698badcfe030000000002000000020373657101010000000000000004747970650003006e6f32020373657101020000000000000004747970650003006e6f32",
        "011032547698badcfe030000000101000000020373657101010000000000000004747970650003006e6f32050000003132707062",
        "011032547698badcfe030000000203007669640200000000000000000000000100000003000000",
        "011032547698badcfe030000000303046e616d650003007669640c746f74616c5f6368756e6b730108000000000000000474797065000500766964656f040000004000000009090909090909090909090909090909090909090909090909090909090909090909090909090909090909090909090909090909090909090909090909090909",
        "00efcdab89674523010700000020bcbe0000000000020000000500010474797065000003006e6f320000",
        "00efcdab89674523010700000020bcbe0000000000020000000501010474797065000003006e6f320000",
        "00efcdab89674523010700000020bcbe000000000002000000050203046e616d650003007669640c746f74616c5f6368756e6b730108000000000000000474797065000500766964656f010474797065000003006e6f320000",
        "00efcdab89674523010700000020bcbe00000000000200000005030300766964020000000000000005000000010474797065000003006e6f320000",
        "00efcdab89674523010700000020bcbe0000000000020000000504030076696408000000010474797065000003006e6f320000",
    ];

    #[test]
    fn wire_bytes_are_pinned() {
        let shapes = every_wire_shape();
        assert_eq!(shapes.len(), PINNED.len());
        for (m, hex) in shapes.iter().zip(PINNED) {
            assert_eq!(to_hex(&m.encode()), hex, "{m:?}");
            assert_eq!(PdsMessage::wire_len(m), hex.len() / 2);
            assert_eq!(PdsMessage::decode(&from_hex(hex)).as_ref(), Ok(m));
        }
    }

    fn roundtrip(m: &PdsMessage) {
        assert_eq!(PdsMessage::decode(&m.encode()).as_ref(), Ok(m));
    }

    /// `filter`'s wire form.
    pub(crate) fn filter_bytes(filter: &QueryFilter) -> Vec<u8> {
        let mut out = Vec::new();
        QueryFilter::put(filter, &mut out);
        assert_eq!(out.len(), QueryFilter::wire_len(filter));
        out
    }

    /// The filter that `wire` holds, and nothing after it.
    pub(crate) fn filter_from(wire: &[u8]) -> Result<QueryFilter, DecodeError> {
        let whole = Bytes::from(wire.to_vec());
        let mut r = Reader {
            whole: &whole,
            rest: &whole,
        };
        let filter = QueryFilter::get(&mut r)?;
        match r.rest {
            [] => Ok(filter),
            _ => Err(DecodeError::TrailingBytes),
        }
    }

    fn query(kind: QueryKind) -> QueryMessage {
        QueryMessage {
            id: QueryId(0xdead_beef),
            kind,
            sender: NodeId(7),
            expires_at: SimTime::from_secs_f64(12.5),
            filter: QueryFilter::new(vec![Predicate::new("type", Relation::Eq, "no2")]),
            bloom: Some(vec![1, 2, 3, 4]),
            round: 2,
            ttl_hops: 5,
        }
    }

    #[test]
    fn query_kinds_round_trip() {
        for kind in [
            QueryKind::Metadata,
            QueryKind::SmallData,
            QueryKind::Cdi {
                descriptor: DataDescriptor::builder()
                    .attr("name", "vid")
                    .attr("total_chunks", 80i64)
                    .build(),
            },
            QueryKind::Chunks {
                item: ItemName::new("vid"),
                chunks: vec![ChunkId(0), ChunkId(5), ChunkId(9)],
            },
            QueryKind::MdrChunks {
                item: ItemName::new("vid"),
                total_chunks: 80,
            },
        ] {
            roundtrip(&PdsMessage::Query(query(kind)));
        }
    }

    #[test]
    fn query_without_bloom_round_trips() {
        let mut q = query(QueryKind::Metadata);
        q.bloom = None;
        roundtrip(&PdsMessage::Query(q));
    }

    #[test]
    fn response_kinds_round_trip() {
        let d1 = DataDescriptor::builder().attr("type", "no2").build();
        let d2 = DataDescriptor::builder()
            .attr("type", "co2")
            .attr("x", 1.5)
            .build();
        for kind in [
            ResponseKind::Metadata {
                entries: vec![d1.clone(), d2.clone()],
            },
            ResponseKind::SmallData {
                items: vec![(d1.clone(), Bytes::from_static(b"payload"))],
            },
            ResponseKind::Cdi {
                item: ItemName::new("vid"),
                pairs: vec![(ChunkId(0), 0), (ChunkId(1), 3)],
            },
            ResponseKind::Chunk {
                descriptor: DataDescriptor::builder().attr("name", "vid").build(),
                chunk: ChunkId(4),
                data: Bytes::from(vec![9u8; 1024]),
            },
        ] {
            roundtrip(&PdsMessage::Response(ResponseMessage {
                id: ResponseId(42),
                sender: NodeId(3),
                kind,
            }));
        }
    }

    #[test]
    fn empty_metadata_response_round_trips() {
        roundtrip(&PdsMessage::Response(ResponseMessage {
            id: ResponseId(1),
            sender: NodeId(0),
            kind: ResponseKind::Metadata { entries: vec![] },
        }));
    }

    #[test]
    fn decode_rejects_truncations() {
        let m = PdsMessage::Query(query(QueryKind::Chunks {
            item: ItemName::new("vid"),
            chunks: vec![ChunkId(1), ChunkId(2)],
        }));
        let bytes = m.encode();
        for cut in 0..bytes.len() {
            assert!(
                PdsMessage::decode(&bytes.slice(..cut)).is_err(),
                "cut {cut} decoded"
            );
        }
    }

    #[test]
    fn decode_rejects_bad_tags() {
        assert_eq!(
            PdsMessage::decode(&Bytes::from_static(&[7])),
            Err(DecodeError::BadTag(7))
        );
        assert_eq!(
            PdsMessage::decode(&Bytes::new()),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn decode_rejects_trailing_bytes_after_every_kind() {
        let d = DataDescriptor::builder().attr("type", "no2").build();
        let queries = [
            QueryKind::Metadata,
            QueryKind::SmallData,
            QueryKind::Cdi {
                descriptor: DataDescriptor::builder().attr("name", "vid").build(),
            },
            QueryKind::Chunks {
                item: ItemName::new("vid"),
                chunks: vec![ChunkId(1)],
            },
            QueryKind::MdrChunks {
                item: ItemName::new("vid"),
                total_chunks: 4,
            },
        ]
        .map(|kind| PdsMessage::Query(query(kind)));
        let responses = [
            ResponseKind::Metadata {
                entries: vec![d.clone()],
            },
            ResponseKind::SmallData {
                items: vec![(d.clone(), Bytes::from_static(b"v"))],
            },
            ResponseKind::Cdi {
                item: ItemName::new("vid"),
                pairs: vec![(ChunkId(0), 1)],
            },
            ResponseKind::Chunk {
                descriptor: DataDescriptor::builder().attr("name", "vid").build(),
                chunk: ChunkId(0),
                data: Bytes::from_static(b"x"),
            },
        ]
        .map(|kind| {
            PdsMessage::Response(ResponseMessage {
                id: ResponseId(9),
                sender: NodeId(1),
                kind,
            })
        });
        for m in queries.iter().chain(&responses) {
            // The honest encoding round-trips; one extra byte does not.
            roundtrip(m);
            let mut padded = m.encode().to_vec();
            padded.push(0);
            assert_eq!(
                PdsMessage::decode(&Bytes::from(padded)),
                Err(DecodeError::TrailingBytes),
                "{m:?}"
            );
        }
    }

    #[test]
    fn chunk_payload_is_zero_copyish() {
        let data = Bytes::from(vec![3u8; 256 * 1024]);
        let m = PdsMessage::Response(ResponseMessage {
            id: ResponseId(1),
            sender: NodeId(0),
            kind: ResponseKind::Chunk {
                descriptor: DataDescriptor::builder().attr("name", "vid").build(),
                chunk: ChunkId(0),
                data: data.clone(),
            },
        });
        let wire = m.encode();
        let PdsMessage::Response(r) = PdsMessage::decode(&wire).expect("decodes") else {
            panic!()
        };
        let ResponseKind::Chunk { data: got, .. } = r.kind else {
            panic!()
        };
        assert_eq!(got, data);
        let (inside, outer) = (got.as_ptr_range(), wire.as_ptr_range());
        assert!(
            outer.start < inside.start && inside.end == outer.end,
            "chunk data {inside:?} must be the tail of the wire buffer {outer:?}"
        );
        // What a stored chunk pins besides itself.
        assert!(wire.len() - got.len() < 128);
        // The view outlives the handle the message was decoded from.
        drop(wire);
        assert_eq!(got, data);
    }

    #[test]
    fn small_data_payloads_are_copied_out_of_the_received_message() {
        let m = PdsMessage::Response(ResponseMessage {
            id: ResponseId(1),
            sender: NodeId(0),
            kind: ResponseKind::SmallData {
                items: vec![(
                    DataDescriptor::builder().attr("type", "no2").build(),
                    Bytes::from_static(b"12ppb"),
                )],
            },
        });
        let wire = m.encode();
        let PdsMessage::Response(r) = PdsMessage::decode(&wire).expect("decodes") else {
            panic!()
        };
        let ResponseKind::SmallData { items } = r.kind else {
            panic!()
        };
        assert_eq!(&items[0].1[..], b"12ppb");
        assert!(!wire.as_ptr_range().contains(&items[0].1.as_ptr()));
    }
}
