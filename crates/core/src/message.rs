//! PDS wire messages and their binary codec.
//!
//! A message is either a [`QueryMessage`] or a [`ResponseMessage`]. Intended
//! next-hop receiver lists live at the transport layer
//! ([`MessageMeta::intended`](crate::MessageMeta::intended)), as in the prototype where they are
//! part of the UDP broadcast header; everything else the paper's message
//! formats describe (§III-A) is here.

use crate::config::MAX_ITEM_CHUNKS;
use crate::descriptor::DataDescriptor;
use crate::ids::{ChunkId, ItemName, QueryId, ResponseId};
use crate::predicate::QueryFilter;
use crate::{NodeId, SimTime};
use bytes::{Buf, BufMut, Bytes};
use pds_obs::Phase;
use std::fmt;

/// What a query asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryKind {
    /// All (filter-matching) metadata entries — PDD (§III).
    Metadata,
    /// Small data items matching the filter, payloads included (§IV: "the
    /// latter follows almost the same process as metadata discovery").
    SmallData,
    /// Chunk Distribution Information for one item — PDR phase 1 (§IV-A).
    /// Carries the item's full descriptor, as the paper specifies
    /// ("'descriptor' whose value is the requested data item's metadata").
    Cdi {
        /// Descriptor of the large item whose chunk distribution is
        /// requested; its `name` attribute identifies the item.
        descriptor: DataDescriptor,
    },
    /// Specific chunks of one item — PDR phase 2 (§IV-B).
    Chunks {
        /// The large item.
        item: ItemName,
        /// The chunks requested from this neighbor.
        chunks: Vec<ChunkId>,
    },
    /// All not-yet-received chunks of one item — the MDR baseline
    /// (§VI-B-3); "not yet received" is carried by the query's Bloom filter.
    MdrChunks {
        /// The large item.
        item: ItemName,
        /// Total number of chunks (so providers know the id space).
        total_chunks: u32,
    },
}

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

/// The payload of a response.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseKind {
    /// Metadata entries (PDD).
    Metadata {
        /// The entries, pruned en-route by mixedcast rewriting.
        entries: Vec<DataDescriptor>,
    },
    /// Small data items with payloads.
    SmallData {
        /// (descriptor, payload) pairs.
        items: Vec<(DataDescriptor, Bytes)>,
    },
    /// CDI: which chunks are reachable at what distance (PDR phase 1).
    Cdi {
        /// The large item.
        item: ItemName,
        /// `(chunk, hop count)` pairs as seen from the transmitting node.
        pairs: Vec<(ChunkId, u32)>,
    },
    /// One chunk of a large item (PDR phase 2 / MDR). Self-describing so
    /// any overhearing node can cache it (content-centric caching).
    Chunk {
        /// Descriptor of the item the chunk belongs to.
        descriptor: DataDescriptor,
        /// Which chunk this is.
        chunk: ChunkId,
        /// The chunk bytes.
        data: Bytes,
    },
}

/// A PDS response (§III-A).
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseMessage {
    /// Random, globally unique response id (redundant-copy detection).
    pub id: ResponseId,
    /// The node that transmitted this copy.
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
    /// An unknown enum tag was encountered.
    BadTag(u8),
    /// An embedded string was not valid UTF-8.
    BadString,
    /// An embedded descriptor or filter failed to decode, or a chunk
    /// query or CDI response named a chunk id of `MAX_ITEM_CHUNKS` or more.
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
            Self::BadTag(t) => write!(f, "unknown message tag {t}"),
            Self::BadString => write!(f, "invalid UTF-8 in message"),
            Self::BadBody => write!(f, "malformed descriptor, filter or chunk id"),
            Self::TrailingBytes => write!(f, "trailing bytes after message"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn put_item(out: &mut Vec<u8>, item: &ItemName) {
    let b = item.as_str().as_bytes();
    out.put_u16_le(b.len() as u16);
    out.put_slice(b);
}

/// Splits `len` bytes off the front of `buf`.
fn take<'a>(buf: &mut &'a [u8], len: usize) -> Result<&'a [u8], DecodeError> {
    let (head, rest) = buf.split_at_checked(len).ok_or(DecodeError::Truncated)?;
    *buf = rest;
    Ok(head)
}

fn get_item(buf: &mut &[u8]) -> Result<ItemName, DecodeError> {
    if buf.remaining() < 2 {
        return Err(DecodeError::Truncated);
    }
    let len = buf.get_u16_le() as usize;
    std::str::from_utf8(take(buf, len)?)
        .map(ItemName::new)
        .map_err(|_| DecodeError::BadString)
}

fn put_bytes(out: &mut Vec<u8>, data: &[u8]) {
    out.put_u32_le(data.len() as u32);
    out.put_slice(data);
}

fn get_bytes<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated);
    }
    let len = buf.get_u32_le() as usize;
    take(buf, len)
}

/// Like [`get_bytes`], but the field comes back as a view of `whole`, the
/// message `buf` is the unread tail of, instead of a copy.
fn get_shared(whole: &Bytes, buf: &mut &[u8]) -> Result<Bytes, DecodeError> {
    let len = get_bytes(buf)?.len();
    let end = whole.len() - buf.len();
    Ok(whole.slice(end - len..end))
}

/// Wire size of a length-prefixed item name.
fn item_len(item: &ItemName) -> usize {
    2 + item.as_str().len()
}

/// Bytes before a query's kind body: tag, id, sender, expiry, round, hop
/// budget, kind tag.
const QUERY_HEAD: usize = 1 + 8 + 4 + 8 + 4 + 1 + 1;
/// Bytes before a response's kind body: tag, id, sender, kind tag.
const RESPONSE_HEAD: usize = 1 + 8 + 4 + 1;

/// What the fixed-offset head of an encoded message says, read without
/// decoding the body: enough to tell a redundant copy (Algorithms 1 and 2
/// discard those at the LQT / recent-response lookup) and to attribute the
/// message to a protocol phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MessageHeader {
    /// A query.
    Query {
        /// [`QueryMessage::id`].
        id: QueryId,
        /// [`QueryMessage::expires_at`].
        expires_at: SimTime,
        /// The protocol phase of the query's kind.
        phase: Phase,
    },
    /// A response.
    Response {
        /// [`ResponseMessage::id`].
        id: ResponseId,
        /// The protocol phase of the response's kind.
        phase: Phase,
    },
}

impl MessageHeader {
    /// Reads the header of an encoded [`PdsMessage`]. `None` when `wire` is
    /// shorter than the fixed head or carries an unknown message or kind
    /// tag — all of which [`PdsMessage::decode`] rejects too. A header does
    /// not vouch for the body behind it.
    #[must_use]
    pub(crate) fn peek(wire: &[u8]) -> Option<Self> {
        let u64_at = |at: usize| Some(u64::from_le_bytes(wire.get(at..at + 8)?.try_into().ok()?));
        match *wire.first()? {
            0 => Some(Self::Query {
                id: QueryId(u64_at(1)?),
                expires_at: SimTime::from_micros(u64_at(13)?),
                phase: match *wire.get(QUERY_HEAD - 1)? {
                    0 | 1 => Phase::Pdd,
                    2 | 3 => Phase::Pdr,
                    4 => Phase::Mdr,
                    _ => return None,
                },
            }),
            1 => Some(Self::Response {
                id: ResponseId(u64_at(1)?),
                phase: match *wire.get(RESPONSE_HEAD - 1)? {
                    0 | 1 => Phase::Pdd,
                    2 | 3 => Phase::Pdr,
                    _ => return None,
                },
            }),
            _ => None,
        }
    }

    /// The protocol phase the message's overhead is attributed to.
    #[must_use]
    pub(crate) fn phase(&self) -> Phase {
        match *self {
            Self::Query { phase, .. } | Self::Response { phase, .. } => phase,
        }
    }
}

impl PdsMessage {
    /// Serializes the message for transmission.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(self.encoded_len());
        match self {
            PdsMessage::Query(q) => {
                out.put_u8(0);
                out.put_u64_le(q.id.0);
                out.put_u32_le(q.sender.0);
                out.put_u64_le(q.expires_at.as_micros());
                out.put_u32_le(q.round);
                out.put_u8(q.ttl_hops);
                match &q.kind {
                    QueryKind::Metadata => out.put_u8(0),
                    QueryKind::SmallData => out.put_u8(1),
                    QueryKind::Cdi { descriptor } => {
                        out.put_u8(2);
                        out.extend_from_slice(descriptor.encode());
                    }
                    QueryKind::Chunks { item, chunks } => {
                        out.put_u8(3);
                        put_item(&mut out, item);
                        out.put_u32_le(chunks.len() as u32);
                        for c in chunks {
                            out.put_u32_le(c.0);
                        }
                    }
                    QueryKind::MdrChunks { item, total_chunks } => {
                        out.put_u8(4);
                        put_item(&mut out, item);
                        out.put_u32_le(*total_chunks);
                    }
                }
                q.filter.encode(&mut out);
                match &q.bloom {
                    Some(b) => {
                        out.put_u8(1);
                        put_bytes(&mut out, b);
                    }
                    None => out.put_u8(0),
                }
            }
            PdsMessage::Response(r) => {
                out.put_u8(1);
                out.put_u64_le(r.id.0);
                out.put_u32_le(r.sender.0);
                match &r.kind {
                    ResponseKind::Metadata { entries } => {
                        out.put_u8(0);
                        out.put_u32_le(entries.len() as u32);
                        for e in entries {
                            out.extend_from_slice(e.encode());
                        }
                    }
                    ResponseKind::SmallData { items } => {
                        out.put_u8(1);
                        out.put_u32_le(items.len() as u32);
                        for (d, payload) in items {
                            out.extend_from_slice(d.encode());
                            put_bytes(&mut out, payload);
                        }
                    }
                    ResponseKind::Cdi { item, pairs } => {
                        out.put_u8(2);
                        put_item(&mut out, item);
                        out.put_u32_le(pairs.len() as u32);
                        for (c, h) in pairs {
                            out.put_u32_le(c.0);
                            out.put_u32_le(*h);
                        }
                    }
                    ResponseKind::Chunk {
                        descriptor,
                        chunk,
                        data,
                    } => {
                        out.put_u8(3);
                        out.extend_from_slice(descriptor.encode());
                        out.put_u32_le(chunk.0);
                        put_bytes(&mut out, data);
                    }
                }
            }
        }
        Bytes::from(out)
    }

    /// Wire size of the encoded form.
    #[must_use]
    pub(crate) fn encoded_len(&self) -> usize {
        match self {
            PdsMessage::Query(q) => {
                let kind = match &q.kind {
                    QueryKind::Metadata | QueryKind::SmallData => 0,
                    QueryKind::Cdi { descriptor } => descriptor.encoded_len(),
                    QueryKind::Chunks { item, chunks } => item_len(item) + 4 + 4 * chunks.len(),
                    QueryKind::MdrChunks { item, .. } => item_len(item) + 4,
                };
                let bloom = q.bloom.as_ref().map_or(0, |b| 4 + b.len());
                QUERY_HEAD + kind + q.filter.encoded_len() + 1 + bloom
            }
            PdsMessage::Response(r) => {
                let kind = match &r.kind {
                    ResponseKind::Metadata { entries } => {
                        4 + entries
                            .iter()
                            .map(DataDescriptor::encoded_len)
                            .sum::<usize>()
                    }
                    ResponseKind::SmallData { items } => {
                        4 + items
                            .iter()
                            .map(|(d, payload)| d.encoded_len() + 4 + payload.len())
                            .sum::<usize>()
                    }
                    ResponseKind::Cdi { item, pairs } => item_len(item) + 4 + 8 * pairs.len(),
                    ResponseKind::Chunk {
                        descriptor, data, ..
                    } => descriptor.encoded_len() + 4 + 4 + data.len(),
                };
                RESPONSE_HEAD + kind
            }
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
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the buffer is truncated, malformed,
    /// or longer than the message it holds.
    pub fn decode(whole: &Bytes) -> Result<Self, DecodeError> {
        let buf = &mut &whole[..];
        if buf.remaining() < 1 {
            return Err(DecodeError::Truncated);
        }
        let message = match buf.get_u8() {
            0 => {
                if buf.remaining() < QUERY_HEAD - 1 {
                    return Err(DecodeError::Truncated);
                }
                let id = QueryId(buf.get_u64_le());
                let sender = NodeId(buf.get_u32_le());
                let expires_at = SimTime::from_micros(buf.get_u64_le());
                let round = buf.get_u32_le();
                let ttl_hops = buf.get_u8();
                let kind = match buf.get_u8() {
                    0 => QueryKind::Metadata,
                    1 => QueryKind::SmallData,
                    2 => QueryKind::Cdi {
                        descriptor: DataDescriptor::decode(buf).ok_or(DecodeError::BadBody)?,
                    },
                    3 => {
                        let item = get_item(buf)?;
                        if buf.remaining() < 4 {
                            return Err(DecodeError::Truncated);
                        }
                        let n = buf.get_u32_le() as usize;
                        if buf.remaining() < n * 4 {
                            return Err(DecodeError::Truncated);
                        }
                        let chunks: Vec<ChunkId> =
                            (0..n).map(|_| ChunkId(buf.get_u32_le())).collect();
                        if chunks.iter().any(|c| c.0 >= MAX_ITEM_CHUNKS) {
                            return Err(DecodeError::BadBody);
                        }
                        QueryKind::Chunks { item, chunks }
                    }
                    4 => {
                        let item = get_item(buf)?;
                        if buf.remaining() < 4 {
                            return Err(DecodeError::Truncated);
                        }
                        QueryKind::MdrChunks {
                            item,
                            total_chunks: buf.get_u32_le(),
                        }
                    }
                    t => return Err(DecodeError::BadTag(t)),
                };
                let filter = QueryFilter::decode(buf).ok_or(DecodeError::BadBody)?;
                if buf.remaining() < 1 {
                    return Err(DecodeError::Truncated);
                }
                let bloom = if buf.get_u8() == 1 {
                    Some(get_bytes(buf)?.to_vec())
                } else {
                    None
                };
                PdsMessage::Query(QueryMessage {
                    id,
                    kind,
                    sender,
                    expires_at,
                    filter,
                    bloom,
                    round,
                    ttl_hops,
                })
            }
            1 => {
                if buf.remaining() < RESPONSE_HEAD - 1 {
                    return Err(DecodeError::Truncated);
                }
                let id = ResponseId(buf.get_u64_le());
                let sender = NodeId(buf.get_u32_le());
                let kind = match buf.get_u8() {
                    0 => {
                        if buf.remaining() < 4 {
                            return Err(DecodeError::Truncated);
                        }
                        let n = buf.get_u32_le() as usize;
                        let mut entries = Vec::with_capacity(n.min(65_536));
                        for _ in 0..n {
                            entries.push(DataDescriptor::decode(buf).ok_or(DecodeError::BadBody)?);
                        }
                        ResponseKind::Metadata { entries }
                    }
                    1 => {
                        if buf.remaining() < 4 {
                            return Err(DecodeError::Truncated);
                        }
                        let n = buf.get_u32_le() as usize;
                        let mut items = Vec::with_capacity(n.min(65_536));
                        for _ in 0..n {
                            let d = DataDescriptor::decode(buf).ok_or(DecodeError::BadBody)?;
                            // Copied, not sliced: a response batches many
                            // small items, and one payload kept as a view
                            // would pin the whole batch in memory.
                            let payload = Bytes::from(get_bytes(buf)?);
                            items.push((d, payload));
                        }
                        ResponseKind::SmallData { items }
                    }
                    2 => {
                        let item = get_item(buf)?;
                        if buf.remaining() < 4 {
                            return Err(DecodeError::Truncated);
                        }
                        let n = buf.get_u32_le() as usize;
                        if buf.remaining() < n * 8 {
                            return Err(DecodeError::Truncated);
                        }
                        let pairs: Vec<(ChunkId, u32)> = (0..n)
                            .map(|_| (ChunkId(buf.get_u32_le()), buf.get_u32_le()))
                            .collect();
                        if pairs.iter().any(|(c, _)| c.0 >= MAX_ITEM_CHUNKS) {
                            return Err(DecodeError::BadBody);
                        }
                        ResponseKind::Cdi { item, pairs }
                    }
                    3 => {
                        let descriptor = DataDescriptor::decode(buf).ok_or(DecodeError::BadBody)?;
                        if buf.remaining() < 4 {
                            return Err(DecodeError::Truncated);
                        }
                        let chunk = ChunkId(buf.get_u32_le());
                        // Sliced, not copied: the chunk is > 99.9 % of its
                        // message, so the view pins next to nothing extra.
                        let data = get_shared(whole, buf)?;
                        ResponseKind::Chunk {
                            descriptor,
                            chunk,
                            data,
                        }
                    }
                    t => return Err(DecodeError::BadTag(t)),
                };
                PdsMessage::Response(ResponseMessage { id, sender, kind })
            }
            t => return Err(DecodeError::BadTag(t)),
        };
        if buf.has_remaining() {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{Predicate, Relation};

    fn roundtrip(m: &PdsMessage) {
        let bytes = m.encode();
        let back = PdsMessage::decode(&bytes).expect("decodes");
        assert_eq!(&back, m);
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
