//! Wire codec for KVS RPCs.
//!
//! A deliberately small, hand-rolled binary format: the broker protocol
//! has four operations and the simulation only needs lengths to be
//! realistic, but encoding/decoding real bytes keeps the substrate honest
//! (payload sizes on the wire match what a real broker would move).
//! Decoders read through checked helpers and return [`CodecError`] on
//! bytes no encoder here wrote.

use bytes::{Buf, BufMut, Bytes};
use simcore::intern::{intern, Symbol};

/// Why wire bytes did not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The message ends inside a field it announces.
    Truncated,
    /// The leading tag names no message of this kind.
    UnknownOp(u8),
    /// A key is not UTF-8.
    KeyNotUtf8,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "message ends inside a field"),
            CodecError::UnknownOp(op) => write!(f, "unknown message tag {op}"),
            CodecError::KeyNotUtf8 => write!(f, "key is not UTF-8"),
        }
    }
}
impl std::error::Error for CodecError {}

/// Operations understood by the broker.
///
/// Keys are interned [`Symbol`]s: the broker interns a key once as it
/// decodes it, and its store, watches and replication then hash a
/// 4-byte id instead of re-hashing the full path. The client interns
/// nothing: it encodes straight from the caller's `&str` with the same
/// two functions [`Request::encode`] calls. The *wire* carries the key
/// text, so message lengths — and therefore fabric costs — are exactly
/// those of the string protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Store `value` under `key`, bumping the global version.
    Commit {
        /// Key to store under.
        key: Symbol,
        /// Value bytes.
        value: Bytes,
    },
    /// Read the current value of `key`, if any.
    Lookup {
        /// Key to read.
        key: Symbol,
    },
    /// Block until `key` exists, then return it (server-side watch).
    WaitKey {
        /// Key to watch.
        key: Symbol,
    },
    /// Remove `key`.
    Unlink {
        /// Key to remove.
        key: Symbol,
    },
    /// Shard-to-shard replication delta (mesh mode only): one write as
    /// observed at `origin`, causally ordered by a per-key version
    /// vector. `value: None` propagates an unlink.
    Delta {
        /// Key the write applies to.
        key: Symbol,
        /// Shard id the write originated on.
        origin: u32,
        /// Per-(key, origin) sequence number of this write.
        seq: u64,
        /// Origin's per-key version vector *before* the write: the
        /// causal parents this delta must not overtake.
        deps: Vec<(u32, u64)>,
        /// New value, or `None` for an unlink tombstone.
        value: Option<Bytes>,
    },
}

/// Broker responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Commit acknowledged at this global version.
    Committed {
        /// Global KVS version after the commit.
        version: u64,
    },
    /// Lookup/wait result.
    Value {
        /// Version at which the key was committed.
        version: u64,
        /// Stored bytes.
        value: Bytes,
    },
    /// Lookup miss.
    NotFound,
    /// Unlink acknowledged.
    Unlinked,
    /// Replication delta received (applied, or buffered until its
    /// causal parents arrive).
    DeltaAck,
    /// The shard serving this broker id has crashed permanently; the
    /// client should fail over to a replica.
    ShardDown,
}

const OP_COMMIT: u8 = 1;
pub(crate) const OP_LOOKUP: u8 = 2;
pub(crate) const OP_WAIT: u8 = 3;
pub(crate) const OP_UNLINK: u8 = 4;
const OP_DELTA: u8 = 5;

const RESP_COMMITTED: u8 = 1;
const RESP_VALUE: u8 = 2;
const RESP_NOT_FOUND: u8 = 3;
const RESP_UNLINKED: u8 = 4;
const RESP_DELTA_ACK: u8 = 5;
const RESP_SHARD_DOWN: u8 = 6;

fn put_str(buf: &mut &mut [u8], s: &str) {
    buf.put_u16(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

/// The next big-endian integer: `get_int(raw, u64::from_be_bytes)`.
fn get_int<const N: usize, T>(raw: &mut Bytes, from: fn([u8; N]) -> T) -> Result<T, CodecError> {
    let bytes = raw.get(..N).ok_or(CodecError::Truncated)?;
    let v = from(bytes.try_into().expect("sliced to N bytes"));
    raw.advance(N);
    Ok(v)
}

/// The next `len` bytes, sharing the wire buffer.
fn get_blob(raw: &mut Bytes, len: usize) -> Result<Bytes, CodecError> {
    if raw.len() < len {
        return Err(CodecError::Truncated);
    }
    Ok(raw.split_to(len))
}

/// A `u32`-length-prefixed value.
fn get_value(raw: &mut Bytes) -> Result<Bytes, CodecError> {
    let len = get_int(raw, u32::from_be_bytes)? as usize;
    get_blob(raw, len)
}

/// Decode a length-prefixed key without allocating: the symbol is
/// interned straight from the wire buffer's bytes.
fn get_sym(raw: &mut Bytes) -> Result<Symbol, CodecError> {
    let len = get_int(raw, u16::from_be_bytes)? as usize;
    let text = raw.get(..len).ok_or(CodecError::Truncated)?;
    let sym = intern(std::str::from_utf8(text).map_err(|_| CodecError::KeyNotUtf8)?);
    raw.advance(len);
    Ok(sym)
}

impl Request {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Bytes {
        match self {
            Request::Commit { key, value } => encode_commit(key.resolve(), value),
            Request::Lookup { key } => encode_keyed(OP_LOOKUP, key.resolve()),
            Request::WaitKey { key } => encode_keyed(OP_WAIT, key.resolve()),
            Request::Unlink { key } => encode_keyed(OP_UNLINK, key.resolve()),
            Request::Delta {
                key,
                origin,
                seq,
                deps,
                value,
            } => {
                let key = key.resolve();
                let val_len = value.as_ref().map_or(0, |v| 4 + v.len());
                let len = 1 + 2 + key.len() + 4 + 8 + 2 + deps.len() * 12 + 1 + val_len;
                Bytes::build(len, |buf| {
                    buf.put_u8(OP_DELTA);
                    put_str(buf, key);
                    buf.put_u32(*origin);
                    buf.put_u64(*seq);
                    buf.put_u16(deps.len() as u16);
                    for (shard, n) in deps {
                        buf.put_u32(*shard);
                        buf.put_u64(*n);
                    }
                    match value {
                        Some(v) => {
                            buf.put_u8(1);
                            buf.put_u32(v.len() as u32);
                            buf.put_slice(v);
                        }
                        None => buf.put_u8(0),
                    }
                })
            }
        }
    }

    /// Decode from wire bytes; values share the buffer.
    pub fn try_decode(mut raw: Bytes) -> Result<Request, CodecError> {
        let raw = &mut raw;
        Ok(match get_int(raw, u8::from_be_bytes)? {
            OP_COMMIT => Request::Commit {
                key: get_sym(raw)?,
                value: get_value(raw)?,
            },
            OP_LOOKUP => Request::Lookup { key: get_sym(raw)? },
            OP_WAIT => Request::WaitKey { key: get_sym(raw)? },
            OP_UNLINK => Request::Unlink { key: get_sym(raw)? },
            OP_DELTA => {
                let key = get_sym(raw)?;
                let origin = get_int(raw, u32::from_be_bytes)?;
                let seq = get_int(raw, u64::from_be_bytes)?;
                let n_deps = get_int(raw, u16::from_be_bytes)? as usize;
                // Bounded by the bytes present before allocating.
                if raw.len() < n_deps * 12 {
                    return Err(CodecError::Truncated);
                }
                let dep = |raw: &mut Bytes| {
                    Ok((
                        get_int(raw, u32::from_be_bytes)?,
                        get_int(raw, u64::from_be_bytes)?,
                    ))
                };
                let deps = (0..n_deps).map(|_| dep(raw)).collect::<Result<_, _>>()?;
                let value = match get_int(raw, u8::from_be_bytes)? {
                    0 => None,
                    _ => Some(get_value(raw)?),
                };
                Request::Delta {
                    key,
                    origin,
                    seq,
                    deps,
                    value,
                }
            }
            op => return Err(CodecError::UnknownOp(op)),
        })
    }

    /// [`Request::try_decode`] for bytes an encoder here wrote (the
    /// simulation is a closed world; corruption would be a program bug).
    pub fn decode(raw: Bytes) -> Request {
        Self::try_decode(raw).expect("malformed kvs request")
    }
}

/// Encode a commit of `value` under `key`.
pub(crate) fn encode_commit(key: &str, value: &[u8]) -> Bytes {
    Bytes::build(1 + 2 + key.len() + 4 + value.len(), |buf| {
        buf.put_u8(OP_COMMIT);
        put_str(buf, key);
        buf.put_u32(value.len() as u32);
        buf.put_slice(value);
    })
}

/// Encode a bare `op + key` request.
pub(crate) fn encode_keyed(op: u8, key: &str) -> Bytes {
    Bytes::build(1 + 2 + key.len(), |buf| {
        buf.put_u8(op);
        put_str(buf, key);
    })
}

impl Response {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Bytes {
        match self {
            Response::Committed { version } => Bytes::build(1 + 8, |buf| {
                buf.put_u8(RESP_COMMITTED);
                buf.put_u64(*version);
            }),
            Response::Value { version, value } => Bytes::build(1 + 8 + 4 + value.len(), |buf| {
                buf.put_u8(RESP_VALUE);
                buf.put_u64(*version);
                buf.put_u32(value.len() as u32);
                buf.put_slice(value);
            }),
            Response::NotFound => Bytes::from_static(&[RESP_NOT_FOUND]),
            Response::Unlinked => Bytes::from_static(&[RESP_UNLINKED]),
            Response::DeltaAck => Bytes::from_static(&[RESP_DELTA_ACK]),
            Response::ShardDown => Bytes::from_static(&[RESP_SHARD_DOWN]),
        }
    }

    /// Decode from wire bytes; a value shares the buffer.
    pub fn try_decode(mut raw: Bytes) -> Result<Response, CodecError> {
        let raw = &mut raw;
        Ok(match get_int(raw, u8::from_be_bytes)? {
            RESP_COMMITTED => Response::Committed {
                version: get_int(raw, u64::from_be_bytes)?,
            },
            RESP_VALUE => Response::Value {
                version: get_int(raw, u64::from_be_bytes)?,
                value: get_value(raw)?,
            },
            RESP_NOT_FOUND => Response::NotFound,
            RESP_UNLINKED => Response::Unlinked,
            RESP_DELTA_ACK => Response::DeltaAck,
            RESP_SHARD_DOWN => Response::ShardDown,
            op => return Err(CodecError::UnknownOp(op)),
        })
    }

    /// [`Response::try_decode`] for bytes an encoder here wrote.
    pub fn decode(raw: Bytes) -> Response {
        Self::try_decode(raw).expect("malformed kvs response")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        for req in [
            Request::Commit {
                key: intern("a/b/c"),
                value: Bytes::from_static(b"payload"),
            },
            Request::Lookup { key: intern("x") },
            Request::WaitKey { key: intern("") },
            Request::Unlink { key: intern("k") },
            Request::Delta {
                key: intern("frames/p0001/f3"),
                origin: 2,
                seq: 7,
                deps: vec![(0, 3), (2, 6)],
                value: Some(Bytes::from_static(b"meta")),
            },
            Request::Delta {
                key: intern("tomb"),
                origin: 0,
                seq: 1,
                deps: vec![],
                value: None,
            },
        ] {
            assert_eq!(Request::decode(req.encode()), req);
        }
    }

    /// The symbol-keyed codec puts exactly the same bytes on the wire as
    /// the string protocol: opcode, u16 length, then the key text.
    #[test]
    fn wire_bytes_carry_the_resolved_key_text() {
        let raw = Request::Lookup {
            key: intern("dir/frame07"),
        }
        .encode();
        assert_eq!(raw.len(), 1 + 2 + "dir/frame07".len());
        assert_eq!(&raw[3..], b"dir/frame07");
    }

    #[test]
    fn malformed_bytes_are_typed_errors() {
        let lookup = |key: &[u8]| {
            let mut raw = vec![OP_LOOKUP];
            raw.extend_from_slice(&(key.len() as u16).to_be_bytes());
            raw.extend_from_slice(key);
            Request::try_decode(Bytes::from(raw))
        };
        assert_eq!(lookup(b"k"), Ok(Request::Lookup { key: intern("k") }));
        assert_eq!(lookup(&[0xff, 0xfe]), Err(CodecError::KeyNotUtf8));
        let req = |raw: &'static [u8]| Request::try_decode(Bytes::from_static(raw));
        assert_eq!(req(&[9, 0, 0]), Err(CodecError::UnknownOp(9)));
        assert_eq!(req(&[]), Err(CodecError::Truncated));
        // A delta announcing more dependencies than it carries.
        let mut delta = vec![OP_DELTA, 0, 0];
        delta.extend_from_slice(&[0; 12]);
        delta.extend_from_slice(&[0xff, 0xff]);
        assert_eq!(
            Request::try_decode(Bytes::from(delta)),
            Err(CodecError::Truncated)
        );
        let resp = |raw: &'static [u8]| Response::try_decode(Bytes::from_static(raw));
        assert_eq!(resp(&[0]), Err(CodecError::UnknownOp(0)));
        assert_eq!(resp(&[RESP_VALUE, 0, 0]), Err(CodecError::Truncated));
    }

    #[test]
    fn response_round_trips() {
        for resp in [
            Response::Committed { version: 42 },
            Response::Value {
                version: 7,
                value: Bytes::from_static(b"v"),
            },
            Response::NotFound,
            Response::Unlinked,
            Response::DeltaAck,
            Response::ShardDown,
        ] {
            assert_eq!(Response::decode(resp.encode()), resp);
        }
    }

    #[cfg(test)]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn commit_round_trips(key in "[a-z/._0-9]{0,64}",
                                  value in proptest::collection::vec(any::<u8>(), 0..1024)) {
                let req = Request::Commit { key: intern(&key), value: Bytes::from(value) };
                prop_assert_eq!(Request::decode(req.encode()), req);
            }

            #[test]
            fn value_round_trips(version in any::<u64>(),
                                 value in proptest::collection::vec(any::<u8>(), 0..1024)) {
                let resp = Response::Value { version, value: Bytes::from(value) };
                prop_assert_eq!(Response::decode(resp.encode()), resp);
            }

            // Decoders answer any bytes with a value or a typed error —
            // never a panic or an out-of-bounds index — and every strict
            // prefix of a valid message with `Truncated`.
            #[test]
            fn decoders_never_panic(
                noise in proptest::collection::vec(any::<u8>(), 0..96),
                key in "[a-z/._0-9]{0,24}",
                words in (any::<u32>(), any::<u64>()),
                deps in proptest::collection::vec((any::<u32>(), any::<u64>()), 0..6),
                value in proptest::collection::vec(any::<u8>(), 0..48),
            ) {
                type Decoder = fn(Bytes) -> Result<(), CodecError>;
                let decoders: [Decoder; 2] = [
                    |raw| Request::try_decode(raw).map(drop),
                    |raw| Response::try_decode(raw).map(drop),
                ];
                for decode in decoders {
                    let _ = decode(Bytes::from(noise.clone()));
                    // A plausible tag in front reaches the field readers.
                    for tag in 0..=7u8 {
                        let mut tagged = vec![tag];
                        tagged.extend_from_slice(&noise);
                        let _ = decode(Bytes::from(tagged));
                    }
                }
                let [request, response] = decoders;
                let (origin, seq) = words;
                let (key, value) = (intern(&key), Bytes::from(value));
                let valid = [
                    (Request::Commit { key, value: value.clone() }.encode(), request),
                    (Request::Lookup { key }.encode(), request),
                    (Request::WaitKey { key }.encode(), request),
                    (Request::Unlink { key }.encode(), request),
                    (Request::Delta { key, origin, seq, deps: deps.clone(), value: None }.encode(), request),
                    (Request::Delta { key, origin, seq, deps, value: Some(value.clone()) }.encode(), request),
                    (Response::Committed { version: seq }.encode(), response),
                    (Response::Value { version: seq, value }.encode(), response),
                    (Response::NotFound.encode(), response),
                    (Response::ShardDown.encode(), response),
                ];
                for (wire, decode) in valid {
                    prop_assert_eq!(decode(wire.clone()), Ok(()));
                    for cut in 0..wire.len() {
                        prop_assert_eq!(decode(wire.slice(..cut)), Err(CodecError::Truncated));
                    }
                }
            }

            #[test]
            fn delta_round_trips(key in "[a-z/._0-9]{0,64}",
                                 origin in any::<u32>(),
                                 seq in any::<u64>(),
                                 deps in proptest::collection::vec((any::<u32>(), any::<u64>()), 0..8),
                                 tombstone in any::<bool>(),
                                 value in proptest::collection::vec(any::<u8>(), 0..256)) {
                let req = Request::Delta {
                    key: intern(&key),
                    origin,
                    seq,
                    deps,
                    value: (!tombstone).then(|| Bytes::from(value)),
                };
                prop_assert_eq!(Request::decode(req.clone().encode()), req);
            }
        }
    }
}
