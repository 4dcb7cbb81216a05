//! Wire codec for MDS and OSS RPCs.
//!
//! One encoder and one decoder per message. An encoder computes the
//! message's length before it writes and fills one block of exactly that
//! length in place ([`Bytes::build`]), so a message costs one allocator
//! call, and the one-byte replies are static. The MDS request encodes
//! from borrowed parts ([`MdsRequestRef`]) and decodes in place, and the
//! `Meta` reply encodes from a column iterator ([`encode_meta`]) — that
//! is what the client and the servers call; the owned enums wrap the
//! same bodies.
//! Decoders read through a checked cursor and return [`CodecError`] on
//! bytes no encoder here wrote.

use bytes::{BufMut, Bytes};

/// Why wire bytes did not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The message ends inside a field it announces.
    Truncated,
    /// The leading tag names no message of this kind.
    UnknownOp(u8),
    /// A path is not UTF-8.
    PathNotUtf8,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "message ends inside a field"),
            CodecError::UnknownOp(op) => write!(f, "unknown message tag {op}"),
            CodecError::PathNotUtf8 => write!(f, "path is not UTF-8"),
        }
    }
}
impl std::error::Error for CodecError {}

/// Checked big-endian cursor over received bytes.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.0.len() < n {
            return Err(CodecError::Truncated);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    /// The next big-endian integer: `raw.int(u64::from_be_bytes)`.
    fn int<const N: usize, T>(&mut self, from: fn([u8; N]) -> T) -> Result<T, CodecError> {
        let bytes = self.take(N)?.try_into().expect("take returned N bytes");
        Ok(from(bytes))
    }
}

/// A count or length as the wire's `u16`; `what` names the field in the
/// panic a value past the limit is (it would decode to garbage).
fn wire_u16(n: usize, what: &str) -> u16 {
    u16::try_from(n).unwrap_or_else(|_| panic!("{what} of {n} exceeds the wire limit of 65,535"))
}

/// File layout: which objects on which OSTs hold the file's stripes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Stripe width in bytes.
    pub stripe_size: u64,
    /// OST index per stripe column.
    pub osts: Vec<u32>,
    /// Object id per stripe column (parallel to `osts`).
    pub objects: Vec<u64>,
}

impl Layout {
    /// Number of stripe columns.
    pub fn stripe_count(&self) -> usize {
        self.osts.len()
    }

    /// Map a byte range onto per-object chunks: yields
    /// `(column, object_offset, len)` triples covering
    /// `offset..offset+len` in file order. The iterator copies the two
    /// numbers it needs, so it neither borrows the layout nor allocates.
    pub fn chunks(&self, offset: u64, len: u64) -> impl Iterator<Item = (usize, u64, u64)> {
        let (stripe_size, sc) = (self.stripe_size, self.stripe_count() as u64);
        let mut pos = offset;
        let end = offset + len;
        std::iter::from_fn(move || {
            if pos >= end {
                return None;
            }
            let stripe_idx = pos / stripe_size;
            let within = pos % stripe_size;
            let column = (stripe_idx % sc) as usize;
            let row = stripe_idx / sc;
            let take = (stripe_size - within).min(end - pos);
            pos += take;
            Some((column, row * stripe_size + within, take))
        })
    }

    fn decode_from(raw: &mut Reader<'_>) -> Result<Layout, CodecError> {
        let stripe_size = raw.int(u64::from_be_bytes)?;
        let n = raw.int(u16::from_be_bytes)? as usize;
        // Taking the announced columns first bounds what is allocated
        // for them by the bytes that arrived.
        let columns = raw.take(12 * n)?.chunks_exact(12);
        let ost = |c: &[u8]| u32::from_be_bytes(c[..4].try_into().expect("4 of 12"));
        let object = |c: &[u8]| u64::from_be_bytes(c[4..].try_into().expect("8 of 12"));
        Ok(Layout {
            stripe_size,
            osts: columns.clone().map(ost).collect(),
            objects: columns.map(object).collect(),
        })
    }
}

/// MDS operation: the first wire byte of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MdsOp {
    Create = 1,
    Open = 2,
    SetSize = 3,
    Unlink = 4,
    Stat = 5,
}

/// An MDS request borrowed from the caller's path (to encode) or from
/// received bytes (decoded in place). `size` travels with `SetSize`
/// only and is 0 otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MdsRequestRef<'a> {
    pub(crate) op: MdsOp,
    pub(crate) path: &'a str,
    pub(crate) size: u64,
}

impl<'a> MdsRequestRef<'a> {
    pub(crate) fn encode(&self) -> Bytes {
        let with_size = self.op == MdsOp::SetSize;
        let len = 1 + 2 + self.path.len() + if with_size { 8 } else { 0 };
        Bytes::build(len, |buf| {
            buf.put_u8(self.op as u8);
            buf.put_u16(wire_u16(self.path.len(), "path length"));
            buf.put_slice(self.path.as_bytes());
            if with_size {
                buf.put_u64(self.size);
            }
        })
    }

    pub(crate) fn try_decode(raw: &'a [u8]) -> Result<Self, CodecError> {
        let mut raw = Reader(raw);
        let op = match raw.int(u8::from_be_bytes)? {
            1 => MdsOp::Create,
            2 => MdsOp::Open,
            3 => MdsOp::SetSize,
            4 => MdsOp::Unlink,
            5 => MdsOp::Stat,
            op => return Err(CodecError::UnknownOp(op)),
        };
        let len = raw.int(u16::from_be_bytes)? as usize;
        let path = std::str::from_utf8(raw.take(len)?).map_err(|_| CodecError::PathNotUtf8)?;
        let size = if op == MdsOp::SetSize {
            raw.int(u64::from_be_bytes)?
        } else {
            0
        };
        Ok(MdsRequestRef { op, path, size })
    }
}

/// MDS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MdsRequest {
    /// Create (or truncate) a file and return its layout.
    Create {
        /// Full path.
        path: String,
    },
    /// Open an existing file: layout + current size.
    Open {
        /// Full path.
        path: String,
    },
    /// Record the file size at close.
    SetSize {
        /// Full path.
        path: String,
        /// New size in bytes.
        size: u64,
    },
    /// Remove the file.
    Unlink {
        /// Full path.
        path: String,
    },
    /// Stat the file.
    Stat {
        /// Full path.
        path: String,
    },
}

/// MDS responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MdsResponse {
    /// Layout (+size for open/stat).
    Meta {
        /// File layout.
        layout: Layout,
        /// Size known to the MDS.
        size: u64,
    },
    /// Operation acknowledged.
    Ok,
    /// Path missing.
    NotFound,
}

/// OSS (object server) operations. Bulk data never travels inside the
/// header — it rides the RPC's zero-copy payload (see
/// [`transport::Bulk`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OssRequest {
    /// Write the RPC payload into `object` at `offset`.
    Write {
        /// Target object.
        object: u64,
        /// Byte offset inside the object.
        offset: u64,
        /// Payload length (must equal the attached payload's length).
        len: u64,
        /// Size of the whole logical client I/O this chunk belongs to
        /// (drives the burst-vs-sustained rate decision, modelling the
        /// Lustre client cache: small I/Os are absorbed at wire rate,
        /// large ones run at the facility's sustained per-stream rate).
        total: u64,
    },
    /// Read `len` bytes from `object` at `offset`.
    Read {
        /// Target object.
        object: u64,
        /// Byte offset inside the object.
        offset: u64,
        /// Length to read.
        len: u64,
        /// Size of the whole logical client I/O (see `Write::total`).
        total: u64,
    },
    /// Drop an object.
    Destroy {
        /// Target object.
        object: u64,
    },
}

/// OSS responses. Read data rides the RPC's zero-copy payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OssResponse {
    /// Write/destroy acknowledged.
    Ok,
    /// Read served; the payload carries `len` bytes.
    Data {
        /// Length of the attached payload.
        len: u64,
    },
}

impl MdsRequest {
    fn as_ref(&self) -> MdsRequestRef<'_> {
        let (op, path, size) = match self {
            MdsRequest::Create { path } => (MdsOp::Create, path, 0),
            MdsRequest::Open { path } => (MdsOp::Open, path, 0),
            MdsRequest::SetSize { path, size } => (MdsOp::SetSize, path, *size),
            MdsRequest::Unlink { path } => (MdsOp::Unlink, path, 0),
            MdsRequest::Stat { path } => (MdsOp::Stat, path, 0),
        };
        MdsRequestRef { op, path, size }
    }

    /// Encode to wire bytes.
    pub fn encode(&self) -> Bytes {
        self.as_ref().encode()
    }

    /// Decode wire bytes, or say why they are not an MDS request.
    pub fn try_decode(raw: &[u8]) -> Result<MdsRequest, CodecError> {
        let MdsRequestRef { op, path, size } = MdsRequestRef::try_decode(raw)?;
        let path = path.to_owned();
        Ok(match op {
            MdsOp::Create => MdsRequest::Create { path },
            MdsOp::Open => MdsRequest::Open { path },
            MdsOp::SetSize => MdsRequest::SetSize { path, size },
            MdsOp::Unlink => MdsRequest::Unlink { path },
            MdsOp::Stat => MdsRequest::Stat { path },
        })
    }

    /// Decode wire bytes this crate's encoder wrote.
    pub fn decode(raw: Bytes) -> MdsRequest {
        Self::try_decode(&raw).expect("malformed MDS request")
    }
}

/// Encode a [`MdsResponse::Meta`] from a layout's parts: its stripe
/// size and its `(ost, object)` columns in order. The MDS computes the
/// columns from what it keeps per file, so no [`Layout`] is built.
pub(crate) fn encode_meta(
    stripe_size: u64,
    columns: impl ExactSizeIterator<Item = (u32, u64)>,
    size: u64,
) -> Bytes {
    let n = columns.len();
    Bytes::build(1 + 8 + 2 + 12 * n + 8, |buf| {
        buf.put_u8(1);
        buf.put_u64(stripe_size);
        buf.put_u16(wire_u16(n, "layout column count"));
        for (ost, object) in columns {
            buf.put_u32(ost);
            buf.put_u64(object);
        }
        buf.put_u64(size);
    })
}

impl MdsResponse {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Bytes {
        match self {
            MdsResponse::Meta { layout, size } => {
                assert_eq!(layout.osts.len(), layout.objects.len(), "layout columns");
                let columns = layout
                    .osts
                    .iter()
                    .copied()
                    .zip(layout.objects.iter().copied());
                encode_meta(layout.stripe_size, columns, *size)
            }
            MdsResponse::Ok => Bytes::from_static(&[2]),
            MdsResponse::NotFound => Bytes::from_static(&[3]),
        }
    }

    /// Decode wire bytes, or say why they are not an MDS response.
    pub fn try_decode(raw: &[u8]) -> Result<MdsResponse, CodecError> {
        let mut raw = Reader(raw);
        match raw.int(u8::from_be_bytes)? {
            1 => {
                let layout = Layout::decode_from(&mut raw)?;
                let size = raw.int(u64::from_be_bytes)?;
                Ok(MdsResponse::Meta { layout, size })
            }
            2 => Ok(MdsResponse::Ok),
            3 => Ok(MdsResponse::NotFound),
            op => Err(CodecError::UnknownOp(op)),
        }
    }

    /// Decode wire bytes this crate's encoder wrote.
    pub fn decode(raw: Bytes) -> MdsResponse {
        Self::try_decode(&raw).expect("malformed MDS response")
    }
}

impl OssRequest {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Bytes {
        let (op, words): (u8, &[u64]) = match self {
            OssRequest::Write {
                object,
                offset,
                len,
                total,
            } => (1, &[*object, *offset, *len, *total]),
            OssRequest::Read {
                object,
                offset,
                len,
                total,
            } => (2, &[*object, *offset, *len, *total]),
            OssRequest::Destroy { object } => (3, &[*object]),
        };
        Bytes::build(1 + 8 * words.len(), |buf| {
            buf.put_u8(op);
            for &w in words {
                buf.put_u64(w);
            }
        })
    }

    /// Decode wire bytes, or say why they are not an OSS request.
    pub fn try_decode(raw: &[u8]) -> Result<OssRequest, CodecError> {
        let mut raw = Reader(raw);
        let op = raw.int(u8::from_be_bytes)?;
        // Fields are read in the order written, which is wire order.
        let mut word = || raw.int(u64::from_be_bytes);
        Ok(match op {
            1 => OssRequest::Write {
                object: word()?,
                offset: word()?,
                len: word()?,
                total: word()?,
            },
            2 => OssRequest::Read {
                object: word()?,
                offset: word()?,
                len: word()?,
                total: word()?,
            },
            3 => OssRequest::Destroy { object: word()? },
            op => return Err(CodecError::UnknownOp(op)),
        })
    }

    /// Decode wire bytes this crate's encoder wrote.
    pub fn decode(raw: Bytes) -> OssRequest {
        Self::try_decode(&raw).expect("malformed OSS request")
    }
}

impl OssResponse {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Bytes {
        match self {
            OssResponse::Ok => Bytes::from_static(&[1]),
            OssResponse::Data { len } => Bytes::build(9, |buf| {
                buf.put_u8(2);
                buf.put_u64(*len);
            }),
        }
    }

    /// Decode wire bytes, or say why they are not an OSS response.
    pub fn try_decode(raw: &[u8]) -> Result<OssResponse, CodecError> {
        let mut raw = Reader(raw);
        match raw.int(u8::from_be_bytes)? {
            1 => Ok(OssResponse::Ok),
            2 => Ok(OssResponse::Data {
                len: raw.int(u64::from_be_bytes)?,
            }),
            op => Err(CodecError::UnknownOp(op)),
        }
    }

    /// Decode wire bytes this crate's encoder wrote.
    pub fn decode(raw: Bytes) -> OssResponse {
        Self::try_decode(&raw).expect("malformed OSS response")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout2() -> Layout {
        Layout {
            stripe_size: 1024,
            osts: vec![0, 1],
            objects: vec![100, 101],
        }
    }

    #[test]
    fn chunks_cover_range_in_order() {
        let l = layout2();
        // 0..3000 with 1 KiB stripes over 2 columns:
        // [col0 obj-off 0, 1024], [col1 obj-off 0, 1024], [col0 obj-off 1024, 952]
        let c: Vec<_> = l.chunks(0, 3000).collect();
        assert_eq!(c, vec![(0, 0, 1024), (1, 0, 1024), (0, 1024, 952)]);
        let total: u64 = c.iter().map(|x| x.2).sum();
        assert_eq!(total, 3000);
    }

    #[test]
    fn chunks_handle_unaligned_offset() {
        let l = layout2();
        let c: Vec<_> = l.chunks(1500, 1000).collect();
        // 1500 is in stripe 1 (col 1) at within=476.
        assert_eq!(c[0], (1, 476, 548));
        assert_eq!(c[1], (0, 1024, 452));
    }

    #[test]
    fn single_stripe_small_file() {
        let l = Layout {
            stripe_size: 1 << 20,
            osts: vec![3],
            objects: vec![42],
        };
        let c: Vec<_> = l.chunks(0, 659_671).collect(); // JAC frame
        assert_eq!(c, vec![(0, 0, 659_671)]);
    }

    #[test]
    fn mds_round_trips() {
        for req in [
            MdsRequest::Create { path: "/a".into() },
            MdsRequest::Open { path: "/b".into() },
            MdsRequest::SetSize {
                path: "/c".into(),
                size: 123,
            },
            MdsRequest::Unlink { path: "/d".into() },
            MdsRequest::Stat { path: "/e".into() },
        ] {
            assert_eq!(MdsRequest::decode(req.encode()), req);
        }
        for resp in [
            MdsResponse::Meta {
                layout: layout2(),
                size: 9,
            },
            MdsResponse::Ok,
            MdsResponse::NotFound,
        ] {
            assert_eq!(MdsResponse::decode(resp.encode()), resp);
        }
    }

    #[test]
    fn oss_round_trips() {
        for req in [
            OssRequest::Write {
                object: 1,
                offset: 2,
                len: 3,
                total: 3,
            },
            OssRequest::Read {
                object: 1,
                offset: 0,
                len: 10,
                total: 10,
            },
            OssRequest::Destroy { object: 5 },
        ] {
            assert_eq!(OssRequest::decode(req.encode()), req);
        }
        for resp in [OssResponse::Ok, OssResponse::Data { len: 1 }] {
            assert_eq!(OssResponse::decode(resp.encode()), resp);
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// All 13 message variants, byte for byte as the commit before the
    /// sized encoders wrote them (captured there with these inputs).
    /// Every fabric charge is a function of these lengths.
    #[test]
    fn golden_wire_bytes() {
        let path = || "frames/p0042/f00017".to_string();
        let layout = Layout {
            stripe_size: 1 << 20,
            osts: vec![3, 0, 1, 2],
            objects: vec![17, 18, 19, 0x0102_0304_0506_0708],
        };
        let frame = 659_671;
        let golden = [
            (
                MdsRequest::Create { path: path() }.encode(),
                "0100136672616d65732f70303034322f663030303137",
            ),
            (
                MdsRequest::Open { path: path() }.encode(),
                "0200136672616d65732f70303034322f663030303137",
            ),
            (
                MdsRequest::SetSize {
                    path: path(),
                    size: frame,
                }
                .encode(),
                "0300136672616d65732f70303034322f66303030313700000000000a10d7",
            ),
            (
                MdsRequest::Unlink { path: path() }.encode(),
                "0400136672616d65732f70303034322f663030303137",
            ),
            (
                MdsRequest::Stat {
                    path: String::new(),
                }
                .encode(),
                "050000",
            ),
            (
                MdsResponse::Meta {
                    layout,
                    size: frame,
                }
                .encode(),
                "01000000000010000000040000000300000000000000110000000000000000000000120000000100\
                 0000000000001300000002010203040506070800000000000a10d7",
            ),
            (MdsResponse::Ok.encode(), "02"),
            (MdsResponse::NotFound.encode(), "03"),
            (
                OssRequest::Write {
                    object: 17,
                    offset: 1 << 20,
                    len: frame,
                    total: frame,
                }
                .encode(),
                "010000000000000011000000000010000000000000000a10d700000000000a10d7",
            ),
            (
                OssRequest::Read {
                    object: 18,
                    offset: 0,
                    len: u64::MAX,
                    total: 3,
                }
                .encode(),
                "0200000000000000120000000000000000ffffffffffffffff0000000000000003",
            ),
            (
                OssRequest::Destroy { object: 19 }.encode(),
                "030000000000000013",
            ),
            (OssResponse::Ok.encode(), "01"),
            (
                OssResponse::Data { len: frame }.encode(),
                "0200000000000a10d7",
            ),
        ];
        for (i, (wire, want)) in golden.iter().enumerate() {
            assert_eq!(hex(wire), *want, "message {i}");
        }
    }

    /// The wire's `u16` length fields hold 65,535 at most; one more used
    /// to wrap silently and decode to garbage.
    #[test]
    fn u16_fields_take_their_limit_and_refuse_one_more() {
        let path = "p".repeat(65_535);
        let req = MdsRequestRef {
            op: MdsOp::Open,
            path: &path,
            size: 0,
        };
        let wire = req.encode();
        assert_eq!(MdsRequestRef::try_decode(&wire), Ok(req));
        let wide = |n: usize| Layout {
            stripe_size: 1,
            osts: vec![7; n],
            objects: vec![9; n],
        };
        let meta = MdsResponse::Meta {
            layout: wide(65_535),
            size: 1,
        };
        assert_eq!(MdsResponse::decode(meta.encode()), meta);

        let over = |f: &(dyn Fn() + std::panic::RefUnwindSafe)| {
            let panic = std::panic::catch_unwind(f).expect_err("encoded past the limit");
            let msg = panic.downcast_ref::<String>().expect("panic message");
            assert!(msg.contains("exceeds the wire limit of 65,535"), "{msg}");
        };
        over(&|| {
            drop(
                MdsRequest::Create {
                    path: "p".repeat(65_536),
                }
                .encode(),
            )
        });
        over(&|| drop(encode_meta(1, std::iter::repeat_n((7, 9), 65_536), 1)));
    }

    #[cfg(test)]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn chunks_partition_any_range(
                stripe_size in 1u64..10_000,
                cols in 1usize..8,
                offset in 0u64..100_000,
                len in 1u64..100_000,
            ) {
                let l = Layout {
                    stripe_size,
                    osts: (0..cols as u32).collect(),
                    objects: (0..cols as u64).collect(),
                };
                let c: Vec<_> = l.chunks(offset, len).collect();
                let total: u64 = c.iter().map(|x| x.2).sum();
                prop_assert_eq!(total, len);
                // No chunk crosses a stripe boundary within its object.
                for (_, obj_off, clen) in &c {
                    let within = obj_off % stripe_size;
                    prop_assert!(within + clen <= stripe_size);
                }
            }

            // The owned enums and the borrowed forms the client and the
            // servers use write the same bytes and read them back alike.
            #[test]
            fn owned_and_borrowed_codecs_agree(
                path in "[a-z0-9/._-]{0,48}",
                size in any::<u64>(),
                stripe_size in 1u64..(1 << 32),
                columns in proptest::collection::vec((any::<u32>(), any::<u64>()), 0..9),
            ) {
                let owned = [
                    (MdsOp::Create, MdsRequest::Create { path: path.clone() }),
                    (MdsOp::Open, MdsRequest::Open { path: path.clone() }),
                    (MdsOp::SetSize, MdsRequest::SetSize { path: path.clone(), size }),
                    (MdsOp::Unlink, MdsRequest::Unlink { path: path.clone() }),
                    (MdsOp::Stat, MdsRequest::Stat { path: path.clone() }),
                ];
                for (op, owned) in owned {
                    let size = if op == MdsOp::SetSize { size } else { 0 };
                    let borrowed = MdsRequestRef { op, path: &path, size };
                    let wire = borrowed.encode();
                    prop_assert_eq!(&wire, &owned.encode());
                    prop_assert_eq!(MdsRequestRef::try_decode(&wire), Ok(borrowed));
                    prop_assert_eq!(MdsRequest::try_decode(&wire), Ok(owned));
                }
                let layout = Layout {
                    stripe_size,
                    osts: columns.iter().map(|c| c.0).collect(),
                    objects: columns.iter().map(|c| c.1).collect(),
                };
                let wire = encode_meta(stripe_size, columns.iter().copied(), size);
                let meta = MdsResponse::Meta { layout, size };
                prop_assert_eq!(&wire, &meta.encode());
                prop_assert_eq!(MdsResponse::try_decode(&wire), Ok(meta));
            }

            // Decoders answer any bytes with a value or a typed error —
            // never a panic or an out-of-bounds index — and every strict
            // prefix of a valid message with `Truncated`.
            #[test]
            fn decoders_never_panic(
                noise in proptest::collection::vec(any::<u8>(), 0..96),
                path in "[a-z0-9/]{0,24}",
                words in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
                columns in proptest::collection::vec((any::<u32>(), any::<u64>()), 0..6),
            ) {
                type Decoder = fn(&[u8]) -> Result<(), CodecError>;
                let decoders: [Decoder; 5] = [
                    |raw| MdsRequestRef::try_decode(raw).map(drop),
                    |raw| MdsRequest::try_decode(raw).map(drop),
                    |raw| MdsResponse::try_decode(raw).map(drop),
                    |raw| OssRequest::try_decode(raw).map(drop),
                    |raw| OssResponse::try_decode(raw).map(drop),
                ];
                for decode in decoders {
                    let _ = decode(&noise);
                    // A plausible tag in front reaches the field readers.
                    for tag in 0..=6u8 {
                        let mut tagged = vec![tag];
                        tagged.extend_from_slice(&noise);
                        let _ = decode(&tagged);
                    }
                }
                let (object, offset, len, total) = words;
                let layout = Layout {
                    stripe_size: offset,
                    osts: columns.iter().map(|c| c.0).collect(),
                    objects: columns.iter().map(|c| c.1).collect(),
                };
                let [in_place, owned, mds_resp, oss_req, oss_resp] = decoders;
                let mds_req = &[in_place, owned][..];
                let (mds_resp, oss_req, oss_resp) = (&[mds_resp][..], &[oss_req][..], &[oss_resp][..]);
                let valid = [
                    (MdsRequest::Create { path: path.clone() }.encode(), mds_req),
                    (MdsRequest::Open { path: path.clone() }.encode(), mds_req),
                    (MdsRequest::SetSize { path: path.clone(), size: len }.encode(), mds_req),
                    (MdsRequest::Unlink { path: path.clone() }.encode(), mds_req),
                    (MdsRequest::Stat { path }.encode(), mds_req),
                    (MdsResponse::Meta { layout, size: len }.encode(), mds_resp),
                    (MdsResponse::Ok.encode(), mds_resp),
                    (MdsResponse::NotFound.encode(), mds_resp),
                    (OssRequest::Write { object, offset, len, total }.encode(), oss_req),
                    (OssRequest::Read { object, offset, len, total }.encode(), oss_req),
                    (OssRequest::Destroy { object }.encode(), oss_req),
                    (OssResponse::Ok.encode(), oss_resp),
                    (OssResponse::Data { len }.encode(), oss_resp),
                ];
                for (wire, decoders) in valid {
                    for decode in decoders {
                        prop_assert_eq!(decode(&wire), Ok(()));
                        for cut in 0..wire.len() {
                            prop_assert_eq!(decode(&wire[..cut]), Err(CodecError::Truncated));
                        }
                    }
                }
            }
        }
    }
}
