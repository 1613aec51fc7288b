//! The binary wire format carrying [`CollectedPacket`] records from a
//! deployment's sink node (or a replayed trace) to the online service.
//!
//! One record per frame, little-endian throughout:
//!
//! ```text
//! offset  size  field
//! 0       1     magic      0xD0
//! 1       1     version    0x01 (legacy) or 0x02 (tenant-aware)
//! 2       2     payload_len (bytes, excludes header and checksum)
//! 4       len   payload
//! 4+len   4     checksum   FNV-1a-32 over header + payload
//!
//! v1 payload: origin u16 | seq u32 | gen_us u64 | sink_us u64 |
//!             sum_ms u16 | e2e_ms u16 | path_len u16 | path_len × u16
//! v2 payload: tenant u16 | <v1 payload with tenant-local node ids>
//! ```
//!
//! The `sum_ms`/`e2e_ms` pair is the paper's 4-byte in-packet overhead;
//! everything else is sink-side metadata (identity, trusted endpoint
//! timestamps, the reconstructed path) that never travels over the air.
//! Times are microseconds on the collection axis, so a decode is
//! bit-identical to the encoded record — there is no quantization step
//! in the codec.
//!
//! **Tenancy (DESIGN.md §17.2).** A v2 frame prefixes the payload with
//! the tenant id of the monitored network the record belongs to; its
//! node ids are then *tenant-local*. Decoding folds the tenant into the
//! ids via [`domo_cluster::tenant::namespace_node`], so everything past
//! the codec — sanitize, dedup, sharding, WAL, result log — sees plain
//! internal `u16` ids and stays tenant-agnostic. A v1 frame decodes
//! unchanged: its ids are below [`domo_cluster::TENANT_STRIDE`]
//! in practice, which *is* tenant 0's namespace, so legacy senders are
//! the default tenant without any translation step.
//!
//! Decoding is total: every malformed input maps to a typed
//! [`WireError`], never a panic. The codec checks *structure* only
//! (framing, lengths, checksum); semantic validation of the decoded
//! record is the service's job, via `domo_core::sanitize`.

use domo_net::{CollectedPacket, NodeId, PacketId};
use domo_util::time::SimTime;
use std::io::Read;

/// First byte of every frame.
pub const MAGIC: u8 = 0xD0;
/// Legacy (single-tenant) wire-format version.
pub const VERSION: u8 = 1;
/// Tenant-aware wire-format version: the payload gains a leading
/// tenant id and its node ids are tenant-local.
pub const VERSION_TENANT: u8 = 2;
/// Frame header: magic, version, payload length.
pub const HEADER_LEN: usize = 4;
/// Trailing checksum length.
pub const CHECKSUM_LEN: usize = 4;
/// Payload bytes before the path array (v1).
const FIXED_PAYLOAD: usize = 2 + 4 + 8 + 8 + 2 + 2 + 2;
/// Longest encodable path. Generous (the simulator's deepest trees are
/// well under 20 hops) while bounding what a hostile frame can make the
/// decoder allocate.
pub const MAX_PATH_NODES: usize = 512;
/// Largest legal v1 `payload_len`, implied by [`MAX_PATH_NODES`]. A v2
/// payload may carry two more bytes (the tenant prefix).
pub const MAX_PAYLOAD: usize = FIXED_PAYLOAD + 2 * MAX_PATH_NODES;

/// Bytes the tenant prefix adds to a payload of wire version `v`.
const fn tenant_prefix(version: u8) -> usize {
    if version == VERSION_TENANT {
        2
    } else {
        0
    }
}

/// Why a frame failed to encode or decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The first byte is not [`MAGIC`].
    BadMagic {
        /// The byte found instead.
        found: u8,
    },
    /// The version byte names a format this build does not speak.
    UnsupportedVersion {
        /// The version found.
        found: u8,
    },
    /// The buffer ends before the frame does.
    Truncated {
        /// Bytes the frame needs.
        needed: usize,
        /// Bytes available.
        available: usize,
    },
    /// `payload_len` exceeds [`MAX_PAYLOAD`].
    PayloadTooLarge {
        /// The declared length.
        len: usize,
    },
    /// `payload_len` is smaller than the fixed fields.
    PayloadTooSmall {
        /// The declared length.
        len: usize,
    },
    /// `path_len` disagrees with `payload_len`.
    PathLengthMismatch {
        /// Nodes the path field declares.
        declared: usize,
        /// Nodes the payload has room for.
        capacity: usize,
    },
    /// The record's path exceeds [`MAX_PATH_NODES`] (encode side).
    PathTooLong {
        /// Nodes in the path.
        len: usize,
    },
    /// The trailing checksum disagrees with the frame contents.
    ChecksumMismatch {
        /// Checksum computed over the received bytes.
        computed: u32,
        /// Checksum carried by the frame.
        carried: u32,
    },
    /// A v2 frame names a `(tenant, local)` pair outside the namespace
    /// (`tenant >= MAX_TENANTS` or `local >= TENANT_STRIDE`).
    InvalidTenant {
        /// The tenant id carried by the frame.
        tenant: u16,
        /// The offending tenant-local node id.
        local: u16,
    },
    /// Encoding a namespaced record found nodes from two different
    /// tenants on one path (the sink node `0` is exempt — it is shared).
    TenantMismatch {
        /// The record's tenant (from its origin).
        expected: u16,
        /// The tenant of the offending path node.
        found: u16,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic { found } => write!(f, "bad magic byte {found:#04x}"),
            Self::UnsupportedVersion { found } => write!(f, "unsupported wire version {found}"),
            Self::Truncated { needed, available } => {
                write!(f, "truncated frame: need {needed} bytes, have {available}")
            }
            Self::PayloadTooLarge { len } => {
                write!(
                    f,
                    "payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte cap"
                )
            }
            Self::PayloadTooSmall { len } => {
                write!(
                    f,
                    "payload of {len} bytes is below the {FIXED_PAYLOAD}-byte minimum"
                )
            }
            Self::PathLengthMismatch { declared, capacity } => {
                write!(
                    f,
                    "path declares {declared} nodes, payload holds {capacity}"
                )
            }
            Self::PathTooLong { len } => {
                write!(
                    f,
                    "path of {len} nodes exceeds the {MAX_PATH_NODES}-node cap"
                )
            }
            Self::ChecksumMismatch { computed, carried } => {
                write!(
                    f,
                    "checksum mismatch: computed {computed:#010x}, carried {carried:#010x}"
                )
            }
            Self::InvalidTenant { tenant, local } => {
                write!(
                    f,
                    "tenant {tenant} / local node {local} outside the namespace"
                )
            }
            Self::TenantMismatch { expected, found } => {
                write!(
                    f,
                    "path mixes tenants: record is tenant {expected}, node is tenant {found}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// FNV-1a, 32-bit. Not cryptographic — it guards against truncation and
/// line noise, not an adversary — but any single-byte change anywhere in
/// the frame always changes the digest (each round is a bijection of the
/// running state).
fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Encoded size of one record, including header and checksum.
pub fn encoded_len(p: &CollectedPacket) -> usize {
    HEADER_LEN + FIXED_PAYLOAD + 2 * p.path.len() + CHECKSUM_LEN
}

/// Writes one frame: header, the 2-byte tenant prefix when the version
/// carries one, the record, and the checksum over everything before it.
/// Callers have already validated the path length and the tenant.
fn write_frame(p: &CollectedPacket, tenant: Option<u16>, out: &mut Vec<u8>) {
    let version = if tenant.is_some() {
        VERSION_TENANT
    } else {
        VERSION
    };
    let payload_len = tenant_prefix(version) + FIXED_PAYLOAD + 2 * p.path.len();
    let start = out.len();
    out.reserve(HEADER_LEN + payload_len + CHECKSUM_LEN);
    out.push(MAGIC);
    out.push(version);
    out.extend_from_slice(&(payload_len as u16).to_le_bytes());
    if let Some(tenant) = tenant {
        out.extend_from_slice(&tenant.to_le_bytes());
    }
    out.extend_from_slice(&(p.pid.origin.index() as u16).to_le_bytes());
    out.extend_from_slice(&p.pid.seq.to_le_bytes());
    out.extend_from_slice(&p.gen_time.as_micros().to_le_bytes());
    out.extend_from_slice(&p.sink_arrival.as_micros().to_le_bytes());
    out.extend_from_slice(&p.sum_of_delays_ms.to_le_bytes());
    out.extend_from_slice(&p.e2e_ms.to_le_bytes());
    out.extend_from_slice(&(p.path.len() as u16).to_le_bytes());
    for n in &p.path {
        out.extend_from_slice(&(n.index() as u16).to_le_bytes());
    }
    let checksum = fnv1a32(&out[start..]);
    out.extend_from_slice(&checksum.to_le_bytes());
}

/// Appends one record as a frame.
///
/// # Errors
///
/// [`WireError::PathTooLong`] when the record's path exceeds
/// [`MAX_PATH_NODES`]; nothing is written in that case.
pub fn encode_packet(p: &CollectedPacket, out: &mut Vec<u8>) -> Result<(), WireError> {
    if p.path.len() > MAX_PATH_NODES {
        return Err(WireError::PathTooLong { len: p.path.len() });
    }
    write_frame(p, None, out);
    Ok(())
}

/// Appends one record as a v2 (tenant-aware) frame. The record's node
/// ids must be *tenant-local* (`< TENANT_STRIDE`); the receiver folds
/// `tenant` back into them on decode.
///
/// # Errors
///
/// [`WireError::PathTooLong`] as for [`encode_packet`], and
/// [`WireError::InvalidTenant`] when `tenant` is out of range or any
/// node id is not tenant-local; nothing is written on error.
pub fn encode_packet_v2(
    p: &CollectedPacket,
    tenant: u16,
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    if p.path.len() > MAX_PATH_NODES {
        return Err(WireError::PathTooLong { len: p.path.len() });
    }
    let locals = std::iter::once(p.pid.origin).chain(p.path.iter().copied());
    for node in locals {
        let local = node.index() as u16;
        if domo_cluster::namespace_node(tenant, local).is_none() {
            return Err(WireError::InvalidTenant { tenant, local });
        }
    }
    write_frame(p, Some(tenant), out);
    Ok(())
}

/// Appends one *internally namespaced* record in whichever wire version
/// carries it losslessly: tenant 0 records go out as v1 frames
/// (byte-compatible with legacy receivers), anything else as a v2
/// frame with the tenant split back out of the node ids. This is the
/// router's forwarding encoder: `decode → route → encode_namespaced`
/// round-trips bit-identically through a receiving sink's decoder.
///
/// # Errors
///
/// [`WireError::TenantMismatch`] when the record's path crosses tenant
/// namespaces (the shared sink node `0` is exempt), plus anything the
/// underlying encoder rejects.
pub fn encode_namespaced_packet(p: &CollectedPacket, out: &mut Vec<u8>) -> Result<(), WireError> {
    let tenant = domo_cluster::tenant_of(p.pid.origin.index() as u16);
    if tenant == 0 {
        return encode_packet(p, out);
    }
    let mut local = p.clone();
    local.pid.origin = NodeId::new(domo_cluster::local_of(local.pid.origin.index() as u16));
    for n in &mut local.path {
        let id = n.index() as u16;
        let node_tenant = domo_cluster::tenant_of(id);
        if id != domo_cluster::SINK_NODE && node_tenant != tenant {
            return Err(WireError::TenantMismatch {
                expected: tenant,
                found: node_tenant,
            });
        }
        *n = NodeId::new(domo_cluster::local_of(id));
    }
    encode_packet_v2(&local, tenant, out)
}

/// Encodes a whole trace as a contiguous frame stream.
///
/// # Errors
///
/// Fails on the first record [`encode_packet`] rejects.
pub fn encode_packets(packets: &[CollectedPacket]) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(packets.iter().map(encoded_len).sum());
    for p in packets {
        encode_packet(p, &mut out)?;
    }
    Ok(out)
}

fn read_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([buf[at], buf[at + 1]])
}

fn read_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
}

fn read_u64(buf: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Decodes the frame at the start of `buf`, returning the record and the
/// number of bytes consumed (so a contiguous stream decodes by slicing
/// forward).
///
/// # Errors
///
/// A typed [`WireError`] for any structural defect; `buf` is never
/// indexed out of bounds and the function never panics.
pub fn decode_packet(buf: &[u8]) -> Result<(CollectedPacket, usize), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            available: buf.len(),
        });
    }
    if buf[0] != MAGIC {
        return Err(WireError::BadMagic { found: buf[0] });
    }
    let version = buf[1];
    if version != VERSION && version != VERSION_TENANT {
        return Err(WireError::UnsupportedVersion { found: version });
    }
    let prefix = tenant_prefix(version);
    let fixed = FIXED_PAYLOAD + prefix;
    let payload_len = read_u16(buf, 2) as usize;
    if payload_len > MAX_PAYLOAD + prefix {
        return Err(WireError::PayloadTooLarge { len: payload_len });
    }
    if payload_len < fixed {
        return Err(WireError::PayloadTooSmall { len: payload_len });
    }
    let frame_len = HEADER_LEN + payload_len + CHECKSUM_LEN;
    if buf.len() < frame_len {
        return Err(WireError::Truncated {
            needed: frame_len,
            available: buf.len(),
        });
    }
    let computed = fnv1a32(&buf[..HEADER_LEN + payload_len]);
    let carried = read_u32(buf, HEADER_LEN + payload_len);
    if computed != carried {
        return Err(WireError::ChecksumMismatch { computed, carried });
    }
    // A v2 payload is a v1 payload shifted right by the tenant prefix.
    let tenant = if prefix > 0 {
        read_u16(buf, HEADER_LEN)
    } else {
        0
    };
    let p = HEADER_LEN + prefix;
    let origin = read_u16(buf, p);
    let seq = read_u32(buf, p + 2);
    let gen_us = read_u64(buf, p + 6);
    let sink_us = read_u64(buf, p + 14);
    let sum_ms = read_u16(buf, p + 22);
    let e2e_ms = read_u16(buf, p + 24);
    let path_len = read_u16(buf, p + 26) as usize;
    let capacity = (payload_len - fixed) / 2;
    if path_len != capacity || payload_len != fixed + 2 * path_len {
        return Err(WireError::PathLengthMismatch {
            declared: path_len,
            capacity,
        });
    }
    // Fold the tenant into the ids: past this point the record is in
    // the internal namespaced id space and tenancy is invisible. For a
    // v1 frame the fold is the identity (tenant 0, ids unchanged).
    let fold = |local: u16| -> Result<NodeId, WireError> {
        if version == VERSION {
            return Ok(NodeId::new(local));
        }
        domo_cluster::namespace_node(tenant, local)
            .map(NodeId::new)
            .ok_or(WireError::InvalidTenant { tenant, local })
    };
    let path: Vec<NodeId> = (0..path_len)
        .map(|i| fold(read_u16(buf, p + FIXED_PAYLOAD + 2 * i)))
        .collect::<Result<_, _>>()?;
    Ok((
        CollectedPacket {
            pid: PacketId::new(fold(origin)?, seq),
            gen_time: SimTime::from_micros(gen_us),
            sink_arrival: SimTime::from_micros(sink_us),
            path,
            sum_of_delays_ms: sum_ms,
            e2e_ms,
        },
        frame_len,
    ))
}

/// Decodes every frame of a contiguous stream.
///
/// # Errors
///
/// Fails on the first malformed frame, reporting its byte offset.
pub fn decode_packets(buf: &[u8]) -> Result<Vec<CollectedPacket>, (usize, WireError)> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < buf.len() {
        let (p, used) = decode_packet(&buf[at..]).map_err(|e| (at, e))?;
        out.push(p);
        at += used;
    }
    Ok(out)
}

/// How reading one frame from a byte stream ended.
#[derive(Debug)]
pub enum FrameReadError {
    /// The transport failed mid-frame.
    Io(std::io::Error),
    /// The bytes arrived but did not form a valid frame. The stream's
    /// frame alignment is lost after this; callers should drop the
    /// connection.
    Wire(WireError),
}

impl std::fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "transport error: {e}"),
            Self::Wire(e) => write!(f, "malformed frame: {e}"),
        }
    }
}

impl std::error::Error for FrameReadError {}

/// Reads one frame from a blocking byte stream. `Ok(None)` is a clean
/// end of stream at a frame boundary.
///
/// # Errors
///
/// [`FrameReadError::Io`] on transport failure (including EOF inside a
/// frame) and [`FrameReadError::Wire`] on a structurally invalid frame.
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Option<CollectedPacket>, FrameReadError> {
    let mut header = [0u8; HEADER_LEN];
    // Distinguish clean EOF (no bytes at all) from a torn frame.
    let mut got = 0;
    while got < HEADER_LEN {
        match reader
            .read(&mut header[got..])
            .map_err(FrameReadError::Io)?
        {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(FrameReadError::Wire(WireError::Truncated {
                    needed: HEADER_LEN,
                    available: got,
                }))
            }
            n => got += n,
        }
    }
    if header[0] != MAGIC {
        return Err(FrameReadError::Wire(WireError::BadMagic {
            found: header[0],
        }));
    }
    if header[1] != VERSION && header[1] != VERSION_TENANT {
        return Err(FrameReadError::Wire(WireError::UnsupportedVersion {
            found: header[1],
        }));
    }
    let payload_len = u16::from_le_bytes([header[2], header[3]]) as usize;
    if payload_len > MAX_PAYLOAD + tenant_prefix(header[1]) {
        return Err(FrameReadError::Wire(WireError::PayloadTooLarge {
            len: payload_len,
        }));
    }
    let mut frame = Vec::with_capacity(HEADER_LEN + payload_len + CHECKSUM_LEN);
    frame.extend_from_slice(&header);
    frame.resize(HEADER_LEN + payload_len + CHECKSUM_LEN, 0);
    reader
        .read_exact(&mut frame[HEADER_LEN..])
        .map_err(FrameReadError::Io)?;
    let (packet, _) = decode_packet(&frame).map_err(FrameReadError::Wire)?;
    Ok(Some(packet))
}

/// Incremental frame splitter for non-blocking transports.
///
/// [`read_frame`] assumes a blocking reader it can park on; a reactor
/// gets bytes in whatever chunks `read(2)` returns. The splitter
/// buffers those chunks ([`FrameSplitter::extend`]) and peels off
/// every complete frame ([`FrameSplitter::drain_frames`]), leaving a
/// partial tail buffered until the rest arrives. A structural defect
/// (bad magic, bad checksum, …) is returned as the typed [`WireError`];
/// frame alignment is lost after it and callers should drop the
/// connection, exactly as with [`read_frame`].
#[derive(Debug, Default)]
pub struct FrameSplitter {
    buf: Vec<u8>,
    at: usize,
}

impl FrameSplitter {
    /// An empty splitter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded — the connection's backlog
    /// (0 means the stream sits exactly on a frame boundary).
    pub fn backlog(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Decodes the next complete frame, or `Ok(None)` if the buffer
    /// holds only a partial one (feed more bytes and retry).
    ///
    /// # Errors
    ///
    /// The [`WireError`] of a structurally invalid frame.
    pub fn next_frame(&mut self) -> Result<Option<CollectedPacket>, WireError> {
        match decode_packet(&self.buf[self.at..]) {
            Ok((p, used)) => {
                self.at += used;
                if self.at == self.buf.len() {
                    self.buf.clear();
                    self.at = 0;
                }
                Ok(Some(p))
            }
            Err(WireError::Truncated { .. }) => {
                // Partial tail: compact the consumed prefix away so the
                // buffer never grows past one frame per idle stretch.
                if self.at > 0 {
                    self.buf.drain(..self.at);
                    self.at = 0;
                }
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Decodes *every* complete frame currently buffered into `out`,
    /// returning how many were appended — the per-read batch a reactor
    /// hands to `SinkService::ingest_batch`.
    ///
    /// # Errors
    ///
    /// The [`WireError`] of the first structurally invalid frame;
    /// frames decoded before it are already in `out`.
    pub fn drain_frames(&mut self, out: &mut Vec<CollectedPacket>) -> Result<usize, WireError> {
        let mut n = 0;
        while let Some(p) = self.next_frame()? {
            out.push(p);
            n += 1;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domo_net::{run_simulation, NetworkConfig};

    fn sample_packet() -> CollectedPacket {
        CollectedPacket {
            pid: PacketId::new(NodeId::new(7), 42),
            gen_time: SimTime::from_micros(1_500_000),
            sink_arrival: SimTime::from_micros(1_534_001),
            path: vec![NodeId::new(7), NodeId::new(3), NodeId::new(0)],
            sum_of_delays_ms: 12,
            e2e_ms: 34,
        }
    }

    #[test]
    fn round_trips_bit_identically() {
        let trace = run_simulation(&NetworkConfig::small(16, 900));
        let bytes = encode_packets(&trace.packets).expect("paths fit");
        let back = decode_packets(&bytes).expect("clean stream");
        assert_eq!(back, trace.packets);
    }

    #[test]
    fn encoded_len_matches_reality() {
        let p = sample_packet();
        let mut out = Vec::new();
        encode_packet(&p, &mut out).unwrap();
        assert_eq!(out.len(), encoded_len(&p));
        let (_, used) = decode_packet(&out).unwrap();
        assert_eq!(used, out.len());
    }

    #[test]
    fn every_truncation_is_rejected() {
        let mut out = Vec::new();
        encode_packet(&sample_packet(), &mut out).unwrap();
        for cut in 0..out.len() {
            let e = decode_packet(&out[..cut]).expect_err("prefix is torn");
            assert!(
                matches!(e, WireError::Truncated { .. }),
                "cut at {cut} gave {e:?}"
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let mut clean = Vec::new();
        encode_packet(&sample_packet(), &mut clean).unwrap();
        for at in 0..clean.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut bad = clean.clone();
                bad[at] ^= flip;
                assert!(
                    decode_packet(&bad).is_err(),
                    "corrupting byte {at} with {flip:#04x} went undetected"
                );
            }
        }
    }

    #[test]
    fn header_defects_are_typed() {
        let mut out = Vec::new();
        encode_packet(&sample_packet(), &mut out).unwrap();

        let mut bad = out.clone();
        bad[0] = 0x7f;
        assert_eq!(
            decode_packet(&bad).unwrap_err(),
            WireError::BadMagic { found: 0x7f }
        );

        let mut bad = out.clone();
        bad[1] = 9;
        assert_eq!(
            decode_packet(&bad).unwrap_err(),
            WireError::UnsupportedVersion { found: 9 }
        );

        let mut bad = out.clone();
        bad[2] = 0xff;
        bad[3] = 0xff;
        assert!(matches!(
            decode_packet(&bad).unwrap_err(),
            WireError::PayloadTooLarge { .. }
        ));

        let mut bad = out;
        bad[2] = 1;
        bad[3] = 0;
        assert!(matches!(
            decode_packet(&bad).unwrap_err(),
            WireError::PayloadTooSmall { len: 1 }
        ));
    }

    /// Internal ids of `sample_packet()` under tenant `t`, keeping the
    /// shared sink node 0 — the decode a v2 frame must produce.
    fn namespaced_sample(tenant: u16) -> CollectedPacket {
        let mut p = sample_packet();
        for n in std::iter::once(&mut p.pid.origin).chain(p.path.iter_mut()) {
            *n = NodeId::new(domo_cluster::namespace_node(tenant, n.index() as u16).unwrap());
        }
        p
    }

    #[test]
    fn v2_frames_decode_into_the_tenant_namespace() {
        let local = sample_packet();
        let mut bytes = Vec::new();
        encode_packet_v2(&local, 3, &mut bytes).unwrap();
        assert_eq!(bytes[1], VERSION_TENANT);
        let (got, used) = decode_packet(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(got, namespaced_sample(3));
        // The shared sink node stays node 0 for every tenant.
        assert!(got.path.last().unwrap().is_sink());
    }

    /// The compatibility contract: a legacy v1 frame carrying already
    /// namespaced ids and a v2 frame carrying `(tenant, local ids)`
    /// decode to the *identical* record — so v1 senders, WAL replays of
    /// old journals, and v2 routers can be mixed freely.
    #[test]
    fn v1_and_v2_decode_the_same_record_identically() {
        let tenant = 5;
        let mut v1 = Vec::new();
        encode_packet(&namespaced_sample(tenant), &mut v1).unwrap();
        let mut v2 = Vec::new();
        encode_packet_v2(&sample_packet(), tenant, &mut v2).unwrap();
        assert_eq!(v2.len(), v1.len() + 2, "v2 adds exactly the tenant prefix");
        let (from_v1, _) = decode_packet(&v1).unwrap();
        let (from_v2, _) = decode_packet(&v2).unwrap();
        assert_eq!(from_v1, from_v2);
        // And a tenant-0 v2 frame is the identity fold of a v1 frame.
        let mut v2_zero = Vec::new();
        encode_packet_v2(&sample_packet(), 0, &mut v2_zero).unwrap();
        let (from_zero, _) = decode_packet(&v2_zero).unwrap();
        assert_eq!(from_zero, sample_packet());
    }

    #[test]
    fn v2_rejects_out_of_namespace_pairs() {
        let local = sample_packet();
        let mut out = Vec::new();
        // Encode side: tenant out of range, and a non-local node id.
        assert_eq!(
            encode_packet_v2(&local, domo_cluster::MAX_TENANTS, &mut out),
            Err(WireError::InvalidTenant {
                tenant: domo_cluster::MAX_TENANTS,
                local: 7,
            })
        );
        let mut wide = local.clone();
        wide.path[1] = NodeId::new(domo_cluster::TENANT_STRIDE);
        assert_eq!(
            encode_packet_v2(&wide, 1, &mut out),
            Err(WireError::InvalidTenant {
                tenant: 1,
                local: domo_cluster::TENANT_STRIDE,
            })
        );
        assert!(out.is_empty(), "failed encodes write nothing");
        // Decode side: a frame hand-built with a hostile tenant id.
        let mut bytes = Vec::new();
        encode_packet_v2(&local, 3, &mut bytes).unwrap();
        bytes[HEADER_LEN] = 0xff; // tenant low byte -> 255
        bytes[HEADER_LEN + 1] = 0xff;
        let len = bytes.len();
        let sum = fnv1a32(&bytes[..len - CHECKSUM_LEN]);
        bytes[len - CHECKSUM_LEN..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode_packet(&bytes).unwrap_err(),
            WireError::InvalidTenant { tenant: 0xffff, .. }
        ));
    }

    #[test]
    fn namespaced_forwarding_encoder_round_trips() {
        // Tenant 0 forwards as byte-identical v1.
        let mut direct = Vec::new();
        encode_packet(&sample_packet(), &mut direct).unwrap();
        let mut forwarded = Vec::new();
        encode_namespaced_packet(&sample_packet(), &mut forwarded).unwrap();
        assert_eq!(forwarded, direct);
        // Other tenants forward as v2 and decode back bit-identically.
        let internal = namespaced_sample(4);
        let mut bytes = Vec::new();
        encode_namespaced_packet(&internal, &mut bytes).unwrap();
        assert_eq!(bytes[1], VERSION_TENANT);
        let (back, _) = decode_packet(&bytes).unwrap();
        assert_eq!(back, internal);
        // A path crossing tenant namespaces cannot be forwarded.
        let mut mixed = namespaced_sample(4);
        mixed.path[1] = NodeId::new(domo_cluster::namespace_node(2, 3).unwrap());
        let mut out = Vec::new();
        assert_eq!(
            encode_namespaced_packet(&mixed, &mut out),
            Err(WireError::TenantMismatch {
                expected: 4,
                found: 2,
            })
        );
    }

    #[test]
    fn every_single_byte_corruption_of_a_v2_frame_is_rejected() {
        let mut clean = Vec::new();
        encode_packet_v2(&sample_packet(), 3, &mut clean).unwrap();
        for at in 0..clean.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut bad = clean.clone();
                bad[at] ^= flip;
                assert!(
                    decode_packet(&bad).is_err(),
                    "corrupting v2 byte {at} with {flip:#04x} went undetected"
                );
            }
        }
    }

    #[test]
    fn splitter_handles_mixed_version_streams() {
        let mut stream = Vec::new();
        encode_packet(&namespaced_sample(1), &mut stream).unwrap();
        encode_packet_v2(&sample_packet(), 2, &mut stream).unwrap();
        encode_packet(&sample_packet(), &mut stream).unwrap();
        for chunk in [1usize, 5, stream.len()] {
            let mut sp = FrameSplitter::new();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                sp.extend(piece);
                sp.drain_frames(&mut got).unwrap();
            }
            assert_eq!(
                got,
                vec![namespaced_sample(1), namespaced_sample(2), sample_packet()],
                "chunk size {chunk}"
            );
            assert_eq!(sp.backlog(), 0);
        }
    }

    #[test]
    fn oversized_paths_fail_to_encode() {
        let mut p = sample_packet();
        p.path = (0..=MAX_PATH_NODES as u16).map(NodeId::new).collect();
        let mut out = Vec::new();
        assert_eq!(
            encode_packet(&p, &mut out),
            Err(WireError::PathTooLong {
                len: MAX_PATH_NODES + 1
            })
        );
        assert!(out.is_empty(), "failed encode writes nothing");
    }

    #[test]
    fn stream_reader_round_trips_and_flags_torn_tails() {
        let trace = run_simulation(&NetworkConfig::small(9, 901));
        let bytes = encode_packets(&trace.packets).unwrap();
        let mut cursor = std::io::Cursor::new(&bytes);
        let mut back = Vec::new();
        while let Some(p) = read_frame(&mut cursor).expect("clean stream") {
            back.push(p);
        }
        assert_eq!(back, trace.packets);

        // A stream ending mid-frame is an error, not a silent drop.
        let torn = &bytes[..bytes.len() - 3];
        let mut cursor = std::io::Cursor::new(torn);
        let mut err = None;
        loop {
            match read_frame(&mut cursor) {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(err.is_some(), "torn tail must surface an error");
    }

    #[test]
    fn decode_stream_reports_offsets() {
        let mut bytes = encode_packets(&[sample_packet()]).unwrap();
        let good_len = bytes.len();
        bytes.extend_from_slice(&[0x99; 4]); // garbage after a valid frame
        let (offset, e) = decode_packets(&bytes).unwrap_err();
        assert_eq!(offset, good_len);
        assert_eq!(e, WireError::BadMagic { found: 0x99 });
        // A lone trailing byte is a torn frame, reported as truncation.
        let torn = &bytes[..good_len + 1];
        let (_, e) = decode_packets(torn).unwrap_err();
        assert!(matches!(e, WireError::Truncated { .. }));
    }

    #[test]
    fn splitter_yields_every_frame_at_any_chunking() {
        let trace = run_simulation(&NetworkConfig::small(9, 902));
        let stream = encode_packets(&trace.packets).unwrap();
        // Byte-by-byte, odd chunks, and one giant feed must all yield
        // the identical packet sequence with no leftover backlog.
        for chunk in [1usize, 3, 7, 64, stream.len()] {
            let mut sp = FrameSplitter::new();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                sp.extend(piece);
                sp.drain_frames(&mut got).unwrap();
            }
            assert_eq!(got, trace.packets, "chunk size {chunk}");
            assert_eq!(sp.backlog(), 0);
        }
    }

    #[test]
    fn splitter_keeps_a_torn_tail_until_it_completes() {
        let stream = encode_packets(&[sample_packet(), sample_packet()]).unwrap();
        // Mid-frame, not on the boundary between the two equal frames.
        let cut = stream.len() / 2 + 3;
        let mut sp = FrameSplitter::new();
        sp.extend(&stream[..cut]);
        let mut got = Vec::new();
        sp.drain_frames(&mut got).unwrap();
        assert!(got.len() < 2);
        assert!(sp.backlog() > 0, "partial frame stays buffered");
        sp.extend(&stream[cut..]);
        sp.drain_frames(&mut got).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(sp.backlog(), 0);
    }

    #[test]
    fn splitter_surfaces_typed_defects_and_keeps_earlier_frames() {
        let mut stream = encode_packets(&[sample_packet()]).unwrap();
        stream.extend_from_slice(&[0x99; 8]); // garbage after a valid frame
        let mut sp = FrameSplitter::new();
        sp.extend(&stream);
        let mut got = Vec::new();
        let e = sp.drain_frames(&mut got).unwrap_err();
        assert_eq!(e, WireError::BadMagic { found: 0x99 });
        assert_eq!(got.len(), 1, "the valid frame before the defect decoded");
    }

    #[test]
    fn errors_render_useful_messages() {
        let msgs = [
            WireError::BadMagic { found: 1 }.to_string(),
            WireError::Truncated {
                needed: 8,
                available: 3,
            }
            .to_string(),
            WireError::ChecksumMismatch {
                computed: 1,
                carried: 2,
            }
            .to_string(),
            WireError::PathLengthMismatch {
                declared: 3,
                capacity: 4,
            }
            .to_string(),
        ];
        assert!(msgs[0].contains("magic"));
        assert!(msgs[1].contains("need 8"));
        assert!(msgs[2].contains("checksum"));
        assert!(msgs[3].contains("3 nodes"));
    }
}
