//! Binary codec for warm-start checkpoints.
//!
//! A snapshot is a flat little-endian byte stream: every component writes
//! its dynamic state in a fixed field order and reads it back in the same
//! order, validating geometry echoes as it goes. There is no schema or
//! field tagging; the one tag is [`SNAPSHOT_LAYOUT`], the stream's first
//! word, because a cache directory outlives the build that filled it. The
//! cache key upstream binds the full configuration, and the cache file
//! carries a checksum of the body, so a restore error (another layout,
//! another geometry, a short stream) only means "run cold".

use crate::packet::{Flit, FlitKind, PacketId};
use footprint_topology::NodeId;

/// Version of the stream [`Network::snapshot`](crate::Network::snapshot)
/// writes, checked first by `restore`. Bump it with any change to what a
/// component writes or in which order. (2: injection VCs are rows of the
/// datapath image, wires are stored in channel order.)
pub(crate) const SNAPSHOT_LAYOUT: u64 = 2;

/// Appends fixed-width little-endian fields to a growing buffer.
pub(crate) struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A `usize` stored as `u64` (snapshots move between processes, not
    /// architectures, but the width is pinned anyway).
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    #[inline]
    pub fn flit(&mut self, f: &Flit) {
        self.u64(f.packet.0);
        self.u8(match f.kind {
            FlitKind::Head => 0,
            FlitKind::Body => 1,
            FlitKind::Tail => 2,
            FlitKind::Single => 3,
        });
        self.u16(f.src.0);
        self.u16(f.dest.0);
        self.u16(f.seq);
        self.u16(f.size);
        self.u64(f.birth);
        self.u8(f.class);
        self.u8(f.vc);
    }
}

/// Reads the fields back in writer order; every error is a `String` so the
/// caller can fold any failure into "cache miss, run cold".
pub(crate) struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).ok_or("snapshot offset overflow")?;
        if end > self.buf.len() {
            return Err(format!(
                "snapshot truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    #[inline]
    pub fn usize(&mut self) -> Result<usize, String> {
        Ok(self.u64()? as usize)
    }

    /// Reads a `usize` and checks it against the live structure's value —
    /// the geometry echo that catches a snapshot applied to the wrong
    /// configuration.
    pub fn expect_usize(&mut self, expected: usize, what: &str) -> Result<(), String> {
        let got = self.usize()?;
        if got != expected {
            return Err(format!("snapshot {what} mismatch: stored {got}, live {expected}"));
        }
        Ok(())
    }

    pub fn flit(&mut self) -> Result<Flit, String> {
        let packet = PacketId(self.u64()?);
        let kind = match self.u8()? {
            0 => FlitKind::Head,
            1 => FlitKind::Body,
            2 => FlitKind::Tail,
            3 => FlitKind::Single,
            k => return Err(format!("snapshot flit kind {k} out of range")),
        };
        let src = NodeId(self.u16()?);
        let dest = NodeId(self.u16()?);
        let seq = self.u16()?;
        let size = self.u16()?;
        let birth = self.u64()?;
        let class = self.u8()?;
        let vc = self.u8()?;
        Ok(Flit {
            packet,
            kind,
            src,
            dest,
            seq,
            size,
            birth,
            class,
            vc,
        })
    }

    /// Fails unless every byte has been consumed — trailing garbage means
    /// the stream and the reader disagree about the state inventory.
    pub fn done(&self) -> Result<(), String> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "snapshot has {} unread trailing bytes",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(u64::MAX - 1);
        w.usize(12345);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.usize().unwrap(), 12345);
        r.done().unwrap();
    }

    #[test]
    fn flit_round_trip() {
        let f = Flit {
            packet: PacketId(99),
            kind: FlitKind::Tail,
            src: NodeId(3),
            dest: NodeId(60),
            seq: 2,
            size: 3,
            birth: 1_000_000,
            class: 5,
            vc: 9,
        };
        let mut w = SnapWriter::new();
        w.flit(&f);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.flit().unwrap(), f);
        r.done().unwrap();
    }

    #[test]
    fn truncation_and_trailing_are_errors() {
        let mut w = SnapWriter::new();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..4]);
        assert!(r.u64().is_err());
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u32().unwrap(), 1);
        assert!(r.done().is_err());
    }

    #[test]
    fn geometry_echo_catches_mismatch() {
        let mut w = SnapWriter::new();
        w.usize(16);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(r.expect_usize(64, "nodes").is_err());
    }
}
