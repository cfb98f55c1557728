//! Binary codec for warm-start checkpoints.
//!
//! A snapshot is a flat little-endian byte stream with no schema or field
//! tagging; the one tag is [`SNAPSHOT_LAYOUT`], the stream's first word,
//! because a cache directory outlives the build that filled it. Each
//! component states its field order once, in one `snap` walk over a
//! [`Snap`]: the [`SnapWriter`] appends every field, the [`SnapReader`]
//! overwrites it from the stream and checks the geometry echoes. A length
//! prefix larger than the bytes left is refused before anything is
//! resized, so a corrupt stream is an error, never a huge allocation.
//! Only what a later cycle can read is written: a ring buffer contributes
//! its head, its length and its live entries, not its empty slots, and a
//! head or length outside the ring is refused by name. The cache key
//! upstream binds the full configuration, and the cache file carries a
//! checksum of the body, so a restore error (another layout, another
//! geometry, a short stream) only means "run cold".

use crate::packet::{Flit, FlitKind};

/// Version of the stream [`Network::snapshot`](crate::Network::snapshot)
/// writes, checked first by `restore`. Bump it with any change to what a
/// component writes or in which order. (2: injection VCs are rows of the
/// datapath image, in-flight entries are stored channel by channel. 3:
/// the datapath writes each ring's head and length and then only its live
/// flits, oldest first, since the rings hold handles into one flit slab.)
pub(crate) const SNAPSHOT_LAYOUT: u64 = 3;

/// Every failure is a `String`, so the caller can fold it into "cache
/// miss, run cold".
pub(crate) type SnapResult<T = ()> = Result<T, String>;

/// The stream's code for each flit kind is its index here.
const FLIT_KINDS: [FlitKind; 4] = [
    FlitKind::Head,
    FlitKind::Body,
    FlitKind::Tail,
    FlitKind::Single,
];

/// One direction of a snapshot walk. A component's `snap` moves every
/// field through these methods in its fixed order: the writer leaves the
/// values as they are, the reader overwrites them. Every field type is
/// built on [`Snap::raw`], so each byte layout is stated once.
pub(crate) trait Snap {
    /// Moves one fixed-width field.
    fn raw(&mut self, bytes: &mut [u8]) -> SnapResult;

    /// Bytes still to read (unbounded when writing).
    fn left(&self) -> usize;

    fn u8(&mut self, v: &mut u8) -> SnapResult {
        let mut b = v.to_le_bytes();
        self.raw(&mut b)?;
        *v = u8::from_le_bytes(b);
        Ok(())
    }

    fn u16(&mut self, v: &mut u16) -> SnapResult {
        let mut b = v.to_le_bytes();
        self.raw(&mut b)?;
        *v = u16::from_le_bytes(b);
        Ok(())
    }

    fn u32(&mut self, v: &mut u32) -> SnapResult {
        let mut b = v.to_le_bytes();
        self.raw(&mut b)?;
        *v = u32::from_le_bytes(b);
        Ok(())
    }

    fn u64(&mut self, v: &mut u64) -> SnapResult {
        let mut b = v.to_le_bytes();
        self.raw(&mut b)?;
        *v = u64::from_le_bytes(b);
        Ok(())
    }

    /// A `usize` stored as `u64` (snapshots move between processes, not
    /// architectures, but the width is pinned anyway).
    fn usize(&mut self, v: &mut usize) -> SnapResult {
        let mut w = *v as u64;
        self.u64(&mut w)?;
        *v = w as usize;
        Ok(())
    }

    /// The geometry echo: the stored value must equal the live structure's
    /// `live`, which catches a snapshot applied to the wrong configuration.
    fn echo(&mut self, live: usize, what: &str) -> SnapResult {
        let mut got = live;
        self.usize(&mut got)?;
        if got != live {
            return Err(format!(
                "snapshot {what} mismatch: stored {got}, live {live}"
            ));
        }
        Ok(())
    }

    /// The length prefix of a collection holding `live` elements; returns
    /// the stored length, which the caller resizes to (a no-op when
    /// writing). Every element takes at least one byte, so a length past
    /// the bytes left is refused here, before anything is allocated.
    fn len(&mut self, live: usize, what: &str) -> SnapResult<usize> {
        let mut n = live;
        self.usize(&mut n)?;
        if n > self.left() {
            return Err(format!(
                "snapshot truncated: {what} {n} exceeds the {} bytes left",
                self.left()
            ));
        }
        Ok(n)
    }

    fn flit(&mut self, f: &mut Flit) -> SnapResult {
        self.u64(&mut f.packet.0)?;
        let mut kind = FLIT_KINDS
            .iter()
            .position(|&k| k == f.kind)
            .expect("every kind has a code") as u8;
        self.u8(&mut kind)?;
        f.kind = *FLIT_KINDS
            .get(usize::from(kind))
            .ok_or_else(|| format!("snapshot flit kind {kind} out of range"))?;
        self.u16(&mut f.src.0)?;
        self.u16(&mut f.dest.0)?;
        self.u16(&mut f.seq)?;
        self.u16(&mut f.size)?;
        self.u64(&mut f.birth)?;
        self.u8(&mut f.class)?;
        self.u8(&mut f.vc)
    }

    /// Moves every element of `items` through `field`.
    fn each<'a, T: 'a>(
        &mut self,
        items: impl IntoIterator<Item = &'a mut T>,
        mut field: impl FnMut(&mut Self, &mut T) -> SnapResult,
    ) -> SnapResult {
        items.into_iter().try_for_each(|v| field(self, v))
    }
}

/// Appends every field to the stream it holds.
pub(crate) struct SnapWriter(pub Vec<u8>);

impl Snap for SnapWriter {
    #[inline]
    fn raw(&mut self, bytes: &mut [u8]) -> SnapResult {
        self.0.extend_from_slice(bytes);
        Ok(())
    }

    fn left(&self) -> usize {
        usize::MAX
    }
}

/// Overwrites every field from a stream, in writer order.
pub(crate) struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Fails unless every byte has been consumed — trailing garbage means
    /// the stream and the reader disagree about the state inventory.
    pub fn done(&self) -> SnapResult {
        if self.left() != 0 {
            return Err(format!(
                "snapshot has {} unread trailing bytes",
                self.left()
            ));
        }
        Ok(())
    }
}

impl Snap for SnapReader<'_> {
    #[inline]
    fn raw(&mut self, bytes: &mut [u8]) -> SnapResult {
        let n = bytes.len();
        if n > self.left() {
            return Err(format!(
                "snapshot truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.left()
            ));
        }
        bytes.copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(())
    }

    fn left(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketId;
    use footprint_topology::NodeId;

    #[test]
    fn scalar_round_trip() {
        let (mut a, mut b, mut c, mut d, mut e) =
            (7u8, 300u16, 70_000u32, u64::MAX - 1, 12345usize);
        let mut w = SnapWriter(Vec::new());
        w.u8(&mut a).unwrap();
        w.u16(&mut b).unwrap();
        w.u32(&mut c).unwrap();
        w.u64(&mut d).unwrap();
        w.usize(&mut e).unwrap();
        let (mut a, mut b, mut c, mut d, mut e) = (0, 0, 0, 0, 0);
        let mut r = SnapReader::new(&w.0);
        r.u8(&mut a).unwrap();
        r.u16(&mut b).unwrap();
        r.u32(&mut c).unwrap();
        r.u64(&mut d).unwrap();
        r.usize(&mut e).unwrap();
        assert_eq!((a, b, c, d, e), (7, 300, 70_000, u64::MAX - 1, 12345));
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
        let mut w = SnapWriter(Vec::new());
        w.flit(&mut f.clone()).unwrap();
        let mut got = crate::soa::VACANT;
        let mut r = SnapReader::new(&w.0);
        r.flit(&mut got).unwrap();
        assert_eq!(got, f);
        r.done().unwrap();
        // A kind code past the last kind is an error, not a panic.
        w.0[8] = 4;
        let err = SnapReader::new(&w.0).flit(&mut got).unwrap_err();
        assert!(err.contains("flit kind 4 out of range"), "{err}");
    }

    #[test]
    fn truncation_and_trailing_are_errors() {
        let mut w = SnapWriter(Vec::new());
        w.u64(&mut 1).unwrap();
        assert!(SnapReader::new(&w.0[..4]).u64(&mut 0).is_err());
        let mut r = SnapReader::new(&w.0);
        let mut v = 0;
        r.u32(&mut v).unwrap();
        assert_eq!(v, 1);
        assert!(r.done().is_err());
        // A length prefix past the bytes left is refused before any
        // element is read.
        let err = SnapReader::new(&w.0).len(0, "queue").unwrap_err();
        assert!(err.contains("queue 1 exceeds the 0 bytes left"), "{err}");
    }

    #[test]
    fn geometry_echo_catches_mismatch() {
        let mut w = SnapWriter(Vec::new());
        w.echo(16, "nodes").unwrap();
        let err = SnapReader::new(&w.0).echo(64, "nodes").unwrap_err();
        assert_eq!(err, "snapshot nodes mismatch: stored 16, live 64");
    }
}
