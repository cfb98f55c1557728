//! On-disk warm-start snapshot cache.
//!
//! A snapshot stores the complete post-warmup state of a network (see
//! `footprint_sim::Network::snapshot`) keyed by a canonical description of
//! everything that influences that state: topology, router geometry,
//! routing algorithm, traffic, packet-size mix, injection rate, seed,
//! warmup length and scheduler. The rate and seed are deliberately **in**
//! the key — warmup is rate-coupled (the congestion pattern at cycle
//! `warmup` depends on the offered load) and the RNG stream is
//! seed-coupled, so sharing a snapshot across either would silently trade
//! bit-identity for hit rate. A cache hit therefore resumes the *exact*
//! run that produced it.
//!
//! Files are written atomically (temp file + rename) and verified on read:
//! the first line must echo the full key followed by the body's length and
//! FNV-1a checksum, so a hash collision, a stale file, a truncated file or
//! a flipped bit anywhere degrades to a cache miss, never a wrong restore.
//! All failures are soft — a broken cache only costs the warmup.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// 64-bit FNV-1a: over the canonical key it names the cache file, over
/// the body it is the checksum in the header line.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn path_for(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("warmup-{:016x}.snap", fnv64(key.as_bytes())))
}

/// The first line of the file holding `body` under `key`.
fn header(key: &str, body: &[u8]) -> String {
    format!("{key} len={} fnv={:016x}", body.len(), fnv64(body))
}

/// Loads the snapshot bytes for `key`, or `None` on any miss: no file,
/// unreadable file, or a file whose first line is not the header of its
/// body under this key.
pub(crate) fn load(dir: &Path, key: &str) -> Option<Vec<u8>> {
    let bytes = fs::read(path_for(dir, key)).ok()?;
    let newline = bytes.iter().position(|&b| b == b'\n')?;
    let body = &bytes[newline + 1..];
    (bytes[..newline] == *header(key, body).as_bytes()).then(|| body.to_vec())
}

/// Stores `body` under `key`, best-effort: creates `dir` if needed, writes
/// to a temp file and renames into place so concurrent sweep workers never
/// observe a half-written snapshot. Errors are swallowed — the cache is an
/// accelerator, not a correctness dependency.
pub(crate) fn store(dir: &Path, key: &str, body: &[u8]) {
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    let fin = path_for(dir, key);
    let tmp = fin.with_extension(format!("tmp.{}", std::process::id()));
    let write = |p: &Path| -> std::io::Result<()> {
        let mut f = fs::File::create(p)?;
        f.write_all(header(key, body).as_bytes())?;
        f.write_all(b"\n")?;
        f.write_all(body)?;
        f.sync_all()
    };
    if write(&tmp).is_ok() {
        let _ = fs::rename(&tmp, &fin);
    }
    let _ = fs::remove_file(&tmp);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_key_mismatch() {
        let dir = std::env::temp_dir().join(format!("footprint-snapcache-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(load(&dir, "k1"), None, "empty cache misses");
        store(&dir, "k1", b"payload\x00with\nbytes");
        assert_eq!(load(&dir, "k1").as_deref(), Some(&b"payload\x00with\nbytes"[..]));
        assert_eq!(load(&dir, "k2"), None, "different key misses");
        // A colliding filename with the wrong embedded key degrades to a miss.
        fs::write(path_for(&dir, "k3"), header("not-k3", b"junk") + "\njunk").unwrap();
        assert_eq!(load(&dir, "k3"), None);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A stored file with any one bit flipped, or cut short anywhere, is a
    /// miss: the engine then runs cold and overwrites it.
    #[test]
    fn every_bit_flip_and_truncation_is_a_miss() {
        let dir = std::env::temp_dir().join(format!("footprint-snapflip-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let body: Vec<u8> = (0..48u8).map(|i| i.wrapping_mul(37) ^ b'\n').collect();
        assert!(body.contains(&b'\n'), "newlines in the body are covered");
        store(&dir, "k 1", &body);
        let path = path_for(&dir, "k 1");
        let good = fs::read(&path).unwrap();
        for at in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[at] ^= 1 << bit;
                fs::write(&path, &bad).unwrap();
                assert_eq!(load(&dir, "k 1"), None, "bit {bit} of byte {at} flipped");
            }
            fs::write(&path, &good[..at]).unwrap();
            assert_eq!(load(&dir, "k 1"), None, "cut to {at} bytes");
        }
        fs::write(&path, &good).unwrap();
        assert_eq!(load(&dir, "k 1"), Some(body));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned so cache files survive across builds of the same layout.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"footprint"), fnv64(b"footprint"));
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
    }
}
