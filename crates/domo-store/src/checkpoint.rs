//! Atomic checkpoint files.
//!
//! A checkpoint is one opaque payload naming the WAL position it
//! covers: "every record with `lsn < covered` is folded into this
//! state". Files are `ckpt-<covered:016x>.bin`:
//!
//! ```text
//! offset  size  field
//! 0       8     file magic   "DOMOCKP1"
//! 8       8     covered lsn  u64 little-endian
//! 16      n     payload      opaque caller bytes
//! 16+n    4     checksum     FNV-1a-32 over everything before it
//! ```
//!
//! **Atomicity.** [`CheckpointStore::save`] writes to a temp file,
//! fsyncs it, renames it into place, and fsyncs the directory — so a
//! checkpoint either exists completely or not at all. The newest two
//! checkpoints are retained; [`CheckpointStore::latest`] walks newest
//! to oldest and returns the first one whose checksum validates, so a
//! corrupt latest (torn rename is impossible, but disk rot is not)
//! falls back to its predecessor instead of failing recovery.

use crate::fnv1a32;
use crate::vfs::{RealIo, StoreIo};
use domo_obs::LazyCounter;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// 8-byte magic opening every checkpoint file.
pub const FILE_MAGIC: &[u8; 8] = b"DOMOCKP1";
/// How many validated checkpoints to keep on disk.
pub const KEEP: usize = 2;

static OBS_SAVED: LazyCounter = LazyCounter::new("domo_store_checkpoints_saved_total", &[]);
static OBS_BYTES: LazyCounter = LazyCounter::new("domo_store_checkpoint_bytes_total", &[]);
static OBS_SKIPPED: LazyCounter =
    LazyCounter::new("domo_store_checkpoints_skipped_corrupt_total", &[]);

/// A checkpoint read back from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedCheckpoint {
    /// Every WAL record with `lsn < covered` is reflected in `payload`.
    pub covered: u64,
    /// The caller's serialized state.
    pub payload: Vec<u8>,
}

/// Directory of atomic checkpoint files.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    io: Arc<dyn StoreIo>,
}

fn ckpt_path(dir: &Path, covered: u64) -> PathBuf {
    dir.join(format!("ckpt-{covered:016x}.bin"))
}

fn list(io: &dyn StoreIo, dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out: Vec<(u64, PathBuf)> = io
        .list_dir(dir)?
        .into_iter()
        .filter_map(|p| {
            let name = p.file_name()?.to_str()?;
            let hex = name.strip_prefix("ckpt-")?.strip_suffix(".bin")?;
            Some((u64::from_str_radix(hex, 16).ok()?, p.clone()))
        })
        .collect();
    out.sort();
    Ok(out)
}

impl CheckpointStore {
    /// Opens (creating if needed) the checkpoint directory.
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn open<P: AsRef<Path>>(dir: P) -> std::io::Result<Self> {
        Self::open_with_io(dir, Arc::new(RealIo))
    }

    /// [`CheckpointStore::open`] with an explicit I/O backend.
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn open_with_io<P: AsRef<Path>>(dir: P, io: Arc<dyn StoreIo>) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        io.create_dir_all(&dir)?;
        // Leftover temp files are checkpoints that never committed.
        for p in io.list_dir(&dir)? {
            if p.extension().is_some_and(|e| e == "tmp") {
                io.remove_file(&p)?;
            }
        }
        Ok(Self { dir, io })
    }

    /// Atomically persists `payload` as the checkpoint covering
    /// `lsn < covered`, then prunes beyond the newest [`KEEP`].
    ///
    /// # Errors
    ///
    /// Filesystem failures; on error no partial checkpoint is visible.
    pub fn save(&self, covered: u64, payload: &[u8]) -> std::io::Result<()> {
        self.save_owned(covered, payload.to_vec())
    }

    /// [`CheckpointStore::save`] of a payload the caller hands over: the
    /// file is framed inside that buffer, so a large checkpoint is never
    /// held twice.
    ///
    /// # Errors
    ///
    /// Filesystem failures; on error no partial checkpoint is visible.
    pub fn save_owned(&self, covered: u64, payload: Vec<u8>) -> std::io::Result<()> {
        let mut bytes = payload;
        let mut header = [0u8; FILE_MAGIC.len() + 8];
        header[..FILE_MAGIC.len()].copy_from_slice(FILE_MAGIC);
        header[FILE_MAGIC.len()..].copy_from_slice(&covered.to_le_bytes());
        // Exact room for the frame: `splice` alone would grow the
        // buffer by doubling, allocating twice the payload.
        bytes.reserve_exact(header.len() + 4);
        bytes.splice(0..0, header);
        let sum = fnv1a32(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());

        let tmp = self.dir.join(format!("ckpt-{covered:016x}.tmp"));
        {
            let mut f = self.io.create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_data()?;
        }
        self.io.rename(&tmp, &ckpt_path(&self.dir, covered))?;
        // Persist the rename itself (directory entry) before claiming
        // durability.
        self.io.sync_dir(&self.dir)?;
        OBS_SAVED.inc();
        OBS_BYTES.add(bytes.len() as u64);

        let all = list(self.io.as_ref(), &self.dir)?;
        if all.len() > KEEP {
            for (_, path) in &all[..all.len() - KEEP] {
                self.io.remove_file(path)?;
            }
        }
        Ok(())
    }

    /// Returns the newest checkpoint that validates, or `None` if no
    /// usable checkpoint exists. Corrupt files are skipped (and
    /// counted), not errored.
    ///
    /// # Errors
    ///
    /// Filesystem failures while listing/reading.
    pub fn latest(&self) -> std::io::Result<Option<LoadedCheckpoint>> {
        for (covered, path) in list(self.io.as_ref(), &self.dir)?.into_iter().rev() {
            let bytes = self.io.read(&path)?;
            if let Some(loaded) = validate(covered, &bytes) {
                return Ok(Some(loaded));
            }
            OBS_SKIPPED.inc();
        }
        Ok(None)
    }

    /// Number of checkpoint files currently on disk.
    ///
    /// # Errors
    ///
    /// Filesystem failures while listing.
    pub fn count(&self) -> std::io::Result<usize> {
        Ok(list(self.io.as_ref(), &self.dir)?.len())
    }
}

fn validate(covered: u64, bytes: &[u8]) -> Option<LoadedCheckpoint> {
    let min = FILE_MAGIC.len() + 8 + 4;
    if bytes.len() < min || &bytes[..FILE_MAGIC.len()] != FILE_MAGIC {
        return None;
    }
    let body = &bytes[..bytes.len() - 4];
    let carried = u32::from_le_bytes([
        bytes[bytes.len() - 4],
        bytes[bytes.len() - 3],
        bytes[bytes.len() - 2],
        bytes[bytes.len() - 1],
    ]);
    if fnv1a32(body) != carried {
        return None;
    }
    let mut lsn = [0u8; 8];
    lsn.copy_from_slice(&body[FILE_MAGIC.len()..FILE_MAGIC.len() + 8]);
    let stamped = u64::from_le_bytes(lsn);
    // The filename and the stamped LSN must agree — a mismatch means
    // the file was moved or tampered with.
    if stamped != covered {
        return None;
    }
    Some(LoadedCheckpoint {
        covered,
        payload: body[FILE_MAGIC.len() + 8..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("domo-ckpt-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_then_latest_round_trips_and_prunes() {
        let dir = tmp("round");
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.latest().unwrap(), None);
        store.save(10, b"state-a").unwrap();
        store.save(20, b"state-b").unwrap();
        store.save(30, b"state-c").unwrap();
        let latest = store.latest().unwrap().unwrap();
        assert_eq!(latest.covered, 30);
        assert_eq!(latest.payload, b"state-c");
        // Only the newest KEEP survive.
        assert_eq!(store.count().unwrap(), KEEP);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn owned_save_writes_the_documented_layout() {
        let dir = tmp("owned");
        let store = CheckpointStore::open(&dir).unwrap();
        let payload: Vec<u8> = (0..=255u8).cycle().take(5000).collect();
        store.save_owned(0x1234, payload.clone()).unwrap();
        let mut want = FILE_MAGIC.to_vec();
        want.extend_from_slice(&0x1234u64.to_le_bytes());
        want.extend_from_slice(&payload);
        let sum = fnv1a32(&want);
        want.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(std::fs::read(ckpt_path(&dir, 0x1234)).unwrap(), want);
        assert_eq!(store.latest().unwrap().unwrap().payload, payload);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_latest_falls_back_to_the_previous_good_one() {
        let dir = tmp("fallback");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save(5, b"good-old").unwrap();
        store.save(9, b"good-new").unwrap();
        // Rot a byte in the newest file.
        let newest = ckpt_path(&dir, 9);
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&newest, &bytes).unwrap();
        let latest = store.latest().unwrap().unwrap();
        assert_eq!(latest.covered, 5);
        assert_eq!(latest.payload, b"good-old");
        // All checkpoints corrupt → None, not an error.
        let oldest = ckpt_path(&dir, 5);
        std::fs::write(&oldest, b"garbage").unwrap();
        assert_eq!(store.latest().unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leftover_temp_files_are_swept_at_open() {
        let dir = tmp("sweep");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("ckpt-00000000000000ff.tmp"), b"half-written").unwrap();
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.latest().unwrap(), None);
        assert!(!dir.join("ckpt-00000000000000ff.tmp").exists());
        // An empty payload is a legal checkpoint (fresh service state).
        store.save(0, b"").unwrap();
        assert_eq!(store.latest().unwrap().unwrap().payload, b"");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
