//! Property: admission is partition invariant. The sink has one
//! admission path (`ingest_batch`; `ingest` is a batch of one), and
//! for *any* partition of a workload into calls it must produce
//! bit-identical reconstructions, equal accounting, the same journal
//! bytes, and the same dedup set as the whole workload submitted as
//! one batch — including duplicate pids that straddle batch boundaries
//! and a durability failure that lands mid-batch.
//!
//! The workload is a simulated trace concatenated with itself, so
//! every run carries one duplicate of every pid; the partitions below
//! put the duplicate in the same batch as the original (the whole-trace
//! reference), in a different batch (halves, random sizes), and in its
//! own call (singletons, driven through the public per-record `ingest`
//! so that entry point stays covered).

use domo::net::{run_simulation, CollectedPacket, NetworkConfig, PacketId};
use domo::sink::service::{SinkConfig, SinkService, SinkStatsSnapshot};
use domo::sink::StoreConfig;
use domo::store::{FaultPlan, FsyncPolicy};
use domo::util::rng::Xoshiro256pp;
use std::path::{Path, PathBuf};

fn workload() -> (Vec<CollectedPacket>, Vec<PacketId>) {
    let trace = run_simulation(&NetworkConfig::small(12, 1702));
    assert!(!trace.packets.is_empty(), "trace delivered nothing");
    let mut w = trace.packets.clone();
    w.extend(trace.packets.iter().cloned());
    let pids = trace.packets.iter().map(|p| p.pid).collect();
    (w, pids)
}

/// Batch-size sequences, each summing to `n`: halves, singletons, and
/// four seeded random partitions (the one-batch partition is the
/// reference they are all compared against).
fn partitions(n: usize) -> Vec<Vec<usize>> {
    let mut parts = vec![vec![n / 2, n - n / 2], vec![1; n]];
    let mut rng = Xoshiro256pp::seed_from_u64(0xD0B0);
    for _ in 0..4 {
        let mut sizes = Vec::new();
        let mut left = n;
        while left > 0 {
            let s = (rng.range_u64(1..64) as usize).min(left);
            sizes.push(s);
            left -= s;
        }
        parts.push(sizes);
    }
    parts
}

/// Feeds `w` to `service` in calls of the given sizes; a call of one
/// record goes through `ingest`.
fn feed(service: &SinkService, w: &[CollectedPacket], sizes: &[usize]) {
    let mut off = 0;
    for &s in sizes {
        if s == 1 {
            service.ingest(w[off].clone());
        } else {
            service.ingest_batch(&w[off..off + s]);
        }
        off += s;
    }
    assert_eq!(off, w.len(), "partition does not cover the workload");
}

/// Runs `observe` on the whole-workload batch (tag `ref`) and on every
/// partition, and requires each partition's observation to equal the
/// reference's, which is returned for the caller's sanity checks.
fn assert_partition_invariant<T: PartialEq + std::fmt::Debug>(
    n: usize,
    observe: impl Fn(&str, &[usize]) -> T,
) -> T {
    let reference = observe("ref", &[n]);
    for (i, sizes) in partitions(n).into_iter().enumerate() {
        assert_eq!(
            observe(&format!("part{i}"), &sizes),
            reference,
            "partition {i} ({:?}…) diverged from the one-batch reference",
            &sizes[..sizes.len().min(8)]
        );
    }
    reference
}

/// One packet's reconstruction as exact hop-time bit patterns plus
/// path length (equality must be bit-identical, not approximate).
type ReconBits = Option<(Vec<u64>, usize)>;

/// Every reconstruction, in `pids` order.
fn reconstructions(service: &SinkService, pids: &[PacketId]) -> Vec<ReconBits> {
    pids.iter()
        .map(|pid| {
            service.reconstruction(*pid).map(|r| {
                let bits: Vec<u64> = r.hop_times_ms.iter().map(|t| t.to_bits()).collect();
                (bits, r.path.len())
            })
        })
        .collect()
}

fn scratch_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("domo-batch-equiv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// All files under `dir`, as sorted (relative-name, bytes) pairs.
fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return out,
    };
    for entry in entries {
        let entry = entry.expect("dir entry");
        let path = entry.path();
        if path.is_file() {
            let name = entry.file_name().to_string_lossy().into_owned();
            out.push((name, std::fs::read(&path).expect("read wal file")));
        }
    }
    out.sort();
    out
}

/// A one-shard durable configuration whose only journal writes are the
/// admission appends: no fsyncs, no automatic checkpoints or probes.
fn durable_cfg(dir: &Path, faults: Option<FaultPlan>) -> SinkConfig {
    SinkConfig {
        shards: 1,
        queue_capacity: 1 << 20,
        max_retained_packets: 1 << 20,
        store: Some(StoreConfig {
            fsync: FsyncPolicy::Never,
            checkpoint_every: u64::MAX,
            probe_every: u64::MAX,
            faults,
            ..StoreConfig::at(dir)
        }),
        ..SinkConfig::default()
    }
}

#[test]
fn any_partition_matches_per_packet_ingest_volatile() {
    let (w, pids) = workload();
    let (stats, recon): (SinkStatsSnapshot, Vec<ReconBits>) =
        assert_partition_invariant(w.len(), |_, sizes| {
            let service = SinkService::start(SinkConfig {
                shards: 2,
                queue_capacity: 1 << 20,
                max_retained_packets: 1 << 20,
                ..SinkConfig::default()
            });
            feed(&service, &w, sizes);
            service.drain();
            let observed = (service.stats(), reconstructions(&service, &pids));
            service.shutdown();
            observed
        });
    assert_eq!(stats.ingested, pids.len() as u64, "dups must dedup");
    assert_eq!(stats.quarantined, pids.len() as u64, "one dup per pid");
    assert_eq!(stats.backpressure_dropped, 0, "queue bound must not bite");
    assert!(recon.iter().any(Option::is_some), "nothing reconstructed");
}

#[test]
fn any_partition_writes_identical_journal_bytes() {
    let (w, pids) = workload();
    // Observed per run: stats, dedup-set size, journal files.
    let (_stats, dedup, wal) = assert_partition_invariant(w.len(), |tag, sizes| {
        let dir = scratch_root(tag);
        let service = SinkService::open(durable_cfg(&dir, None)).expect("open durable sink");
        feed(&service, &w, sizes);
        service.drain();
        let stats = service.stats();
        let dedup = service.store_status().expect("durable").dedup_pids;
        service.shutdown();
        let wal = dir_bytes(&dir.join("wal"));
        let _ = std::fs::remove_dir_all(&dir);
        (stats, dedup, wal)
    });
    assert_eq!(dedup, pids.len(), "journal dedup set holds each pid once");
    assert!(
        wal.iter().map(|(_, b)| b.len()).sum::<usize>() > 0,
        "empty journal"
    );
}

#[test]
fn mid_batch_store_failure_matches_per_packet_semantics() {
    let (w, pids) = workload();
    // Durability dies permanently a couple dozen mutating ops in —
    // inside the WAL-append stream, so for every multi-record batch
    // partition the failure lands *mid-batch*. A huge estimator
    // high-water keeps result appends out of the ingest window, so the
    // fault-op sequence is exactly the WAL appends and deterministic
    // across runs.
    let faults = FaultPlan {
        eio: 1.0,
        fsync: 1.0,
        after_ops: 24,
        for_ops: 0, // forever: degraded for the rest of the run
        ..FaultPlan::default()
    };
    // Observed per run: stats, un-journaled ledger, journaled prefix.
    let (stats, unjournaled, _wal) = assert_partition_invariant(w.len(), |tag, sizes| {
        let dir = scratch_root(&format!("fault-{tag}"));
        let service = SinkService::open(SinkConfig {
            high_water: Some(1 << 20),
            ..durable_cfg(&dir, Some(faults))
        })
        .expect("fault window starts post-open");
        feed(&service, &w, sizes);
        // Capture the degradation ledger before drain: the flush that
        // drain triggers fails too (backlogging results), but that is
        // emission-side and not under test here.
        let unjournaled = service.health_status().unjournaled;
        let stats = service.stats();
        service.drain();
        service.shutdown();
        let wal = dir_bytes(&dir.join("wal"));
        let _ = std::fs::remove_dir_all(&dir);
        (stats, unjournaled, wal)
    });
    assert_eq!(
        stats.ingested,
        pids.len() as u64,
        "degradation must not reject"
    );
    assert!(
        unjournaled > 0 && unjournaled < pids.len() as u64,
        "failure must land mid-stream: {unjournaled} of {}",
        pids.len()
    );
}
