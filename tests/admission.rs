//! The sink's single admission path, seen from its two public
//! entries: a record submitted through `ingest` takes every step a
//! batched record takes (its trace journey shows them), and concurrent
//! `ingest_batch` callers with overlapping pid sets admit each pid
//! exactly once with the accounting balanced.

use domo::net::{run_simulation, NetworkConfig};
use domo::obs::trace::{self, Stage};
use domo::sink::service::{BatchIngestReport, IngestOutcome, SinkConfig, SinkService};
use domo::sink::StoreConfig;
use std::sync::{Barrier, Mutex};

/// The trace sampler and its journey store are process globals keyed
/// by pid, and both tests feed the same simulated pids: they take
/// turns.
static SAMPLER: Mutex<()> = Mutex::new(());

#[test]
fn per_record_ingest_is_stamped_like_a_batch_member() {
    let _turn = SAMPLER.lock().unwrap_or_else(|e| e.into_inner());
    let sim = run_simulation(&NetworkConfig::small(9, 1801));
    let p = sim.packets[0].clone();
    let dir = std::env::temp_dir().join(format!("domo-admission-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = SinkService::open(SinkConfig {
        shards: 1,
        store: Some(StoreConfig::at(&dir)),
        ..SinkConfig::default()
    })
    .expect("open durable sink");

    trace::set_sample_every(Some(1));
    trace::clear_journeys();
    let outcome = service.ingest(p.clone());
    let journey = trace::journey(p.pid.origin.index() as u16, p.pid.seq);
    trace::set_sample_every(None);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(outcome, IngestOutcome::Accepted);
    let stages: Vec<Stage> = journey
        .expect("sampled at 1/1")
        .into_iter()
        .map(|(stage, _)| stage)
        .collect();
    // Stored journeys are in pipeline order, so the admission stages
    // are its head (the worker may already have appended later ones).
    assert!(
        stages.starts_with(&[Stage::BatchSubmit, Stage::WalAppend, Stage::ShardEnqueue]),
        "journey of a per-record ingest is missing admission stages: {stages:?}"
    );
}

#[test]
fn concurrent_batches_admit_each_pid_exactly_once() {
    let _turn = SAMPLER.lock().unwrap_or_else(|e| e.into_inner());
    let sim = run_simulation(&NetworkConfig::small(12, 1802));
    let packets = &sim.packets;
    let total = packets.len() as u64;
    assert!(total > 32, "trace too small to interleave");
    // A queue far smaller than the trace, so pushes evict while the
    // other thread is admitting: the shed ledger is under test too.
    let service = SinkService::start(SinkConfig {
        shards: 2,
        queue_capacity: 8,
        ..SinkConfig::default()
    });

    // Both threads submit the *whole* trace, cut differently, released
    // together: every pid is offered twice, from two threads.
    let start = Barrier::new(2);
    let submit = |chunk: usize| {
        start.wait();
        let mut sum = BatchIngestReport::default();
        for batch in packets.chunks(chunk) {
            let r = service.ingest_batch(batch);
            assert_eq!(
                r.accepted + r.quarantined + r.quota_rejected + r.closed,
                batch.len() as u64,
                "every record lands in exactly one bucket"
            );
            sum.accepted += r.accepted;
            sum.quarantined += r.quarantined;
            sum.saturated += r.saturated;
        }
        sum
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| submit(7));
        let b = s.spawn(|| submit(5));
        (
            a.join().expect("submitter a"),
            b.join().expect("submitter b"),
        )
    });
    service.drain();
    let stats = service.stats();
    service.shutdown();

    assert_eq!(a.accepted + b.accepted, total, "each pid accepted once");
    assert_eq!(
        a.quarantined + b.quarantined,
        total,
        "and its second offer quarantined as a duplicate"
    );
    assert_eq!(stats.ingested, total);
    assert_eq!(stats.quarantined, total);
    assert_eq!(stats.backpressure_dropped, a.saturated + b.saturated);
    assert_eq!(
        stats.emitted + stats.backpressure_dropped,
        stats.ingested,
        "after drain every admitted record is emitted or counted shed"
    );
}
