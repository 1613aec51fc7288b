//! The online sink service: Domo's reconstruction pipeline as a
//! long-running network daemon.
//!
//! The paper's pipeline is offline — collect the whole trace at the
//! sink, then solve. `domo_core::streaming` already showed the windowed
//! solver works online; this crate puts a service in front of it:
//!
//! * [`wire`] — a compact, versioned, checksummed binary frame format
//!   for [`domo_net::CollectedPacket`] records (the paper's 4-byte
//!   in-packet overhead plus the sink-side metadata), with a total
//!   decoder that maps every malformed input to a typed error.
//! * [`service`] — [`service::SinkService`]: N shard workers, each
//!   wrapping a `StreamingEstimator`, fed through bounded drop-oldest
//!   queues. Records are sanitized and deduplicated on the way in;
//!   overload, malformed input, and quarantines are counters, never
//!   panics.
//! * [`server`] — [`server::SinkServer`]: a TCP ingestion listener
//!   (a bounded reactor: a fixed worker pool sweeps non-blocking
//!   connections, decodes every complete frame per read, and submits
//!   them through [`service::SinkService::ingest_batch`]) and a
//!   line-delimited query listener (`STATS` / `NODES` / `PACKET` /
//!   `RANGE` / `AGG` / `SUBSCRIBE` / `DRAIN` / `FLUSH`), including the
//!   `SUBSCRIBE` push streams backed by `domo_query`'s fan-out hub.
//! * [`client`] — the query client, a replay driver that streams a
//!   simulated [`domo_net::NetworkTrace`] over the wire at a
//!   configurable rate, and the [`client::tail_events`] follower that
//!   consumes a push stream with reconnect and packet-id
//!   deduplication, so the whole service is testable end-to-end
//!   without real hardware.
//! * [`route`] — the coordinator-free cluster layer (DESIGN.md §17):
//!   a consistent-hash [`route::Router`] that fans frames across N
//!   sink processes by `(tenant, subtree-root)` with per-member
//!   reconnect, failover, and exactly-once spool replay, plus the
//!   scatter-gather query mergers ([`route::cluster_stats`],
//!   [`route::cluster_range`], [`route::cluster_agg`]).
//!
//! # Examples
//!
//! In-process, no sockets:
//!
//! ```
//! use domo_sink::service::{SinkConfig, SinkService};
//!
//! let trace = domo_net::run_simulation(&domo_net::NetworkConfig::small(9, 1));
//! let service = SinkService::start(SinkConfig::default());
//! // `ingest_batch` is the one admission path; `ingest(p)` is the same
//! // call with a batch of one, for callers that want a per-record
//! // `IngestOutcome`. Any split of the trace gives the same result.
//! let (head, rest) = trace.packets.split_at(1);
//! service.ingest(head[0].clone());
//! service.ingest_batch(rest);
//! service.drain();
//! let snapshot = service.snapshot();
//! assert_eq!(snapshot.stats.emitted, trace.packets.len() as u64);
//! service.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod persist;
mod reactor;
pub mod route;
pub mod server;
pub mod service;
pub mod wire;

pub use client::{
    query_request, replay_packets, replay_packets_multi, tail_events, QueryClient, ReplayOptions,
    ReplayReport, TailOptions, TailReport,
};
pub use persist::{RecoveryReport, StoreConfig, StoreErrorPolicy};
pub use route::{
    cluster_agg, cluster_range, cluster_stats, route_connection, route_packets, GatherReport,
    RouteOptions, RouteReport, Router,
};
pub use server::SinkServer;
pub use service::{
    BatchIngestReport, HealthStatus, IngestOutcome, NodeDelaySummary, SinkConfig, SinkHealth,
    SinkService, SinkSnapshot, SinkStatsSnapshot, StoreStatus, StoredReconstruction, SubTotals,
};
pub use wire::{decode_packet, encode_packet, encode_packets, FrameSplitter, WireError};
