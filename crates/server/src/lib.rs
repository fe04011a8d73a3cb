//! # sequin-server
//!
//! The networked face of sequin: a TCP (or in-memory) server that ingests
//! arrival-ordered event streams from remote sources, evaluates every
//! registered query over the shared stream, and pushes matches back to
//! subscribers — the deployment shape the Li et al. testbed assumes, where
//! sources and the processing engine are separate machines and the network
//! between them is exactly what makes arrival out-of-order.
//!
//! Built entirely on `std::net` + threads (no async runtime):
//!
//! * [`frame`] — the length-prefixed, checksummed wire protocol (sealed
//!   envelopes from `sequin_types::codec`, so corruption in flight is
//!   rejected, never misread);
//! * [`transport`] — [`Transport`]/[`FrameSink`] abstraction with a real
//!   TCP implementation and a socketless in-memory pair whose links run
//!   every frame through a [`sequin_netsim::FramePlan`] fault schedule;
//! * [`core`] — the engine thread's single-threaded state: multi-query
//!   evaluation, subscriptions, and checkpointed exactly-once restarts;
//! * [`server`] — session reader threads feeding one engine thread over a
//!   bounded queue (blocking backpressure + BUSY advisories past the
//!   high-water mark), graceful drain, durable resume; the engine thread
//!   drives a [`Step`], which `sequin-sim` drives too;
//! * [`client`] — a synchronous [`Client`] speaking the same protocol,
//!   with a background reader so server pushes never deadlock the wire;
//! * [`loadgen`] — loopback load generator that replays a prepared stream
//!   through a real socket and verifies the outputs byte-for-byte against
//!   an in-process oracle run;
//! * [`stats`] — [`ServerStats`] connection/frame/backpressure counters,
//!   served locally and over the wire;
//! * [`bundle`] — postmortem bundles as sealed envelopes, on the same
//!   codec as frames and stores.
//!
//! Telemetry exposition rides the same protocol: a `METRICS_REQ` frame
//! (Prometheus text, JSON series, or the structured trace ring as JSON)
//! is answered by the engine thread from its `sequin-obs` recorder, and a
//! HELLO with fingerprint `0` acts as a read-only *observer wildcard* so
//! monitoring tools can scrape without knowing the schema.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod client;
pub mod core;
pub mod frame;
mod inbox;
pub mod loadgen;
pub mod server;
pub mod stats;
pub mod transport;

pub use bundle::{decode_bundle, encode_bundle, write_bundle};
pub use client::{Client, ClientError};
pub use core::{CoreConfig, EngineCore, SubscribeError};
pub use frame::{
    decode_frame, encode_frame, ErrorCode, Frame, MetricsFormat, OutputFrame, TraceFormat,
    MAX_FRAME_LEN, TRACE_ALL_OUTPUTS, TRACE_ALL_QUERIES,
};
pub use loadgen::{loopback_run, NetBenchReport};
pub use server::{Effect, Perform, Server, ServerConfig, Shared, Step};
pub use stats::ServerStats;
pub use transport::{mem_pair, FrameSink, MemTransport, TcpTransport, Transport};
