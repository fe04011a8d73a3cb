//! Loopback load generation with oracle verification.
//!
//! [`loopback_run`] boots a real server on an ephemeral TCP port, replays
//! a prepared arrival stream through a [`crate::Client`], drains, and
//! then holds the received OUTPUT frames against an **in-process oracle**:
//! the same [`EngineCore`] configuration fed the same stream directly, its
//! outputs encoded through the same frame encoder. The comparison is
//! *byte-identical* — not just the same matches, but the same kinds,
//! emission bookkeeping, and wire encoding — which pins down the claim
//! that putting the network in the middle changes nothing about
//! evaluation. Used by `sequin netbench` and the CI smoke test.

use std::time::Instant;

use sequin_engine::DisorderPolicy;
use sequin_runtime::RuntimeStats;
use sequin_types::StreamItem;

use crate::client::Client;
use crate::core::{CoreConfig, EngineCore};
use crate::frame::{encode_frame, Frame, OutputFrame};
use crate::server::{Server, ServerConfig};
use crate::stats::ServerStats;

/// What a [`loopback_run`] observed.
#[derive(Debug, Clone)]
pub struct NetBenchReport {
    /// Stream items replayed over the socket.
    pub items: usize,
    /// OUTPUT frames received (verified byte-identical to the oracle's).
    pub outputs: usize,
    /// BUSY advisories the client saw.
    pub busy: u64,
    /// End-to-end items/second over the socket (send → drain-acked).
    pub throughput_eps: f64,
    /// Server-side connection/frame counters at the end of the run.
    pub server: ServerStats,
    /// Aggregated engine counters at the end of the run.
    pub engine: RuntimeStats,
}

fn oracle_frames(
    core: &CoreConfig,
    queries: &[(String, Option<DisorderPolicy>)],
    stream: &[StreamItem],
) -> Result<Vec<Vec<u8>>, String> {
    let mut cfg = core.clone();
    cfg.checkpoint_every = None; // durability must not affect output
    let mut oracle = EngineCore::new(cfg);
    for (q, policy) in queries {
        oracle
            .subscribe_with_policy(q, *policy)
            .map_err(|e| e.to_string())?;
    }
    let mut out = Vec::new();
    for item in stream {
        out.extend(oracle.ingest(item));
    }
    out.extend(oracle.finish());
    Ok(out
        .into_iter()
        .map(|(qid, item)| encode_frame(&Frame::Output(OutputFrame::of(qid.index() as u64, &item))))
        .collect())
}

/// Replays `stream` through a loopback TCP server evaluating `queries`
/// (each with an optional per-query [`DisorderPolicy`] request, `None`
/// meaning the server default) and verifies the streamed outputs
/// byte-for-byte against the in-process oracle. Every SUB_ACK's effective
/// policy is checked against the request, so the negotiation round-trip
/// itself is under test. Consecutive events are shipped in EVENT_BATCH
/// frames of up to `batch` events (`batch <= 1` sends singletons);
/// punctuations flush.
pub fn loopback_run(
    core: CoreConfig,
    queries: &[(String, Option<DisorderPolicy>)],
    stream: &[StreamItem],
    batch: usize,
) -> Result<NetBenchReport, String> {
    let expected = oracle_frames(&core, queries, stream)?;

    let fingerprint = core.registry.fingerprint();
    let default_policy = core.engine.policy;
    let server_cfg = ServerConfig::new(core);
    // queries register through SUBSCRIBE (not pre-registration) so each
    // one's policy request actually reaches the negotiation path
    let mut server = Server::start(server_cfg)?;
    let addr = server.listen("127.0.0.1:0").map_err(|e| e.to_string())?;

    let run = || -> Result<(Vec<OutputFrame>, u64, ServerStats, RuntimeStats, f64), String> {
        let mut client = Client::connect(&addr.to_string()).map_err(|e| e.to_string())?;
        let (resume_from, _) = client
            .hello(fingerprint, "netbench")
            .map_err(|e| e.to_string())?;
        if resume_from != 0 {
            return Err(format!("fresh server reported resume_from {resume_from}"));
        }
        for (q, policy) in queries {
            let (_, effective) = client
                .subscribe_with_policy(q, *policy)
                .map_err(|e| e.to_string())?;
            let want = policy.unwrap_or(default_policy);
            if effective != want {
                return Err(format!(
                    "SUB_ACK policy {effective:?} != negotiated {want:?} for {q:?}"
                ));
            }
        }

        let started = Instant::now();
        client
            .send_stream(stream, batch)
            .map_err(|e| e.to_string())?;
        client.drain().map_err(|e| e.to_string())?;
        let elapsed = started.elapsed().as_secs_f64();
        let eps = if elapsed > 0.0 {
            stream.len() as f64 / elapsed
        } else {
            f64::INFINITY
        };

        let (server_stats, engine_stats) = client.stats().map_err(|e| e.to_string())?;
        let outputs = client.take_outputs();
        let busy = client.busy_seen();
        client.bye();
        Ok((outputs, busy, server_stats, engine_stats, eps))
    };

    let result = run();
    server.shutdown();
    let (outputs, busy, server_stats, engine_stats, eps) = result?;

    let received: Vec<Vec<u8>> = outputs
        .iter()
        .map(|o| encode_frame(&Frame::Output(o.clone())))
        .collect();
    if received.len() != expected.len() {
        return Err(format!(
            "output count diverged: networked {} vs in-process {}",
            received.len(),
            expected.len()
        ));
    }
    for (ix, (got, want)) in received.iter().zip(&expected).enumerate() {
        if got != want {
            return Err(format!(
                "output {ix} not byte-identical to the in-process oracle"
            ));
        }
    }

    Ok(NetBenchReport {
        items: stream.len(),
        outputs: received.len(),
        busy,
        throughput_eps: eps,
        server: server_stats,
        engine: engine_stats,
    })
}
