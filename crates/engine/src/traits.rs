//! The engine abstraction.

use std::fmt;
use std::sync::Arc;

use sequin_query::Query;
use sequin_runtime::RuntimeStats;
use sequin_types::{CodecError, StreamItem, Timestamp};

use crate::output::OutputItem;

/// The three evaluation strategies compared throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Classic SASE fed raw arrivals (correct only in order).
    InOrder,
    /// K-slack reorder buffer in front of the classic engine.
    Buffered,
    /// The paper's native out-of-order engine.
    Native,
}

impl Strategy {
    /// All strategies, in presentation order.
    pub const ALL: [Strategy; 3] = [Strategy::InOrder, Strategy::Buffered, Strategy::Native];
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Strategy::InOrder => "in-order",
            Strategy::Buffered => "k-slack-buffer",
            Strategy::Native => "native-ooo",
        };
        f.write_str(s)
    }
}

/// A complete query-evaluation strategy over a stream of arrivals.
///
/// Implementations stamp arrival sequence numbers internally; callers feed
/// raw [`StreamItem`]s in arrival order and collect [`OutputItem`]s.
///
/// `Send` is a supertrait so engines (and the [`crate::MultiEngine`]
/// built from them) can be handed to a dedicated evaluation thread, as the
/// server crate does; engine state is plain owned data, so every
/// implementation satisfies it for free.
pub trait Engine: Send {
    /// Ingests one arrival (event or punctuation); returns the output it
    /// triggered.
    fn ingest(&mut self, item: &StreamItem) -> Vec<OutputItem>;

    /// Ingests a run of arrivals, returning `(item_index, output)` pairs
    /// in emission order. Semantically identical to calling
    /// [`Engine::ingest`] per item (the default does exactly that); a
    /// pool of several workers overrides it to fan one batch out across
    /// its threads.
    fn ingest_batch(&mut self, items: &[StreamItem]) -> Vec<(usize, OutputItem)> {
        let mut out = Vec::new();
        for (ix, item) in items.iter().enumerate() {
            out.extend(self.ingest(item).into_iter().map(|o| (ix, o)));
        }
        out
    }

    /// Signals end-of-stream: releases everything still held (reorder
    /// buffers drain; pending negation matches are sealed as if a final
    /// punctuation at `Timestamp::MAX` arrived).
    fn finish(&mut self) -> Vec<OutputItem>;

    /// Operator cost counters accumulated so far.
    fn stats(&self) -> RuntimeStats;

    /// Events/instances currently held (stacks + buffers + pending),
    /// the evaluation's memory metric.
    fn state_size(&self) -> usize;

    /// The query under evaluation.
    fn query(&self) -> &Arc<Query>;

    /// The engine's current low-watermark, when it tracks one. The
    /// minimum over a host's queries is what [`crate::Checkpointer`]'s
    /// watermark-advance cadence watches.
    fn watermark(&self) -> Option<Timestamp> {
        None
    }

    /// The engine's stream clock — the maximum occurrence timestamp it has
    /// observed — when it tracks one. `clock − watermark` is the
    /// **watermark lag**: how far behind event time the engine's safe
    /// horizon sits under the current disorder bound.
    fn clock(&self) -> Option<Timestamp> {
        None
    }

    /// The engine's current disorder-bound estimate (`K`, or the adaptive
    /// `K̂`), when it tracks one. Exposed as the `sequin_slack_bound`
    /// gauge; under [`crate::DisorderPolicy::AdaptiveSlack`] this is the
    /// live output of the slack control loop.
    fn slack_bound(&self) -> Option<sequin_types::Duration> {
        None
    }

    /// Live partition-key index entries, summed over the query's positive
    /// slots: how many per-key stacks the engine holds right now (0 for an
    /// unpartitioned query, and for engines that keep none). Exposed as
    /// the `sequin_partition_keys` gauge.
    fn partition_keys(&self) -> usize {
        0
    }

    /// Serializes the engine's complete mutable state into a checksummed
    /// envelope. Engines without snapshot support return
    /// [`CodecError::Unsupported`].
    fn snapshot(&self) -> Result<Vec<u8>, CodecError> {
        Err(CodecError::Unsupported("snapshot for this engine"))
    }

    /// Replaces the engine's state with a snapshot produced by
    /// [`Engine::snapshot`] on an identically configured engine. On error
    /// the previous state is left untouched (all-or-nothing).
    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let _ = bytes;
        Err(CodecError::Unsupported("restore for this engine"))
    }
}

/// Convenience: run `items` through `engine`, then finish, collecting all
/// output.
pub fn run_to_end(engine: &mut dyn Engine, items: &[StreamItem]) -> Vec<OutputItem> {
    let mut out = Vec::new();
    for item in items {
        out.extend(engine.ingest(item));
    }
    out.extend(engine.finish());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_display() {
        assert_eq!(Strategy::InOrder.to_string(), "in-order");
        assert_eq!(Strategy::Buffered.to_string(), "k-slack-buffer");
        assert_eq!(Strategy::Native.to_string(), "native-ooo");
        assert_eq!(Strategy::ALL.len(), 3);
    }
}
