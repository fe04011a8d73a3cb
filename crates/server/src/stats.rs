//! Connection/frame/backpressure counters for the server.

use sequin_types::codec::{CodecError, Decode, Encode, Reader, Writer};

/// Counters accumulated by the listener, session readers, and engine
/// thread. Rendered locally with `sequin_metrics::pairs_table` and shipped
/// to clients inside a `STATS_REPLY` frame (hence the codec impls).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Sessions accepted (TCP or in-memory transports attached).
    pub connections_opened: u64,
    /// Sessions that have ended, cleanly or not.
    pub connections_closed: u64,
    /// Frames successfully decoded from clients.
    pub frames_received: u64,
    /// Frames written to clients (outputs, acks, advisories, errors).
    pub frames_sent: u64,
    /// Events accepted into the ingest queue (batch members included).
    pub events_ingested: u64,
    /// EVENT_BATCH frames accepted.
    pub batches_ingested: u64,
    /// Punctuations accepted into the ingest queue.
    pub punctuations_ingested: u64,
    /// SUBSCRIBE frames acknowledged.
    pub subscriptions: u64,
    /// Frames rejected before reaching the engine: envelope corruption,
    /// unknown tags, protocol-state violations, schema mismatches.
    pub rejected_frames: u64,
    /// BUSY advisories sent when the ingest queue crossed its high-water
    /// mark.
    pub busy_frames_sent: u64,
    /// Arrival frames and requests a session reader held back until their
    /// items (a request's one) fitted in the engine thread's bounded inbox
    /// (the backpressure actually applied, as opposed to advised).
    pub backpressure_stalls: u64,
    /// DRAIN requests honored.
    pub drains: u64,
    /// Ingest batches the engine thread coalesced off the queue.
    pub engine_batches: u64,
    /// Largest single coalesced ingest batch.
    pub max_engine_batch: u64,
}

impl ServerStats {
    /// Named-counter view, in struct order, for tables and assertions.
    pub fn as_pairs(&self) -> [(&'static str, u64); 14] {
        [
            ("connections_opened", self.connections_opened),
            ("connections_closed", self.connections_closed),
            ("frames_received", self.frames_received),
            ("frames_sent", self.frames_sent),
            ("events_ingested", self.events_ingested),
            ("batches_ingested", self.batches_ingested),
            ("punctuations_ingested", self.punctuations_ingested),
            ("subscriptions", self.subscriptions),
            ("rejected_frames", self.rejected_frames),
            ("busy_frames_sent", self.busy_frames_sent),
            ("backpressure_stalls", self.backpressure_stalls),
            ("drains", self.drains),
            ("engine_batches", self.engine_batches),
            ("max_engine_batch", self.max_engine_batch),
        ]
    }
}

impl Encode for ServerStats {
    fn encode(&self, w: &mut Writer) {
        for (_, v) in self.as_pairs() {
            w.put_u64(v);
        }
    }
}

impl Decode for ServerStats {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ServerStats {
            connections_opened: r.get_u64()?,
            connections_closed: r.get_u64()?,
            frames_received: r.get_u64()?,
            frames_sent: r.get_u64()?,
            events_ingested: r.get_u64()?,
            batches_ingested: r.get_u64()?,
            punctuations_ingested: r.get_u64()?,
            subscriptions: r.get_u64()?,
            rejected_frames: r.get_u64()?,
            busy_frames_sent: r.get_u64()?,
            backpressure_stalls: r.get_u64()?,
            drains: r.get_u64()?,
            engine_batches: r.get_u64()?,
            max_engine_batch: r.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trip_covers_every_field() {
        // distinct value per counter so an order bug cannot cancel out
        let s = ServerStats {
            connections_opened: 1,
            connections_closed: 2,
            frames_received: 3,
            frames_sent: 4,
            events_ingested: 5,
            batches_ingested: 6,
            punctuations_ingested: 7,
            subscriptions: 8,
            rejected_frames: 9,
            busy_frames_sent: 10,
            backpressure_stalls: 11,
            drains: 12,
            engine_batches: 13,
            max_engine_batch: 14,
        };
        let mut w = Writer::new();
        s.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(ServerStats::decode(&mut r).unwrap(), s);
        r.finish().unwrap();
        let pairs = s.as_pairs();
        assert_eq!(pairs.len(), 14);
        for (i, (_, v)) in pairs.iter().enumerate() {
            assert_eq!(*v, i as u64 + 1);
        }
    }
}
