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
    /// The fields that are gauges, not counts since start.
    pub const GAUGES: [&'static str; 2] = ["subscriptions", "max_engine_batch"];

    /// The one field list, in wire order: the codec's and the metrics
    /// series'.
    fn fields_mut(&mut self) -> [(&'static str, &mut u64); 14] {
        [
            ("connections_opened", &mut self.connections_opened),
            ("connections_closed", &mut self.connections_closed),
            ("frames_received", &mut self.frames_received),
            ("frames_sent", &mut self.frames_sent),
            ("events_ingested", &mut self.events_ingested),
            ("batches_ingested", &mut self.batches_ingested),
            ("punctuations_ingested", &mut self.punctuations_ingested),
            ("subscriptions", &mut self.subscriptions),
            ("rejected_frames", &mut self.rejected_frames),
            ("busy_frames_sent", &mut self.busy_frames_sent),
            ("backpressure_stalls", &mut self.backpressure_stalls),
            ("drains", &mut self.drains),
            ("engine_batches", &mut self.engine_batches),
            ("max_engine_batch", &mut self.max_engine_batch),
        ]
    }

    /// Named-counter view, in struct order, for tables and assertions.
    pub fn as_pairs(&self) -> [(&'static str, u64); 14] {
        let mut copy = *self;
        copy.fields_mut().map(|(name, v)| (name, *v))
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
        let mut stats = ServerStats::default();
        for (_, v) in stats.fields_mut() {
            *v = r.get_u64()?;
        }
        Ok(stats)
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
        // each field in its own slot, in slot order, and nothing after
        assert_eq!(bytes.len(), 14 * 8);
        for (slot, word) in bytes.chunks(8).enumerate() {
            assert_eq!(word, (slot as u64 + 1).to_le_bytes(), "slot {slot}");
        }
        let pairs = s.as_pairs();
        assert_eq!(pairs.len(), 14);
        for (i, (_, v)) in pairs.iter().enumerate() {
            assert_eq!(*v, i as u64 + 1);
        }
        // the gauges are fields
        let names = pairs.map(|(name, _)| name);
        for gauge in ServerStats::GAUGES {
            assert!(names.contains(&gauge), "{gauge} is not a field");
        }
    }
}
