//! Quickstart: declare types, write a query, feed an out-of-order stream.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use sequin::engine::{EngineConfig, NativeEngine};
use sequin::query::parse;
use sequin::types::{
    Duration, Event, EventId, StreamItem, Timestamp, TypeRegistry, Value, ValueKind,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. declare the event types your stream carries
    let mut registry = TypeRegistry::new();
    registry.declare(
        "ORDER",
        &[("customer", ValueKind::Int), ("amount", ValueKind::Int)],
    )?;
    registry.declare(
        "PAYMENT",
        &[("customer", ValueKind::Int), ("amount", ValueKind::Int)],
    )?;

    // 2. write a sequence pattern query over those types
    let query = parse(
        "PATTERN SEQ(ORDER o, PAYMENT p) \
         WHERE o.customer == p.customer AND p.amount >= o.amount \
         WITHIN 100 \
         RETURN o.customer, o.amount",
        &registry,
    )?;
    println!("query: {query}");

    // 3. build the paper's native out-of-order engine with a disorder
    //    bound K = 50 ticks
    let mut engine = NativeEngine::new(query, EngineConfig::with_k(Duration::new(50)));

    // 4. feed arrivals — note the PAYMENT (ts=30) arrives BEFORE its ORDER
    //    (ts=10); a classic in-order engine would silently miss this match
    let order_ty = registry.lookup("ORDER").expect("declared above");
    let payment_ty = registry.lookup("PAYMENT").expect("declared above");
    let mk = |id: u64, ty, ts: u64, customer: i64, amount: i64| {
        StreamItem::Event(Arc::new(
            Event::builder(ty, Timestamp::new(ts))
                .id(EventId::new(id))
                .attr(Value::Int(customer))
                .attr(Value::Int(amount))
                .build(),
        ))
    };
    let arrivals = vec![
        mk(1, payment_ty, 30, 7, 120), // late-arriving context: order not seen yet
        mk(2, order_ty, 10, 7, 100),   // the ORDER arrives out of order
        mk(3, order_ty, 40, 8, 50),
        mk(4, payment_ty, 60, 8, 20), // underpays: predicate rejects
    ];

    for item in &arrivals {
        for output in engine.ingest(item) {
            println!("  -> {output}");
        }
    }
    for output in engine.finish() {
        println!("  -> (at end of stream) {output}");
    }

    println!(
        "stats: {} insertions, {} DFS steps, {} matches",
        engine.stats().insertions,
        engine.stats().dfs_steps,
        engine.stats().matches_constructed
    );
    Ok(())
}
