//! Real-time intrusion detection (the paper's second application).

use std::sync::Arc;

use sequin_prng::Rng;
use sequin_query::{parse, Query};
use sequin_types::{
    Event, EventId, EventRef, EventTypeId, Timestamp, TypeRegistry, Value, ValueKind,
};

/// Login telemetry for a fleet of users: a classic brute-force signature
/// is two failed logins, a success, then a privilege escalation, all for
/// the same user inside a short window.
///
/// Event types: `LOGIN_FAIL`, `LOGIN_OK`, `PRIV_ESC` (all with
/// `user: Int`, `ip: Int`).
#[derive(Debug, Clone)]
pub struct Intrusion {
    registry: Arc<TypeRegistry>,
    fail: EventTypeId,
    ok: EventTypeId,
    esc: EventTypeId,
}

impl Intrusion {
    /// Declares the telemetry event types.
    pub fn new() -> Intrusion {
        let mut registry = TypeRegistry::new();
        let fields: &[(&str, ValueKind)] = &[("user", ValueKind::Int), ("ip", ValueKind::Int)];
        let fail = registry
            .declare("LOGIN_FAIL", fields)
            .expect("fresh registry");
        let ok = registry
            .declare("LOGIN_OK", fields)
            .expect("fresh registry");
        let esc = registry
            .declare("PRIV_ESC", fields)
            .expect("fresh registry");
        Intrusion {
            registry: Arc::new(registry),
            fail,
            ok,
            esc,
        }
    }

    /// The workload's type registry.
    pub fn registry(&self) -> &Arc<TypeRegistry> {
        &self.registry
    }

    /// Generates `n` background telemetry events over `num_users` users
    /// and splices in `num_attacks` brute-force signatures. Returns the
    /// timestamp-ordered history.
    pub fn generate(
        &self,
        n: usize,
        num_users: i64,
        num_attacks: usize,
        seed: u64,
    ) -> Vec<EventRef> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut events: Vec<EventRef> = Vec::with_capacity(n + num_attacks * 4);
        let mut next_id = 0u64;
        let push = |events: &mut Vec<EventRef>,
                    next_id: &mut u64,
                    ty: EventTypeId,
                    ts: u64,
                    user: i64,
                    ip: i64| {
            events.push(Arc::new(
                Event::builder(ty, Timestamp::new(ts))
                    .id(EventId::new(*next_id))
                    .attr(Value::Int(user))
                    .attr(Value::Int(ip))
                    .build(),
            ));
            *next_id += 1;
        };
        // background: mostly OK logins, some isolated failures, rare
        // legitimate escalations
        let mut ts = 0u64;
        for _ in 0..n {
            ts += rng.gen_range(1u64..=3);
            let user = rng.gen_range(0..num_users);
            let ip = rng.gen_range(0i64..1000);
            let roll: f64 = rng.next_f64();
            let ty = if roll < 0.70 {
                self.ok
            } else if roll < 0.95 {
                self.fail
            } else {
                self.esc
            };
            push(&mut events, &mut next_id, ty, ts, user, ip);
        }
        // attacks: tight fail,fail,ok,esc runs for a random user
        let horizon = ts.max(100);
        for _ in 0..num_attacks {
            let user = rng.gen_range(0..num_users);
            let ip = rng.gen_range(0i64..1000);
            let t0 = rng.gen_range(1..=horizon);
            push(&mut events, &mut next_id, self.fail, t0, user, ip);
            push(&mut events, &mut next_id, self.fail, t0 + 1, user, ip);
            push(&mut events, &mut next_id, self.ok, t0 + 2, user, ip);
            push(&mut events, &mut next_id, self.esc, t0 + 3, user, ip);
        }
        events.sort_by_key(|e| (e.ts(), e.id()));
        crate::util::make_timestamps_unique(&mut events);
        events
    }

    /// The brute-force signature query:
    ///
    /// ```text
    /// PATTERN SEQ(LOGIN_FAIL f1, LOGIN_FAIL f2, LOGIN_OK k, PRIV_ESC p)
    /// WHERE f1.user == f2.user AND f2.user == k.user AND k.user == p.user
    /// WITHIN window
    /// RETURN k.user, p.ts
    /// ```
    pub fn brute_force_query(&self, window: u64) -> Arc<Query> {
        let text = format!(
            "PATTERN SEQ(LOGIN_FAIL f1, LOGIN_FAIL f2, LOGIN_OK k, PRIV_ESC p) \
             WHERE f1.user == f2.user AND f2.user == k.user AND k.user == p.user \
             WITHIN {window} RETURN k.user, p.ts"
        );
        parse(&text, &self.registry).expect("well-formed query")
    }
}

impl Default for Intrusion {
    fn default() -> Self {
        Intrusion::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_is_ordered_and_valid() {
        let w = Intrusion::new();
        let events = w.generate(500, 20, 5, 1);
        assert!(events.windows(2).all(|p| p[0].ts() < p[1].ts()));
        for e in &events {
            assert!(e.validate(w.registry()));
        }
        assert_eq!(events.len(), 520);
    }

    #[test]
    fn queries_compile() {
        let w = Intrusion::new();
        let q = w.brute_force_query(50);
        assert_eq!(q.positive_len(), 4);
        assert!(q.partition().is_some());
    }

    #[test]
    fn deterministic_per_seed() {
        let w = Intrusion::new();
        let a = w.generate(200, 10, 2, 9);
        let b = w.generate(200, 10, 2, 9);
        assert_eq!(
            a.iter().map(|e| e.ts()).collect::<Vec<_>>(),
            b.iter().map(|e| e.ts()).collect::<Vec<_>>()
        );
    }
}
