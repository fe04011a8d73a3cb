//! Input generation, kept inside the benchmark so that a change to the
//! repository's own generators (`sequin-prng`, `sequin-workload`,
//! `sequin-netsim`) cannot silently change a workload. The program under
//! test receives only the events built here and the query texts.

use std::sync::Arc;

use sequin_types::{
    Event, EventId, EventRef, EventTypeId, StreamItem, Timestamp, TypeRegistry, Value, ValueKind,
};

/// SplitMix64 (Steele, Lea & Flood): one 64-bit state word, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }
}

/// FNV-1a over a byte stream, fed incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub const fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// How event types are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TypeMix {
    /// `T0..T{n-1}`, uniform.
    Uniform(usize),
    /// Two types; every `n`-th event is a `T1`, on time whatever the
    /// disorder, the rest `T0`. A fixed count at fixed distances keeps the
    /// terminator's work the same from seed to seed.
    Terminator(usize),
}

impl TypeMix {
    pub fn types(self) -> usize {
        match self {
            TypeMix::Uniform(n) => n,
            TypeMix::Terminator(_) => 2,
        }
    }
}

/// Shape of one workload's event stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputSpec {
    pub events: usize,
    pub mix: TypeMix,
    /// `tag` is uniform in `0..tags`.
    pub tags: u64,
    /// `x` is uniform in `0..x_range`.
    pub x_range: u64,
    /// Share of events that arrive late.
    pub ooo: f64,
    /// A late event is delayed by uniform `1..=max_delay` ticks.
    pub max_delay: u64,
}

/// A generated stream in both orders. The two vectors share the events.
pub struct Input {
    pub registry: Arc<TypeRegistry>,
    /// Timestamp order (`ooo = 0`): what the in-order oracle is fed.
    pub in_order: Vec<StreamItem>,
    /// Arrival order: what the program under test is fed.
    pub arrival: Vec<StreamItem>,
    /// FNV-1a of the arrival sequence's (id, type, ts, x, tag).
    pub checksum: u64,
}

/// `T0..T{n-1}`, each with integer attributes `x` and `tag`.
pub fn registry(types: usize) -> Arc<TypeRegistry> {
    let mut reg = TypeRegistry::new();
    for i in 0..types {
        reg.declare(
            &format!("T{i}"),
            &[("x", ValueKind::Int), ("tag", ValueKind::Int)],
        )
        .expect("type names are distinct");
    }
    Arc::new(reg)
}

/// Builds the stream: timestamps strictly increasing with gaps uniform in
/// `1..=3`; each event late with probability `ooo` by uniform
/// `1..=max_delay` ticks; arrival order is a stable sort by `ts + delay`.
pub fn generate(spec: &InputSpec, seed: u64) -> Input {
    let mut rng = SplitMix64::new(seed);
    let mut ts = 0u64;
    let mut keyed: Vec<(u64, EventRef)> = Vec::with_capacity(spec.events);
    for i in 0..spec.events {
        ts += 1 + rng.below(3);
        let ty = match spec.mix {
            TypeMix::Uniform(n) => rng.below(n as u64) as usize,
            TypeMix::Terminator(n) => usize::from((i + 1) % n == 0),
        };
        let x = rng.below(spec.x_range) as i64;
        let tag = rng.below(spec.tags) as i64;
        let on_time = matches!(spec.mix, TypeMix::Terminator(_)) && ty == 1;
        let delay = if spec.max_delay > 0 && rng.chance(spec.ooo) && !on_time {
            1 + rng.below(spec.max_delay)
        } else {
            0
        };
        let event = Event::builder(EventTypeId::from_index(ty), Timestamp::new(ts))
            .id(EventId::new(i as u64))
            .attr(Value::Int(x))
            .attr(Value::Int(tag))
            .build();
        keyed.push((ts + delay, Arc::new(event)));
    }
    let in_order: Vec<StreamItem> = keyed
        .iter()
        .map(|(_, e)| StreamItem::Event(Arc::clone(e)))
        .collect();
    keyed.sort_by_key(|(arrive, _)| *arrive);

    let mut sum = Fnv::new();
    for (_, e) in &keyed {
        sum.u64(e.id().get());
        sum.u64(e.event_type().index() as u64);
        sum.u64(e.ts().ticks());
        for a in e.attrs() {
            sum.u64(a.as_int().expect("integer attributes") as u64);
        }
    }
    Input {
        registry: registry(spec.mix.types()),
        in_order,
        arrival: keyed
            .into_iter()
            .map(|(_, e)| StreamItem::Event(e))
            .collect(),
        checksum: sum.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: InputSpec = InputSpec {
        events: 20_000,
        mix: TypeMix::Uniform(4),
        tags: 50,
        x_range: 100,
        ooo: 0.3,
        max_delay: 100,
    };

    #[test]
    fn splitmix_matches_reference_vector() {
        // first outputs of the published SplitMix64 for seed 1234567
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        let mut f = Fnv::new();
        f.bytes(b"a");
        assert_eq!(f.0, 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn checksum_is_stable_for_seed_42() {
        let a = generate(&SPEC, 42);
        let b = generate(&SPEC, 42);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.checksum, 0x09dc_ae0b_7955_d555);
        assert_ne!(a.checksum, generate(&SPEC, 43).checksum);
    }

    #[test]
    fn timestamps_increase_and_orders_share_events() {
        let input = generate(&SPEC, 7);
        let ts: Vec<u64> = input.in_order.iter().map(|i| i.ts().ticks()).collect();
        assert!(ts.windows(2).all(|w| w[0] < w[1] && w[1] - w[0] <= 3));
        let mut ids: Vec<u64> = input
            .arrival
            .iter()
            .map(|i| i.as_event().unwrap().id().get())
            .collect();
        ids.sort_unstable();
        assert!(ids.iter().enumerate().all(|(i, id)| *id == i as u64));
    }

    /// Events that arrive after a younger one, and the largest
    /// `arrival clock − ts` any of them sees.
    fn lateness(input: &Input) -> (usize, u64) {
        let (mut clock, mut late, mut max) = (0, 0, 0);
        for t in input.arrival.iter().map(|i| i.ts().ticks()) {
            if t < clock {
                late += 1;
                max = max.max(clock - t);
            }
            clock = clock.max(t);
        }
        (late, max)
    }

    #[test]
    fn lateness_is_as_configured() {
        let (late, max) = lateness(&generate(&SPEC, 7));
        assert!(max <= SPEC.max_delay && max > SPEC.max_delay * 9 / 10);
        // a delayed event is displaced unless nothing younger overtook it,
        // which a delay of a few ticks can fail to do
        let share = late as f64 / SPEC.events as f64;
        assert!((0.27..=0.30).contains(&share), "late share {share}");
        assert_eq!(
            lateness(&generate(&InputSpec { ooo: 0.0, ..SPEC }, 7)),
            (0, 0)
        );
    }

    #[test]
    fn terminators_are_periodic_and_on_time() {
        let spec = InputSpec {
            mix: TypeMix::Terminator(500),
            ooo: 0.6,
            max_delay: 2_000,
            ..SPEC
        };
        let input = generate(&spec, 7);
        let is_t1 = |i: &StreamItem| i.as_event().unwrap().event_type().index() == 1;
        assert_eq!(input.arrival.iter().filter(|i| is_t1(i)).count(), 40);
        // an on-time event has seen no younger one when it arrives
        let mut clock = 0;
        for i in &input.arrival {
            assert!(!is_t1(i) || i.ts().ticks() >= clock);
            clock = clock.max(i.ts().ticks());
        }
        assert!(lateness(&input).0 > 10_000);
    }
}
