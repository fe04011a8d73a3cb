//! The eight named workloads. Sizes are per repetition; the README says
//! why each exists and which layer it loads.

use sequin_engine::DisorderPolicy;

use crate::gen::{InputSpec, TypeMix};

/// How the events reach the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// One thread calling `EngineCore::ingest_batch`.
    Engine,
    /// One loopback TCP connection, the sender writing as fast as TCP
    /// accepts.
    WireFlood,
    /// One loopback TCP connection, one batch due every `gap_us`.
    WirePaced { gap_us: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Queries {
    One(&'static str),
    /// `n` queries `SEQ(T0 a, T1 b, T{2+i%14} c)` filtered on a unit-wide
    /// band of `c.x`: they share the `T0,T1` prefix and differ in the
    /// last slot, which is what the shared plan pools and groups.
    PrefixFamily(usize),
}

impl Queries {
    pub fn texts(&self) -> Vec<String> {
        match *self {
            Queries::One(text) => vec![text.to_owned()],
            Queries::PrefixFamily(n) => (0..n)
                .map(|i| {
                    let band = (i / 14) % 100;
                    format!(
                        "PATTERN SEQ(T0 a, T1 b, T{} c) WHERE c.x >= {band} AND c.x < {} WITHIN 100",
                        2 + i % 14,
                        band + 1
                    )
                })
                .collect(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub path: Path,
    pub input: InputSpec,
    /// Disorder bound K, in ticks. Never below `input.max_delay`, so no
    /// event is late beyond the contract and none is dropped.
    pub k: u64,
    pub policy: DisorderPolicy,
    pub queries: Queries,
    /// Events per `ingest_batch` call, or per EVENT_BATCH frame.
    pub batch: usize,
}

const SEQ3: &str =
    "PATTERN SEQ(T0 a, T1 b, T2 c) WHERE a.tag == b.tag AND b.tag == c.tag WITHIN 100";
const SEQ3_WIDE: &str =
    "PATTERN SEQ(T0 a, T1 b, T2 c) WHERE a.tag == b.tag AND b.tag == c.tag WITHIN 20000";

const SEQ3_INPUT: InputSpec = InputSpec {
    events: 1_000_000,
    mix: TypeMix::Uniform(4),
    tags: 50,
    x_range: 100,
    ooo: 0.3,
    max_delay: 100,
};

pub const WORKLOADS: [Workload; 8] = [
    Workload {
        name: "engine-seq3",
        why: "tiny stacks, so fixed per-event cost does the work: the control a stack-layout or wire change must not move",
        path: Path::Engine,
        input: SEQ3_INPUT,
        k: 100,
        policy: DisorderPolicy::Conservative,
        queries: Queries::One(SEQ3),
        batch: 256,
    },
    Workload {
        name: "engine-deep",
        why: "60 % late into one unpartitioned stack about 30k deep with a rare terminator: the stack layer's worst case",
        path: Path::Engine,
        input: InputSpec {
            events: 300_000,
            mix: TypeMix::Terminator(5000),
            tags: 50,
            x_range: 1000,
            ooo: 0.6,
            max_delay: 20_000,
        },
        k: 20_000,
        policy: DisorderPolicy::Conservative,
        queries: Queries::One("PATTERN SEQ(T0 a, T1 b) WHERE a.tag + 0 == b.tag WITHIN 40000"),
        batch: 256,
    },
    Workload {
        name: "engine-keys",
        why: "5,000 keys with tiny per-key state: partition lookup and the per-purge sweep over keys dominate",
        path: Path::Engine,
        input: InputSpec {
            events: 150_000,
            mix: TypeMix::Uniform(4),
            tags: 5_000,
            x_range: 100,
            ooo: 0.3,
            max_delay: 100,
        },
        k: 100,
        policy: DisorderPolicy::Conservative,
        queries: Queries::One(SEQ3_WIDE),
        batch: 256,
    },
    Workload {
        name: "engine-multi",
        why: "a prefix-sharing query family on the shared plan: the only workload where set-up is product time",
        path: Path::Engine,
        input: InputSpec {
            events: 60_000,
            mix: TypeMix::Uniform(16),
            tags: 50,
            x_range: 100,
            ooo: 0.3,
            max_delay: 100,
        },
        k: 100,
        policy: DisorderPolicy::Conservative,
        queries: Queries::PrefixFamily(512),
        batch: 256,
    },
    Workload {
        name: "engine-neg",
        why: "speculative negation: negation index, unsealed-emission bookkeeping and RETRACT run nowhere else",
        path: Path::Engine,
        input: InputSpec {
            events: 500_000,
            ..SEQ3_INPUT
        },
        k: 100,
        policy: DisorderPolicy::Speculative,
        queries: Queries::One("PATTERN SEQ(T0 a, !T1 b, T2 c) WITHIN 100"),
        batch: 256,
    },
    Workload {
        name: "wire-flood",
        why: "ingress-heavy wire path: frame decode, the bounded queue and thread hand-offs, with few outputs",
        path: Path::WireFlood,
        input: InputSpec {
            events: 400_000,
            ..SEQ3_INPUT
        },
        k: 100,
        policy: DisorderPolicy::Conservative,
        queries: Queries::One(SEQ3),
        batch: 64,
    },
    Workload {
        name: "wire-fanout",
        why: "egress-heavy wire path: about one OUTPUT frame per event, so output encode and socket writes dominate",
        path: Path::WireFlood,
        input: InputSpec {
            events: 30_000,
            mix: TypeMix::Uniform(4),
            tags: 3,
            x_range: 100,
            ooo: 0.3,
            max_delay: 100,
        },
        k: 100,
        policy: DisorderPolicy::Conservative,
        queries: Queries::One("PATTERN SEQ(T0 a, T1 b) WHERE a.tag == b.tag WITHIN 100"),
        batch: 64,
    },
    Workload {
        name: "wire-paced",
        why: "open loop at a sixth of flood capacity: the only workload whose latency is service time, not queueing",
        path: Path::WirePaced { gap_us: 320 },
        input: InputSpec {
            events: 200_000,
            ..SEQ3_INPUT
        },
        k: 100,
        policy: DisorderPolicy::Conservative,
        queries: Queries::One(SEQ3),
        batch: 64,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
