//! # sequin-bench
//!
//! The evaluation harness: one function per reconstructed experiment
//! (`E1`–`E13`, see `DESIGN.md` for the index), each returning the rendered
//! paper-style table, printed by the `experiments` binary. (The crate
//! carries no external bench harness so the workspace stays
//! offline-buildable; wall-clock numbers come from the binary itself.)
//!
//! It also owns the two controls the paper argues against, which exist
//! only to be measured here ([`Strategy`]):
//!
//! * [`InOrderEngine`] — the state of the art: the classic SASE pipeline
//!   ([`ClassicSase`]) fed arrivals directly. Exactly correct on ordered
//!   input; misses matches and emits phantoms under disorder (E1).
//! * [`BufferedEngine`] — the standard fix: a [`KSlackBuffer`] in front of
//!   the same pipeline. Correct under the disorder bound, but pays `K` of
//!   latency on *every* result and buffers the whole stream tail (E2–E4).
//!
//! Every experiment is deterministic (seeded workloads, seeded disorder);
//! throughput numbers vary with the host, but the *shape* claims recorded
//! in `EXPERIMENTS.md` (who wins, trends, crossovers) are stable.

#![forbid(unsafe_code)]

mod buffer;
mod classic;
pub mod experiments;
mod inorder;
pub mod prelude;
mod strategy;

pub use buffer::{BufferedEngine, KSlackBuffer};
pub use classic::ClassicSase;
pub use inorder::InOrderEngine;
pub use strategy::{make_engine, run_engine, run_to_end, Engine, Strategy};

/// How big the experiment runs are. `Scale::full()` is what
/// `EXPERIMENTS.md` reports; `Scale::ci()` keeps the harness's own tests
/// fast.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Events per run.
    pub events: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Scale {
    /// The scale used for the recorded results.
    pub fn full() -> Scale {
        Scale {
            events: 200_000,
            seed: 42,
        }
    }

    /// A small scale for the harness's own tests.
    pub fn ci() -> Scale {
        Scale {
            events: 10_000,
            seed: 42,
        }
    }
}
