//! # emask-attack — the power-analysis attack suite
//!
//! The adversary's half of the evaluation: simple power analysis (SPA) and
//! differential power analysis (DPA) over per-cycle energy traces, built to
//! the descriptions in Kocher et al. and Goubin & Patarin that the paper
//! cites. These attacks are what the secure instructions must defeat —
//! the tests run them against both unmasked and masked traces and verify
//! that the key falls out of the former and not the latter.
//!
//! * [`TraceMatrix`], [`mean_trace`], [`variance_trace`], [`welch_t`] —
//!   batch trace statistics, the test oracle the single-pass accumulators
//!   are checked against (no production path runs them);
//! * [`detect_rounds`] — round-structure detection (SPA): the Figure 6
//!   observation that "the energy profile can show what operations are
//!   being performed";
//! * [`dpa`] — the §1 attack: partition a sample of traces by a predicted
//!   intermediate bit (a round-1 S-box output bit under a 6-bit subkey
//!   guess) and look for a difference-of-means peak;
//! * [`cpa_recover_subkey`] — correlation power analysis (an extension
//!   beyond the paper): Pearson correlation against a Hamming-weight
//!   leakage model, the stronger attack later literature standardized on;
//! * [`Welford`], [`OnlineWelch`], [`OnlineDpa`], [`OnlineCpa`] —
//!   single-pass (streaming) equivalents of the batch statistics that never
//!   retain the trace set: the memory- and merge-friendly core of every
//!   attack.
//!
//! The attack code is generic over a *trace oracle* — any
//! `Fn(u64 plaintext) -> Vec<f64> + Sync` — so it runs identically against
//! the cycle-accurate simulator and against synthetic leakage models used
//! in unit tests. Each attack is one function ([`recover_subkey`],
//! [`cpa_recover_subkey`]) that shards trace acquisition across an
//! `emask-par` worker pool under a cancel token, draws trial `i`'s
//! plaintext from [`plaintext_for`], and returns a result bit-identical
//! for any `--jobs` count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(clippy::unwrap_used)]

mod cpa;
pub mod dpa;
mod online;
mod spa;
mod stats;

pub use cpa::{cpa_recover_subkey, CpaConfig, CpaResult};
pub use dpa::{
    guess_ranks, plaintext_for, recover_subkey, recover_subkey_multibit_par, selection_bit,
    DpaConfig, DpaResult,
};
pub use online::{OnlineCpa, OnlineDpa, OnlineWelch, Welford};
pub use spa::{detect_rounds, SpaReport};
pub use stats::{mean_trace, variance_trace, welch_t, StatsError, TraceMatrix};
