//! # emask-par — deterministic parallel execution
//!
//! Attack campaigns, fault campaigns, and leakage assessments all reduce
//! to thousands of **independent trials**: run the simulator, fold the
//! result into an accumulator. This crate shards those trials across a
//! `std::thread::scope` worker pool such that the final result is
//! **bit-identical for any worker count** — `--jobs 1`, `--jobs 4`, and
//! `--jobs 7` must produce byte-for-byte the same report, or a parallel
//! speedup would silently change the science.
//!
//! Two properties make that hold:
//!
//! 1. **Thread-count-invariant sharding.** The trial range `0..n` is cut
//!    into a fixed number of contiguous shards that depends only on `n`
//!    (never on `jobs`). Workers *pull* whole shards from an atomic queue,
//!    so scheduling is dynamic, but every shard's internal fold order and
//!    the shard-merge order are fixed — floating-point accumulation
//!    brackets identically no matter which thread ran which shard.
//! 2. **Per-trial seeding.** Randomized trials derive their seed from
//!    `(base_seed, trial_index)` via [`trial_seed`] instead of pulling
//!    from one shared sequential RNG, so trial `i` sees the same random
//!    inputs regardless of which worker runs it or in what order.
//!
//! The pool is deliberately dependency-free (the vendor directory is
//! offline) and unsafe-free: workers return their `(shard_index, result)`
//! pairs through `std::thread::scope` joins, and the caller-visible
//! results are re-ordered by shard index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(clippy::unwrap_used)]

mod lease;

pub use lease::{Lease, ThreadBudget};

use std::any::Any;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Why a cancellable run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// A client (or the supervisor on its behalf) asked the run to stop.
    Cancelled,
    /// The run's wall-clock deadline expired.
    DeadlineExceeded,
    /// The process is shutting down; stop at the next trial boundary so
    /// in-flight work can be checkpointed.
    Shutdown,
    /// A scheduler preempted the run to free its workers for
    /// higher-priority work; stop at the next trial boundary so the run
    /// can be checkpointed and re-queued.
    Preempted,
}

impl CancelReason {
    /// The stable report/event name (`cancelled`, `deadline_exceeded`,
    /// `shutdown`, `preempted`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CancelReason::Cancelled => "cancelled",
            CancelReason::DeadlineExceeded => "deadline_exceeded",
            CancelReason::Shutdown => "shutdown",
            CancelReason::Preempted => "preempted",
        }
    }
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Atomic encoding of "not cancelled" in [`CancelToken`].
const LIVE: u8 = 0;

/// A shared cooperative cancellation flag, checked at **trial
/// boundaries** by [`fold_sharded`] and the work it runs.
///
/// Cancellation is deliberately cooperative and coarse: a trial is the
/// smallest unit of work the deterministic sharding layer accounts for,
/// so stopping *between* trials means an interrupted campaign is always a
/// clean prefix of shard work — resumable from a checkpoint, and
/// guaranteed to produce byte-identical final output once re-run to
/// completion (no trial is ever half-folded into an accumulator).
///
/// Clones share the flag; any clone can [`cancel`](CancelToken::cancel)
/// and every holder observes it. An optional wall-clock deadline makes
/// the token self-cancelling: [`check`](CancelToken::check) trips it with
/// [`CancelReason::DeadlineExceeded`] once the deadline passes.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

#[derive(Debug, Default)]
struct TokenInner {
    /// `LIVE`, or a `CancelReason` discriminant + 1.
    flag: AtomicU8,
    /// Wall-clock instant after which `check` self-cancels.
    deadline: Option<Instant>,
    /// The worker-count lease this run holds, if an arbiter granted one.
    lease: Option<Lease>,
}

impl CancelToken {
    /// A token that never cancels until [`cancel`](CancelToken::cancel)
    /// is called.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The fully-configured token a supervisor hands a run: an optional
    /// wall-clock deadline plus an optional worker-count [`Lease`].
    ///
    /// A `deadline` too large to represent as an `Instant` is treated as
    /// no deadline at all (it could never expire within the process
    /// lifetime) rather than panicking on `Instant` overflow.
    #[must_use]
    pub fn for_job(deadline: Option<Duration>, lease: Option<Lease>) -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                flag: AtomicU8::new(LIVE),
                deadline: deadline.and_then(|d| Instant::now().checked_add(d)),
                lease,
            }),
        }
    }

    /// The worker-count lease this token carries, if any.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn lease(&self) -> Option<&Lease> {
        self.inner.lease.as_ref()
    }

    /// Whether worker `index` of a sharded runner may pull another shard.
    ///
    /// Worker 0 always may — a lease never stalls a run outright — and
    /// without a lease every worker may. Checked at shard boundaries, so
    /// a lease shrink drains the excess workers as they finish their
    /// current shard.
    #[must_use]
    pub(crate) fn worker_allowed(&self, index: usize) -> bool {
        index == 0 || self.inner.lease.as_ref().is_none_or(|l| index < l.allowed())
    }

    /// Requests cancellation. The first reason wins: cancelling an
    /// already-cancelled token does not overwrite the original reason.
    pub fn cancel(&self, reason: CancelReason) {
        let _ = self.inner.flag.compare_exchange(
            LIVE,
            reason as u8 + 1,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    /// Whether the token has been cancelled (deadline included).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.check().is_err()
    }

    /// The cancellation reason, if any (deadline included).
    #[must_use]
    pub fn reason(&self) -> Option<CancelReason> {
        self.check().err()
    }

    /// The trial-boundary check: `Ok(())` to keep going, `Err(reason)` to
    /// stop. A passed deadline trips the token on first observation.
    pub fn check(&self) -> Result<(), CancelReason> {
        match self.inner.flag.load(Ordering::SeqCst) {
            LIVE => {}
            n => return Err(reason_from(n)),
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                self.cancel(CancelReason::DeadlineExceeded);
                // Re-read: a concurrent explicit cancel may have won.
                return Err(reason_from(self.inner.flag.load(Ordering::SeqCst)));
            }
        }
        Ok(())
    }
}

/// Decodes the non-`LIVE` flag values written by [`CancelToken::cancel`].
fn reason_from(flag: u8) -> CancelReason {
    match flag {
        f if f == CancelReason::Cancelled as u8 + 1 => CancelReason::Cancelled,
        f if f == CancelReason::DeadlineExceeded as u8 + 1 => CancelReason::DeadlineExceeded,
        f if f == CancelReason::Preempted as u8 + 1 => CancelReason::Preempted,
        _ => CancelReason::Shutdown,
    }
}

/// A cancellable run stopped at a trial boundary before completing.
///
/// `completed_trials` counts trials whose work is *known finished* at the
/// moment the interruption surfaced — it depends on scheduling and is
/// operational information (progress reporting, logs), not part of any
/// deterministic result. The deterministic artifact of an interrupted run
/// is whatever the caller checkpointed; re-running to completion from
/// that checkpoint yields byte-identical final output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupted {
    /// Why the run stopped.
    pub reason: CancelReason,
    /// Trials known complete when the interruption surfaced.
    pub completed_trials: usize,
}

impl std::fmt::Display for Interrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "interrupted ({}) after {} completed trial(s)",
            self.reason, self.completed_trials
        )
    }
}

impl std::error::Error for Interrupted {}

/// Number of shards a trial range is cut into (when it has at least this
/// many trials). Fixed — independent of the worker count — so the fold
/// bracketing, and therefore every floating-point result, is identical for
/// any `jobs` value. 32 shards keep up to 32 workers busy while bounding
/// the merge fan-in.
pub const SHARDS: usize = 32;

/// Derives the seed of trial `index` from a campaign-level `base_seed`.
///
/// SplitMix64 finalizer over the (seed, index) pair: cheap, well mixed,
/// and — unlike handing one sequential RNG around a worker pool — a pure
/// function of the trial index, which is what makes randomized campaigns
/// thread-count-invariant.
#[must_use]
pub fn trial_seed(base_seed: u64, index: u64) -> u64 {
    let mut z = base_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A validated worker count for `--jobs`-style flags.
///
/// `Jobs::serial()` is the single-threaded default; [`Jobs::parse`]
/// accepts `N >= 1` or `auto` (the machine's available parallelism).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jobs(NonZeroUsize);

impl Jobs {
    /// One worker: the serial default.
    #[must_use]
    pub fn serial() -> Self {
        Jobs(NonZeroUsize::MIN)
    }

    /// A specific worker count (`None` when `n == 0`).
    #[must_use]
    pub fn new(n: usize) -> Option<Self> {
        NonZeroUsize::new(n).map(Jobs)
    }

    /// The machine's available parallelism (1 when unknown).
    #[must_use]
    pub fn auto() -> Self {
        Jobs(thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
    }

    /// Parses a `--jobs` argument: a positive integer or `auto`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for `0`, negatives, and junk.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s == "auto" {
            return Ok(Self::auto());
        }
        s.parse::<usize>()
            .ok()
            .and_then(Self::new)
            .ok_or_else(|| format!("--jobs needs a positive integer or `auto`, got `{s}`"))
    }

    /// The worker count.
    #[must_use]
    pub fn get(self) -> usize {
        self.0.get()
    }
}

impl Default for Jobs {
    fn default() -> Self {
        Self::serial()
    }
}

/// The contiguous index ranges the trial range `0..n` is cut into: exactly
/// `min(n, SHARDS)` non-empty shards, a pure function of `n`.
#[must_use]
pub(crate) fn shard_ranges(n: usize) -> Vec<Range<usize>> {
    let shards = n.min(SHARDS);
    (0..shards)
        .map(|s| {
            let start = s * n / shards;
            let end = (s + 1) * n / shards;
            start..end
        })
        .collect()
}

/// The contiguous index ranges the trial range `0..n` is cut into
/// (exactly `min(n, SHARDS)` non-empty shards), each paired with its shard
/// index — the enumeration every shard-indexed consumer wants (span
/// ladders, progress tables). The plan for a given `n` is
/// identical on every run, at any worker count, before or after a resume,
/// which is what lets a supervisor emit per-shard telemetry *after* a
/// campaign returns and still describe exactly the work that happened.
#[must_use]
pub fn shard_plan(n: usize) -> Vec<(usize, Range<usize>)> {
    shard_ranges(n).into_iter().enumerate().collect()
}

/// Runs `worker` once per shard of `0..n` across `jobs` threads and
/// returns the per-shard results **in shard order**.
///
/// `worker(shard_index, trial_range)` folds the trials of one contiguous
/// range into whatever accumulator it likes; because the shard layout is a
/// pure function of `n` (see [`shard_plan`]) and results are re-ordered
/// by shard index before being returned, the output is identical for any
/// `jobs` value.
///
/// A worker panic is **isolated per shard**: every other shard still runs
/// to completion, and only then is the panic re-raised — always the one
/// from the lowest-indexed panicking shard, so the surfaced panic is
/// independent of scheduling and worker count. Campaigns that must survive
/// a panicking trial should wrap the trial body in [`catch_trial`] so the
/// panic becomes a typed [`TrialPanic`] result instead of reaching this
/// propagation path at all.
pub fn run_sharded<A, F>(jobs: Jobs, n: usize, worker: F) -> Vec<A>
where
    A: Send,
    F: Fn(usize, Range<usize>) -> A + Sync,
{
    let ranges = shard_ranges(n);
    let tagged = Mutex::new(Vec::with_capacity(ranges.len()));
    pool(jobs, ranges.len(), &CancelToken::new(), |s| {
        // Catch per shard: a panicking shard must not take down its
        // worker thread (and with it every other shard queued on it).
        let result = catch_unwind(AssertUnwindSafe(|| worker(s, ranges[s].clone())));
        tagged.lock().expect("shard results poisoned").push((s, result));
    });
    in_shard_order(tagged.into_inner().expect("shard results poisoned"))
}

/// A shard's result, or the payload of the panic that killed it.
type Caught<T> = Result<T, Box<dyn Any + Send>>;

/// Sorts shard-tagged results by shard index and unwraps them, re-raising
/// the panic of the lowest-indexed panicking shard — deterministic
/// propagation for any jobs count.
fn in_shard_order<T>(mut tagged: Vec<(usize, Caught<T>)>) -> Vec<T> {
    tagged.sort_by_key(|&(s, _)| s);
    tagged
        .into_iter()
        .map(|(_, r)| r.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
        .collect()
}

/// The worker pool every sharded runner shares: up to `jobs` scoped
/// threads pull shard indices `0..shards` from an atomic counter and call
/// `body(shard)`; with one job (or one shard) the caller's thread runs
/// them in order.
///
/// Lease arbitration happens here: worker `w` stops pulling once
/// [`CancelToken::worker_allowed`] says no, so excess workers retire at
/// shard boundaries when a grant shrinks (worker 0 always stays). A panic
/// escaping `body` is re-raised after every worker has joined.
fn pool(jobs: Jobs, shards: usize, token: &CancelToken, body: impl Fn(usize) + Sync) {
    if jobs.get() <= 1 || shards <= 1 {
        (0..shards).for_each(body);
        return;
    }
    let next = AtomicUsize::new(0);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs.get().min(shards))
            .map(|w| {
                let (next, body) = (&next, &body);
                scope.spawn(move || {
                    while token.worker_allowed(w) {
                        let s = next.fetch_add(1, Ordering::Relaxed);
                        if s >= shards {
                            break;
                        }
                        body(s);
                    }
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// The trial-count boundaries at which [`fold_sharded`] emits a merged
/// snapshot: every positive multiple of `cadence` below `n`, plus `n`
/// itself (`cadence == 0` means final-only).
fn snapshot_boundaries(n: usize, cadence: usize) -> Vec<usize> {
    let mut b = Vec::new();
    if cadence > 0 {
        let mut t = cadence;
        while t < n {
            b.push(t);
            t += cadence;
        }
    }
    if n > 0 {
        b.push(n);
    }
    b
}

/// The in-order merge ledger shared by the workers of [`fold_sharded`].
struct Ledger<A> {
    /// Shards `0..next` merged left to right; `None` until shard 0 lands,
    /// and while the merger has it out.
    prefix: Option<A>,
    /// The next shard to merge into the prefix.
    next: usize,
    /// Shards that finished before their turn, by shard index.
    parked: BTreeMap<usize, A>,
    /// By boundary index: a clone of the accumulator of the shard the
    /// boundary falls inside, waiting for the prefix to reach that shard.
    partials: BTreeMap<usize, A>,
    /// Snapshot boundaries emitted so far.
    emitted: usize,
    /// A worker is the merger: it holds the prefix and, with the ledger
    /// unlocked, merges shards and emits snapshots. Only the merger
    /// advances `next` and `emitted`.
    merging: bool,
    /// Accumulators of merged shards, for shards that start later.
    spent: Vec<A>,
    /// Shards `0..handed` have been handed to a worker.
    handed: usize,
    /// Accumulators built so far (`fresh(None)` calls).
    built: usize,
    /// A handed shard stopped short or panicked, so the prefix never
    /// passes it: nothing frees accumulators any more.
    stalled: bool,
}

/// One step of [`fold_sharded`]'s in-order work, which the merger does
/// with the ledger unlocked.
enum Step<'a, A: Clone> {
    /// Emit the prefix at this boundary, the end of its last shard.
    Emit(usize),
    /// Emit the prefix merged with this accumulator of the shard the
    /// boundary falls inside.
    Snapshot(usize, Cow<'a, A>),
    /// Merge this shard, the next one, into the prefix.
    Merge(A),
}

/// Folds the trials `0..n` into one accumulator across `jobs` workers,
/// merging each shard into the result **the moment every shard before it
/// is in** — the streaming form of `merge_shards(run_sharded(..))`, with
/// bit-identical output.
///
/// `work(acc, trials)` folds one shard's contiguous trial range into
/// `acc`, checking `token` at its own trial boundaries and returning
/// `Err(trials_done)` when it stops early; the runner itself checks
/// `token` before it starts each shard. `merge(prefix, shard)` absorbs a
/// finished shard into the running prefix, always in shard order: the
/// prefix after shard `k` is `((s0 ⊕ s1) ⊕ …) ⊕ sk`, exactly the left
/// fold [`merge_shards`] computes, so every float brackets the same way at
/// any `jobs` count.
///
/// **One merger, outside the lock.** The worker that parks the shard the
/// prefix waits for becomes the fold's only merger, unless another worker
/// already is. It takes the prefix out of the shared ledger, merges with
/// the ledger unlocked, and goes on until no parked shard is next. Other
/// workers meanwhile park their shards and start new ones, so a slow
/// `merge` delays only the worker running it.
///
/// `fresh(spent)` builds the empty accumulator a shard starts from.
/// Once a shard has been merged its accumulator is spent, and the next
/// shard a worker starts receives it as `Some(spent)` to clear and reuse
/// instead of allocating; a cleared accumulator must behave exactly like
/// a new one. The fold builds at most `workers + 1` accumulators, where
/// `workers = min(jobs, shards)`: two at `jobs = 1`, where collecting
/// every shard before merging keeps `min(n, SHARDS)`. A worker that
/// finishes a shard ahead of a slower earlier one parks it. If its next
/// shard would then need one accumulator more, it waits until a merge
/// frees one. So the memory a fold holds is the same on every run,
/// whatever the thread timing. Shards are handed out in order, each with
/// its accumulator, so the shard the prefix waits for always has one.
/// After a shard stops short or panics, nothing is freed any more, and
/// the bound is lifted.
///
/// **Snapshots.** With `cadence: Some(c)` the fold also emits a merged
/// snapshot of all trials `0..b` at every multiple `b` of `c` below `n`
/// and at `n` itself (`Some(0)`: at `n` only) — the live convergence feed
/// of long attack campaigns. A shard's range is cut at the boundaries
/// inside it, so `work` never folds past one. The snapshot for boundary
/// `b` is the prefix over every shard ending at or before `b`, merged
/// with a clone of the one shard's accumulator taken when it reached `b`
/// (if `b` falls strictly inside a shard) — the same left-to-right
/// bracketing as merging all of `0..b`'s shard contributions in order.
/// Only the merger calls `emit(b, &snapshot)`, with the ledger unlocked:
/// a worker that reaches a boundary while a merge runs leaves its clone
/// for the merger. So snapshots are emitted in ascending boundary order,
/// exactly once each: the stream is **bit-identical for any `jobs`
/// count**, and still live, since boundary `b` emits as soon as the
/// slowest shard overlapping it arrives. The final boundary's snapshot is
/// the prefix itself. A slow `emit` blocks the merger — backpressure, not
/// unbounded buffering. With `cadence: None` nothing is emitted and
/// nothing is cloned.
///
/// A panicking shard does not stop the others: every shard still runs,
/// then the lowest-indexed panicking shard's payload is re-raised, as in
/// [`run_sharded`]. A panic in `merge` or `emit` stops all merging; the
/// other workers finish their shards and the panic is re-raised.
///
/// Returns the merged accumulator (`None` when `n == 0`). Cancellation
/// requested after the last trial has folded (e.g. a deadline expiring
/// during the final merge) has no effect: a finished run is always
/// delivered. On interruption the snapshots already emitted stand — an
/// interrupted run's emissions are a prefix of an uninterrupted run's.
///
/// # Errors
///
/// [`Interrupted`] when cancellation stopped at least one shard short.
/// Its `completed_trials` counts every finished shard in full plus what
/// each stopped shard's `work` reported; the partial accumulators are
/// discarded (an interrupted campaign persists its progress through its
/// own checkpoints, at shard granularity, not through this value).
#[allow(clippy::too_many_arguments)]
pub fn fold_sharded<A, I, W, M, E>(
    jobs: Jobs,
    n: usize,
    token: &CancelToken,
    cadence: Option<usize>,
    fresh: I,
    work: W,
    merge: M,
    emit: E,
) -> Result<Option<A>, Interrupted>
where
    A: Clone + Send,
    I: Fn(Option<A>) -> A + Sync,
    W: Fn(&mut A, Range<usize>) -> Result<(), usize> + Sync,
    M: Fn(&mut A, &A) + Sync,
    E: Fn(usize, &A) + Sync,
{
    let ranges = shard_ranges(n);
    let boundaries = cadence.map_or_else(Vec::new, |c| snapshot_boundaries(n, c));
    let cap = jobs.get().min(ranges.len()) + 1;
    let ledger = Mutex::new(Ledger {
        prefix: None,
        next: 0,
        parked: BTreeMap::new(),
        partials: BTreeMap::new(),
        emitted: 0,
        merging: false,
        spent: Vec::new(),
        handed: 0,
        built: 0,
        stalled: false,
    });
    // Signalled whenever a merge frees an accumulator or the fold stalls.
    let freed = Condvar::new();
    // Trials known folded — operational progress accounting for the
    // `Interrupted` report, not part of any deterministic result.
    let done = AtomicUsize::new(0);
    let panics = Mutex::new(Vec::new());

    // The next step of the in-order work, if one is ready: emit every
    // boundary whose shards are in, and merge each landed shard in shard
    // order — a shard only after the boundaries inside it, which need the
    // prefix without it.
    let ready = |lg: &mut Ledger<A>| {
        if let Some(&b) = boundaries.get(lg.emitted) {
            let s = ranges.partition_point(|r| r.end < b);
            if b == ranges[s].end {
                if lg.next > s {
                    return Some(Step::Emit(b));
                }
            } else if lg.next == s {
                if let Some(partial) = lg.partials.remove(&lg.emitted) {
                    return Some(Step::Snapshot(b, Cow::Owned(partial)));
                }
            }
        }
        lg.parked.remove(&lg.next).map(Step::Merge)
    };
    // The merger's loop, from `step` on, with the `prefix` it took out of
    // the ledger: each step runs with the ledger unlocked, and the
    // prefix goes back once no step is ready.
    let drive = |mut prefix: Option<A>, step: Step<'_, A>| {
        let mut step = Some(step);
        while let Some(now) = step.take() {
            let merged = matches!(now, Step::Merge(_));
            let ran = catch_unwind(AssertUnwindSafe(|| match now {
                Step::Emit(b) => {
                    emit(b, prefix.as_ref().expect("a shard end follows a merge"));
                    None
                }
                Step::Snapshot(b, partial) => {
                    match &prefix {
                        None => emit(b, &partial),
                        Some(prefix) => {
                            let mut snap = prefix.clone();
                            merge(&mut snap, &partial);
                            emit(b, &snap);
                        }
                    }
                    None
                }
                Step::Merge(acc) => match &mut prefix {
                    None => {
                        prefix = Some(acc);
                        None
                    }
                    Some(prefix) => {
                        merge(prefix, &acc);
                        Some(acc)
                    }
                },
            }));
            let mut lg = ledger.lock().expect("ledger poisoned");
            let spent = match ran {
                Ok(spent) => spent,
                Err(payload) => {
                    // No merger will follow: wake the workers waiting for
                    // a spent accumulator, so they finish and the pool
                    // re-raises this panic.
                    lg.stalled = true;
                    drop(lg);
                    freed.notify_all();
                    std::panic::resume_unwind(payload);
                }
            };
            if merged {
                lg.next += 1;
            } else {
                lg.emitted += 1;
            }
            if let Some(acc) = spent {
                lg.spent.push(acc);
                freed.notify_all();
            }
            step = ready(&mut lg);
            if step.is_none() {
                lg.prefix = prefix.take();
                lg.merging = false;
            }
        }
    };

    // Folds shard `s` into an accumulator built from `spent`; `None`
    // when it stopped short or panicked.
    let fold_shard = |s: usize, spent: Option<A>| {
        let mut acc = match catch_unwind(AssertUnwindSafe(|| fresh(spent))) {
            Ok(acc) => acc,
            Err(payload) => {
                panics.lock().expect("panic list poisoned").push((s, payload));
                return None;
            }
        };
        let range = ranges[s].clone();
        let mut start = range.start;
        for bi in boundaries.partition_point(|&b| b <= range.start).. {
            let cut = boundaries.get(bi).map_or(range.end, |&b| b.min(range.end));
            match catch_unwind(AssertUnwindSafe(|| work(&mut acc, start..cut))) {
                Ok(Ok(())) => done.fetch_add(cut - start, Ordering::Relaxed),
                Ok(Err(folded)) => {
                    done.fetch_add(folded, Ordering::Relaxed);
                    return None;
                }
                Err(payload) => {
                    panics.lock().expect("panic list poisoned").push((s, payload));
                    return None;
                }
            };
            if cut == range.end {
                break;
            }
            // The boundary's snapshot is due now: emit it from `acc`
            // itself as the merger, unless a merger is busy.
            let mut lg = ledger.lock().expect("ledger poisoned");
            if lg.next == s && lg.emitted == bi && !lg.merging {
                lg.merging = true;
                let prefix = lg.prefix.take();
                drop(lg);
                drive(prefix, Step::Snapshot(cut, Cow::Borrowed(&acc)));
            } else {
                lg.partials.insert(bi, acc.clone());
            }
            start = cut;
        }
        Some(acc)
    };

    // The pool's index only counts shards: the ledger hands them out, in
    // order, together with their accumulator.
    pool(jobs, ranges.len(), token, |_| {
        if token.check().is_err() {
            return;
        }
        let (s, spent) = {
            let mut lg = ledger.lock().expect("ledger poisoned");
            while lg.built >= cap && lg.spent.is_empty() && !lg.stalled {
                lg = freed.wait(lg).expect("ledger poisoned");
            }
            let s = lg.handed;
            lg.handed += 1;
            let spent = lg.spent.pop();
            lg.built += usize::from(spent.is_none());
            (s, spent)
        };
        let landed = fold_shard(s, spent);
        let mut lg = ledger.lock().expect("ledger poisoned");
        match landed {
            Some(acc) => {
                lg.parked.insert(s, acc);
                if !lg.merging {
                    if let Some(step) = ready(&mut lg) {
                        lg.merging = true;
                        let prefix = lg.prefix.take();
                        drop(lg);
                        drive(prefix, step);
                    }
                }
            }
            None => {
                lg.stalled = true;
                drop(lg);
                freed.notify_all();
            }
        }
    });

    let panics = panics.into_inner().expect("panic list poisoned");
    if let Some((_, payload)) = panics.into_iter().min_by_key(|&(s, _)| s) {
        std::panic::resume_unwind(payload);
    }
    let lg = ledger.into_inner().expect("ledger poisoned");
    if lg.next < ranges.len() {
        // At least one shard stopped short: the run is interrupted even
        // if the token was cancelled a moment after other shards ended.
        return Err(Interrupted {
            reason: token.reason().unwrap_or(CancelReason::Cancelled),
            completed_trials: done.load(Ordering::Relaxed),
        });
    }
    Ok(lg.prefix)
}

/// A trial that panicked inside [`catch_trial`], as data: the campaign
/// classifies it instead of dying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialPanic {
    /// The trial index that panicked.
    pub index: usize,
    /// The panic payload, stringified (`&str` and `String` payloads are
    /// preserved verbatim).
    pub message: String,
}

impl std::fmt::Display for TrialPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trial {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TrialPanic {}

/// Runs one trial body with panic isolation: a panic becomes a typed
/// [`TrialPanic`] carrying the trial index and the stringified payload,
/// instead of unwinding into the worker pool. The result is ordinary data,
/// so sharded merge order — and with it bit-identical campaign output —
/// is unaffected by whether a trial panicked.
pub fn catch_trial<T>(index: usize, f: impl FnOnce() -> T) -> Result<T, TrialPanic> {
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|payload| TrialPanic { index, message: panic_message(payload.as_ref()) })
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Folds the shard accumulators produced by [`run_sharded`] left-to-right
/// with `merge` — the fixed-order reduction that keeps floating-point
/// merges thread-count-invariant. Returns `None` for an empty shard list
/// (`n == 0`).
pub fn merge_shards<A>(accs: Vec<A>, mut merge: impl FnMut(&mut A, A)) -> Option<A> {
    let mut it = accs.into_iter();
    let mut first = it.next()?;
    for acc in it {
        merge(&mut first, acc);
    }
    Some(first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn shard_ranges_partition_the_trial_space() {
        for n in [0usize, 1, 2, 5, 31, 32, 33, 100, 1000] {
            let ranges = shard_ranges(n);
            assert_eq!(ranges.len(), n.min(SHARDS), "n = {n}");
            let covered: Vec<usize> = ranges.iter().cloned().flatten().collect();
            assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n = {n}");
            assert!(ranges.iter().all(|r| !r.is_empty()) || n == 0);
        }
    }

    #[test]
    fn shard_plan_enumerates_the_ranges_in_order() {
        for n in [0usize, 1, 31, 32, 33, 400] {
            let plan = shard_plan(n);
            assert_eq!(plan.len(), shard_ranges(n).len(), "n = {n}");
            for (expect, (index, range)) in plan.iter().enumerate() {
                assert_eq!(*index, expect, "n = {n}");
                assert_eq!(*range, shard_ranges(n)[expect], "n = {n}");
            }
        }
        // Pure: two calls agree, which is what post-run telemetry relies on.
        assert_eq!(shard_plan(123), shard_plan(123));
    }

    #[test]
    fn shard_layout_ignores_the_worker_count() {
        // The layout is a pure function of n — nothing else to assert
        // beyond calling it twice, but make the contract explicit.
        assert_eq!(shard_ranges(77), shard_ranges(77));
    }

    #[test]
    fn sharded_float_fold_is_bit_identical_across_job_counts() {
        // A deliberately non-associative fold: the classic case where a
        // thread-count-dependent reduction order would change the bits.
        let fold = |jobs: Jobs| {
            let accs = run_sharded(jobs, 10_000, |_, range| {
                let mut acc = 0.1f64;
                for i in range {
                    acc += (i as f64).sqrt() * 1e-3;
                    acc *= 1.000_000_1;
                }
                acc
            });
            merge_shards(accs, |a, b| *a = *a * 0.5 + b).expect("non-empty")
        };
        let one = fold(Jobs::serial());
        for jobs in [2usize, 3, 4, 7, 12] {
            let j = fold(Jobs::new(jobs).expect("nonzero"));
            assert_eq!(one.to_bits(), j.to_bits(), "jobs = {jobs}");
        }
    }

    #[test]
    fn all_workers_participate_given_enough_shards() {
        let seen = AtomicU64::new(0);
        let _ = run_sharded(Jobs::new(4).expect("nonzero"), 1_000, |_, range| {
            // Record a live thread via its address-free marker: count
            // distinct shard executions; with 32 shards and 4 workers every
            // worker pulls several.
            seen.fetch_add(1, Ordering::Relaxed);
            range.len()
        });
        assert_eq!(seen.load(Ordering::Relaxed), SHARDS as u64);
    }

    #[test]
    fn trial_seed_is_a_pure_well_spread_function() {
        let a = trial_seed(42, 7);
        assert_eq!(a, trial_seed(42, 7));
        // Distinct indices and distinct base seeds decorrelate.
        let seeds: BTreeSet<u64> = (0..1000).map(|i| trial_seed(42, i)).collect();
        assert_eq!(seeds.len(), 1000);
        assert_ne!(trial_seed(1, 0), trial_seed(2, 0));
        // Low bits are mixed too (SplitMix64 finalizer property).
        let low_bits: BTreeSet<u64> = (0..64).map(|i| trial_seed(0, i) & 0xFF).collect();
        assert!(low_bits.len() > 32, "low byte barely varies: {}", low_bits.len());
    }

    #[test]
    fn jobs_parsing() {
        assert_eq!(Jobs::parse("1").expect("parse 1").get(), 1);
        assert_eq!(Jobs::parse("8").expect("parse 8").get(), 8);
        assert!(Jobs::parse("auto").expect("parse auto").get() >= 1);
        assert!(Jobs::parse("0").is_err());
        assert!(Jobs::parse("-3").is_err());
        assert!(Jobs::parse("many").is_err());
        assert_eq!(Jobs::default(), Jobs::serial());
    }

    #[test]
    fn empty_trial_range_is_calm() {
        let out: Vec<u32> = run_sharded(Jobs::new(4).expect("nonzero"), 0, |_, _| unreachable!());
        assert!(out.is_empty());
        assert!(merge_shards(Vec::<f64>::new(), |_, _| unreachable!()).is_none());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let _ = run_sharded(Jobs::new(2).expect("nonzero"), 100, |s, _| {
            if s == 3 {
                panic!("boom");
            }
            s
        });
    }

    #[test]
    fn all_shards_complete_before_a_panic_propagates() {
        // Shard 5 panics; every other shard must still execute (the panic
        // is re-raised only after the pool drains).
        let ran = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_sharded(Jobs::new(4).expect("nonzero"), 1_000, |s, range| {
                ran.fetch_add(1, Ordering::Relaxed);
                if s == 5 {
                    panic!("shard 5 down");
                }
                range.len()
            })
        }));
        assert!(result.is_err());
        assert_eq!(ran.load(Ordering::Relaxed), SHARDS as u64, "no shard was skipped");
    }

    #[test]
    fn lowest_panicking_shard_wins_regardless_of_jobs() {
        // Shards 7 and 3 both panic; the surfaced payload must be shard
        // 3's for any worker count — deterministic propagation.
        for jobs in [2usize, 4, 7] {
            let err = catch_unwind(AssertUnwindSafe(|| {
                run_sharded(Jobs::new(jobs).expect("nonzero"), 1_000, |s, _| {
                    if s == 7 {
                        panic!("shard 7");
                    }
                    if s == 3 {
                        panic!("shard 3");
                    }
                    s
                })
            }))
            .expect_err("must panic");
            let msg = err.downcast_ref::<&str>().copied().expect("str payload");
            assert_eq!(msg, "shard 3", "jobs = {jobs}");
        }
    }

    #[test]
    fn snapshot_boundaries_are_cadence_multiples_plus_n() {
        assert_eq!(snapshot_boundaries(10, 3), vec![3, 6, 9, 10]);
        assert_eq!(snapshot_boundaries(9, 3), vec![3, 6, 9]);
        assert_eq!(snapshot_boundaries(10, 0), vec![10]);
        assert_eq!(snapshot_boundaries(10, 100), vec![10]);
        assert_eq!(snapshot_boundaries(0, 3), Vec::<usize>::new());
    }

    /// A snapshotted run's `work`: folds each trial with `fold`, checking
    /// `token` before it.
    fn per_trial<'t, A>(
        token: &'t CancelToken,
        fold: impl Fn(&mut A, usize) + Sync + 't,
    ) -> impl Fn(&mut A, Range<usize>) -> Result<(), usize> + Sync + 't {
        move |acc, trials| {
            for (done, i) in trials.enumerate() {
                token.check().map_err(|_| done)?;
                fold(acc, i);
            }
            Ok(())
        }
    }

    /// A deliberately non-associative float fold of one trial.
    fn float_fold(acc: &mut f64, i: usize) {
        *acc += (i as f64).sqrt() * 1e-3;
        *acc *= 1.000_000_1;
    }

    /// Runs the snapshotting fold and returns (snapshot stream, final).
    fn snapshotted_fold(jobs: Jobs, n: usize, cadence: usize) -> (Vec<(usize, u64)>, Option<f64>) {
        let stream = std::sync::Mutex::new(Vec::new());
        let token = CancelToken::new();
        let result = fold_sharded(
            jobs,
            n,
            &token,
            Some(cadence),
            |_| 0.1f64,
            per_trial(&token, float_fold),
            |a, b| *a = *a * 0.5 + b,
            |b, snap: &f64| stream.lock().expect("stream").push((b, snap.to_bits())),
        )
        .expect("never cancelled");
        (stream.into_inner().expect("stream"), result)
    }

    #[test]
    fn snapshots_emit_in_ascending_boundary_order() {
        for jobs in [1usize, 2, 4, 7] {
            let (stream, result) = snapshotted_fold(Jobs::new(jobs).expect("nonzero"), 1000, 128);
            let boundaries: Vec<usize> = stream.iter().map(|&(b, _)| b).collect();
            assert_eq!(boundaries, snapshot_boundaries(1000, 128), "jobs = {jobs}");
            // The last snapshot is the final result.
            let last = stream.last().expect("final snapshot").1;
            assert_eq!(result.expect("non-empty").to_bits(), last, "jobs = {jobs}");
        }
    }

    #[test]
    fn snapshot_stream_is_bit_identical_across_job_counts() {
        let (serial, serial_final) = snapshotted_fold(Jobs::serial(), 1000, 100);
        assert_eq!(serial.len(), 10);
        for jobs in [2usize, 4, 7] {
            let (par, par_final) = snapshotted_fold(Jobs::new(jobs).expect("nonzero"), 1000, 100);
            assert_eq!(par, serial, "jobs = {jobs}");
            assert_eq!(
                par_final.expect("non-empty").to_bits(),
                serial_final.expect("non-empty").to_bits(),
                "jobs = {jobs}"
            );
        }
    }

    #[test]
    fn final_snapshot_matches_the_plain_sharded_fold() {
        // The snapshotting path must not change the end result: same
        // shard layout, same fold, same merge order as run_sharded +
        // merge_shards.
        let plain = {
            let accs = run_sharded(Jobs::new(3).expect("nonzero"), 500, |_, range| {
                let mut acc = 0.1f64;
                for i in range {
                    acc += (i as f64).sqrt() * 1e-3;
                    acc *= 1.000_000_1;
                }
                acc
            });
            merge_shards(accs, |a, b| *a = *a * 0.5 + b).expect("non-empty")
        };
        let (_, snapshotted) = snapshotted_fold(Jobs::new(3).expect("nonzero"), 500, 64);
        assert_eq!(snapshotted.expect("non-empty").to_bits(), plain.to_bits());
    }

    #[test]
    fn cadence_zero_emits_only_the_final_snapshot() {
        let (stream, result) = snapshotted_fold(Jobs::new(4).expect("nonzero"), 300, 0);
        assert_eq!(stream.len(), 1);
        assert_eq!(stream[0].0, 300);
        assert_eq!(stream[0].1, result.expect("non-empty").to_bits());
    }

    #[test]
    fn empty_snapshotted_range_is_calm() {
        let (stream, result) = snapshotted_fold(Jobs::new(4).expect("nonzero"), 0, 10);
        assert!(stream.is_empty());
        assert!(result.is_none());
    }

    #[test]
    fn every_snapshot_equals_a_fresh_prefix_run() {
        // Snapshot at boundary b must equal running the whole machinery
        // on just the trials 0..b — but only when b's shard layout
        // brackets identically, which holds trivially for the final
        // boundary. For intermediate boundaries the guarantee is the
        // weaker (and sufficient) one pinned above: identical across
        // job counts. Here we pin the *semantic* content instead: the
        // snapshot folds exactly the trials 0..b.
        let stream = std::sync::Mutex::new(Vec::new());
        let token = CancelToken::new();
        let _ = fold_sharded(
            Jobs::new(4).expect("nonzero"),
            200,
            &token,
            Some(64),
            |_| Vec::new(),
            per_trial(&token, |acc: &mut Vec<usize>, i| acc.push(i)),
            |a, b| a.extend_from_slice(b),
            |b, snap: &Vec<usize>| {
                let mut sorted = snap.clone();
                sorted.sort_unstable();
                stream.lock().expect("stream").push((b, sorted));
            },
        );
        let stream = stream.into_inner().expect("stream");
        assert_eq!(stream.len(), 4); // 64, 128, 192, 200
        for (b, trials) in stream {
            assert_eq!(trials, (0..b).collect::<Vec<_>>(), "boundary {b}");
        }
    }

    /// An accumulator whose text records every folded trial and the
    /// bracketing of every merge, so two runs agree only if they fold and
    /// merge in exactly the same order.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct Order(String);

    fn fold_order(acc: &mut Order, trials: Range<usize>) {
        for i in trials {
            acc.0 += &format!("{i},");
        }
    }

    fn merge_order(a: &mut Order, b: &Order) {
        a.0 = format!("({}|{})", a.0, b.0);
    }

    /// A shard's empty `Order`, recycling a spent one.
    fn fresh_order(spent: Option<Order>) -> Order {
        let mut acc = spent.unwrap_or_default();
        acc.0.clear();
        acc
    }

    #[test]
    fn fold_sharded_equals_merging_the_collected_shards() {
        for n in [0usize, 1, 31, 32, 33, 512] {
            let collected = run_sharded(Jobs::serial(), n, |_, trials| {
                let mut acc = Order::default();
                fold_order(&mut acc, trials);
                acc
            });
            let expect = merge_shards(collected, |a, b| merge_order(a, &b));
            for jobs in [1usize, 2, 3, 4, 7] {
                let folded = fold_sharded(
                    Jobs::new(jobs).expect("nonzero"),
                    n,
                    &CancelToken::new(),
                    None,
                    fresh_order,
                    |acc, trials| {
                        fold_order(acc, trials);
                        Ok(())
                    },
                    merge_order,
                    |_, _| unreachable!("no cadence, no snapshots"),
                )
                .expect("never cancelled");
                assert_eq!(folded, expect, "n = {n}, jobs = {jobs}");
            }
        }
    }

    /// An accumulator that counts how many of its kind exist, and were
    /// ever made.
    struct Counted<'a> {
        census: &'a Census,
        sum: u64,
    }

    #[derive(Default)]
    struct Census {
        live: AtomicUsize,
        peak: AtomicUsize,
        made: AtomicUsize,
    }

    impl Census {
        fn make(&self) -> Counted<'_> {
            let live = self.live.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(live, Ordering::SeqCst);
            self.made.fetch_add(1, Ordering::SeqCst);
            Counted { census: self, sum: 0 }
        }
    }

    impl Clone for Counted<'_> {
        fn clone(&self) -> Self {
            let mut copy = self.census.make();
            copy.sum = self.sum;
            copy
        }
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.census.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn fold_sharded_keeps_two_accumulators_alive_at_one_job() {
        let census = Census::default();
        let total = fold_sharded(
            Jobs::serial(),
            1_000,
            &CancelToken::new(),
            None,
            |spent: Option<Counted<'_>>| match spent {
                Some(mut acc) => {
                    acc.sum = 0;
                    acc
                }
                None => census.make(),
            },
            |acc, trials| {
                acc.sum += trials.map(|i| i as u64).sum::<u64>();
                Ok(())
            },
            |a, b| a.sum += b.sum,
            |_, _| {},
        )
        .expect("never cancelled")
        .expect("non-empty")
        .sum;
        assert_eq!(total, 999 * 1_000 / 2);
        assert_eq!(census.peak.load(Ordering::SeqCst), 2, "the prefix and the shard in progress");
        assert_eq!(census.made.load(Ordering::SeqCst), 2, "spent accumulators are reused");
        assert_eq!(census.live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_slow_shard_holds_the_fold_at_one_accumulator_per_worker_and_the_prefix() {
        // Shard 0 is slow, so the other workers finish later shards ahead
        // of it. Parking each one in a new accumulator would build about
        // one per shard; the fold builds `jobs + 1` and then waits.
        let ranges = shard_ranges(1_000);
        for jobs in [2usize, 4] {
            let census = Census::default();
            let total = fold_sharded(
                Jobs::new(jobs).expect("nonzero"),
                1_000,
                &CancelToken::new(),
                None,
                |spent: Option<Counted<'_>>| match spent {
                    Some(mut acc) => {
                        acc.sum = 0;
                        acc
                    }
                    None => census.make(),
                },
                |acc, trials| {
                    if trials == ranges[0] {
                        thread::sleep(Duration::from_millis(50));
                    }
                    acc.sum += trials.map(|i| i as u64).sum::<u64>();
                    Ok(())
                },
                |a, b| a.sum += b.sum,
                |_, _| {},
            )
            .expect("never cancelled")
            .expect("non-empty")
            .sum;
            assert_eq!(total, 999 * 1_000 / 2, "jobs = {jobs}");
            assert_eq!(census.made.load(Ordering::SeqCst), jobs + 1, "jobs = {jobs}");
            assert_eq!(census.live.load(Ordering::SeqCst), 0, "jobs = {jobs}");
        }
    }

    /// A one-shot signal between test threads.
    #[derive(Default)]
    struct Gate(Mutex<bool>, Condvar);

    impl Gate {
        fn open(&self) {
            *self.0.lock().expect("gate") = true;
            self.1.notify_all();
        }

        /// Waits up to `timeout` for the gate to open; true if it did.
        fn wait(&self, timeout: Duration) -> bool {
            let open = self.0.lock().expect("gate");
            *self.1.wait_timeout_while(open, timeout, |open| !*open).expect("gate").0
        }
    }

    #[test]
    fn workers_start_shards_while_the_merger_merges() {
        // Four one-trial shards at two workers. Shard 0 finishes last, after
        // shards 1 and 2 are parked, so its worker merges shard 1 and then
        // shard 2. The other worker waits at the accumulator cap until the
        // merge of shard 1 frees one; it must then start shard 3 while
        // shard 2 is merging, which it cannot if merges hold the ledger.
        let (shard2_folded, shard3_started) = (Gate::default(), Gate::default());
        let overlapped = Mutex::new(None);
        let merged = fold_sharded(
            Jobs::new(2).expect("nonzero"),
            4,
            &CancelToken::new(),
            None,
            |_| Vec::new(),
            |acc: &mut Vec<usize>, trials| {
                match trials.start {
                    0 => {
                        assert!(shard2_folded.wait(Duration::from_secs(10)), "shard 2 never ran");
                        // Time for shard 2 to park.
                        thread::sleep(Duration::from_millis(100));
                    }
                    3 => shard3_started.open(),
                    _ => {}
                }
                acc.extend(trials.clone());
                if trials.start == 2 {
                    shard2_folded.open();
                }
                Ok(())
            },
            |a, b| {
                if b == &[2] {
                    let started = shard3_started.wait(Duration::from_secs(2));
                    *overlapped.lock().expect("overlap") = Some(started);
                }
                a.extend_from_slice(b);
            },
            |_, _| {},
        )
        .expect("never cancelled");
        assert_eq!(merged, Some(vec![0, 1, 2, 3]));
        let overlapped = overlapped.into_inner().expect("overlap");
        assert_eq!(overlapped, Some(true), "shard 3 did not start while shard 2 was merging");
    }

    #[test]
    fn a_panicking_merge_wakes_the_waiting_workers_and_reraises() {
        // Shard 0 is slow, so the other worker parks shards and then waits
        // at the accumulator cap for a merge that panics.
        let ranges = shard_ranges(1_000);
        let err = catch_unwind(AssertUnwindSafe(|| {
            fold_sharded(
                Jobs::new(2).expect("nonzero"),
                1_000,
                &CancelToken::new(),
                None,
                |_| 0usize,
                |acc, trials| {
                    if trials == ranges[0] {
                        thread::sleep(Duration::from_millis(50));
                    }
                    *acc += trials.len();
                    Ok(())
                },
                |_, _| panic!("merge"),
                |_, _| {},
            )
        }))
        .expect_err("the merge panics");
        assert_eq!(err.downcast_ref::<&str>().copied(), Some("merge"));
    }

    #[test]
    fn fold_sharded_runs_every_shard_then_reraises_the_lowest_panic() {
        let ranges = shard_ranges(1_000);
        for jobs in [1usize, 2, 4, 7] {
            let ran = AtomicUsize::new(0);
            let err = catch_unwind(AssertUnwindSafe(|| {
                fold_sharded(
                    Jobs::new(jobs).expect("nonzero"),
                    1_000,
                    &CancelToken::new(),
                    None,
                    |_| 0usize,
                    |acc, trials| {
                        ran.fetch_add(1, Ordering::SeqCst);
                        match ranges.iter().position(|r| *r == trials) {
                            Some(7) => panic!("shard 7"),
                            Some(3) => panic!("shard 3"),
                            _ => *acc += trials.len(),
                        }
                        Ok(())
                    },
                    |a, b| *a += b,
                    |_, _| {},
                )
            }))
            .expect_err("must panic");
            let msg = err.downcast_ref::<&str>().copied().expect("str payload");
            assert_eq!(msg, "shard 3", "jobs = {jobs}");
            assert_eq!(ran.load(Ordering::SeqCst), SHARDS, "jobs = {jobs}: a shard was skipped");
        }
    }

    #[test]
    fn cancelled_fold_sharded_returns_a_typed_interrupt() {
        // A campaign cancelled after its 100th trial: `completed_trials`
        // counts finished shards in full plus what each interrupted shard
        // reported.
        let campaign = |jobs: usize| {
            let token = CancelToken::new();
            let folded = AtomicUsize::new(0);
            let work = |acc: &mut usize, trials: Range<usize>| {
                for (done, _) in trials.enumerate() {
                    token.check().map_err(|_| done)?;
                    *acc += 1;
                    if folded.fetch_add(1, Ordering::SeqCst) == 99 {
                        token.cancel(CancelReason::Cancelled);
                    }
                }
                Ok(())
            };
            let jobs = Jobs::new(jobs).expect("nonzero");
            let err =
                fold_sharded(jobs, 1_000, &token, None, |_| 0, work, |a, b| *a += b, |_, _| {})
                    .expect_err("must interrupt");
            (err, folded.load(Ordering::SeqCst))
        };
        let (serial, folded) = campaign(1);
        assert_eq!(serial, Interrupted { reason: CancelReason::Cancelled, completed_trials: 100 });
        assert_eq!(folded, 100);
        assert!(serial.to_string().contains("cancelled"), "{serial}");
        let (err, folded) = campaign(4);
        assert_eq!(err.reason, CancelReason::Cancelled);
        assert_eq!(err.completed_trials, folded, "{err}");
        // Cancelled before the start: no shard runs, nothing is built.
        let token = CancelToken::new();
        token.cancel(CancelReason::Shutdown);
        let err = fold_sharded(
            Jobs::new(4).expect("nonzero"),
            200,
            &token,
            None,
            |_| -> usize { panic!("no shard may start") },
            |_, _| Ok(()),
            |_, _| {},
            |_, _| {},
        )
        .expect_err("pre-cancelled");
        assert_eq!(err, Interrupted { reason: CancelReason::Shutdown, completed_trials: 0 });
    }

    #[test]
    fn snapshots_bracket_as_the_left_fold_of_shard_contributions() {
        // The snapshot at boundary b: every shard's fold of its trials
        // below b, merged left to right in shard order.
        let expect = |n: usize, b: usize| {
            let mut snap: Option<Order> = None;
            for r in shard_ranges(n).into_iter().filter(|r| r.start < b) {
                let mut part = Order::default();
                fold_order(&mut part, r.start..r.end.min(b));
                match &mut snap {
                    None => snap = Some(part),
                    Some(acc) => merge_order(acc, &part),
                }
            }
            snap.expect("b > 0")
        };
        for n in [1usize, 33, 100] {
            for cadence in [0usize, 1, 7, 16] {
                for jobs in [1usize, 2, 3, 4, 7] {
                    let stream = std::sync::Mutex::new(Vec::new());
                    let last = fold_sharded(
                        Jobs::new(jobs).expect("nonzero"),
                        n,
                        &CancelToken::new(),
                        Some(cadence),
                        fresh_order,
                        |acc, trials| {
                            fold_order(acc, trials);
                            Ok(())
                        },
                        merge_order,
                        |b, snap: &Order| stream.lock().expect("stream").push((b, snap.clone())),
                    )
                    .expect("never cancelled");
                    let stream = stream.into_inner().expect("stream");
                    let want: Vec<(usize, Order)> = snapshot_boundaries(n, cadence)
                        .into_iter()
                        .map(|b| (b, expect(n, b)))
                        .collect();
                    assert_eq!(stream, want, "n = {n}, cadence = {cadence}, jobs = {jobs}");
                    assert_eq!(
                        last,
                        Some(expect(n, n)),
                        "n = {n}, cadence = {cadence}, jobs = {jobs}"
                    );
                }
            }
        }
    }

    #[test]
    fn cancel_token_first_reason_wins() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.check(), Ok(()));
        t.cancel(CancelReason::DeadlineExceeded);
        t.cancel(CancelReason::Cancelled);
        assert_eq!(t.reason(), Some(CancelReason::DeadlineExceeded));
        // Clones share the flag.
        let c = t.clone();
        assert!(c.is_cancelled());
        assert_eq!(CancelReason::Shutdown.name(), "shutdown");
    }

    #[test]
    fn expired_deadline_trips_the_token() {
        let t = CancelToken::for_job(Some(Duration::from_millis(0)), None);
        assert_eq!(t.check(), Err(CancelReason::DeadlineExceeded));
        assert_eq!(t.reason(), Some(CancelReason::DeadlineExceeded));
        // A generous deadline does not trip.
        let t = CancelToken::for_job(Some(Duration::from_secs(3600)), None);
        assert_eq!(t.check(), Ok(()));
    }

    #[test]
    fn snapshotted_cancel_mid_run_interrupts_with_a_prefix_stream() {
        // Reference: the full uninterrupted snapshot stream.
        let (full, _) = snapshotted_fold(Jobs::new(4).expect("jobs"), 1000, 100);
        for jobs in [1usize, 4] {
            let token = CancelToken::new();
            let stream = std::sync::Mutex::new(Vec::new());
            let err = fold_sharded(
                Jobs::new(jobs).expect("jobs"),
                1000,
                &token,
                Some(100),
                |_| 0.1f64,
                per_trial(&token, float_fold),
                |a, b| *a = *a * 0.5 + b,
                |b, snap: &f64| {
                    stream.lock().expect("stream").push((b, snap.to_bits()));
                    // Cancel as soon as the first snapshot lands.
                    token.cancel(CancelReason::Cancelled);
                },
            )
            .expect_err("must interrupt");
            assert_eq!(err.reason, CancelReason::Cancelled);
            assert!(err.completed_trials < 1000, "jobs = {jobs}: {err}");
            // Whatever was emitted is a byte-identical prefix of the full
            // deterministic stream.
            let emitted = stream.into_inner().expect("stream");
            assert!(!emitted.is_empty(), "the first snapshot emitted before the cancel");
            assert_eq!(emitted[..], full[..emitted.len()], "jobs = {jobs}");
        }
    }

    #[test]
    fn cancel_during_merge_still_delivers_the_full_result() {
        // "Deadline during merge": cancellation that lands after the last
        // trial folded must not discard a complete run.
        let (_, reference) = snapshotted_fold(Jobs::new(3).expect("jobs"), 500, 0);
        let token = CancelToken::new();
        let folded = AtomicUsize::new(0);
        let result = fold_sharded(
            Jobs::new(3).expect("jobs"),
            500,
            &token,
            Some(0),
            |_| 0.1f64,
            per_trial(&token, |acc, i| {
                float_fold(acc, i);
                folded.fetch_add(1, Ordering::SeqCst);
            }),
            |a, b| {
                // Shards merge as they land; trip the token only in a
                // merge that runs after the last trial folded (there is
                // always one: the last shard to finish is merged after).
                if folded.load(Ordering::SeqCst) == 500 {
                    token.cancel(CancelReason::DeadlineExceeded);
                }
                *a = *a * 0.5 + b
            },
            |_, _| {},
        )
        .expect("complete runs are always delivered");
        assert_eq!(result.expect("non-empty").to_bits(), reference.expect("non-empty").to_bits());
    }

    #[test]
    fn expired_deadline_interrupts_the_snapshotted_run() {
        let token = CancelToken::for_job(Some(Duration::from_millis(0)), None);
        let err = fold_sharded(
            Jobs::new(4).expect("jobs"),
            300,
            &token,
            Some(50),
            |_| 0u64,
            per_trial(&token, |acc, i| *acc += i as u64),
            |a, b| *a += b,
            |_, _| {},
        )
        .expect_err("expired deadline");
        assert_eq!(err.reason, CancelReason::DeadlineExceeded);
        assert_eq!(err.completed_trials, 0);
    }

    #[test]
    fn preempted_reason_round_trips() {
        let t = CancelToken::new();
        t.cancel(CancelReason::Preempted);
        assert_eq!(t.reason(), Some(CancelReason::Preempted));
        assert_eq!(CancelReason::Preempted.name(), "preempted");
        // First reason still wins over a later preempt.
        let t = CancelToken::new();
        t.cancel(CancelReason::Cancelled);
        t.cancel(CancelReason::Preempted);
        assert_eq!(t.reason(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn oversized_deadline_means_no_deadline() {
        // Duration::MAX past now() does not fit in an Instant; the token
        // must treat it as unreachable instead of panicking.
        let t = CancelToken::for_job(Some(Duration::MAX), None);
        assert_eq!(t.check(), Ok(()));
    }

    #[test]
    fn unleased_token_allows_every_worker() {
        let t = CancelToken::new();
        assert!(t.worker_allowed(0));
        assert!(t.worker_allowed(7));
        assert!(t.lease().is_none());
    }

    #[test]
    fn leased_token_bounds_active_workers() {
        let budget = ThreadBudget::new(8);
        let lease = budget.lease(2);
        let t = CancelToken::for_job(None, Some(lease));
        assert!(t.worker_allowed(0) && t.worker_allowed(1));
        assert!(!t.worker_allowed(2));
        t.lease().expect("leased").shrink(1);
        assert!(t.worker_allowed(0), "worker 0 survives any shrink");
        assert!(!t.worker_allowed(1));
        t.lease().expect("leased").release();
        assert!(t.worker_allowed(0), "worker 0 survives even release");
        assert_eq!(budget.available(), 8);
    }

    /// `fold_sharded` with no cadence, folding each shard through `work`.
    fn leased_fold(
        token: &CancelToken,
        n: usize,
        work: impl Fn(&mut Vec<usize>, Range<usize>) + Sync,
    ) -> Vec<usize> {
        fold_sharded(
            Jobs::new(4).expect("jobs"),
            n,
            token,
            None,
            |_| Vec::new(),
            |acc, trials| {
                work(acc, trials);
                Ok(())
            },
            |a, b| a.extend_from_slice(b),
            |_, _| {},
        )
        .expect("a lease never cancels the run")
        .expect("non-empty")
    }

    #[test]
    fn single_worker_lease_serializes_the_pool() {
        // With a grant of 1, at most one shard body runs at a time even
        // when the runner was asked for 4 threads.
        let budget = ThreadBudget::new(4);
        let token = CancelToken::for_job(None, Some(budget.lease(1)));
        let active = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let out = leased_fold(&token, 200, |acc, trials| {
            let now = active.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            thread::sleep(Duration::from_millis(1));
            active.fetch_sub(1, Ordering::SeqCst);
            acc.extend(trials);
        });
        assert_eq!(out, (0..200).collect::<Vec<_>>(), "every shard still ran");
        assert_eq!(peak.load(Ordering::SeqCst), 1, "grant of 1 means serial execution");
    }

    #[test]
    fn shrink_mid_run_keeps_results_byte_identical() {
        let fold = |acc: &mut Vec<usize>, trials: Range<usize>| {
            acc.push(trials.map(|i| i * 31 + 7).sum::<usize>());
        };
        let reference = leased_fold(&CancelToken::new(), 1_000, fold);
        let budget = ThreadBudget::new(4);
        let lease = budget.lease(4);
        let token = CancelToken::for_job(None, Some(lease.clone()));
        let dispatched = AtomicUsize::new(0);
        let shrunk = leased_fold(&token, 1_000, |acc, trials| {
            // Take three workers back partway through the campaign.
            if dispatched.fetch_add(1, Ordering::SeqCst) == 5 {
                lease.shrink(1);
            }
            fold(acc, trials);
        });
        assert_eq!(shrunk, reference);
    }

    #[test]
    fn catch_trial_wraps_panics_as_data() {
        assert_eq!(catch_trial(4, || 42), Ok(42));
        let p = catch_trial(17, || -> u32 { panic!("boom {}", 17) }).expect_err("panics");
        assert_eq!(p.index, 17);
        assert_eq!(p.message, "boom 17");
        assert_eq!(p.to_string(), "trial 17 panicked: boom 17");
        // &str payloads are preserved too.
        let p = catch_trial(2, || -> u32 { panic!("plain") }).expect_err("panics");
        assert_eq!(p.message, "plain");
    }
}
