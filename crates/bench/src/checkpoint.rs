//! Resumable fault campaigns: periodic on-disk snapshots of completed
//! work, crash recovery, and byte-identical resumption.
//!
//! A long campaign (thousands of trials × a cycle-accurate core) should
//! survive being killed. Given a checkpoint path, [`run_campaign`] adds a
//! persistence loop: every time a worker finishes one of the fixed trial
//! shards, the campaign checkpoint — the completed shards' classified
//! rows plus their recovery counters — is atomically rewritten
//! (`<path>.tmp` + rename).
//! A later invocation with the same configuration loads the snapshot,
//! returns the stored rows for completed shards, and runs only the rest;
//! because the trial lattice is a pure function of the trial index, the
//! resumed campaign's CSV and summary are **byte-identical** to an
//! uninterrupted run.
//!
//! The snapshot is a versioned, checksummed text file:
//!
//! ```text
//! emask-campaign-checkpoint v1
//! fingerprint <16-hex FNV-1a of the canonical config>
//! shard <idx> <rows> <runs> <checkpoints> <rollbacks> <pages-moved>
//! <one campaign CSV row per trial>
//! ...
//! checksum <16-hex FNV-1a of everything above>
//! ```
//!
//! * a **missing** file starts a fresh campaign;
//! * a **torn or corrupt** file (bad magic, bad checksum, unparseable
//!   row) is discarded and the campaign restarts from scratch — safe,
//!   because every row is recomputed deterministically;
//! * a **fingerprint mismatch** (resuming with a different configuration)
//!   is a hard, typed error ([`CampaignError::Mismatch`]) — silently
//!   mixing two campaigns' rows would corrupt the report.

use crate::campaign::{
    CampaignConfig, CampaignReport, CampaignTrial, FaultOutcome, RecoveryTotals, TrialRunner,
};
use emask_core::{MaskedDes, RunError};
use emask_par::{fold_sharded, shard_plan, CancelToken, Interrupted, Jobs};
use emask_telemetry::{fnv1a, Event, EventSink, NullSink};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Error type of the checkpointed campaign runner.
#[derive(Debug)]
pub enum CampaignError {
    /// The clean baseline run failed — the campaign cannot start.
    Run(RunError),
    /// Reading or writing the checkpoint file failed.
    Io {
        /// The checkpoint path involved.
        path: PathBuf,
        /// The underlying IO error.
        source: std::io::Error,
    },
    /// The checkpoint on disk was written by a campaign with a different
    /// configuration; resuming would mix incompatible rows.
    Mismatch {
        /// The checkpoint path involved.
        path: PathBuf,
        /// Fingerprint of the requested configuration.
        expected: u64,
        /// Fingerprint stored in the file.
        found: u64,
    },
    /// A cooperative [`CancelToken`] tripped mid-campaign (client cancel,
    /// deadline, shutdown). Completed shards are persisted in the
    /// checkpoint; rerunning with the same configuration resumes from
    /// them and still yields a byte-identical report.
    Interrupted(Interrupted),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Run(e) => write!(f, "clean baseline run failed: {e}"),
            CampaignError::Io { path, source } => {
                write!(f, "campaign checkpoint {}: {source}", path.display())
            }
            CampaignError::Mismatch { path, expected, found } => write!(
                f,
                "campaign checkpoint {} belongs to a different configuration \
                 (fingerprint {found:016x}, expected {expected:016x}); \
                 delete it or rerun with the original settings",
                path.display()
            ),
            CampaignError::Interrupted(i) => write!(f, "campaign {i}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Run(e) => Some(e),
            CampaignError::Io { source, .. } => Some(source),
            CampaignError::Mismatch { .. } => None,
            CampaignError::Interrupted(i) => Some(i),
        }
    }
}

impl From<Interrupted> for CampaignError {
    fn from(i: Interrupted) -> Self {
        CampaignError::Interrupted(i)
    }
}

impl From<RunError> for CampaignError {
    fn from(e: RunError) -> Self {
        CampaignError::Run(e)
    }
}

/// The canonical-config fingerprint: any field that changes the trial
/// lattice or its classification participates, so a stale checkpoint can
/// never be resumed under different settings. `clean_cycles` folds in the
/// compiled program itself (policy, rounds) without hashing the binary.
fn config_fingerprint(cfg: &CampaignConfig, clean_cycles: u64) -> u64 {
    // Spelled as the policy's `Debug` printed it while it still had a
    // cadence and a retry budget, so v1 checkpoints keep their
    // fingerprint.
    let recovery = match cfg.recovery {
        Some(_) => "Some(RecoveryPolicy { cadence: PhaseMarkers, max_retries: 8 })",
        None => "None",
    };
    let canon = format!(
        "v1|trials={}|bits={:?}|pt={:016x}|key={:016x}|recovery={recovery}|limit={:?}|panic={:?}|clean={clean_cycles}",
        cfg.trials, cfg.bits, cfg.plaintext, cfg.key, cfg.cycle_limit, cfg.panic_trial
    );
    fnv1a(canon.as_bytes())
}

const MAGIC: &str = "emask-campaign-checkpoint v1";

/// One completed shard: its classified rows (trial order) plus the
/// aggregate recovery counters of those trials. Also the accumulator the
/// campaign folds its shards into.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ShardRecord {
    pub(crate) trials: Vec<CampaignTrial>,
    pub(crate) recovery: RecoveryTotals,
}

/// The on-disk campaign snapshot: which shards are done and their rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignCheckpoint {
    fingerprint: u64,
    shards: BTreeMap<usize, ShardRecord>,
}

impl CampaignCheckpoint {
    /// An empty checkpoint for the given config fingerprint.
    fn new(fingerprint: u64) -> Self {
        Self { fingerprint, shards: BTreeMap::new() }
    }

    /// Shard indices already completed, ascending.
    pub fn completed(&self) -> Vec<usize> {
        self.shards.keys().copied().collect()
    }

    /// Drops a completed shard, forcing it to be re-run on resume. Used
    /// by tests to simulate a campaign killed partway through.
    pub fn forget(&mut self, shard: usize) {
        self.shards.remove(&shard);
    }

    /// Loads a checkpoint from `path`.
    ///
    /// Returns `Ok(None)` when the file does not exist **or** fails
    /// validation (bad magic, bad checksum, unparseable row) — a torn or
    /// corrupt snapshot is discarded and the campaign restarts from
    /// scratch, which is always safe because every row is recomputed
    /// deterministically.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] when an existing file cannot be read.
    pub fn load(path: &Path) -> Result<Option<Self>, CampaignError> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CampaignError::Io { path: path.to_path_buf(), source: e }),
        };
        Ok(Self::parse(&text))
    }

    /// Parses and validates the snapshot text; `None` means corrupt.
    fn parse(text: &str) -> Option<Self> {
        // The checksum line covers every byte before it.
        let tail = text.rfind("checksum ")?;
        let (body, checksum_line) = text.split_at(tail);
        let stored: u64 =
            u64::from_str_radix(checksum_line.trim().strip_prefix("checksum ")?, 16).ok()?;
        if fnv1a(body.as_bytes()) != stored {
            return None;
        }
        let mut lines = body.lines();
        if lines.next()? != MAGIC {
            return None;
        }
        let fingerprint =
            u64::from_str_radix(lines.next()?.strip_prefix("fingerprint ")?, 16).ok()?;
        let mut shards = BTreeMap::new();
        while let Some(header) = lines.next() {
            let mut f = header.strip_prefix("shard ")?.split(' ');
            let idx: usize = f.next()?.parse().ok()?;
            let nrows: usize = f.next()?.parse().ok()?;
            let runs: u64 = f.next()?.parse().ok()?;
            let checkpoints: u64 = f.next()?.parse().ok()?;
            let rollbacks: u64 = f.next()?.parse().ok()?;
            let pages_moved: u64 = f.next()?.parse().ok()?;
            // Grown row by row: the count comes from the file, so a huge
            // one must fail on the rows that are missing, not on the
            // allocation.
            let mut trials = Vec::new();
            for _ in 0..nrows {
                trials.push(parse_row(lines.next()?)?);
            }
            let recovery = RecoveryTotals { runs, checkpoints, rollbacks, pages_moved };
            shards.insert(idx, ShardRecord { trials, recovery });
        }
        Some(Self { fingerprint, shards })
    }

    /// Renders the snapshot text, checksum line included.
    fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{MAGIC}");
        let _ = writeln!(out, "fingerprint {:016x}", self.fingerprint);
        for (idx, rec) in &self.shards {
            let r = rec.recovery;
            let _ = writeln!(
                out,
                "shard {idx} {} {} {} {} {}",
                rec.trials.len(),
                r.runs,
                r.checkpoints,
                r.rollbacks,
                r.pages_moved
            );
            for t in &rec.trials {
                t.write_row(&mut out);
            }
        }
        let checksum = fnv1a(out.as_bytes());
        let _ = writeln!(out, "checksum {checksum:016x}");
        out
    }

    /// Atomically writes the snapshot to `path` (`<path>.tmp` + rename),
    /// so a kill mid-save leaves the previous snapshot intact.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] when the temporary file cannot be written
    /// or renamed into place.
    pub fn save(&self, path: &Path) -> Result<(), CampaignError> {
        let io = |source| CampaignError::Io { path: path.to_path_buf(), source };
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.render()).map_err(io)?;
        std::fs::rename(&tmp, path).map_err(io)
    }
}

/// Parses one stored CSV row (as written by
/// [`CampaignTrial::write_row`]); `None` means corrupt. An outcome name
/// outside the known set can only come from file damage, so it rejects
/// the snapshot rather than mis-count later.
fn parse_row(line: &str) -> Option<CampaignTrial> {
    let mut f = line.splitn(7, ',');
    Some(CampaignTrial {
        index: f.next()?.parse().ok()?,
        cycle: f.next()?.parse().ok()?,
        bit: f.next()?.parse().ok()?,
        target: f.next()?.to_string(),
        model: f.next()?.to_string(),
        outcome: f
            .next()
            .and_then(|name| FaultOutcome::ALL.into_iter().find(|o| o.name() == name))?,
        detail: f.next()?.to_string(),
    })
}

/// Runs a fault campaign against `des`: a clean baseline run, then
/// `cfg.trials` trials of the deterministic lattice sharded across `jobs`
/// worker threads. Every trial is independent — a fresh simulated
/// machine with one planned fault — and the lattice is a pure function
/// of the trial index, so the report is byte-identical for any `jobs`
/// value. The clean baseline run must succeed; after that **no trial can
/// panic or abort the campaign** — every possible result of a faulted run
/// maps onto a [`FaultOutcome`](crate::FaultOutcome).
///
/// **Checkpoint.** With `checkpoint: Some(path)` the campaign persists a
/// [`CampaignCheckpoint`] at `path` after every completed shard, and a
/// rerun with the same configuration resumes from it — completed shards
/// are served from the snapshot, the rest are computed — producing a
/// report whose CSV and summary are byte-identical to an uninterrupted
/// run at any `jobs` count.
///
/// **Cancellation.** `token` is checked at every trial boundary, so a
/// trip (client cancel, deadline, shutdown) stops the campaign cleanly
/// with [`CampaignError::Interrupted`]. Shards completed before the trip
/// are already in the checkpoint — the interrupted shard is discarded and
/// recomputed on resume. This is the supervision entry point
/// `emask-serve` drives.
///
/// **Events.** Workers emit operational [`Event::TrialCompleted`] /
/// [`Event::RecoveryAttempted`] per trial, [`Event::ShardCompleted`] per
/// finished shard, and, with a checkpoint, [`Event::CheckpointWritten`]
/// after each persist. The replayable stream (a
/// [`Event::CampaignStarted`] header, one [`Event::FaultOutcome`] per
/// trial in trial order, a [`Event::CampaignCompleted`] trailer) is
/// emitted from the deterministic merge, so it is byte-identical for any
/// `jobs` count, with or without a checkpoint, and across a SIGKILL +
/// resume (shards served from the snapshot emit no operational trial
/// events: the "work not redone" signal). With
/// [`NullSink`] every emission site compiles away.
///
/// # Errors
///
/// * [`CampaignError::Run`] — the clean baseline run failed;
/// * [`CampaignError::Io`] — the checkpoint could not be read or written;
/// * [`CampaignError::Mismatch`] — `path` holds a checkpoint written
///   under a different configuration;
/// * [`CampaignError::Interrupted`] — the token tripped before the last
///   shard completed.
pub fn run_campaign<S: EventSink>(
    des: &MaskedDes,
    cfg: &CampaignConfig,
    jobs: Jobs,
    token: &CancelToken,
    checkpoint: Option<&Path>,
    sink: &S,
) -> Result<CampaignReport, CampaignError> {
    let runner = TrialRunner::prepare(des, cfg)?;
    let store = match checkpoint {
        None => None,
        Some(path) => {
            let fingerprint = config_fingerprint(cfg, runner.clean_cycles());
            let checkpoint = match CampaignCheckpoint::load(path)? {
                Some(cp) if cp.fingerprint != fingerprint => {
                    return Err(CampaignError::Mismatch {
                        path: path.to_path_buf(),
                        expected: fingerprint,
                        found: cp.fingerprint,
                    });
                }
                Some(cp) => cp,
                None => CampaignCheckpoint::new(fingerprint),
            };
            Some((path, Mutex::new(checkpoint)))
        }
    };
    if S::ACTIVE {
        sink.emit(Event::CampaignStarted {
            experiment: "fault".into(),
            trials: cfg.trials as u64,
            seed: 0,
            cadence: 0,
        });
    }
    let plan = shard_plan(cfg.trials);
    let folded = fold_sharded(
        jobs,
        cfg.trials,
        token,
        None,
        |spent: Option<ShardRecord>| {
            let mut rec = spent.unwrap_or_default();
            rec.trials.clear();
            rec.recovery = RecoveryTotals::default();
            rec
        },
        |rec, range| {
            let shard = plan.iter().position(|(_, r)| *r == range).expect("a planned shard");
            if let Some((_, store)) = &store {
                if let Some(done) = store.lock().expect("checkpoint store").shards.get(&shard) {
                    rec.clone_from(done);
                    return Ok(());
                }
            }
            let len = range.len();
            for (done, i) in range.enumerate() {
                // Trial-boundary cancellation: a tripped token discards
                // this shard's partial rows (recomputed deterministically
                // on resume) and reports how many trials it had folded.
                token.check().map_err(|_| done)?;
                let (trial, stats) = runner.run_trial(i);
                if runner.recovery_enabled() {
                    rec.recovery.absorb(&stats);
                }
                if S::ACTIVE {
                    if stats.rollbacks > 0 {
                        sink.emit(Event::RecoveryAttempted { trial: i as u64 });
                    }
                    sink.emit(Event::TrialCompleted { trial: i as u64 });
                }
                rec.trials.push(trial);
            }
            if let Some((path, store)) = &store {
                let mut guard = store.lock().expect("checkpoint store");
                guard.shards.insert(shard, rec.clone());
                // Mid-run persistence is best effort — an unwritable path
                // still fails the run, loudly, at the final save below.
                let _ = guard.save(path);
                if S::ACTIVE {
                    sink.emit(Event::CheckpointWritten { shards_done: guard.shards.len() as u64 });
                }
            }
            if S::ACTIVE {
                sink.emit(Event::ShardCompleted { shard: shard as u64, len: len as u64 });
            }
            Ok(())
        },
        // Shards are contiguous ascending index ranges merged in shard
        // order, so appending keeps the rows in trial order.
        |all, rec| {
            all.trials.extend_from_slice(&rec.trials);
            all.recovery.merge(&rec.recovery);
        },
        |_, _| {},
    );
    if let Some((path, store)) = store {
        // Persist what completed, so a resume after an interruption skips
        // it; the trip then surfaces as a typed error for the supervisor.
        store.into_inner().expect("checkpoint store").save(path)?;
    }
    let ShardRecord { trials, recovery } = folded?.unwrap_or_default();
    let report = CampaignReport::new(trials, runner.clean_cycles(), recovery);
    if S::ACTIVE {
        for t in &report.trials {
            let outcome = t.outcome.name().to_string();
            sink.emit(Event::FaultOutcome { trial: t.index as u64, outcome });
        }
        sink.emit(Event::CampaignCompleted {
            trials: cfg.trials as u64,
            dropped_events: sink.dropped(),
            dropped_by_kind: sink.dropped_by_kind(),
        });
    }
    Ok(report)
}

/// [`run_campaign`] checkpointing to `path`, never cancelled, no events.
///
/// # Errors
///
/// As for [`run_campaign`], never [`CampaignError::Interrupted`].
pub fn run_campaign_resumable(
    des: &MaskedDes,
    cfg: &CampaignConfig,
    jobs: Jobs,
    path: &Path,
) -> Result<CampaignReport, CampaignError> {
    run_campaign(des, cfg, jobs, &CancelToken::new(), Some(path), &NullSink)
}

/// [`run_campaign`] checkpointing to `path` and streaming to `sink`,
/// never cancelled.
///
/// # Errors
///
/// As for [`run_campaign`], never [`CampaignError::Interrupted`].
pub fn run_campaign_resumable_events<S: EventSink>(
    des: &MaskedDes,
    cfg: &CampaignConfig,
    jobs: Jobs,
    path: &Path,
    sink: &S,
) -> Result<CampaignReport, CampaignError> {
    run_campaign(des, cfg, jobs, &CancelToken::new(), Some(path), sink)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use emask_cc::MaskPolicy;
    use emask_core::DesProgramSpec;
    use emask_core::RecoveryPolicy;

    fn small_des() -> MaskedDes {
        MaskedDes::compile_spec(MaskPolicy::Selective, &DesProgramSpec { rounds: 1 })
            .expect("compile")
    }

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("emask-{}-{name}.ckpt", std::process::id()));
        p
    }

    #[test]
    fn checkpoint_round_trips_through_disk() {
        let des = small_des();
        let cfg = CampaignConfig {
            trials: 40,
            recovery: Some(RecoveryPolicy::default()),
            ..CampaignConfig::default()
        };
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let report = run_campaign_resumable(&des, &cfg, Jobs::serial(), &path).expect("campaign");
        let cp = CampaignCheckpoint::load(&path).expect("load").expect("present");
        assert!(!cp.completed().is_empty());
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.starts_with(MAGIC));
        let reparsed = CampaignCheckpoint::parse(&text).expect("parse");
        assert_eq!(reparsed, cp);
        // Totals stored per shard reassemble into the report's totals.
        let sum: u64 = cp.shards.values().map(|r| r.recovery.rollbacks).sum();
        assert_eq!(sum, report.recovery.rollbacks);
        let _ = std::fs::remove_file(&path);
    }

    /// The v1 on-disk format, as `CampaignCheckpoint::save` wrote it when
    /// the trial record still held its outcome as a string: the finished
    /// 9-trial recovering campaign of [`v1_config`] on the 1-round
    /// selectively masked device. Shard headers carry the recovery
    /// counters; row 8's detail had its comma rewritten to `;`.
    const V1_SNAPSHOT: &str = "\
emask-campaign-checkpoint v1
fingerprint 13046ac706c96764
shard 0 1 1 4 0 19
0,0,0,id_ex.a:true,bit-flip,no-effect,
shard 1 1 1 4 0 19
1,3257,1,id_ex.b:both,bit-flip,no-effect,
shard 2 1 1 4 1 21
2,6514,7,ex_mem.alu:true,bit-flip,recovered,recovered after 1 rollback(s)
shard 3 1 1 4 0 19
3,9771,15,ex_mem.store:both,bit-flip,no-effect,
shard 4 1 1 4 0 19
4,13028,31,mem_wb.value:true,bit-flip,no-effect,
shard 5 1 1 4 0 19
5,16285,0,id_ex.a:both,stuck-at,no-effect,
shard 6 1 1 4 0 19
6,19542,1,regfile:r8,glitch,no-effect,
shard 7 1 1 4 0 20
7,22799,7,memory:key,bit-flip,no-effect,
shard 8 1 1 0 0 0
8,26056,15,fetch-squash,bit-flip,wrong-ciphertext,ciphertext mismatch: simulated 4472457288EEDDE2; golden model 4472457288EEDDEA
checksum 7ee934d71ea12900
";

    fn v1_config() -> CampaignConfig {
        CampaignConfig {
            trials: 9,
            recovery: Some(RecoveryPolicy::default()),
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn v1_snapshot_text_round_trips_byte_for_byte() {
        let cp = CampaignCheckpoint::parse(V1_SNAPSHOT).expect("a valid v1 snapshot");
        assert_eq!(cp.completed(), (0..9).collect::<Vec<_>>());
        assert_eq!(cp.shards[&2].trials[0].outcome, FaultOutcome::Recovered);
        assert_eq!(
            cp.shards[&2].recovery,
            RecoveryTotals { runs: 1, checkpoints: 4, rollbacks: 1, pages_moved: 21 }
        );
        assert_eq!(cp.shards[&8].trials[0].outcome, FaultOutcome::WrongCiphertext);
        assert_eq!(cp.render(), V1_SNAPSHOT);
        // An unknown outcome name is damage, not a new category.
        let damaged = V1_SNAPSHOT.replacen(",no-effect,", ",no-efect,", 1);
        let body = &damaged[..damaged.rfind("checksum ").expect("checksum line")];
        let resealed = format!("{body}checksum {:016x}\n", fnv1a(body.as_bytes()));
        assert!(CampaignCheckpoint::parse(&resealed).is_none());
    }

    #[test]
    fn v1_snapshot_resumes_without_rerunning_a_trial() {
        /// Counts the trials the resumed campaign actually runs.
        struct CountTrials(std::sync::atomic::AtomicU64);
        impl EventSink for CountTrials {
            fn emit(&self, event: Event) {
                if matches!(event, Event::TrialCompleted { .. }) {
                    self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }
        }
        let des = small_des();
        let path = tmp_path("v1");
        std::fs::write(&path, V1_SNAPSHOT).expect("write");
        let sink = CountTrials(std::sync::atomic::AtomicU64::new(0));
        let resumed =
            run_campaign_resumable_events(&des, &v1_config(), Jobs::serial(), &path, &sink)
                .expect("resume");
        assert_eq!(sink.0.into_inner(), 0, "every shard is served from the snapshot");
        let fresh =
            run_campaign(&des, &v1_config(), Jobs::serial(), &CancelToken::new(), None, &NullSink)
                .expect("fresh run");
        assert_eq!(resumed.trials, fresh.trials);
        assert_eq!(resumed.csv(), fresh.csv());
        assert_eq!(resumed.summary(), fresh.summary());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_after_partial_completion_is_byte_identical() {
        let des = small_des();
        let cfg = CampaignConfig {
            trials: 64,
            recovery: Some(RecoveryPolicy::default()),
            ..CampaignConfig::default()
        };
        let path = tmp_path("resume");
        let _ = std::fs::remove_file(&path);
        let full = run_campaign_resumable(&des, &cfg, Jobs::serial(), &path).expect("full run");

        // Simulate a kill partway through: drop every other completed
        // shard from the snapshot, then resume.
        let mut cp = CampaignCheckpoint::load(&path).expect("load").expect("present");
        for s in cp.completed().into_iter().filter(|s| s % 2 == 1) {
            cp.forget(s);
        }
        cp.save(&path).expect("save partial");
        let resumed =
            run_campaign_resumable(&des, &cfg, Jobs::new(4).expect("jobs"), &path).expect("resume");

        assert_eq!(resumed.csv(), full.csv());
        assert_eq!(resumed.summary(), full.summary());
        assert_eq!(resumed.counts, full.counts);
        assert_eq!(resumed.recovery, full.recovery);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interrupted_campaign_persists_and_resumes_byte_identically() {
        use std::sync::atomic::{AtomicU64, Ordering};

        /// Trips the token after a fixed number of completed trials —
        /// a deterministic stand-in for a client cancel / deadline.
        struct CancelAfter<'a> {
            token: &'a CancelToken,
            seen: AtomicU64,
            after: u64,
        }
        impl EventSink for CancelAfter<'_> {
            fn emit(&self, event: Event) {
                if matches!(event, Event::TrialCompleted { .. })
                    && self.seen.fetch_add(1, Ordering::Relaxed) + 1 == self.after
                {
                    self.token.cancel(emask_par::CancelReason::Cancelled);
                }
            }
        }

        let des = small_des();
        // Both trial paths: fail-stop and recovering.
        for recovery in [None, Some(RecoveryPolicy::default())] {
            let cfg = CampaignConfig { trials: 64, recovery, ..CampaignConfig::default() };

            // Reference: one uninterrupted run.
            let ref_path = tmp_path("interrupt-ref");
            let _ = std::fs::remove_file(&ref_path);
            let full =
                run_campaign_resumable(&des, &cfg, Jobs::serial(), &ref_path).expect("full run");
            let _ = std::fs::remove_file(&ref_path);

            // Interrupted run: cancel after 10 trials, serial so the trip
            // lands mid-campaign deterministically.
            let path = tmp_path("interrupt");
            let _ = std::fs::remove_file(&path);
            let token = CancelToken::new();
            let sink = CancelAfter { token: &token, seen: AtomicU64::new(0), after: 10 };
            let err = run_campaign(&des, &cfg, Jobs::serial(), &token, Some(&path), &sink)
                .expect_err("tripped token must interrupt");
            let CampaignError::Interrupted(i) = &err else {
                panic!("expected Interrupted, got {err}");
            };
            assert_eq!(i.reason, emask_par::CancelReason::Cancelled);
            assert!(i.completed_trials < cfg.trials, "the interrupt landed mid-campaign");

            // The checkpoint holds only fully completed shards…
            let cp = CampaignCheckpoint::load(&path).expect("load").expect("present");
            let persisted: usize = cp.shards.values().map(|r| r.trials.len()).sum();
            assert!(persisted <= i.completed_trials, "partial shards are never persisted");
            assert!(persisted > 0, "the shards before the trip are persisted");

            // …and a plain resume finishes the rest, byte-identically.
            let resumed = run_campaign_resumable(&des, &cfg, Jobs::new(4).expect("jobs"), &path)
                .expect("resume");
            assert_eq!(resumed.csv(), full.csv(), "recovery {recovery:?}");
            assert_eq!(resumed.summary(), full.summary(), "recovery {recovery:?}");
            assert_eq!(resumed.recovery, full.recovery, "recovery {recovery:?}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn pre_expired_deadline_interrupts_before_any_work() {
        let des = small_des();
        let cfg = CampaignConfig { trials: 16, ..CampaignConfig::default() };
        let path = tmp_path("deadline");
        let _ = std::fs::remove_file(&path);
        let token = CancelToken::for_job(Some(std::time::Duration::ZERO), None);
        let err = run_campaign(&des, &cfg, Jobs::serial(), &token, Some(&path), &NullSink)
            .expect_err("expired deadline must interrupt");
        match err {
            CampaignError::Interrupted(i) => {
                assert_eq!(i.reason, emask_par::CancelReason::DeadlineExceeded);
                assert_eq!(i.completed_trials, 0);
            }
            other => panic!("expected Interrupted, got {other}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_checkpoint_restarts_cleanly() {
        let path = tmp_path("corrupt");
        std::fs::write(&path, "emask-campaign-checkpoint v1\ngarbage\n").expect("write");
        assert!(CampaignCheckpoint::load(&path).expect("load").is_none());
        // Flipping one byte of a valid snapshot breaks the checksum.
        let cp = CampaignCheckpoint::new(7);
        cp.save(&path).expect("save");
        let mut text = std::fs::read_to_string(&path).expect("read");
        text = text.replacen("fingerprint 0", "fingerprint 1", 1);
        std::fs::write(&path, text).expect("write");
        assert!(CampaignCheckpoint::load(&path).expect("load").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_row_count_the_file_cannot_back_is_discarded() {
        let path = tmp_path("row-count");
        let body = format!("{MAGIC}\nfingerprint 0000000000000007\nshard 0 {} 0 0 0 0\n", u64::MAX);
        let text = format!("{body}checksum {:016x}\n", fnv1a(body.as_bytes()));
        std::fs::write(&path, text).expect("write");
        assert!(CampaignCheckpoint::load(&path).expect("load").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_config_is_a_hard_error() {
        let des = small_des();
        let cfg = CampaignConfig { trials: 16, ..CampaignConfig::default() };
        let path = tmp_path("mismatch");
        let _ = std::fs::remove_file(&path);
        run_campaign_resumable(&des, &cfg, Jobs::serial(), &path).expect("first run");
        let other = CampaignConfig { trials: 17, ..CampaignConfig::default() };
        let err = run_campaign_resumable(&des, &other, Jobs::serial(), &path)
            .expect_err("config change must not resume");
        assert!(matches!(err, CampaignError::Mismatch { .. }), "{err}");
        assert!(err.to_string().contains("different configuration"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unwritable_checkpoint_path_is_a_typed_error() {
        let des = small_des();
        let cfg = CampaignConfig { trials: 4, ..CampaignConfig::default() };
        let path = PathBuf::from("/nonexistent-dir/never/campaign.ckpt");
        let err =
            run_campaign_resumable(&des, &cfg, Jobs::serial(), &path).expect_err("unwritable path");
        assert!(matches!(err, CampaignError::Io { .. }), "{err}");
    }
}
