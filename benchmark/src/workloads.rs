//! The four workloads: their inputs (a pure function of the seed), the
//! measured loop with tracing off, and the output checks.

use crate::drive::{self, Device, Policy, Verdict};
use crate::host::Calibration;
use crate::spans::Buf;
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Multibit online DPA on the 1-round device, unmasked then masked.
    DpaR1,
    /// The same attack on round 1 of the full 16-round device.
    DpaR16,
    /// The resumable, recovering fault campaign on the masked 16-round device.
    FaultR16,
    /// The chaos-soak job mix through an in-process campaign service.
    ServeMix,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] =
        [Workload::DpaR1, Workload::DpaR16, Workload::FaultR16, Workload::ServeMix];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DpaR1 => "dpa_r1",
            Workload::DpaR16 => "dpa_r16",
            Workload::FaultR16 => "fault_r16",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Size of one operation: traces per DPA campaign, trials per fault
    /// campaign, jobs outstanding in the service's closed loop. Chosen so
    /// a 30 s run holds 7–16 campaigns on a 2-CPU host, and so the
    /// unmasked device ranks the true subkey first on every seed.
    pub fn campaign(self) -> usize {
        match self {
            Workload::DpaR1 => 512,
            Workload::DpaR16 => 192,
            Workload::FaultR16 => 128,
            Workload::ServeMix => 4,
        }
    }
}

/// How much one run does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Keep starting operations while they are expected to end within
    /// this many seconds of the loop's start.
    pub seconds: f64,
    /// See [`Workload::campaign`].
    pub campaign: usize,
    /// Operations run even when `seconds` has already passed.
    pub min_ops: usize,
    /// Set-ups timed at least; `setup_s` is their median. DPA and fault
    /// runs time one before each operation and the rest after the loop,
    /// so that the median, like the rates, speaks for the whole run.
    /// Timed back to back, the set-ups last under a second and caught
    /// short slow spells of the host: first thing in a process they read
    /// up to 60 % high in half the runs of a set, and right after the
    /// loop 50 % high in 4 runs of 10.
    pub setup_reps: usize,
}

impl Plan {
    /// The plan every reported run uses.
    pub fn standard(w: Workload, seconds: f64) -> Plan {
        let min_ops = if matches!(w, Workload::DpaR1 | Workload::DpaR16) { 2 } else { 1 };
        Plan { seconds, campaign: w.campaign(), min_ops, setup_reps: 11 }
    }

    /// Whether a loop that has run `ops` operations since `start`, and
    /// would run `step` more next, stops: once `min_ops` have run, it
    /// stops when those `step` would, at the pace so far, end past
    /// `seconds`. So a run ends within its seconds instead of
    /// overshooting by up to a step.
    pub fn done_after(&self, start: Instant, ops: usize, step: usize) -> bool {
        let pace = start.elapsed().as_secs_f64() / ops.max(1) as f64;
        ops >= self.min_ops && pace * (ops + step) as f64 > self.seconds
    }
}

/// Output checks: operations checked and how many failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checks {
    /// Checked operations.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
}

impl Checks {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.count(1, u64::from(!ok), what);
    }

    /// Counts `total` checked operations of which `bad` failed.
    pub fn count(&mut self, total: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += total;
        self.failed += bad;
        if bad > 0 {
            eprintln!("check failed: {}", what());
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// As listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// As measured.
    pub value: f64,
    /// As listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every metric of the run's kind, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Printed beside the metrics but not in the result line: the raw
    /// host times behind calibrated ones, and the calibration kernel.
    pub notes: Vec<Metric>,
    /// The output checks.
    pub checks: Checks,
}

/// The end-to-end metrics, in `BENCHMARK.json` order. The first three
/// are calibrated to the reference host's speed (see `host.rs`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("work_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The raw host-time twins of the calibrated end-to-end metrics.
const RAW: [&str; 3] = ["raw.work_per_s", "raw.latency_p50_s", "raw.latency_p90_s"];

/// The probe run of each device the workloads use — simulated cycles and
/// `f64::to_bits` of the total pJ for the paper plaintext and key. A
/// simulator speed-up must leave every simulated statistic identical, so
/// any drift is a failed check.
pub const FIDELITY: [(Policy, usize, u64, u64); 4] = [
    (Policy::None, 1, 29_314, 0x4152_5cf3_0d33_3348),
    (Policy::Selective, 1, 29_314, 0x4154_7e3f_78cc_ccac),
    (Policy::None, 16, 320_275, 0x4189_15bf_cf40_0171),
    (Policy::Selective, 16, 320_275, 0x418c_8484_b8d9_9e44),
];

/// Checks every device of [`FIDELITY`] against its committed constants.
///
/// # Errors
///
/// A device that does not compile or run at all.
pub fn fidelity(checks: &mut Checks) -> Result<(), String> {
    for (policy, rounds, cycles, pj_bits) in FIDELITY {
        let dev = Device::setup(policy, rounds)?;
        checks.check(dev.cycles == cycles && dev.total_pj_bits == pj_bits, || {
            format!(
                "{rounds}-round {} device drifted: {} cycles, {:#x} pJ bits (committed {cycles}, {pj_bits:#x})",
                policy.name(),
                dev.cycles,
                dev.total_pj_bits
            )
        });
    }
    Ok(())
}

/// SplitMix64.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The DPA seed of campaign `c`: its plaintexts are
/// `drive::plaintext_for(campaign_seed(seed, c), i)`.
pub fn campaign_seed(seed: u64, c: u64) -> u64 {
    mix(seed ^ mix(c))
}

/// The plaintext every trial of fault campaign `c` encrypts.
pub fn fault_plaintext(seed: u64, c: u64) -> u64 {
    mix(mix(seed ^ 0xFA17) ^ c)
}

/// The spec of service job `k`. The seed sets only the job's data seed:
/// the shapes stay the chaos soak's, so a new seed gives new inputs but
/// the same amount of work (in a seed-drawn mix of ~160 jobs the count
/// of DPA jobs, the costliest, varies by ~16 %, one standard deviation).
/// 31 bits, so every JSON reader takes it.
pub fn job_spec(seed: u64, k: u64) -> String {
    drive::mix_spec(k, mix(mix(seed ^ 0x5E7D) ^ k) >> 33)
}

/// `VmHWM` of this process in megabytes (0 where `/proc` is missing).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// The end-to-end report of a run from its raw host-time measurements.
/// Set-up is not calibrated: the service's is mostly a 25 ms poll sleep,
/// which the host's speed does not move, and one rule serves every
/// workload.
fn outcome(
    work_per_s: f64,
    latencies_s: &[f64],
    setup_s: f64,
    cal: &Calibration,
    checks: Checks,
) -> Outcome {
    let raw = [work_per_s, stats::median(latencies_s), stats::percentile(latencies_s, 90.0)];
    let f = cal.factor();
    let calibrated = [raw[0] / f, raw[1] * f, raw[2] * f, setup_s, peak_rss_mb()];
    let metrics = END_TO_END
        .iter()
        .zip(calibrated)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    let mut notes: Vec<Metric> = RAW
        .iter()
        .zip(&END_TO_END)
        .zip(raw)
        .map(|((&name, &(_, unit)), value)| Metric { name, value, unit })
        .collect();
    notes.push(Metric { name: "host.kernel_ms", value: cal.kernel_s() * 1e3, unit: "ms" });
    Outcome { metrics, notes, checks }
}

/// Runs `f` once and adds its seconds to `times`.
fn timed<T>(times: &mut Vec<f64>, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    let t = Instant::now();
    let out = f()?;
    times.push(t.elapsed().as_secs_f64());
    Ok(out)
}

/// The unmasked and the masked device of a DPA workload.
pub fn dpa_devices(rounds: usize) -> Result<[Device; 2], String> {
    Ok([Device::setup(Policy::None, rounds)?, Device::setup(Policy::Selective, rounds)?])
}

/// The DPA output check: the unmasked device ranks the true subkey
/// first; every peak on the masked device is below 1e-6 pJ.
pub fn check_verdict(checks: &mut Checks, dev: &Device, v: &Verdict) {
    match dev.policy {
        Policy::None => {
            let truth = drive::true_subkey();
            checks.check(v.best_guess == truth, || {
                format!(
                    "unmasked {}-round device ranked {:#04x} first, true subkey {truth:#04x}",
                    dev.rounds, v.best_guess
                )
            });
        }
        Policy::Selective => {
            let peak = v.peaks.iter().fold(0.0f64, |a, &b| a.max(b));
            checks.check(peak < 1e-6, || {
                format!("masked {}-round device leaked a {peak} pJ DPA peak", dev.rounds)
            });
        }
    }
}

fn dpa(rounds: usize, seed: u64, plan: &Plan) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let devs = dpa_devices(rounds)?;
    fidelity(&mut checks)?;
    let (mut walls, mut setups, mut cal) = (Vec::new(), Vec::new(), Calibration::default());
    let start = Instant::now();
    // Unmasked and masked campaigns alternate; both cost the same cycles.
    for c in 0u64.. {
        let dev = &devs[usize::from(c % 2 == 1)];
        timed(&mut setups, || dpa_devices(rounds))?;
        cal.sample();
        let t = Instant::now();
        let verdict = drive::dpa_campaign(dev, plan.campaign, campaign_seed(seed, c));
        walls.push(t.elapsed().as_secs_f64());
        check_verdict(&mut checks, dev, &verdict);
        if plan.done_after(start, walls.len(), 1) {
            break;
        }
    }
    while setups.len() < plan.setup_reps {
        timed(&mut setups, || dpa_devices(rounds))?;
    }
    let rates: Vec<f64> = walls.iter().map(|w| plan.campaign as f64 / w).collect();
    eprintln!("dpa_r{rounds}: {} campaigns of {} traces", walls.len(), plan.campaign);
    Ok(outcome(stats::median(&rates), &walls, stats::median(&setups), &cal, checks))
}

/// Removes a checkpoint file and its temporary sibling.
pub fn fresh_file(path: &Path) -> Result<(), String> {
    for p in [path.to_path_buf(), path.with_extension("tmp")] {
        match std::fs::remove_file(&p) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("{}: {e}", p.display()))
            }
            _ => {}
        }
    }
    Ok(())
}

/// The fault output check: every trial classified, none panicked, and
/// the dual-rail checker caught something.
pub fn check_fault(checks: &mut Checks, trials: usize, t: &drive::FaultTally) {
    let bad = t.panics + trials.abs_diff(t.classified) + trials.abs_diff(t.rows);
    checks.count(trials as u64, bad as u64, || {
        format!("fault campaign of {trials}: {t:?} (panics or unclassified trials)")
    });
    checks.check(t.caught > 0, || format!("fault campaign of {trials} caught no fault: {t:?}"));
}

fn fault(seed: u64, plan: &Plan, work: &Path) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let setup = || Device::setup(Policy::Selective, 16);
    let dev = setup()?;
    fidelity(&mut checks)?;
    let path = work.join("fault.ckpt");
    let (mut walls, mut setups, mut cal) = (Vec::new(), Vec::new(), Calibration::default());
    let start = Instant::now();
    for c in 0u64.. {
        fresh_file(&path)?;
        let plaintext = fault_plaintext(seed, c);
        timed(&mut setups, setup)?;
        cal.sample();
        let t = Instant::now();
        let tally = drive::fault_campaign(&dev, plan.campaign, plaintext, &path)?;
        walls.push(t.elapsed().as_secs_f64());
        check_fault(&mut checks, plan.campaign, &tally);
        if plan.done_after(start, walls.len(), 1) {
            break;
        }
    }
    while setups.len() < plan.setup_reps {
        timed(&mut setups, setup)?;
    }
    let rates: Vec<f64> = walls.iter().map(|w| plan.campaign as f64 / w).collect();
    eprintln!("fault_r16: {} campaigns of {} trials", walls.len(), plan.campaign);
    Ok(outcome(stats::median(&rates), &walls, stats::median(&setups), &cal, checks))
}

/// How often the generator polls `status`.
pub const POLL: Duration = Duration::from_millis(10);

/// Completed service jobs re-run alone and byte-compared per run.
pub const VERIFY: usize = 8;

/// Polls `status` every 5 ms until the server answers.
///
/// # Errors
///
/// No answer within 10 s.
pub fn wait_ready(socket: &Path) -> Result<(), String> {
    let t = Instant::now();
    loop {
        match drive::status(socket) {
            Ok(_) => return Ok(()),
            Err(e) if t.elapsed() > Duration::from_secs(10) => {
                return Err(format!("server did not answer: {e}"))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// What the service's closed loop observed.
#[derive(Debug, Clone, Default)]
pub struct MixRun {
    /// Submit to terminal state, per job, seconds.
    pub latencies_s: Vec<f64>,
    /// Jobs that reached a terminal state per second of the loop.
    pub jobs_per_s: f64,
    /// `submit` round trips, seconds.
    pub submit_s: Vec<f64>,
    /// `status` round trips, seconds.
    pub status_s: Vec<f64>,
    /// Time between consecutive polls, seconds.
    pub periods_s: Vec<f64>,
    /// Ids of jobs that completed.
    pub completed: Vec<u64>,
    /// Ids of every submitted job.
    pub tracked: Vec<u64>,
    /// The next job index to submit.
    pub next_k: u64,
}

fn traced<T>(
    tr: &mut Option<(&mut Buf<'_>, u64)>,
    name: &'static str,
    layer: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match tr {
        Some((buf, parent)) => {
            let parent = *parent;
            buf.span(name, layer, parent, None, |_, _| f())
        }
        None => f(),
    }
}

/// A closed loop from one generator thread: keeps `plan.campaign` jobs
/// outstanding (job `k`'s spec is `spec(k)`, from `first_k` on), polls
/// `status` every [`POLL`], and stops submitting once the plan is done.
/// A job's latency runs from just before its submit to the poll reply
/// that first shows it terminal, so it is biased up by about half a poll
/// period. Every job must end `completed`.
///
/// # Errors
///
/// A failed `status` round trip, or jobs still running 300 s past the plan.
pub fn closed_loop(
    socket: &Path,
    spec: &dyn Fn(u64) -> String,
    first_k: u64,
    plan: &Plan,
    checks: &mut Checks,
    mut tr: Option<(&mut Buf<'_>, u64)>,
) -> Result<MixRun, String> {
    let start = Instant::now();
    let mut run = MixRun::default();
    let mut inflight: BTreeMap<u64, Instant> = BTreeMap::new();
    let mut k = first_k;
    let mut last_poll: Option<Instant> = None;
    let mut end = start;
    loop {
        while inflight.len() < plan.campaign && !plan.done_after(start, (k - first_k) as usize, 1) {
            let json = spec(k);
            let t0 = Instant::now();
            match traced(&mut tr, "submit", "serve", || drive::submit(socket, &json)) {
                Ok(id) => {
                    run.submit_s.push(t0.elapsed().as_secs_f64());
                    inflight.insert(id, t0);
                    run.tracked.push(id);
                }
                Err(e) => checks.check(false, || format!("submitting job {k}: {e}")),
            }
            k += 1;
        }
        if inflight.is_empty() {
            break;
        }
        if start.elapsed().as_secs_f64() > plan.seconds + 300.0 {
            return Err(format!("{} jobs still unfinished", inflight.len()));
        }
        if let Some(prev) = last_poll {
            let due = prev + POLL;
            let now = Instant::now();
            if due > now {
                traced(&mut tr, "wait", "bench", || std::thread::sleep(due - now));
            }
        }
        let polled = Instant::now();
        if let Some(prev) = last_poll {
            run.periods_s.push((polled - prev).as_secs_f64());
        }
        last_poll = Some(polled);
        let rows = traced(&mut tr, "status", "serve", || drive::status(socket))?;
        let seen = Instant::now();
        run.status_s.push((seen - polled).as_secs_f64());
        for (id, state) in rows {
            if !drive::is_terminal(&state) {
                continue;
            }
            if let Some(t0) = inflight.remove(&id) {
                run.latencies_s.push((seen - t0).as_secs_f64());
                end = seen;
                checks.check(state == drive::COMPLETED, || format!("job {id} ended {state}"));
                if state == drive::COMPLETED {
                    run.completed.push(id);
                }
            }
        }
    }
    let wall = (end - start).as_secs_f64();
    run.jobs_per_s = if wall > 0.0 { run.latencies_s.len() as f64 / wall } else { 0.0 };
    run.next_k = k;
    Ok(run)
}

/// Re-runs up to [`VERIFY`] seed-chosen completed jobs alone and requires
/// byte-identical CSVs, as `repro loadgen --verify` does.
pub fn verify_solo(
    state_dir: &Path,
    seed: u64,
    completed: &[u64],
    work: &Path,
    checks: &mut Checks,
) {
    let mut ids = completed.to_vec();
    ids.sort_unstable();
    let mut picks: Vec<u64> = Vec::new();
    let mut j = 0u64;
    while picks.len() < VERIFY.min(ids.len()) {
        let id = ids[(mix(seed ^ mix(j ^ 0x5E1F)) % ids.len() as u64) as usize];
        if !picks.contains(&id) {
            picks.push(id);
        }
        j += 1;
    }
    for id in picks {
        let result = drive::solo_rerun(state_dir, id, &work.join(format!("solo-{id}")));
        checks.check(result == Ok(true), || format!("job {id}: solo re-run {result:?}"));
    }
}

fn serve(seed: u64, plan: &Plan, work: &Path) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    fidelity(&mut checks)?;
    // The server's threads live through the loop, so the kernel is timed
    // just before the server starts and just after it stops.
    let mut cal = Calibration::default();
    (0..4).for_each(|_| cal.sample());
    let srv = drive::Server::start(&work.join("mix"));
    let run = wait_ready(srv.socket()).and_then(|()| {
        let spec = |k| job_spec(seed, k);
        let run = closed_loop(srv.socket(), &spec, 0, plan, &mut checks, None)?;
        verify_solo(srv.state_dir(), seed, &run.completed, work, &mut checks);
        Ok(run)
    });
    let stopped = srv.stop();
    let run = run?;
    stopped?;
    (0..4).for_each(|_| cal.sample());
    // Set-up: starting a server until it answers the first `status`.
    let mut starts = Vec::new();
    for i in 0..plan.setup_reps.max(1) {
        let t = Instant::now();
        let srv = drive::Server::start(&work.join(format!("start-{i}")));
        let ready = wait_ready(srv.socket());
        starts.push(t.elapsed().as_secs_f64());
        srv.stop()?;
        ready?;
    }
    report_tail(&run.latencies_s);
    Ok(outcome(run.jobs_per_s, &run.latencies_s, stats::median(&starts), &cal, checks))
}

fn report_tail(latencies_s: &[f64]) {
    match stats::tail(latencies_s) {
        Some((p, v)) => eprintln!(
            "serve_mix: {} jobs; p{p} latency {v:.3} s is the highest percentile with 10 jobs beyond it",
            latencies_s.len()
        ),
        None => eprintln!("serve_mix: {} jobs; too few for a tail percentile", latencies_s.len()),
    }
}

/// One measured run of `w` with tracing off.
///
/// # Errors
///
/// Set-up or I/O failures that leave nothing to measure.
pub fn measure(w: Workload, seed: u64, plan: &Plan, work: &Path) -> Result<Outcome, String> {
    match w {
        Workload::DpaR1 => dpa(1, seed, plan),
        Workload::DpaR16 => dpa(16, seed, plan),
        Workload::FaultR16 => fault(seed, plan, work),
        Workload::ServeMix => serve(seed, plan, work),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn work(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("../target/bench/unit-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    /// A few operations of each workload, no time budget.
    fn tiny(w: Workload) -> Plan {
        let (campaign, min_ops) = match w {
            Workload::DpaR1 | Workload::DpaR16 => (8, 2),
            Workload::FaultR16 => (4, 1),
            Workload::ServeMix => (2, 3),
        };
        Plan { seconds: 0.0, campaign, min_ops, setup_reps: 1 }
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let stream = |seed: u64| -> Vec<u64> {
            (0..4)
                .flat_map(|c| (0..8).map(move |i| drive::plaintext_for(campaign_seed(seed, c), i)))
                .collect()
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
        assert_ne!(campaign_seed(7, 0), campaign_seed(7, 1));
        let faults = |seed| (0..4).map(|c| fault_plaintext(seed, c)).collect::<Vec<_>>();
        assert_eq!(faults(7), faults(7));
        assert_ne!(faults(7), faults(8));
        let mix_specs = |seed| (0..16).map(|k| job_spec(seed, k)).collect::<Vec<_>>();
        assert_eq!(mix_specs(7), mix_specs(7));
        assert_ne!(mix_specs(7), mix_specs(8));
    }

    #[test]
    fn every_workload_completes_at_a_tiny_size() {
        for w in Workload::ALL {
            let dir = work(w.name());
            let out = measure(w, 3, &tiny(w), &dir).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            let _ = std::fs::remove_dir_all(&dir);
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, END_TO_END.map(|m| m.0).to_vec(), "{}", w.name());
            assert!(out.metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0), "{out:?}");
            // Eight traces are too few to rank the subkey, and four fault
            // trials may all miss; the masked and service checks must hold.
            assert!(out.checks.attempted > 4, "{}: {out:?}", w.name());
            if w == Workload::ServeMix {
                assert_eq!(out.checks.failed, 0, "{out:?}");
            }
        }
    }

    #[test]
    fn the_fidelity_lock_holds() {
        let mut checks = Checks::default();
        fidelity(&mut checks).expect("devices build");
        assert_eq!(checks, Checks { attempted: 4, failed: 0 });
    }
}
