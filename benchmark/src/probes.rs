//! Per-layer probes: each times one public call, single-threaded, on the
//! workload's own device and seed-derived inputs, after the traced loop.

use crate::drive::{self, Device, Policy};
use crate::stats::median;
use crate::workloads::{self, closed_loop, mix, wait_ready, Checks, Metric, MixRun, Plan};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The per-layer metrics, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("cc.compile_ms", "ms"),
    ("core.encrypt_ms", "ms"),
    ("core.cycles_per_trace", "count"),
    ("core.window_copy_us", "us"),
    ("core.residual_ms", "ms"),
    ("cpu.load_us", "us"),
    ("cpu.ns_per_cycle", "ns"),
    ("energy.ns_per_sample", "ns"),
    ("fault.hooked_encrypt_ms", "ms"),
    ("core.recovered_encrypt_ms", "ms"),
    ("attack.dpa_push_us", "us"),
    ("attack.dpa_merge_ms", "ms"),
    ("attack.dpa_result_ms", "ms"),
    ("attack.welch_push_us", "us"),
    ("par.idle_frac", "frac"),
    ("par.merge_ms", "ms"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.status_ms", "ms"),
    ("serve.queue_wait_mean_s", "s"),
    ("serve.run_mean_s", "s"),
    ("serve.poll_bias_ms", "ms"),
    ("serve.preemptions", "count"),
    ("telemetry.events_per_job", "count"),
    ("trace.coverage", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Per-layer values gathered from the traced loop and the probes.
#[derive(Debug, Default)]
pub struct Layered(BTreeMap<&'static str, f64>);

impl Layered {
    /// Records one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Every [`PER_LAYER`] metric in order.
    ///
    /// # Errors
    ///
    /// A metric no probe set — a bug in this benchmark.
    pub fn into_metrics(self) -> Result<Vec<Metric>, String> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = *self.0.get(name).ok_or_else(|| format!("no value for {name}"))?;
                Ok(Metric { name, value, unit })
            })
            .collect()
    }
}

fn secs<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

fn probe_plaintexts(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| drive::plaintext_for(mix(seed ^ 0x9E0B), i)).collect()
}

/// Repeats per probe: a 16-round run costs eleven 1-round runs.
fn reps(dev: &Device) -> usize {
    if dev.rounds == 1 {
        15
    } else {
        5
    }
}

/// The compiler, core, cpu, energy, fault-hook, recovery and TVLA probes.
///
/// # Errors
///
/// A call that fails outright.
pub fn core_layers(
    dev: &Device,
    seed: u64,
    m: &mut Layered,
    checks: &mut Checks,
) -> Result<(), String> {
    let k = reps(dev);
    let pts = probe_plaintexts(seed, k);
    let mut compile = Vec::new();
    for _ in 0..5 {
        let (t, r) = secs(|| drive::compile_only(dev.policy, dev.rounds));
        r?;
        compile.push(t);
    }
    let (mut encrypt, mut load, mut run, mut energy) = (vec![], vec![], vec![], vec![]);
    let (mut cycle_ns, mut copy, mut hooked, mut recovered, mut welch) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut acc = drive::Welch::default();
    for &p in &pts {
        let (t, r) = secs(|| drive::encrypt(dev, p));
        let r = r?;
        encrypt.push(t);
        checks.check(r.cycles() == dev.cycles, || format!("{} cycles for {p:#x}", r.cycles()));
        let (t, w) = secs(|| r.window_copy(&dev.window));
        copy.push(t);
        black_box(w);
        let tvla = r.window_copy(&dev.tvla_window);
        let (t, pushed) = secs(|| acc.push(&tvla));
        pushed?;
        welch.push(t);

        let (t, cpu) = secs(|| drive::cpu_load(dev, p));
        load.push(t);
        let (t, cycles) = secs(|| drive::cpu_run(cpu?));
        run.push(t);
        cycle_ns.push(t * 1e9 / cycles? as f64);

        let (t, r) = secs(|| drive::encrypt_hooked(dev, p));
        r?;
        hooked.push(t);
        let (t, r) = secs(|| drive::encrypt_recovered(dev, p));
        r?;
        recovered.push(t);
    }
    let acts = drive::record_activity(dev, pts[0])?;
    for _ in 0..k.min(5) {
        let (t, total) = secs(|| drive::energy_replay(&acts));
        black_box(total);
        energy.push(t);
    }
    let ms = |v: &[f64]| median(v) * 1e3;
    let us = |v: &[f64]| median(v) * 1e6;
    m.set("cc.compile_ms", ms(&compile));
    m.set("core.encrypt_ms", ms(&encrypt));
    m.set("core.cycles_per_trace", dev.cycles as f64);
    m.set("core.window_copy_us", us(&copy));
    m.set("core.residual_ms", ms(&encrypt) - ms(&load) - ms(&run) - ms(&energy));
    m.set("cpu.load_us", us(&load));
    m.set("cpu.ns_per_cycle", median(&cycle_ns));
    m.set("energy.ns_per_sample", median(&energy) * 1e9 / acts.len().max(1) as f64);
    m.set("fault.hooked_encrypt_ms", ms(&hooked));
    m.set("core.recovered_encrypt_ms", ms(&recovered));
    m.set("attack.welch_push_us", us(&welch));
    Ok(())
}

/// The DPA accumulator probe, for workloads that do not run DPA.
///
/// # Errors
///
/// A call that fails outright.
pub fn dpa_layers(dev: &Device, seed: u64, m: &mut Layered) -> Result<(), String> {
    let pts = probe_plaintexts(seed, reps(dev));
    let mut acc = drive::DpaAcc::new();
    let mut push = Vec::new();
    for &p in &pts {
        let trace = drive::encrypt(dev, p)?.window_copy(&dev.window);
        let (t, r) = secs(|| acc.push(p, &trace));
        r?;
        push.push(t);
    }
    let (mut merge, mut result) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let mut into = acc.clone();
        let (t, r) = secs(|| into.merge(&acc));
        r?;
        merge.push(t);
        let (t, v) = secs(|| into.result());
        black_box(v);
        result.push(t);
    }
    m.set("attack.dpa_push_us", median(&push) * 1e6);
    m.set("attack.dpa_merge_ms", median(&merge) * 1e3);
    m.set("attack.dpa_result_ms", median(&result) * 1e3);
    Ok(())
}

/// The sharding probe, for workloads whose sharded loop runs out of
/// sight: `run_sharded` over encryptions of the device, then
/// `merge_shards` over the per-shard energy sums.
///
/// # Errors
///
/// A call that fails outright.
pub fn par_layers(dev: &Device, seed: u64, m: &mut Layered) -> Result<(), String> {
    let n = 4 * reps(dev);
    let pts = probe_plaintexts(seed, n);
    let (wall, shards) = secs(|| {
        drive::run_sharded(n, |_, range| {
            let t = Instant::now();
            let mut sum = 0.0;
            for i in range {
                sum += drive::encrypt(dev, pts[i])?.window_copy(&dev.window).iter().sum::<f64>();
            }
            Ok::<_, String>((t.elapsed().as_secs_f64(), sum))
        })
    });
    let shards = shards.into_iter().collect::<Result<Vec<_>, _>>()?;
    let busy: f64 = shards.iter().map(|s| s.0).sum();
    let (merge, total) = secs(|| drive::merge_shards(shards, |a, b| a.1 += b.1));
    black_box(total);
    m.set("par.idle_frac", 1.0 - busy / (drive::JOBS as f64 * wall));
    m.set("par.merge_ms", merge * 1e3);
    Ok(())
}

/// Times loading and re-saving the campaign checkpoint at `path`.
///
/// # Errors
///
/// An unreadable or unwritable checkpoint.
pub fn checkpoint_io(path: &Path, m: &mut Layered) -> Result<(), String> {
    let (mut load, mut save) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let (t, cp) = secs(|| drive::checkpoint_load(path));
        let cp = cp?;
        load.push(t);
        let (t, r) = secs(|| cp.save(path));
        r?;
        save.push(t);
    }
    m.set("checkpoint.load_ms", median(&load) * 1e3);
    m.set("checkpoint.save_ms", median(&save) * 1e3);
    Ok(())
}

/// A small resumable fault campaign on the device, then [`checkpoint_io`]
/// on the file it leaves.
///
/// # Errors
///
/// A campaign or checkpoint failure.
pub fn checkpoint_layers(
    dev: &Device,
    seed: u64,
    work: &Path,
    m: &mut Layered,
    checks: &mut Checks,
) -> Result<(), String> {
    let path = work.join("probe.ckpt");
    workloads::fresh_file(&path)?;
    let tally = drive::fault_campaign(dev, 16, workloads::fault_plaintext(seed, u64::MAX), &path)?;
    checks.count(16, (tally.panics + 16usize.abs_diff(tally.classified)) as u64, || {
        format!("probe fault campaign: {tally:?}")
    });
    checkpoint_io(&path, m)
}

/// The service metrics of one or more closed loops on `srv`.
///
/// # Errors
///
/// A failed `stats` round trip or an unreadable event history.
pub fn serve_metrics(srv: &drive::Server, runs: &[&MixRun], m: &mut Layered) -> Result<(), String> {
    let all =
        |f: fn(&MixRun) -> &Vec<f64>| runs.iter().flat_map(|r| f(r).clone()).collect::<Vec<_>>();
    let periods = all(|r| &r.periods_s);
    let st = drive::stats(srv.socket())?;
    let (mut lines, mut preempted, mut jobs) = (0, 0, 0);
    for id in runs.iter().flat_map(|r| r.tracked.iter()) {
        let (l, p) = drive::job_events(srv.state_dir(), *id)?;
        lines += l;
        preempted += p;
        jobs += 1;
    }
    m.set("serve.submit_ms", median(&all(|r| &r.submit_s)) * 1e3);
    m.set("serve.status_ms", median(&all(|r| &r.status_s)) * 1e3);
    m.set("serve.queue_wait_mean_s", st.queue_wait_mean_ms / 1e3);
    m.set("serve.run_mean_s", st.run_mean_ms / 1e3);
    m.set(
        "serve.poll_bias_ms",
        periods.iter().sum::<f64>() / periods.len().max(1) as f64 / 2.0 * 1e3,
    );
    m.set("serve.preemptions", preempted as f64);
    m.set("telemetry.events_per_job", lines as f64 / f64::from(jobs.max(1)));
    Ok(())
}

/// The service probe, for workloads that do not go through the service:
/// four jobs of the workload's own kind through a fresh server.
///
/// # Errors
///
/// A server that does not start or a failed round trip.
pub fn serve_layers(
    spec_json: &str,
    work: &Path,
    m: &mut Layered,
    checks: &mut Checks,
) -> Result<(), String> {
    let srv = drive::Server::start(&work.join("probe-serve"));
    let result = wait_ready(srv.socket()).and_then(|()| {
        let plan = Plan { seconds: 0.0, campaign: 4, min_ops: 4, setup_reps: 1 };
        let spec = |_| spec_json.to_string();
        let run = closed_loop(srv.socket(), &spec, 0, &plan, checks, None)?;
        serve_metrics(&srv, &[&run], m)
    });
    let stopped = srv.stop();
    result?;
    stopped
}

/// The probe job spec for a device: a short DPA attack on it, or a short
/// recovering fault campaign for the fault workload.
pub fn probe_spec(dev: &Device, fault: bool) -> String {
    if fault {
        drive::job_spec("fault", 16, dev.rounds, Policy::Selective)
    } else {
        drive::job_spec("dpa", 32, dev.rounds, dev.policy)
    }
}
