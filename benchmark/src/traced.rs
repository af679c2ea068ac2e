//! The traced run: each workload rebuilt with a span around every call
//! into the system, alternated with the untraced call on the same inputs
//! (the difference is the tracing overhead), then the per-layer probes.

use crate::drive::{self, Device, Mark, Policy, Verdict};
use crate::probes::{self, Layered};
use crate::spans::{self, Recorder, Span};
use crate::stats::median;
use crate::workloads::{
    campaign_seed, check_fault, check_verdict, closed_loop, dpa_devices, fault_plaintext, fidelity,
    fresh_file, job_spec, verify_solo, wait_ready, Checks, Outcome, Plan, Workload,
};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// A traced run's report and its spans.
#[derive(Debug)]
pub struct Traced {
    /// The per-layer metrics and the output checks.
    pub outcome: Outcome,
    /// Every span recorded.
    pub spans: Vec<Span>,
    /// Self time per layer and per call, as JSON.
    pub layers_json: String,
}

/// Σ self time ÷ (workers × Σ root span wall): how much of the workers'
/// time the spans account for.
pub fn coverage(spans: &[Span]) -> f64 {
    let wall: u64 = spans.iter().filter(|s| s.parent == 0).map(Span::dur_ns).sum();
    let covered: u64 = spans::self_times(spans).iter().sum();
    covered as f64 / (drive::JOBS as f64 * wall.max(1) as f64)
}

/// Median over `run_sharded` spans of 1 − Σ child (shard) time ÷
/// (workers × span wall).
pub fn idle_frac(spans: &[Span]) -> f64 {
    let idle: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "run_sharded")
        .map(|rs| {
            let busy: u64 = spans.iter().filter(|c| c.parent == rs.id).map(Span::dur_ns).sum();
            1.0 - busy as f64 / (drive::JOBS as f64 * rs.dur_ns().max(1) as f64)
        })
        .collect();
    median(&idle)
}

/// Self time per layer and per call, with the coverage and overhead.
pub fn layers_json(w: Workload, spans: &[Span], coverage: f64, overhead: f64) -> String {
    let self_ns = spans::self_times(spans);
    let total: u64 = self_ns.iter().sum();
    let wall: u64 = spans.iter().filter(|s| s.parent == 0).map(Span::dur_ns).sum();
    let mut calls: std::collections::BTreeMap<(&str, &str), (u64, u64)> = Default::default();
    for (s, t) in spans.iter().zip(&self_ns) {
        let e = calls.entry((s.name, s.layer)).or_default();
        e.0 += 1;
        e.1 += t;
    }
    let mut out = format!(
        "{{\"workload\":\"{}\",\"workers\":{},\"traced_wall_ms\":{},\"coverage\":{coverage},\"overhead_frac\":{overhead},\"layers\":{{",
        w.name(),
        drive::JOBS,
        wall as f64 / 1e6
    );
    for (i, (layer, ns)) in spans::layer_self(spans).iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let share = *ns as f64 / total.max(1) as f64;
        let _ =
            write!(out, "{sep}\"{layer}\":{{\"self_ms\":{},\"share\":{share}}}", *ns as f64 / 1e6);
    }
    out.push_str("},\"calls\":{");
    for (i, ((name, layer), (count, ns))) in calls.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{sep}\"{name}\":{{\"layer\":\"{layer}\",\"count\":{count},\"self_ms\":{}}}",
            *ns as f64 / 1e6
        );
    }
    out.push_str("}}\n");
    out
}

/// The DPA campaign rebuilt from its public pieces — `run_sharded`, then
/// per trial `plaintext_for`, `encrypt` and the window copy, `push`, then
/// `merge_shards` and `result` — with a span around every call. It must
/// agree bit for bit with `drive::dpa_campaign` on the same inputs.
///
/// # Errors
///
/// A failed encryption or a width mismatch.
pub fn composed_dpa(
    dev: &Device,
    traces: usize,
    seed: u64,
    rec: &Recorder,
) -> Result<Verdict, String> {
    let mut main = rec.buf();
    main.span("campaign", "bench", 0, None, |main, root| {
        let shards = main.span("run_sharded", "par", root, None, |_, rs| {
            drive::run_sharded(traces, |_, range| {
                let mut buf = rec.buf();
                buf.span("shard", "par", rs, None, |buf, sid| {
                    let mut acc = buf
                        .span("new_accumulator", "attack", sid, None, |_, _| drive::DpaAcc::new());
                    for i in range {
                        let trial = Some(i as u64);
                        let pt = buf.span("plaintext_for", "attack", sid, trial, |_, _| {
                            drive::plaintext_for(seed, i as u64)
                        });
                        let run = buf
                            .span("encrypt", "core", sid, trial, |_, _| drive::encrypt(dev, pt))?;
                        // The oracle's copy-out, releasing the full run as the oracle does.
                        let trace = buf.span("window_copy", "core", sid, trial, |_, _| {
                            let trace = run.window_copy(&dev.window);
                            drop(run);
                            trace
                        });
                        buf.span("push", "attack", sid, trial, |_, _| {
                            let pushed = acc.push(pt, &trace);
                            drop(trace);
                            pushed
                        })?;
                    }
                    Ok::<_, String>(acc)
                })
            })
        });
        let accs = shards.into_iter().collect::<Result<Vec<_>, _>>()?;
        let mut failure = None;
        let merged = main.span("merge_shards", "par", root, None, |main, ms| {
            drive::merge_shards(accs, |a, b| {
                if let Err(e) = main.span("merge", "attack", ms, None, |_, _| a.merge(&b)) {
                    failure.get_or_insert(e);
                }
            })
        });
        if let Some(e) = failure {
            return Err(e);
        }
        let merged = merged.ok_or("no shards")?;
        Ok(main.span("result", "attack", root, None, |_, _| merged.result()))
    })
}

fn rate(ops: usize, t: Instant) -> f64 {
    ops as f64 / t.elapsed().as_secs_f64()
}

fn finish(
    w: Workload,
    rec: &Recorder,
    traced: &[f64],
    plain: &[f64],
    mut m: Layered,
    checks: Checks,
) -> Result<Traced, String> {
    let spans = rec.spans();
    let cov = coverage(&spans);
    let overhead = 1.0 - median(traced) / median(plain);
    m.set("trace.coverage", cov);
    m.set("trace.overhead_frac", overhead);
    eprintln!("{}: trace coverage {cov:.3}, tracing overhead {:.2} %", w.name(), overhead * 100.0);
    let layers_json = layers_json(w, &spans, cov, overhead);
    let outcome = Outcome { metrics: m.into_metrics()?, notes: Vec::new(), checks };
    Ok(Traced { outcome, spans, layers_json })
}

fn dpa(w: Workload, rounds: usize, seed: u64, plan: &Plan, work: &Path) -> Result<Traced, String> {
    let mut checks = Checks::default();
    let devs = dpa_devices(rounds)?;
    fidelity(&mut checks)?;
    let rec = Recorder::default();
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for c in 0u64.. {
        let dev = &devs[usize::from(c % 2 == 1)];
        let cs = campaign_seed(seed, c);
        let t = Instant::now();
        let composed = composed_dpa(dev, plan.campaign, cs, &rec)?;
        traced.push(rate(plan.campaign, t));
        let t = Instant::now();
        let library = drive::dpa_campaign(dev, plan.campaign, cs);
        plain.push(rate(plan.campaign, t));
        checks.check(composed.bits_eq(&library), || {
            format!("composed DPA differs from the library call (campaign {c})")
        });
        check_verdict(&mut checks, dev, &library);
        if plan.done_after(start, traced.len(), 1) {
            break;
        }
    }
    let spans = rec.spans();
    let mut m = Layered::default();
    let med = |name: &str| median(&spans::durations(&spans, name));
    m.set("attack.dpa_push_us", med("push") / 1e3);
    m.set("attack.dpa_merge_ms", med("merge") / 1e6);
    m.set("attack.dpa_result_ms", med("result") / 1e6);
    m.set("par.merge_ms", med("merge_shards") / 1e6);
    m.set("par.idle_frac", idle_frac(&spans));
    probes::core_layers(&devs[0], seed, &mut m, &mut checks)?;
    probes::checkpoint_layers(&devs[1], seed, work, &mut m, &mut checks)?;
    probes::serve_layers(&probes::probe_spec(&devs[0], false), work, &mut m, &mut checks)?;
    finish(w, &rec, &traced, &plain, m, checks)
}

/// Turns one traced fault campaign's marks into spans: the clean-run
/// preparation, each worker's trials and checkpoint saves under a
/// `run_sharded` span, the final save and the merge.
fn fault_spans(rec: &Recorder, t0: u64, t1: u64, marks: &[(u32, u64, Mark)]) -> Vec<Span> {
    let main = spans::thread_id();
    let root = rec.next_id();
    let at = |want: Mark| marks.iter().find(|m| m.2 == want).map_or(t1, |m| m.1);
    let started = at(Mark::Started);
    let merging = at(Mark::Merging);
    let last_worker = marks
        .iter()
        .filter(|m| matches!(m.2, Mark::Trial(_) | Mark::Saved))
        .map(|m| m.1)
        .max()
        .unwrap_or(started);
    let span = |id, parent, name, layer, thread, trial, start_ns, end_ns| Span {
        id,
        parent,
        name,
        layer,
        thread,
        trial,
        start_ns,
        end_ns,
    };
    let sharded = rec.next_id();
    let mut out = vec![
        span(root, 0, "campaign", "bench", main, None, t0, t1),
        span(rec.next_id(), root, "prepare", "fault", main, None, t0, started),
        span(sharded, root, "run_sharded", "par", main, None, started, last_worker),
        span(rec.next_id(), root, "final_save", "checkpoint", main, None, last_worker, merging),
        span(rec.next_id(), root, "merge", "par", main, None, merging, at(Mark::Completed)),
    ];
    let mut threads: Vec<u32> = marks.iter().map(|m| m.0).filter(|&t| t != main).collect();
    threads.sort_unstable();
    threads.dedup();
    for thread in threads {
        let mut cursor = started;
        let mut mine: Vec<_> = marks.iter().filter(|m| m.0 == thread).collect();
        mine.sort_by_key(|m| m.1);
        for &&(_, t, mark) in &mine {
            let (name, layer, trial) = match mark {
                Mark::Trial(i) => ("trial", "fault", Some(i)),
                Mark::Saved => ("checkpoint_save", "checkpoint", None),
                _ => continue,
            };
            out.push(span(rec.next_id(), sharded, name, layer, thread, trial, cursor, t));
            cursor = t;
        }
    }
    out
}

fn fault(seed: u64, plan: &Plan, work: &Path) -> Result<Traced, String> {
    let mut checks = Checks::default();
    let dev = Device::setup(Policy::Selective, 16)?;
    fidelity(&mut checks)?;
    let rec = Recorder::default();
    let path = work.join("fault.ckpt");
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for c in 0u64.. {
        let pt = fault_plaintext(seed, c);
        fresh_file(&path)?;
        let marks = Mutex::new(Vec::new());
        let t0 = rec.now_ns();
        let t = Instant::now();
        let tally = drive::fault_campaign_marked(&dev, plan.campaign, pt, &path, |mark| {
            let at = rec.now_ns();
            marks.lock().expect("mark log poisoned").push((spans::thread_id(), at, mark));
        })?;
        traced.push(rate(plan.campaign, t));
        let marks = marks.into_inner().map_err(|_| "mark log poisoned")?;
        rec.extend(fault_spans(&rec, t0, rec.now_ns(), &marks));
        check_fault(&mut checks, plan.campaign, &tally);

        fresh_file(&path)?;
        let t = Instant::now();
        let tally = drive::fault_campaign(&dev, plan.campaign, pt, &path)?;
        plain.push(rate(plan.campaign, t));
        check_fault(&mut checks, plan.campaign, &tally);
        if plan.done_after(start, traced.len(), 1) {
            break;
        }
    }
    let spans = rec.spans();
    let mut m = Layered::default();
    m.set("par.idle_frac", idle_frac(&spans));
    m.set("par.merge_ms", median(&spans::durations(&spans, "merge")) / 1e6);
    probes::checkpoint_io(&path, &mut m)?;
    probes::core_layers(&dev, seed, &mut m, &mut checks)?;
    probes::dpa_layers(&dev, seed, &mut m)?;
    probes::serve_layers(&probes::probe_spec(&dev, true), work, &mut m, &mut checks)?;
    finish(Workload::FaultR16, &rec, &traced, &plain, m, checks)
}

fn serve(seed: u64, plan: &Plan, work: &Path) -> Result<Traced, String> {
    let mut checks = Checks::default();
    fidelity(&mut checks)?;
    let rec = Recorder::default();
    let mut m = Layered::default();
    // Untraced first half, traced second half, on one server.
    let half = Plan { seconds: plan.seconds / 2.0, ..*plan };
    let srv = drive::Server::start(&work.join("mix"));
    let rates = wait_ready(srv.socket()).and_then(|()| {
        let spec = |k| job_spec(seed, k);
        let plain = closed_loop(srv.socket(), &spec, 0, &half, &mut checks, None)?;
        let traced = {
            let mut buf = rec.buf();
            buf.span("mix", "bench", 0, None, |buf, root| {
                closed_loop(
                    srv.socket(),
                    &spec,
                    plain.next_k,
                    &half,
                    &mut checks,
                    Some((buf, root)),
                )
            })?
        };
        let completed: Vec<u64> =
            plain.completed.iter().chain(&traced.completed).copied().collect();
        verify_solo(srv.state_dir(), seed, &completed, work, &mut checks);
        probes::serve_metrics(&srv, &[&plain, &traced], &mut m)?;
        Ok((traced.jobs_per_s, plain.jobs_per_s))
    });
    let stopped = srv.stop();
    let (traced, plain) = rates?;
    stopped?;
    let dev = Device::setup(Policy::Selective, 1)?;
    probes::core_layers(&dev, seed, &mut m, &mut checks)?;
    probes::dpa_layers(&dev, seed, &mut m)?;
    probes::par_layers(&dev, seed, &mut m)?;
    probes::checkpoint_layers(&dev, seed, work, &mut m, &mut checks)?;
    finish(Workload::ServeMix, &rec, &[traced], &[plain], m, checks)
}

/// One traced run of `w`.
///
/// # Errors
///
/// Set-up or I/O failures that leave nothing to measure.
pub fn trace(w: Workload, seed: u64, plan: &Plan, work: &Path) -> Result<Traced, String> {
    match w {
        Workload::DpaR1 => dpa(w, 1, seed, plan, work),
        Workload::DpaR16 => dpa(w, 16, seed, plan, work),
        Workload::FaultR16 => fault(seed, plan, work),
        Workload::ServeMix => serve(seed, plan, work),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composed_dpa_is_bit_identical_to_the_library_call() {
        let devs = dpa_devices(1).expect("devices");
        let rec = Recorder::default();
        for dev in &devs {
            let composed = composed_dpa(dev, 40, 11, &rec).expect("composed campaign");
            assert!(composed.bits_eq(&drive::dpa_campaign(dev, 40, 11)));
        }
        let spans = rec.spans();
        assert_eq!(spans::durations(&spans, "encrypt").len(), 80);
        assert!(coverage(&spans) > 0.0 && idle_frac(&spans) < 1.0);
        assert!(crate::drive::json_is_valid(&layers_json(Workload::DpaR1, &spans, 0.9, 0.01)));
    }
}
