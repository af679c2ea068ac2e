//! The campaign service: a Unix-socket NDJSON protocol over the
//! supervisor.
//!
//! One request per line, one JSON document per response line:
//!
//! | request | response |
//! |---|---|
//! | `{"cmd":"submit","spec":{…}}` | `{"ok":true,"job":N}` or `{"ok":false,"kind":…,"error":…}` |
//! | `{"cmd":"status"}` | `{"ok":true,"shutting_down":…,"jobs":[{"job":…,"experiment":…,"state":…,"attempt":…}]}` |
//! | `{"cmd":"cancel","job":N}` | `{"ok":true}` |
//! | `{"cmd":"stats"}` | `{"ok":true,"queue_depth":…,"states":{…},"latencies":{…},"dropped_events":…,"dropped_by_kind":{…}}` |
//! | `{"cmd":"watch","job":N}` | the job's event lines (history, then live), then `{"ok":true,"job":N,"state":…}` |
//! | `{"cmd":"shutdown"}` | `{"ok":true}` — then the server drains and exits |
//!
//! SIGTERM is equivalent to `shutdown`: the accept loop stops admitting,
//! the running job checkpoints and parks at its next trial boundary, the
//! event files flush, and the process exits 0. A restarted server rescans
//! the state directory and resumes parked jobs automatically.

use crate::json::{parse, Json};
use crate::signal;
use crate::spec::JobSpec;
use crate::supervisor::{ExperimentRunner, ServiceStats, Supervisor, SupervisorConfig};
use emask_telemetry::escape_json;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Everything `repro serve` configures.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The Unix socket path to listen on.
    pub socket: PathBuf,
    /// The job state directory (specs, events, checkpoints, results).
    pub state_dir: PathBuf,
    /// Max queued jobs before submissions bounce.
    pub queue_depth: usize,
    /// Per-job accumulator budget in bytes.
    pub memory_budget: u64,
    /// Concurrent executor threads.
    pub executors: usize,
    /// Worker threads in the shared pool the executors lease from.
    pub thread_budget: usize,
    /// Batch starvation-avoidance aging threshold (0 disables).
    pub aging_threshold: u64,
    /// Per-class admission quotas, High/Normal/Batch order.
    pub class_quotas: [usize; 3],
}

impl ServerConfig {
    /// Defaults around a state directory: socket `<dir>/serve.sock`,
    /// plus the [`SupervisorConfig`] defaults (depth 32, budget 512 MiB,
    /// executors and thread budget at the machine's parallelism).
    #[must_use]
    pub fn new(state_dir: PathBuf) -> Self {
        let sup = SupervisorConfig::new(state_dir.clone());
        ServerConfig {
            socket: state_dir.join("serve.sock"),
            state_dir,
            queue_depth: sup.queue_depth,
            memory_budget: sup.memory_budget,
            executors: sup.executors,
            thread_budget: sup.thread_budget,
            aging_threshold: sup.aging_threshold,
            class_quotas: sup.class_quotas,
        }
    }
}

fn ok_line(extra: &str) -> String {
    if extra.is_empty() {
        "{\"ok\":true}".to_string()
    } else {
        format!("{{\"ok\":true,{extra}}}")
    }
}

fn err_line(kind: &str, error: &str) -> String {
    format!(
        "{{\"ok\":false,\"kind\":\"{}\",\"error\":\"{}\"}}",
        escape_json(kind),
        escape_json(error)
    )
}

/// Renders a [`ServiceStats`] snapshot as the `stats` reply payload
/// (without the `ok` wrapper). All numbers are finite by construction —
/// empty histograms summarize to zeros — so the document is always strict
/// JSON.
fn stats_payload(stats: &ServiceStats, shutting_down: bool) -> String {
    use std::fmt::Write as _;
    let mut out =
        format!("\"shutting_down\":{shutting_down},\"queue_depth\":{}", stats.queue_depth);
    out.push_str(",\"queue_by_class\":{");
    for (i, (name, count)) in stats.queue_by_class.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{count}");
    }
    out.push_str("},\"states\":{");
    for (i, (name, count)) in stats.states.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{count}");
    }
    out.push_str("},\"latencies\":{");
    for (i, l) in stats.latencies.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"count\":{},\"mean\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
            l.name, l.count, l.mean, l.min, l.max, l.p50, l.p95, l.p99
        );
    }
    let _ = write!(out, "}},\"dropped_events\":{}", stats.dropped_events);
    out.push_str(",\"dropped_by_kind\":{");
    for (i, (kind, n)) in stats.dropped_by_kind.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{n}", escape_json(kind));
    }
    out.push('}');
    out
}

/// Runs the service until SIGTERM/SIGINT or a `shutdown` command, then
/// drains gracefully. Blocks the calling thread.
///
/// # Errors
///
/// Setup failures (state dir, socket bind, rescan of corrupt state);
/// per-connection errors are handled inline and never abort the server.
pub fn serve<R: ExperimentRunner + 'static>(cfg: &ServerConfig, runner: R) -> Result<(), String> {
    signal::install();
    let sup_cfg = SupervisorConfig {
        state_dir: cfg.state_dir.clone(),
        queue_depth: cfg.queue_depth,
        memory_budget: cfg.memory_budget,
        executors: cfg.executors.max(1),
        thread_budget: cfg.thread_budget.max(1),
        aging_threshold: cfg.aging_threshold,
        class_quotas: cfg.class_quotas,
    };
    let executors = sup_cfg.executors;
    let sup = Arc::new(Supervisor::new(sup_cfg, runner).map_err(|e| e.to_string())?);
    let resumed = sup.rescan()?;
    for id in &resumed {
        eprintln!("emask-serve: resuming job {id}");
    }
    // A previous unclean exit may have left the socket file behind.
    let _ = std::fs::remove_file(&cfg.socket);
    let listener = UnixListener::bind(&cfg.socket).map_err(|e| e.to_string())?;
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    let executor_threads: Vec<_> = (0..executors)
        .map(|_| {
            std::thread::spawn({
                let sup = Arc::clone(&sup);
                move || sup.run_executor()
            })
        })
        .collect();
    eprintln!("emask-serve: listening on {} ({executors} executors)", cfg.socket.display());
    // The gauge heartbeat rides the 25 ms accept poll: every 40th idle
    // poll (~1 s) pushes one operational `service_metrics` event to the
    // live watchers. Operational events are never persisted, so the
    // cadence — wall-clock and load dependent — cannot perturb the
    // replayable history.
    let mut idle_polls = 0u32;
    loop {
        if signal::terminated() || sup.shutting_down() {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let sup = Arc::clone(&sup);
                std::thread::spawn(move || handle_connection(stream, &sup));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
                idle_polls += 1;
                if idle_polls.is_multiple_of(40) {
                    sup.emit_service_metrics();
                    sup.emit_scheduler_heartbeat();
                }
            }
            Err(e) => eprintln!("emask-serve: accept failed: {e}"),
        }
    }
    eprintln!("emask-serve: draining for shutdown");
    sup.begin_shutdown();
    for executor in executor_threads {
        if executor.join().is_err() {
            eprintln!("emask-serve: executor thread panicked during drain");
        }
    }
    let _ = std::fs::remove_file(&cfg.socket);
    eprintln!("emask-serve: shutdown complete");
    Ok(())
}

fn handle_connection<R: ExperimentRunner>(stream: UnixStream, sup: &Supervisor<R>) {
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(e) => {
            eprintln!("emask-serve: connection setup failed: {e}");
            return;
        }
    };
    let mut writer = stream;
    // Lines are read as bytes, so a request that is not UTF-8 gets the
    // same typed protocol error as one that is not JSON.
    let mut buf = Vec::new();
    loop {
        buf.clear();
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => return, // client went away
            Ok(_) => {}
        }
        let line = buf.strip_suffix(b"\n").unwrap_or(&buf);
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let streamed = match std::str::from_utf8(line) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => respond(line, sup, &mut writer),
            Err(e) => {
                writeln!(writer, "{}", err_line("protocol", &format!("request is not UTF-8: {e}")))
            }
        };
        if streamed.is_err() {
            return; // write side closed
        }
    }
}

/// Handles one request line; `watch` streams many lines, everything else
/// writes exactly one.
fn respond<R: ExperimentRunner>(
    line: &str,
    sup: &Supervisor<R>,
    out: &mut UnixStream,
) -> std::io::Result<()> {
    let doc = match parse(line) {
        Ok(d) => d,
        Err(e) => return writeln!(out, "{}", err_line("protocol", &e.to_string())),
    };
    match doc.get("cmd").and_then(Json::as_str) {
        Some("submit") => {
            let reply = match doc.get("spec") {
                None => err_line("spec", "submit requires a 'spec' member"),
                Some(spec_doc) => match JobSpec::from_value(spec_doc) {
                    Err(e) => err_line("spec", &e.to_string()),
                    Ok(spec) => match sup.submit(spec) {
                        Ok(id) => ok_line(&format!("\"job\":{id}")),
                        Err(reject) => err_line(reject.kind(), &reject.to_string()),
                    },
                },
            };
            writeln!(out, "{reply}")
        }
        Some("status") => {
            let rows: Vec<String> = sup
                .status()
                .iter()
                .map(|s| {
                    format!(
                        "{{\"job\":{},\"experiment\":\"{}\",\"state\":\"{}\",\"priority\":\"{}\",\"attempt\":{}}}",
                        s.id,
                        escape_json(&s.experiment),
                        s.state,
                        s.priority,
                        s.attempt
                    )
                })
                .collect();
            writeln!(
                out,
                "{}",
                ok_line(&format!(
                    "\"shutting_down\":{},\"jobs\":[{}]",
                    sup.shutting_down(),
                    rows.join(",")
                ))
            )
        }
        Some("stats") => {
            writeln!(out, "{}", ok_line(&stats_payload(&sup.stats(), sup.shutting_down())))
        }
        Some("cancel") => {
            let reply = match doc.get("job").and_then(Json::as_u64) {
                None => err_line("protocol", "cancel requires a numeric 'job'"),
                Some(id) => match sup.cancel(id) {
                    Ok(()) => ok_line(""),
                    Err(e) => err_line("cancel", &e),
                },
            };
            writeln!(out, "{reply}")
        }
        Some("watch") => {
            let Some(id) = doc.get("job").and_then(Json::as_u64) else {
                return writeln!(out, "{}", err_line("protocol", "watch requires a numeric 'job'"));
            };
            match sup.subscribe(id) {
                Err(e) => writeln!(out, "{}", err_line("watch", &e)),
                Ok((snapshot, rx)) => {
                    out.write_all(snapshot.as_bytes())?;
                    out.flush()?;
                    // Live until the sink disconnects (terminal state or
                    // shutdown park).
                    while let Ok(event_line) = rx.recv() {
                        writeln!(out, "{event_line}")?;
                    }
                    let state =
                        sup.job_state(id).map_or_else(|| "unknown".into(), |s| s.to_string());
                    writeln!(out, "{}", ok_line(&format!("\"job\":{id},\"state\":\"{state}\"")))
                }
            }
        }
        Some("shutdown") => {
            sup.begin_shutdown();
            writeln!(out, "{}", ok_line("\"shutting_down\":true"))
        }
        Some(other) => writeln!(out, "{}", err_line("protocol", &format!("unknown cmd '{other}'"))),
        None => writeln!(out, "{}", err_line("protocol", "request needs a string 'cmd'")),
    }
}
