//! Chrome trace-event JSON export.
//!
//! Builds a `{"traceEvents": [...]}` document loadable in
//! `chrome://tracing` / [Perfetto](https://ui.perfetto.dev): one lane
//! (thread) per pipeline stage carrying `"X"` complete events for each
//! contiguous span of stage activity, plus `"i"` instant events at every
//! phase-marker crossing. One simulated cycle maps to one microsecond of
//! trace time, so cycle numbers read directly off the timeline.
//!
//! The JSON is hand-assembled (the build environment vendors no serde);
//! event names are escaped with [`escape_json`].

use crate::observer::{PhaseEvent, RunObserver};
use emask_cpu::{CycleActivity, RunResult};
use emask_energy::CycleEnergy;
use std::fmt::Write as _;

/// The pipeline-stage lanes, in trace row order.
const STAGES: [&str; 5] = ["IF fetch", "ID decode", "EX execute", "MEM access", "WB retire"];

/// Lane index reserved for stall spans.
const STALL_LANE: usize = STAGES.len();

/// Escapes `s` for inclusion in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    start: u64,
    end: u64, // inclusive last active cycle
}

/// Accumulates a run into Chrome trace-event JSON.
///
/// Implements [`RunObserver`]: feed it cycles and phase events, then call
/// [`ChromeTrace::render`] for the finished document.
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    events: Vec<String>,
    open: [Option<OpenSpan>; 6],
}

impl ChromeTrace {
    /// An empty trace builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn lane_active(act: &CycleActivity, lane: usize) -> bool {
        match lane {
            0 => act.fetch_pc.is_some(),
            1 => act.regfile_reads != 0,
            2 => act.ex.is_some(),
            3 => act.mem.is_some(),
            4 => act.retired.is_some(),
            _ => act.stalled,
        }
    }

    fn close(&mut self, lane: usize) {
        if let Some(span) = self.open[lane].take() {
            let name = if lane == STALL_LANE { "stall" } else { "active" };
            self.events.push(format!(
                r#"{{"name":"{name}","ph":"X","ts":{},"dur":{},"pid":1,"tid":{}}}"#,
                span.start,
                span.end - span.start + 1,
                lane + 1,
            ));
        }
    }

    /// Extends or closes each stage lane for one cycle of activity.
    pub(crate) fn record_cycle(&mut self, act: &CycleActivity) {
        for lane in 0..=STALL_LANE {
            if Self::lane_active(act, lane) {
                match &mut self.open[lane] {
                    Some(span) if span.end + 1 == act.cycle => span.end = act.cycle,
                    open => {
                        if open.is_some() {
                            self.close(lane);
                        }
                        self.open[lane] = Some(OpenSpan { start: act.cycle, end: act.cycle });
                    }
                }
            } else {
                self.close(lane);
            }
        }
    }

    /// Adds a phase-marker instant event at `cycle`.
    pub(crate) fn mark_phase(&mut self, name: &str, cycle: u64) {
        self.events.push(format!(
            r#"{{"name":"{}","ph":"i","ts":{cycle},"pid":1,"tid":0,"s":"p"}}"#,
            escape_json(name),
        ));
    }

    /// Closes any open spans and renders the full JSON document.
    pub fn render(mut self) -> String {
        for lane in 0..=STALL_LANE {
            self.close(lane);
        }
        // Lane-name metadata first: tid 0 = phases, 1..=5 = stages, 6 = stalls.
        let mut lanes = vec!["phase markers".to_string()];
        lanes.extend(STAGES.iter().map(|s| s.to_string()));
        lanes.push("stalls".to_string());
        chrome_trace_json(&lanes, &self.events)
    }
}

/// Renders a Chrome trace-event document: `displayTimeUnit`, one
/// `thread_name` metadata row per lane (`lanes[tid]` names thread `tid`
/// of process 1), then `events`, one rendered event object per line,
/// comma-joined.
pub fn chrome_trace_json(lanes: &[String], events: &[String]) -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (tid, name) in lanes.iter().enumerate() {
        let _ = write!(
            out,
            r#"{{"name":"thread_name","ph":"M","pid":1,"tid":{tid},"args":{{"name":"{}"}}}}"#,
            escape_json(name),
        );
        out.push_str(",\n");
    }
    for (i, e) in events.iter().enumerate() {
        out.push_str(e);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

impl RunObserver for ChromeTrace {
    fn on_cycle(&mut self, act: &CycleActivity, _energy: &CycleEnergy) {
        self.record_cycle(act);
    }

    fn on_phase(&mut self, event: &PhaseEvent) {
        self.mark_phase(&event.name, event.cycle);
    }

    fn on_finish(&mut self, _stats: &RunResult) {}
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn active_cycle(cycle: u64) -> CycleActivity {
        let mut a = CycleActivity::idle(cycle);
        a.fetch_pc = Some(cycle as u32);
        a
    }

    #[test]
    fn contiguous_activity_merges_into_one_span() {
        let mut t = ChromeTrace::new();
        for c in 0..5 {
            t.record_cycle(&active_cycle(c));
        }
        t.record_cycle(&CycleActivity::idle(5));
        t.record_cycle(&active_cycle(7));
        let json = t.render();
        // One 5-cycle span plus one 1-cycle span on the fetch lane.
        assert!(json.contains(r#""ts":0,"dur":5,"pid":1,"tid":1"#), "{json}");
        assert!(json.contains(r#""ts":7,"dur":1,"pid":1,"tid":1"#), "{json}");
    }

    #[test]
    fn phases_become_instant_events() {
        let mut t = ChromeTrace::new();
        t.mark_phase("round 1", 42);
        assert_eq!(t.events.len(), 1);
        let json = t.render();
        assert!(json.contains(r#""name":"round 1","ph":"i","ts":42"#), "{json}");
    }

    #[test]
    fn output_is_balanced_json() {
        let mut t = ChromeTrace::new();
        t.record_cycle(&active_cycle(0));
        t.mark_phase("p", 0);
        let json = t.render();
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert!(json.trim_end().ends_with("]}"));
        assert!(!json.contains(",\n]"), "no trailing comma before array close");
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape_json(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape_json("x\ny"), "x\\u000ay");
    }
}
