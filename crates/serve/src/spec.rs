//! Job specifications: what a client submits, what the server persists.
//!
//! A [`JobSpec`] is deliberately experiment-agnostic — the service
//! validates shape and supervision parameters (deadline, retries,
//! backoff), while the installed [`ExperimentRunner`](crate::ExperimentRunner)
//! decides whether the experiment name and its sizing are admissible.
//! The canonical rendering ([`JobSpec::to_json`]) has a fixed field
//! order, so the persisted spec file round-trips byte-identically — the
//! same convention as the telemetry event vocabulary.

use crate::json::{parse, Json};
use emask_telemetry::escape_json;
use std::fmt;

/// A campaign job: one experiment plus its supervision envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Experiment id (`dpa`, `cpa`, `tvla`, `fault`, `leakage` for the
    /// bundled runner; the installed runner is the authority).
    pub experiment: String,
    /// Trial count: traces for dpa/cpa/leakage, trace *pairs* for tvla,
    /// fault injections for fault.
    pub trials: usize,
    /// DES rounds of the compiled device.
    pub rounds: usize,
    /// Masking policy name (`none`, `selective`, `all-loads-stores`,
    /// `full`); experiments that fix their policy ignore it.
    pub policy: String,
    /// Target S-box for dpa/cpa.
    pub sbox: usize,
    /// Base seed for seeded experiments (tvla, leakage).
    pub seed: u64,
    /// Checkpoint/rollback recovery for fault campaigns.
    pub recover: bool,
    /// Snapshot cadence for convergence streams (0 = final only).
    pub cadence: usize,
    /// Worker threads for the sharded campaign.
    pub jobs: usize,
    /// Wall-clock deadline for the whole job (across retries), in
    /// milliseconds. `None` means no deadline.
    pub deadline_ms: Option<u64>,
    /// Retry budget for transient failures (worker panics). 0 = never
    /// retry.
    pub max_retries: u32,
    /// Base backoff before the first retry, in milliseconds; doubles per
    /// retry (see [`RetryPolicy`](crate::RetryPolicy)).
    pub backoff_ms: u64,
    /// Scheduling class: `high`, `normal` (default), or `batch` (see
    /// [`Priority`](crate::Priority)).
    pub priority: String,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            experiment: String::new(),
            trials: 100,
            rounds: 1,
            policy: "selective".into(),
            sbox: 0,
            seed: 5,
            recover: false,
            cadence: 0,
            jobs: 1,
            deadline_ms: None,
            max_retries: 2,
            backoff_ms: 100,
            priority: "normal".into(),
        }
    }
}

/// Why a submitted spec was rejected before reaching the queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The document was not valid JSON.
    Syntax(String),
    /// The document parsed but a field had the wrong shape.
    Field {
        /// The offending member.
        field: &'static str,
        /// What was expected.
        expected: &'static str,
    },
    /// The mandatory `experiment` member was missing or empty.
    MissingExperiment,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Syntax(e) => write!(f, "spec is not valid JSON: {e}"),
            SpecError::Field { field, expected } => {
                write!(f, "spec field '{field}' must be {expected}")
            }
            SpecError::MissingExperiment => write!(f, "spec is missing 'experiment'"),
        }
    }
}

impl std::error::Error for SpecError {}

fn take_usize(obj: &Json, field: &'static str, default: usize) -> Result<usize, SpecError> {
    match obj.get(field) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => {
            v.as_usize().ok_or(SpecError::Field { field, expected: "a non-negative integer" })
        }
    }
}

fn take_u64(obj: &Json, field: &'static str, default: u64) -> Result<u64, SpecError> {
    match obj.get(field) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v.as_u64().ok_or(SpecError::Field { field, expected: "a non-negative integer" }),
    }
}

fn take_bool(obj: &Json, field: &'static str, default: bool) -> Result<bool, SpecError> {
    match obj.get(field) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v.as_bool().ok_or(SpecError::Field { field, expected: "a boolean" }),
    }
}

impl JobSpec {
    /// Parses a spec from its JSON text. Unknown members are ignored
    /// (forward compatibility); missing members take defaults.
    ///
    /// # Errors
    ///
    /// [`SpecError`] describing the first offending field.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let doc = parse(text).map_err(|e| SpecError::Syntax(e.to_string()))?;
        Self::from_value(&doc)
    }

    /// Parses a spec from an already-parsed JSON value.
    ///
    /// # Errors
    ///
    /// As for [`JobSpec::from_json`].
    pub(crate) fn from_value(doc: &Json) -> Result<Self, SpecError> {
        let d = JobSpec::default();
        let experiment = match doc.get("experiment") {
            Some(Json::Str(s)) if !s.is_empty() => s.clone(),
            Some(Json::Str(_)) | None => return Err(SpecError::MissingExperiment),
            Some(_) => return Err(SpecError::Field { field: "experiment", expected: "a string" }),
        };
        let policy = match doc.get("policy") {
            None | Some(Json::Null) => d.policy,
            Some(Json::Str(s)) => s.clone(),
            Some(_) => return Err(SpecError::Field { field: "policy", expected: "a string" }),
        };
        let priority = match doc.get("priority") {
            None | Some(Json::Null) => d.priority,
            Some(Json::Str(s)) if crate::scheduler::Priority::from_name(s).is_some() => s.clone(),
            Some(_) => {
                return Err(SpecError::Field {
                    field: "priority",
                    expected: "one of \"high\", \"normal\", \"batch\"",
                })
            }
        };
        let deadline_ms = match doc.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or(SpecError::Field {
                field: "deadline_ms",
                expected: "a non-negative integer",
            })?),
        };
        Ok(JobSpec {
            experiment,
            trials: take_usize(doc, "trials", d.trials)?,
            rounds: take_usize(doc, "rounds", d.rounds)?,
            policy,
            sbox: take_usize(doc, "sbox", d.sbox)?,
            seed: take_u64(doc, "seed", d.seed)?,
            recover: take_bool(doc, "recover", d.recover)?,
            cadence: take_usize(doc, "cadence", d.cadence)?,
            jobs: take_usize(doc, "jobs", d.jobs)?.max(1),
            deadline_ms,
            max_retries: u32::try_from(take_u64(doc, "max_retries", u64::from(d.max_retries))?)
                .map_err(|_| SpecError::Field {
                    field: "max_retries",
                    expected: "a small integer",
                })?,
            backoff_ms: take_u64(doc, "backoff_ms", d.backoff_ms)?,
            priority,
        })
    }

    /// The canonical JSON rendering: fixed field order, no whitespace —
    /// byte-stable across parse/render round trips.
    #[must_use]
    pub fn to_json(&self) -> String {
        let deadline = match self.deadline_ms {
            Some(ms) => ms.to_string(),
            None => "null".into(),
        };
        format!(
            concat!(
                "{{\"experiment\":\"{}\",\"trials\":{},\"rounds\":{},",
                "\"policy\":\"{}\",\"sbox\":{},\"seed\":{},\"recover\":{},",
                "\"cadence\":{},\"jobs\":{},\"deadline_ms\":{},",
                "\"max_retries\":{},\"backoff_ms\":{},\"priority\":\"{}\"}}"
            ),
            escape_json(&self.experiment),
            self.trials,
            self.rounds,
            escape_json(&self.policy),
            self.sbox,
            self.seed,
            self.recover,
            self.cadence,
            self.jobs,
            deadline,
            self.max_retries,
            self.backoff_ms,
            escape_json(&self.priority),
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_takes_defaults() {
        let s = JobSpec::from_json(r#"{"experiment":"fault"}"#).unwrap();
        assert_eq!(s.experiment, "fault");
        assert_eq!(s.trials, 100);
        assert_eq!(s.max_retries, 2);
        assert_eq!(s.deadline_ms, None);
    }

    #[test]
    fn canonical_rendering_round_trips_byte_identically() {
        let spec = JobSpec {
            experiment: "dpa".into(),
            trials: 96,
            rounds: 1,
            policy: "none".into(),
            sbox: 3,
            seed: 42,
            recover: false,
            cadence: 32,
            jobs: 4,
            deadline_ms: Some(60_000),
            max_retries: 1,
            backoff_ms: 250,
            priority: "batch".into(),
        };
        let text = spec.to_json();
        let reparsed = JobSpec::from_json(&text).unwrap();
        assert_eq!(reparsed, spec);
        assert_eq!(reparsed.to_json(), text, "render is canonical");
    }

    #[test]
    fn bad_fields_are_typed_errors() {
        assert_eq!(JobSpec::from_json(r#"{}"#), Err(SpecError::MissingExperiment));
        assert_eq!(JobSpec::from_json(r#"{"experiment":""}"#), Err(SpecError::MissingExperiment));
        assert!(matches!(
            JobSpec::from_json(r#"{"experiment":"dpa","trials":-1}"#),
            Err(SpecError::Field { field: "trials", .. })
        ));
        assert!(matches!(
            JobSpec::from_json(r#"{"experiment":"dpa","recover":3}"#),
            Err(SpecError::Field { field: "recover", .. })
        ));
        assert!(matches!(JobSpec::from_json("nope"), Err(SpecError::Syntax(_))));
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        let s = JobSpec::from_json(r#"{"experiment":"tvla","jobs":0}"#).unwrap();
        assert_eq!(s.jobs, 1);
    }

    #[test]
    fn priority_defaults_to_normal_and_rejects_unknown_classes() {
        let s = JobSpec::from_json(r#"{"experiment":"dpa"}"#).unwrap();
        assert_eq!(s.priority, "normal");
        let s = JobSpec::from_json(r#"{"experiment":"dpa","priority":"batch"}"#).unwrap();
        assert_eq!(s.priority, "batch");
        assert!(matches!(
            JobSpec::from_json(r#"{"experiment":"dpa","priority":"urgent"}"#),
            Err(SpecError::Field { field: "priority", .. })
        ));
        assert!(matches!(
            JobSpec::from_json(r#"{"experiment":"dpa","priority":7}"#),
            Err(SpecError::Field { field: "priority", .. })
        ));
    }
}
