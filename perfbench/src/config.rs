//! Workload parameters (`perfbench/workloads.json`, compiled in) and the
//! metric set declared in `BENCHMARK.json` (read at run time, so the
//! printed result and the declaration cannot drift apart).

use crate::{fail, BenchError, Result};
use optimatch_core::{builtin, KnowledgeBase, KnowledgeBaseEntry};
use serde::value::Value;

const WORKLOADS_JSON: &str = include_str!("../workloads.json");

/// Sub-seed offsets (documented in `workloads.json`).
pub const POOL_SEED: u64 = 1_000_003;
pub const INGEST_SEED: u64 = 2_000_003;
pub const SCHEDULE_SEED: u64 = 3_000_017;

/// One workload's parameters.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: String,
    pub plans: usize,
    pub extended_kb: bool,
    pub diagnose_pool: usize,
    pub min_cycles: usize,
    pub cycle_share: f64,
    pub min_diagnose: usize,
    pub ingest_plans: usize,
    pub workers: usize,
    pub segments: usize,
    pub starts_per_segment: usize,
    pub rate_per_s: f64,
    pub ingest_every: usize,
    pub sender_threads: usize,
    pub diagnose_limit_ms: f64,
    pub ingest_limit_ms: f64,
}

impl Workload {
    /// The workload's knowledge-base entries.
    pub fn kb_entries(&self) -> Vec<KnowledgeBaseEntry> {
        if self.extended_kb {
            builtin::extended_entries()
        } else {
            builtin::paper_entries()
        }
    }

    /// The workload's knowledge base.
    pub fn kb(&self) -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        for entry in self.kb_entries() {
            kb.add(entry).expect("builtin entries are valid");
        }
        kb
    }
}

fn parse(text: &str, what: &str) -> Result<Value> {
    serde_json::from_str::<Value>(text).map_err(|e| BenchError(format!("{what}: {e}")))
}

/// The parameters of workload `name`.
pub fn workload(name: &str) -> Result<Workload> {
    let doc = parse(WORKLOADS_JSON, "workloads.json")?;
    let Some(w) = doc.get("workloads").and_then(|w| w.get(name)) else {
        return fail(format!("unknown workload {name:?}"));
    };
    let num = |key: &str| w.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    let limit = |key: &str| {
        w.get("latency_limit_ms")
            .and_then(|l| l.get(key))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    Ok(Workload {
        name: name.to_string(),
        plans: num("plans") as usize,
        extended_kb: w.get("kb").and_then(Value::as_str) == Some("extended"),
        diagnose_pool: num("diagnose_pool") as usize,
        min_cycles: num("min_cycles") as usize,
        cycle_share: num("cycle_share"),
        min_diagnose: num("min_diagnose") as usize,
        ingest_plans: num("ingest_plans") as usize,
        workers: num("workers") as usize,
        segments: num("segments") as usize,
        starts_per_segment: num("starts_per_segment") as usize,
        rate_per_s: num("rate_per_s"),
        ingest_every: num("ingest_every") as usize,
        sender_threads: num("sender_threads") as usize,
        diagnose_limit_ms: limit("diagnose_p99"),
        ingest_limit_ms: limit("ingest_p90"),
    })
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares for the mode:
/// `end_to_end` untraced, `per_layer` traced.
pub fn metric_names(traced: bool) -> Result<Vec<(String, String)>> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| BenchError(format!("BENCHMARK.json: {e}")))?;
    let doc = parse(&text, "BENCHMARK.json")?;
    let key = if traced { "per_layer" } else { "end_to_end" };
    let Some(list) = doc.get(key).and_then(Value::as_array) else {
        return fail(format!("BENCHMARK.json: no {key} list"));
    };
    list.iter()
        .map(|m| {
            match (
                m.get("name").and_then(Value::as_str),
                m.get("unit").and_then(Value::as_str),
            ) {
                (Some(name), Some(unit)) => Ok((name.to_string(), unit.to_string())),
                _ => fail(format!("BENCHMARK.json: malformed {key} entry")),
            }
        })
        .collect()
}
