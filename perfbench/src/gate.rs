//! The determinism gate: values that must repeat exactly.
//!
//! `perfbench/expected.json` records, per workload, the deterministic
//! outputs of the default seed (B&B nodes, pivots, cold solves, partition
//! counts, multilevel levels, modelled execution times, stream digests).
//! `values` do not depend on the seed and are checked on every run;
//! `default_seed_values` are checked on runs with the default seed. Any
//! mismatch is a failed op.

use serde::Value;
use std::collections::BTreeMap;

const EXPECTED: &str = include_str!("../expected.json");

pub struct Expected {
    default_seed: u64,
    workloads: Vec<(String, Value)>,
}

impl Expected {
    pub fn load() -> Result<Self, String> {
        let root: Value = serde_json::from_str(EXPECTED)
            .map_err(|e| format!("expected.json does not parse: {e}"))?;
        let default_seed = root
            .get("default_seed")
            .and_then(Value::as_int)
            .and_then(|s| u64::try_from(s).ok())
            .ok_or("expected.json lacks default_seed")?;
        let workloads = root
            .get("gate")
            .and_then(Value::as_map)
            .ok_or("expected.json lacks a gate map")?
            .to_vec();
        Ok(Expected {
            default_seed,
            workloads,
        })
    }

    /// Compares a run's gate values with the recorded ones.
    pub fn check(
        &self,
        workload: &str,
        seed: u64,
        got: &BTreeMap<String, String>,
    ) -> Result<(), String> {
        let Some((_, entry)) = self.workloads.iter().find(|(w, _)| w == workload) else {
            return Err(format!("no recorded values for {workload}"));
        };
        let mut sections = vec!["values"];
        if seed == self.default_seed {
            sections.push("default_seed_values");
        }
        let mut wrong = Vec::new();
        for section in sections {
            let values = entry
                .get(section)
                .and_then(Value::as_map)
                .ok_or_else(|| format!("{workload}: no {section} map"))?;
            for (key, want) in values {
                let want = want.as_str().unwrap_or_default();
                match got.get(key) {
                    Some(v) if v == want => {}
                    Some(v) => wrong.push(format!("{key} = {v}, recorded {want}")),
                    None => wrong.push(format!("{key} missing, recorded {want}")),
                }
            }
        }
        if wrong.is_empty() {
            Ok(())
        } else {
            Err(wrong.join("; "))
        }
    }
}

/// Renders gate values as the JSON map `expected.json` stores.
pub fn render(values: &BTreeMap<String, String>) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(k, v)| format!("        \"{k}\": \"{v}\""))
        .collect();
    format!("{{\n{}\n}}", body.join(",\n"))
}
