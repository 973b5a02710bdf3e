//! The frozen workload record (`workloads.json`, compiled into the
//! binary): fixture size, rates, SLO limits, latency-model scale, memory
//! budget and client shape. Nothing here is calibrated at run time.

use rede_common::{Json, RedeError, Result};
use std::time::Duration;

const RECORD: &str = include_str!("../workloads.json");

/// Shared fixture: the data every workload loads.
#[derive(Debug, Clone)]
pub struct Fixture {
    pub tpch_scale_factor: f64,
    pub tpch_generator_seed: u64,
    pub claims: usize,
    pub claims_generator_seed: u64,
    pub nodes: usize,
    pub partitions: usize,
    pub pool_threads: usize,
}

/// Load-generator shape shared by all workloads.
#[derive(Debug, Clone)]
pub struct Client {
    pub tenants: Vec<String>,
    pub admission_depth: usize,
    pub page_size: usize,
    pub poll_interval: Duration,
    pub queue_sample: Duration,
    pub warmup: Duration,
    /// Fresh deployments one run's window is split over.
    pub segments: usize,
    pub unloaded_repeats: usize,
}

/// The read mix of the `lake_*` workloads.
#[derive(Debug, Clone)]
pub struct Mix {
    pub zipf_skew: f64,
    pub q5_selectivity: f64,
    pub kinds: Vec<String>,
}

impl Mix {
    /// Zipf weights in popularity order: kind `k` gets `1/(k+1)^skew`.
    pub fn weights(&self) -> Vec<f64> {
        (0..self.kinds.len())
            .map(|k| 1.0 / ((k + 1) as f64).powf(self.zipf_skew))
            .collect()
    }
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: String,
    pub io_scale: f64,
    pub memory_budget: Option<usize>,
    pub rate_per_s: f64,
    pub slo: Duration,
    /// Writer transaction size (`htap_ingest` only).
    pub txn_rows: usize,
    /// Share of reader arrivals that are Q5' (`htap_ingest` only).
    pub q5_share: f64,
    /// Distinct patients the history probes draw from (`htap_ingest`).
    pub probe_patients: usize,
}

impl Workload {
    pub fn is_htap(&self) -> bool {
        self.txn_rows > 0
    }
}

#[derive(Debug, Clone)]
pub struct Config {
    pub default_seed: u64,
    pub held_out_seed: u64,
    pub fixture: Fixture,
    pub client: Client,
    pub mix: Mix,
    pub workloads: Vec<Workload>,
}

fn num(j: &Json, path: &str) -> Result<f64> {
    j.path(path)
        .and_then(Json::as_f64)
        .ok_or_else(|| RedeError::Exec(format!("workloads.json: missing number '{path}'")))
}

fn strings(j: &Json, path: &str) -> Result<Vec<String>> {
    j.path(path)
        .and_then(Json::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(|s| s.as_str().map(str::to_string))
                .collect()
        })
        .ok_or_else(|| RedeError::Exec(format!("workloads.json: missing list '{path}'")))
}

impl Config {
    /// The record compiled into this binary.
    pub fn load() -> Result<Config> {
        Config::parse(RECORD)
    }

    pub fn parse(text: &str) -> Result<Config> {
        let j = Json::parse(text)?;
        let fixture = Fixture {
            tpch_scale_factor: num(&j, "fixture.tpch_scale_factor")?,
            tpch_generator_seed: num(&j, "fixture.tpch_generator_seed")? as u64,
            claims: num(&j, "fixture.claims")? as usize,
            claims_generator_seed: num(&j, "fixture.claims_generator_seed")? as u64,
            nodes: num(&j, "fixture.nodes")? as usize,
            partitions: num(&j, "fixture.partitions")? as usize,
            pool_threads: num(&j, "fixture.pool_threads")? as usize,
        };
        let client = Client {
            tenants: strings(&j, "client.tenants")?,
            admission_depth: num(&j, "client.admission_depth")? as usize,
            page_size: num(&j, "client.page_size")? as usize,
            poll_interval: Duration::from_micros(num(&j, "client.poll_interval_us")? as u64),
            queue_sample: Duration::from_millis(num(&j, "client.queue_sample_ms")? as u64),
            warmup: Duration::from_secs_f64(num(&j, "client.warmup_s")?),
            segments: num(&j, "client.segments")? as usize,
            unloaded_repeats: num(&j, "client.unloaded_repeats")? as usize,
        };
        let mix = Mix {
            zipf_skew: num(&j, "mix.zipf_skew")?,
            q5_selectivity: num(&j, "mix.q5_selectivity")?,
            kinds: strings(&j, "mix.kinds")?,
        };
        let Some(Json::Object(map)) = j.get("workloads") else {
            return Err(RedeError::Exec("workloads.json: no workloads".into()));
        };
        let mut workloads = Vec::new();
        for (name, w) in map {
            let opt = |key: &str| w.get(key).and_then(Json::as_f64);
            workloads.push(Workload {
                name: name.clone(),
                io_scale: num(w, "io_scale")?,
                memory_budget: opt("memory_budget_bytes").map(|b| b as usize),
                rate_per_s: num(w, "rate_per_s")?,
                slo: Duration::from_secs_f64(num(w, "slo_ms")? / 1e3),
                txn_rows: opt("txn_rows").unwrap_or(0.0) as usize,
                q5_share: opt("q5_share").unwrap_or(0.0),
                probe_patients: opt("probe_patients").unwrap_or(0.0) as usize,
            });
        }
        Ok(Config {
            default_seed: num(&j, "default_seed")? as u64,
            held_out_seed: num(&j, "held_out_seed")? as u64,
            fixture,
            client,
            mix,
            workloads,
        })
    }

    pub fn workload(&self, name: &str) -> Option<&Workload> {
        self.workloads.iter().find(|w| w.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_compiled_record_names_four_workloads_with_frozen_rates() {
        let config = Config::load().unwrap();
        let mut names: Vec<&str> = config.workloads.iter().map(|w| w.name.as_str()).collect();
        names.sort();
        assert_eq!(names, ["htap_ingest", "lake_cpu", "lake_io", "lake_paged"]);
        for w in &config.workloads {
            assert!(w.rate_per_s > 0.0 && w.slo > Duration::ZERO, "{}", w.name);
        }
        assert!(config.workload("htap_ingest").unwrap().is_htap());
        assert!(!config.workload("lake_io").unwrap().is_htap());
        assert_eq!(config.client.tenants.len(), 2);
        assert_ne!(config.default_seed, config.held_out_seed);
    }
}
