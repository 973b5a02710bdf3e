//! The deployment under test and its one-shot reference answers.
//!
//! Every workload runs the default deployment: `HarborGate` over a
//! `HarborScheduler` (256 pool threads, per-tenant admission depth) over
//! a `SimCluster` holding TPC-H with its date and FK indexes. The `lake_*`
//! workloads add the claims lake and its disease/medicine indexes;
//! `htap_ingest` instead creates the claims file through the write path
//! (`TxnManager`) and maintains the patient index write-behind.

use crate::config::{Config, Workload};
use crate::stats::Digest;
use rede_claims::analytics::{build_patient_index, names::CLAIMS_BY_PATIENT, PatientIdInterpreter};
use rede_claims::lake::names::CLAIMS;
use rede_claims::{ClaimsGenerator, ClaimsProfile, QuerySpec};
use rede_common::{Result, Value, Xoshiro256};
use rede_core::exec::{ExecutorConfig, JobRunner};
use rede_core::gate::{GateConfig, HarborGate, SessionId};
use rede_core::scheduler::{HarborScheduler, SchedulerConfig};
use rede_core::txn::TxnManager;
use rede_core::{Job, Query};
use rede_storage::{IoModel, Partitioning, SimCluster};
use rede_tpch::{load_tpch, LoadOptions, Q5Params, Q6Params, TpchGenerator};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The claims generator shared by the lake load, the htap seed rows and
/// the htap writer. Claim `i` is a pure function of `(seed, i)`; patient
/// ids fall in `1..=claims/2+1` whatever `i` is, so streamed claims keep
/// landing on the patients the readers probe.
pub fn claims_generator(config: &Config) -> ClaimsGenerator {
    ClaimsGenerator::new(
        ClaimsProfile {
            claims: config.fixture.claims,
            ..Default::default()
        },
        config.fixture.claims_generator_seed,
    )
}

pub fn scheduler_config(config: &Config) -> SchedulerConfig {
    SchedulerConfig {
        pool_threads: config.fixture.pool_threads,
        max_tenant_queue_depth: Some(config.client.admission_depth),
        ..SchedulerConfig::default()
    }
}

/// A loaded deployment.
pub struct Deployment {
    pub cluster: SimCluster,
    /// The write path (`htap_ingest` only).
    pub mgr: Option<Arc<TxnManager>>,
    pub gate: Arc<HarborGate>,
    /// One session per tenant.
    pub sessions: Vec<SessionId>,
    /// Time to build the cluster, load and index the data, and open the
    /// front door.
    pub setup: Duration,
}

fn cluster(config: &Config, workload: &Workload) -> Result<SimCluster> {
    let mut builder = SimCluster::builder()
        .nodes(config.fixture.nodes)
        .io_model(IoModel::hdd_like(workload.io_scale));
    if let Some(budget) = workload.memory_budget {
        builder = builder.memory_budget(budget);
    }
    let cluster = builder.build()?;
    load_tpch(
        &cluster,
        TpchGenerator::new(
            config.fixture.tpch_scale_factor,
            config.fixture.tpch_generator_seed,
        ),
        &LoadOptions {
            partitions: Some(config.fixture.partitions),
            date_indexes: true,
            fk_indexes: true,
        },
    )?;
    Ok(cluster)
}

/// Commit claims `[from, to)` as one transaction; returns the record
/// bytes written.
pub fn commit_claims(
    mgr: &Arc<TxnManager>,
    gen: &ClaimsGenerator,
    from: usize,
    to: usize,
) -> Result<u64> {
    let mut txn = mgr.begin();
    let mut bytes = 0u64;
    for i in from..to {
        let claim = gen.claim(i);
        let record = claim.to_record();
        bytes += record.len() as u64;
        txn.write(CLAIMS, Value::Int(claim.claim_id), record);
    }
    txn.commit()?;
    Ok(bytes)
}

pub fn build(config: &Config, workload: &Workload) -> Result<Deployment> {
    let start = Instant::now();
    let cluster = cluster(config, workload)?;
    let gen = claims_generator(config);
    let mgr = if workload.is_htap() {
        let mgr = TxnManager::new(cluster.clone());
        let mut txn = mgr.begin();
        txn.create_file(CLAIMS, Partitioning::hash(config.fixture.partitions));
        txn.commit()?;
        let mut i = 0;
        while i < config.fixture.claims {
            let to = (i + workload.txn_rows).min(config.fixture.claims);
            commit_claims(&mgr, &gen, i, to)?;
            i = to;
        }
        build_patient_index(&cluster)?;
        mgr.maintain_index(CLAIMS_BY_PATIENT, Arc::new(PatientIdInterpreter), None)?;
        Some(mgr)
    } else {
        rede_claims::lake::load_lake(&cluster, &gen)?;
        None
    };
    let scheduler = HarborScheduler::new(cluster.clone(), scheduler_config(config));
    if let Some(mgr) = &mgr {
        scheduler.attach_ingest(mgr);
    }
    // A zero fetch timeout makes `fetch` a poll: one pager thread
    // multiplexes every open cursor, and a timed-out cursor resumes
    // exactly where it stopped.
    let gate = Arc::new(HarborGate::with_config(
        scheduler,
        GateConfig {
            fetch_timeout: Duration::ZERO,
            ..GateConfig::default()
        },
    ));
    let sessions = config
        .client
        .tenants
        .iter()
        .map(|t| gate.open_session(t))
        .collect::<Result<Vec<_>>>()?;
    Ok(Deployment {
        cluster,
        mgr,
        gate,
        sessions,
        setup: start.elapsed(),
    })
}

/// The `lake_*` read mix, in popularity order: Q5', Q6, claims Q1–Q3.
pub fn lake_jobs(config: &Config) -> Result<Vec<Job>> {
    let mut jobs = vec![
        rede_tpch::q5_prime_job(&Q5Params::with_selectivity(config.mix.q5_selectivity))?,
        rede_tpch::q6_job(&Q6Params::standard())?,
    ];
    for spec in QuerySpec::all() {
        jobs.push(rede_claims::queries::rede_job(&spec)?);
    }
    Ok(jobs)
}

pub fn patient_job(patient: i64) -> Result<Job> {
    Query::via_index(CLAIMS_BY_PATIENT)
        .keys(vec![Value::Int(patient)])
        .named(format!("history-{patient}"))
        .fetch(CLAIMS)
        .build()
        .compile()
}

/// The patients the `htap_ingest` reader probes: `n` distinct patients
/// of the seed rows, chosen by the workload seed.
pub fn probe_patients(config: &Config, seed: u64, n: usize) -> Vec<i64> {
    let gen = claims_generator(config);
    let mut patients: Vec<i64> = (0..config.fixture.claims)
        .map(|i| gen.claim(i).patient_id)
        .collect();
    patients.sort_unstable();
    patients.dedup();
    Xoshiro256::new(seed).derive(3).shuffle(&mut patients);
    patients.truncate(n);
    patients
}

/// One-shot collected answers, one digest per job.
pub fn references(cluster: &SimCluster, config: &Config, jobs: &[Job]) -> Result<Vec<Digest>> {
    let runner = JobRunner::new(
        cluster.clone(),
        ExecutorConfig::smpe(config.fixture.pool_threads).collecting(),
    );
    jobs.iter()
        .map(|job| {
            let result = runner.run(job)?;
            let mut digest = Digest::default();
            result.records.iter().for_each(|r| digest.add(r.bytes()));
            Ok(digest)
        })
        .collect()
}
