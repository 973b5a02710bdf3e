//! One run of one workload: set up, take references, warm up, measure a
//! window, verify, check quiescence, and turn it all into metrics.

use crate::client::{Check, Load, Phase, Request};
use crate::config::{Config, Workload};
use crate::fixture::{self, Deployment};
use crate::schedule::{self, Arrival};
use crate::stats::{self, nearest_rank, rank_or_max, ratio, Digest};
use crate::trace::{self, Span, Tracer};
use rede_claims::analytics::build_patient_index;
use rede_claims::lake::names::CLAIMS;
use rede_claims::ClaimsGenerator;
use rede_common::{Json, MetricsSnapshot, RedeError, Result, Xoshiro256};
use rede_core::exec::{ExecutorConfig, JobRunner};
use rede_core::gate::{GateConfig, HarborGate, QueryOptions};
use rede_core::scheduler::{HarborScheduler, SchedulerStats, SubmitOptions};
use rede_core::txn::TxnManager;
use rede_core::Job;
use rede_storage::{IoModel, SimCluster};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A metric value with its unit.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// The result of one run.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers, leaks and durability failures, described.
    pub problems: Vec<String>,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// The trace document of a traced run.
    pub trace: Option<Json>,
    /// Per-job latency and commit-latency lines for the human report.
    pub notes: Vec<String>,
}

/// One acknowledged (or failed) writer transaction.
struct Commit {
    start: Instant,
    end: Instant,
    rows: usize,
    bytes: u64,
}

#[derive(Default)]
struct WriterLog {
    commits: Vec<Commit>,
    error: Option<String>,
}

/// Closed-loop writer: back-to-back `txn_rows`-claim transactions
/// starting at claim `first`, until `stop` is raised.
fn write_loop(
    mgr: &Arc<TxnManager>,
    gen: &ClaimsGenerator,
    first: usize,
    txn_rows: usize,
    stop: &AtomicBool,
) -> WriterLog {
    let mut log = WriterLog::default();
    let mut next = first;
    while !stop.load(Ordering::SeqCst) {
        let start = Instant::now();
        match fixture::commit_claims(mgr, gen, next, next + txn_rows) {
            Ok(bytes) => log.commits.push(Commit {
                start,
                end: Instant::now(),
                rows: txn_rows,
                bytes,
            }),
            Err(err) => {
                log.error = Some(format!("commit of claims {next}..: {err}"));
                break;
            }
        }
        next += txn_rows;
    }
    log
}

/// Layer state read at a window edge.
struct Edge {
    at: Instant,
    counters: MetricsSnapshot,
    scheduler: SchedulerStats,
    fsyncs: u64,
}

fn edge(dep: &Deployment) -> Edge {
    Edge {
        at: Instant::now(),
        counters: dep.cluster.metrics().snapshot(),
        scheduler: dep.gate.scheduler().stats(),
        fsyncs: dep.mgr.as_ref().map_or(0, |m| m.wal().fsyncs()),
    }
}

/// The jobs a workload's arrivals draw from, how each answer is checked,
/// the mix weights, and which job each mix kind maps to.
struct Plan {
    jobs: Vec<Job>,
    checks: Vec<Check>,
    weights: Vec<f64>,
    patients: Vec<i64>,
    /// Record hashes of each probe patient's history before the load
    /// starts: every mid-run answer must hold all of them.
    seed_rows: Vec<HashSet<u64>>,
}

impl Plan {
    /// Job of every arrival: the mix kind itself for `lake_*`; for
    /// `htap_ingest`, kind 0 is Q5' and kind 1 a seeded patient probe.
    fn job_of(&self, seed: u64, phase: u64, schedule: &[Arrival]) -> Vec<usize> {
        let mut rng = Xoshiro256::new(seed).derive(100 + phase);
        schedule
            .iter()
            .map(|a| match (a.kind, self.patients.len()) {
                (k, 0) => k,
                (0, _) => 0,
                (_, n) => 1 + rng.gen_range(n as u64) as usize,
            })
            .collect()
    }
}

fn plan(config: &Config, w: &Workload, seed: u64, dep: &Deployment) -> Result<Plan> {
    if w.is_htap() {
        let q5 = rede_tpch::q5_prime_job(&rede_tpch::Q5Params::with_selectivity(
            config.mix.q5_selectivity,
        ))?;
        // Q5' reads only TPC-H tables, so it must keep its pre-ingest
        // answer however many claims land meanwhile.
        let q5_ref = fixture::references(&dep.cluster, config, std::slice::from_ref(&q5))?[0];
        let patients = fixture::probe_patients(config, seed, w.probe_patients);
        let runner = JobRunner::new(
            dep.cluster.clone(),
            ExecutorConfig::smpe(config.fixture.pool_threads).collecting(),
        );
        let mut jobs = vec![q5];
        let mut checks = vec![Check::Reference(q5_ref)];
        let mut seed_rows = Vec::new();
        for &p in &patients {
            let job = fixture::patient_job(p)?;
            seed_rows.push(collect_digest(&runner, &job)?.1);
            jobs.push(job);
            checks.push(Check::Patient(p));
        }
        Ok(Plan {
            jobs,
            checks,
            weights: vec![w.q5_share, 1.0 - w.q5_share],
            patients,
            seed_rows,
        })
    } else {
        let jobs = fixture::lake_jobs(config)?;
        let checks = fixture::references(&dep.cluster, config, &jobs)?
            .into_iter()
            .map(Check::Reference)
            .collect();
        Ok(Plan {
            jobs,
            checks,
            weights: config.mix.weights(),
            patients: Vec::new(),
            seed_rows: Vec::new(),
        })
    }
}

fn collect_digest(runner: &JobRunner, job: &Job) -> Result<(Digest, HashSet<u64>)> {
    let result = runner.run(job)?;
    let mut digest = Digest::default();
    let mut set = HashSet::new();
    for r in &result.records {
        let h = stats::record_hash(r.bytes());
        digest.add_hash(h);
        set.insert(h);
    }
    Ok((digest, set))
}

fn claims_digest(cluster: &SimCluster) -> Result<(usize, Digest)> {
    let file = cluster.file(CLAIMS)?;
    let mut digest = Digest::default();
    for p in 0..file.partitions() {
        file.scan_partition(p, |_, r| digest.add(r.bytes()));
    }
    Ok((file.len(), digest))
}

/// After the writer stops: every mid-run history must hold the patient's
/// pre-load rows, every record of it must appear in the patient's final
/// answer, and a cluster recovered from the WAL bytes must hold exactly
/// the acknowledged rows and return byte-identical final histories.
fn check_ingest(
    config: &Config,
    dep: &Deployment,
    plan: &Plan,
    requests: &mut [&mut Request],
    acked_rows: usize,
    problems: &mut Vec<String>,
) -> Result<()> {
    let mgr = dep.mgr.as_ref().expect("htap deployment has a write path");
    let live = JobRunner::new(
        dep.cluster.clone(),
        ExecutorConfig::smpe(config.fixture.pool_threads).collecting(),
    );
    let finals: Vec<(Digest, HashSet<u64>)> = plan.jobs[1..]
        .iter()
        .map(|job| collect_digest(&live, job))
        .collect::<Result<_>>()?;
    for r in requests.iter_mut() {
        if r.job == 0 || r.done.is_none() || r.error.is_some() {
            continue;
        }
        let patient = plan.patients[r.job - 1];
        let (_, set) = &finals[r.job - 1];
        let held: HashSet<u64> = r.hashes.iter().copied().collect();
        if let Some(missing) = r.hashes.iter().find(|h| !set.contains(h)) {
            r.error = Some(format!(
                "patient {patient} history held record {missing:016x} that the final answer lacks"
            ));
        } else if let Some(dropped) = plan.seed_rows[r.job - 1].iter().find(|h| !held.contains(h)) {
            r.error = Some(format!(
                "patient {patient} history lacked pre-load record {dropped:016x}"
            ));
        }
    }

    let recovered = SimCluster::builder()
        .nodes(config.fixture.nodes)
        .io_model(IoModel::zero())
        .build()?;
    TxnManager::recover(recovered.clone(), mgr.wal().bytes())?;
    let expected_rows = config.fixture.claims + acked_rows;
    let (live_rows, live_digest) = claims_digest(&dep.cluster)?;
    let (rec_rows, rec_digest) = claims_digest(&recovered)?;
    if live_rows != expected_rows || rec_rows != expected_rows {
        problems.push(format!(
            "durability: {expected_rows} claims acknowledged, live holds {live_rows}, recovered holds {rec_rows}"
        ));
    } else if live_digest != rec_digest {
        problems.push("durability: recovered claims differ from the live claims".into());
    }
    build_patient_index(&recovered)?;
    let rec_runner = JobRunner::new(
        recovered,
        ExecutorConfig::smpe(config.fixture.pool_threads).collecting(),
    );
    for (i, job) in plan.jobs[1..].iter().enumerate() {
        let (digest, _) = collect_digest(&rec_runner, job)?;
        if digest != finals[i].0 {
            problems.push(format!(
                "durability: recovered history of patient {} differs ({} vs {} rows)",
                plan.patients[i], digest.rows, finals[i].0.rows
            ));
        }
    }
    Ok(())
}

/// Leak check with public getters only, once the load has stopped and
/// the sessions are closed. Background catch-up may still be finishing,
/// so the levels get a short grace period before a leak is declared.
fn quiescence(dep: &Deployment, permits_at_rest: &[usize], base_panics: u64) -> Vec<String> {
    for &s in &dep.sessions {
        let _ = dep.gate.close_session(s);
    }
    let deadline = Instant::now() + Duration::from_secs(3);
    loop {
        let m = dep.cluster.metrics();
        let st = dep.gate.scheduler().stats();
        let permits = dep.cluster.available_iops_permits();
        let mut leaks = Vec::new();
        if permits != permits_at_rest {
            leaks.push(format!(
                "IOPS permits {permits:?}, at rest {permits_at_rest:?}"
            ));
        }
        for (name, level) in [
            ("snapshots_active", m.snapshots_active()),
            ("sessions_active", m.sessions_active()),
            ("cursors_active", m.cursors_active()),
            ("active_jobs", st.active_jobs as u64),
            ("pool_panics", st.pool_panics - base_panics),
            ("fabric_in_flight", st.fabric_in_flight as u64),
        ] {
            if level != 0 {
                leaks.push(format!("{name} = {level} at rest"));
            }
        }
        if leaks.is_empty() || Instant::now() >= deadline {
            return leaks.into_iter().map(|l| format!("leak: {l}")).collect();
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Mix-weighted mean unloaded latency (ms) at three depths of the stack,
/// one query at a time: `JobRunner::run`, scheduler `submit_with().wait()`
/// and gate open + blocking fetch to done.
fn unloaded(config: &Config, dep: &Deployment, plan: &Plan) -> Result<(f64, f64, f64)> {
    let kinds: Vec<(usize, f64)> = if plan.patients.is_empty() {
        plan.weights.iter().copied().enumerate().collect()
    } else {
        vec![(0, plan.weights[0]), (1, plan.weights[1])]
    };
    let runner = JobRunner::new(
        dep.cluster.clone(),
        ExecutorConfig::smpe(config.fixture.pool_threads),
    );
    let scheduler = HarborScheduler::new(dep.cluster.clone(), fixture::scheduler_config(config));
    if let Some(mgr) = &dep.mgr {
        scheduler.attach_ingest(mgr);
    }
    let gate = HarborGate::with_config(scheduler, GateConfig::default());
    let session = gate.open_session(&config.client.tenants[0])?;
    let reps = config.client.unloaded_repeats.max(1);
    let time = |f: &dyn Fn() -> Result<()>| -> Result<f64> {
        let mut ms = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            f()?;
            ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        Ok(stats::median(&ms))
    };
    let (mut exec, mut sched, mut front, mut total) = (0.0, 0.0, 0.0, 0.0);
    for (job_idx, weight) in kinds {
        let job = &plan.jobs[job_idx];
        exec += weight * time(&|| runner.run(job).map(|_| ()))?;
        sched += weight
            * time(&|| {
                gate.scheduler()
                    .submit_with(job, SubmitOptions::new().tenant("unloaded"))?
                    .wait()
                    .map(|_| ())
            })?;
        front += weight
            * time(&|| {
                let cursor = gate.open_cursor_with(session, job, QueryOptions::default())?;
                while !gate.fetch(cursor, config.client.page_size)?.done {}
                Ok(())
            })?;
        total += weight;
    }
    Ok((exec / total, sched / total, front / total))
}

/// Peak resident set of this process (`ru_maxrss`, which Linux reports
/// as the VmHWM high-water mark), in MiB.
pub fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the C `struct rusage` layout on 64-bit
    // Linux (two timevals, then fourteen longs); RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Span ids of segment `k` start at `k × SEGMENT_IDS`.
const SEGMENT_IDS: u64 = 1_000_000;

/// Raw observations of one segment: a fresh deployment, its warm-up,
/// and one measured window between two counter edges.
struct Segment {
    setup_s: f64,
    window: Duration,
    /// The window's arrivals (done/latency relative to `phase_start`).
    requests: Vec<Request>,
    phase_start: Instant,
    rounds_ms: Vec<f64>,
    queue_depths: Vec<f64>,
    spans: Vec<Span>,
    snapshots_at_end: u64,
    before: Edge,
    after: Edge,
    /// Writer commits inside the window.
    commits: Vec<Commit>,
    resident_bytes: usize,
    disk_bytes: usize,
    io: IoModel,
    problems: Vec<String>,
    unloaded: Option<(f64, f64, f64)>,
    /// Latencies (ms) by mix kind.
    per_kind: Vec<Vec<f64>>,
}

fn segment(
    config: &Config,
    w: &Workload,
    seed: u64,
    k: u64,
    window: Duration,
    tracer: Option<&Tracer>,
    measure_unloaded: bool,
) -> Result<Segment> {
    let dep = fixture::build(config, w)?;
    let plan = plan(config, w, seed, &dep)?;
    let permits_at_rest = dep.cluster.available_iops_permits();
    let base_panics = dep.gate.scheduler().stats().pool_panics;
    let tenants = config.client.tenants.len();
    let warmup = config.client.warmup;
    let (warm_phase, phase) = (10 + 2 * k, 11 + 2 * k);
    let warm_schedule = schedule::arrivals(
        seed,
        warm_phase,
        w.rate_per_s,
        warmup,
        &plan.weights,
        tenants,
    );
    let schedule = schedule::arrivals(seed, phase, w.rate_per_s, window, &plan.weights, tenants);
    let warm_jobs = plan.job_of(seed, warm_phase, &warm_schedule);
    let jobs_of = plan.job_of(seed, phase, &schedule);
    let stop = AtomicBool::new(false);
    let load = |schedule: &[Arrival], job_of: &[usize], len: Duration, measured: bool| {
        Load {
            gate: &dep.gate,
            sessions: &dep.sessions,
            jobs: &plan.jobs,
            checks: &plan.checks,
            schedule,
            job_of,
            page_size: config.client.page_size,
            poll_interval: config.client.poll_interval,
            queue_sample: config.client.queue_sample,
            window: len,
            stop_at_end: (measured && w.is_htap()).then_some(&stop),
            tracer: tracer.filter(|_| measured),
            drain_limit: Duration::from_secs(60),
        }
        .run()
    };

    // Warm-up, drained, then the measured window between two edges. The
    // htap writer runs through both phases and stops at the window's end.
    let gen = fixture::claims_generator(config);
    let (warm, measured, before, after, writer) = std::thread::scope(|scope| {
        let writer = dep.mgr.as_ref().map(|mgr| {
            let (gen, stop) = (&gen, &stop);
            let first = config.fixture.claims;
            scope.spawn(move || write_loop(mgr, gen, first, w.txn_rows, stop))
        });
        let warm = load(&warm_schedule, &warm_jobs, warmup, false);
        let before = edge(&dep);
        let measured = match &warm {
            Ok(_) => load(&schedule, &jobs_of, window, true),
            Err(err) => Err(RedeError::Exec(format!("warm-up: {err}"))),
        };
        stop.store(true, Ordering::SeqCst);
        let writer = writer.map(|h| h.join().expect("writer panicked"));
        let after = edge(&dep);
        (warm, measured, before, after, writer)
    });
    let mut warm: Phase = warm?;
    let mut phase: Phase = measured?;
    let writer = writer.unwrap_or_default();

    let mut problems = Vec::new();
    if let Some(err) = &writer.error {
        problems.push(format!("writer: {err}"));
    }
    if w.is_htap() {
        let acked_rows = writer.commits.iter().map(|c| c.rows).sum();
        let mut all: Vec<&mut Request> = warm
            .requests
            .iter_mut()
            .chain(phase.requests.iter_mut())
            .collect();
        check_ingest(config, &dep, &plan, &mut all, acked_rows, &mut problems)?;
    }
    for r in warm.requests.iter().filter(|r| r.error.is_some()) {
        problems.push(format!("warm-up: {}", r.error.as_deref().unwrap_or("")));
    }
    problems.extend(quiescence(&dep, &permits_at_rest, base_panics));
    let unloaded = if measure_unloaded {
        Some(unloaded(config, &dep, &plan)?)
    } else {
        None
    };
    let commits = writer
        .commits
        .into_iter()
        .filter(|c| c.start >= before.at && c.end <= after.at)
        .collect();
    let mut per_kind = vec![Vec::new(); plan.weights.len()];
    for r in &phase.requests {
        if let (Some(l), Some(a)) = (r.latency(), r.arrival) {
            per_kind[a.kind].push(ms(l));
        }
    }
    let offset = k * SEGMENT_IDS;
    for s in &mut phase.spans {
        s.id += offset;
    }
    let pool = dep.cluster.buffer_stats();
    Ok(Segment {
        setup_s: dep.setup.as_secs_f64(),
        window,
        requests: phase.requests,
        phase_start: phase.start,
        rounds_ms: phase.rounds_ms,
        queue_depths: phase.queue_depths,
        spans: phase.spans,
        snapshots_at_end: phase.snapshots_at_end,
        before,
        after,
        commits,
        resident_bytes: pool.resident_bytes,
        disk_bytes: pool.disk_bytes,
        io: dep.cluster.io_model().clone(),
        problems,
        unloaded,
        per_kind,
    })
}

/// Window counters of all segments: counters summed, levels at their
/// highest.
fn pooled_counters(segs: &[Segment]) -> MetricsSnapshot {
    let mut t = MetricsSnapshot::default();
    for s in segs {
        let c = stats::window(&s.before.counters, &s.after.counters);
        t.local_point_reads += c.local_point_reads;
        t.remote_point_reads += c.remote_point_reads;
        t.scanned_records += c.scanned_records;
        t.index_lookups += c.index_lookups;
        t.tasks_spawned += c.tasks_spawned;
        t.queue_hops += c.queue_hops;
        t.batched_reads += c.batched_reads;
        t.batches_issued += c.batches_issued;
        t.retries += c.retries;
        t.page_faults += c.page_faults;
        t.page_evictions += c.page_evictions;
        t.wal_bytes += c.wal_bytes;
        t.cursor_stalls += c.cursor_stalls;
        t.inflight_peak = t.inflight_peak.max(c.inflight_peak);
    }
    t
}

/// Run `workload` once: `seconds` of measured window, split evenly over
/// `client.segments` fresh deployments whose observations are pooled.
/// On a two-core host one start of the 256-thread pool can run slower for
/// its whole life than the next; pooling several starts per run averages
/// that out of the run-to-run spread.
pub fn run(config: &Config, w: &Workload, seed: u64, seconds: u64, traced: bool) -> Result<Report> {
    let k = config.client.segments.max(1) as u64;
    let seg_window = Duration::from_secs(seconds).div_f64(k as f64);
    let tracer = Tracer::new(Instant::now());
    let segs = (0..k)
        .map(|i| {
            let t = traced.then_some(&tracer);
            segment(config, w, seed, i, seg_window, t, traced && i + 1 == k)
        })
        .collect::<Result<Vec<Segment>>>()?;

    let mut problems: Vec<String> = segs.iter().flat_map(|s| s.problems.clone()).collect();
    let requests: Vec<&Request> = segs.iter().flat_map(|s| &s.requests).collect();
    let window_s = seconds as f64;
    let arrivals = requests.len() as f64;
    let lat = stats::sorted(
        requests
            .iter()
            .filter_map(|r| r.latency().map(ms))
            .collect(),
    );
    let completed = lat.len();
    let in_window: usize = segs
        .iter()
        .map(|s| {
            s.requests
                .iter()
                .filter(|r| r.completed() && r.done.is_some_and(|d| d <= s.window))
                .count()
        })
        .sum();
    let within_slo = lat.iter().filter(|&&l| l <= ms(w.slo)).count();
    let shed = requests.iter().filter(|r| r.shed).count();
    let admitted = requests.iter().filter(|r| r.admitted).count();
    let errors: Vec<&&Request> = requests.iter().filter(|r| r.error.is_some()).collect();
    for r in errors.iter().take(5) {
        problems.push(r.error.clone().unwrap_or_default());
    }
    let commits: Vec<&Commit> = segs.iter().flat_map(|s| &s.commits).collect();
    let attempted = requests.len() as u64 + commits.len() as u64;
    let failed = errors.len() as u64;

    let (Some(p50), Some(p90)) = (nearest_rank(&lat, 0.5), nearest_rank(&lat, 0.9)) else {
        return Err(RedeError::Exec(format!(
            "{completed} completions are too few for a p90 (need 100); {} failed, first: {}",
            errors.len(),
            problems.first().map_or("none", String::as_str)
        )));
    };
    let setups: Vec<f64> = segs.iter().map(|s| s.setup_s).collect();
    let mut e2e = Metrics::new();
    e2e.insert("setup_s", (stats::median(&setups), "s"));
    e2e.insert("peak_rss_mb", (peak_rss_mb(), "MB"));
    e2e.insert("query_p50_ms", (p50, "ms"));
    e2e.insert("query_p90_ms", (p90, "ms"));
    e2e.insert("goodput_qps", (in_window as f64 / window_s, "1/s"));
    e2e.insert("slo_attainment", (within_slo as f64 / arrivals, "ratio"));

    let cw = pooled_counters(&segs);
    let q = admitted as f64;
    let done: Vec<&&Request> = requests.iter().filter(|r| r.completed()).collect();
    let rows: u64 = done.iter().map(|r| r.digest.rows).sum();
    let fetch_ms: Vec<f64> = done
        .iter()
        .filter_map(|r| Some(ms(r.done?.saturating_sub(r.first_poll?))))
        .collect();
    let fetch_ms_per_query = stats::mean(&fetch_ms);
    let pages: Vec<f64> = done.iter().map(|r| r.pages as f64).collect();
    let opens = stats::sorted(
        requests
            .iter()
            .filter(|r| r.admitted)
            .map(|r| r.open_us)
            .collect(),
    );
    let tenants = config.client.tenants.len();
    let mut per_tenant = vec![0usize; tenants];
    for r in &done {
        per_tenant[r.arrival.map_or(0, |a| a.tenant)] += 1;
    }
    let io = &segs[0].io;
    let modeled_ms = ms(io.local_point_read) * cw.local_point_reads as f64
        + ms(io.remote_point_read) * cw.remote_point_reads as f64
        + ms(io.index_lookup) * cw.index_lookups as f64
        + ms(io.scan_per_record) * cw.scanned_records as f64
        + ms(io.page_fault) * cw.page_faults as f64;
    let modeled_per_query = ratio(modeled_ms, q);
    let lags = stats::sorted(
        requests
            .iter()
            .filter_map(|r| Some(ms(r.open_start?.saturating_sub(r.arrival?.at))))
            .collect(),
    );
    let rounds = stats::sorted(segs.iter().flat_map(|s| s.rounds_ms.clone()).collect());
    let depths: Vec<f64> = segs.iter().flat_map(|s| s.queue_depths.clone()).collect();
    let commit_ms = stats::sorted(
        commits
            .iter()
            .map(|c| ms(c.end.duration_since(c.start)))
            .collect(),
    );
    let user_bytes: u64 = commits.iter().map(|c| c.bytes).sum();
    let commit_rows: usize = commits.iter().map(|c| c.rows).sum();
    let n_commits = commits.len() as f64;
    let sched = |f: fn(&SchedulerStats) -> u64| -> f64 {
        segs.iter()
            .map(|s| (f(&s.after.scheduler) - f(&s.before.scheduler)) as f64)
            .sum()
    };
    let started = sched(|s| s.builds_started);
    let coalesced = sched(|s| s.builds_coalesced);
    let fsyncs: f64 = segs
        .iter()
        .map(|s| (s.after.fsyncs - s.before.fsyncs) as f64)
        .sum();
    let max_of = |f: fn(&Segment) -> f64| segs.iter().map(f).fold(0.0, f64::max);

    let mut layer = Metrics::new();
    let mut put = |name: &'static str, value: f64, unit: &'static str| {
        layer.insert(name, (value, unit));
    };
    let p50_or_median = |v: &[f64]| nearest_rank(v, 0.5).unwrap_or_else(|| stats::median(v));
    put("gate.open_us_p50", p50_or_median(&opens), "us");
    put("gate.fetch_ms_per_query", fetch_ms_per_query, "ms");
    put("gate.fetches_per_query", stats::mean(&pages), "count");
    put("gate.cursor_stalls", cw.cursor_stalls as f64, "count");
    put("scheduler.admitted_frac", ratio(q, arrivals), "ratio");
    put("scheduler.queue_depth_mean", stats::mean(&depths), "count");
    let (most, least) = (
        *per_tenant.iter().max().unwrap_or(&0) as f64,
        *per_tenant.iter().min().unwrap_or(&0) as f64,
    );
    put("scheduler.fairness_ratio", ratio(most, least), "ratio");
    put(
        "scheduler.deadline_aborts",
        sched(|s| s.deadline_aborts),
        "count",
    );
    put("scheduler.pool_panics", sched(|s| s.pool_panics), "count");
    put(
        "exec.tasks_per_query",
        ratio(cw.tasks_spawned as f64, q),
        "count",
    );
    put(
        "exec.queue_hops_per_query",
        ratio(cw.queue_hops as f64, q),
        "count",
    );
    let batch = ratio(cw.batched_reads as f64, cw.batches_issued as f64);
    put("exec.batch_size_mean", batch, "count");
    put("exec.retries", cw.retries as f64, "count");
    put("exec.inflight_peak", cw.inflight_peak as f64, "count");
    let point_reads = cw.point_reads() as f64;
    let accesses = cw.record_accesses() as f64;
    put(
        "cluster.point_reads_per_query",
        ratio(point_reads, q),
        "count",
    );
    put(
        "cluster.index_lookups_per_query",
        ratio(cw.index_lookups as f64, q),
        "count",
    );
    put(
        "cluster.accesses_per_row",
        ratio(accesses, rows as f64),
        "ratio",
    );
    put(
        "cluster.remote_frac",
        ratio(cw.remote_point_reads as f64, point_reads),
        "ratio",
    );
    put("io_model.modeled_ms_per_query", modeled_per_query, "ms");
    put(
        "io_model.overlap",
        ratio(modeled_per_query, fetch_ms_per_query),
        "ratio",
    );
    put(
        "buffer.faults_per_query",
        ratio(cw.page_faults as f64, q),
        "count",
    );
    put(
        "buffer.evictions_per_query",
        ratio(cw.page_evictions as f64, q),
        "count",
    );
    let faults_per_1k = ratio(1e3 * cw.page_faults as f64, accesses);
    put("buffer.faults_per_1k_accesses", faults_per_1k, "count");
    put(
        "buffer.resident_mb",
        max_of(|s| s.resident_bytes as f64) / 1e6,
        "MB",
    );
    put(
        "buffer.written_back_mb",
        max_of(|s| s.disk_bytes as f64) / 1e6,
        "MB",
    );
    put("wal.fsyncs_per_commit", ratio(fsyncs, n_commits), "count");
    put(
        "wal.bytes_per_user_byte",
        ratio(cw.wal_bytes as f64, user_bytes as f64),
        "ratio",
    );
    put(
        "txn.catchup_passes_per_commit",
        ratio(started, n_commits),
        "count",
    );
    put(
        "txn.catchup_coalesced_frac",
        ratio(coalesced, started + coalesced),
        "ratio",
    );
    put(
        "txn.snapshots_active_end",
        max_of(|s| s.snapshots_at_end as f64),
        "count",
    );
    let (exec_ms, sched_ms, gate_ms) = segs.iter().find_map(|s| s.unloaded).unwrap_or_default();
    put("exec.unloaded_ms", exec_ms, "ms");
    put("scheduler.unloaded_ms", sched_ms, "ms");
    put("gate.unloaded_ms", gate_ms, "ms");
    put(
        "harness.dispatch_lag_ms_p99",
        rank_or_max(&lags, 0.99),
        "ms",
    );
    put(
        "harness.pager_round_ms_p99",
        rank_or_max(&rounds, 0.99),
        "ms",
    );
    put("shed_frac", shed as f64 / arrivals, "ratio");
    put(
        "failed_frac",
        ratio(failed as f64, attempted as f64),
        "ratio",
    );
    // Commit percentiles read 0 on a workload without a writer, and p99
    // also when fewer than 1,000 commits landed in the window.
    let commit_p50 = nearest_rank(&commit_ms, 0.5).unwrap_or(0.0);
    let commit_p99 = nearest_rank(&commit_ms, 0.99).unwrap_or(0.0);
    put("commit_p50_ms", commit_p50, "ms");
    put("commit_p99_ms", commit_p99, "ms");
    put("ingest_rows_per_s", commit_rows as f64 / window_s, "1/s");

    let trace = traced.then(|| trace_document(&tracer, w, seed, seconds, &segs));
    let mut notes: Vec<String> = (0..segs[0].per_kind.len())
        .map(|k| {
            let l = stats::sorted(segs.iter().flat_map(|s| s.per_kind[k].clone()).collect());
            format!(
                "kind {k}: {} completed, p50 {:.2} ms, p90 {:.2} ms",
                l.len(),
                stats::median(&l),
                rank_or_max(&l, 0.9)
            )
        })
        .collect();
    // p99 only where the run holds enough completions for it.
    notes.push(match nearest_rank(&lat, 0.99) {
        Some(p99) => format!("query p99 {p99:.2} ms over {completed} completions"),
        None => format!("query p99 not reported: {completed} completions, 1,000 needed"),
    });
    if !commit_ms.is_empty() {
        notes.push(format!(
            "{} commits: p50 {commit_p50:.3} ms, p99 {commit_p99:.3} ms",
            commit_ms.len()
        ));
    }
    Ok(Report {
        notes,
        attempted,
        failed,
        problems,
        end_to_end: e2e,
        per_layer: layer,
        trace,
    })
}

/// Spans of a traced run: the pager's `gate.fetch` spans plus, derived
/// from each request's record, `request` and `gate.open_cursor`, and the
/// writer's `txn.commit`s; with the counters at every window edge.
fn trace_document(
    tracer: &Tracer,
    w: &Workload,
    seed: u64,
    seconds: u64,
    segs: &[Segment],
) -> Json {
    let mut spans: Vec<Span> = Vec::new();
    let mut edges = Vec::new();
    let mut self_us = Vec::new();
    for (k, seg) in segs.iter().enumerate() {
        let offset = k as u64 * SEGMENT_IDS;
        let at = |d: Duration| tracer.at_us(seg.phase_start + d);
        let mut child_us: HashMap<u64, f64> = HashMap::new();
        for s in &seg.spans {
            *child_us.entry(s.id).or_default() += s.us();
        }
        spans.extend(seg.spans.iter().cloned());
        for (i, r) in seg.requests.iter().enumerate() {
            let (Some(a), Some(open)) = (r.arrival, r.open_start) else {
                continue;
            };
            let id = offset + i as u64;
            let open_end = open + Duration::from_secs_f64(r.open_us / 1e6);
            let open_span = Span {
                name: "gate.open_cursor",
                id,
                start_us: at(open),
                end_us: at(open_end),
                attrs: vec![("shed", r.shed as u8 as f64)],
            };
            let request = Span {
                name: "request",
                id,
                start_us: at(a.at),
                end_us: at(r.done.unwrap_or(open_end)),
                attrs: vec![
                    ("segment", k as f64),
                    ("job", r.job as f64),
                    ("tenant", a.tenant as f64),
                    ("rows", r.digest.rows as f64),
                    ("empty_polls", r.empty_polls as f64),
                    ("error", r.error.is_some() as u8 as f64),
                ],
            };
            let children = open_span.us() + child_us.get(&id).copied().unwrap_or(0.0);
            self_us.push(request.us() - children);
            spans.push(open_span);
            spans.push(request);
        }
        for (i, c) in seg.commits.iter().enumerate() {
            spans.push(tracer.span(
                "txn.commit",
                offset + i as u64,
                c.start,
                c.end,
                vec![("rows", c.rows as f64), ("bytes", c.bytes as f64)],
            ));
        }
        edges.push(Json::object([
            ("window_start_us", Json::Number(tracer.at_us(seg.before.at))),
            ("window_end_us", Json::Number(tracer.at_us(seg.after.at))),
            ("counters_start", trace::counters_json(&seg.before.counters)),
            ("counters_end", trace::counters_json(&seg.after.counters)),
        ]));
    }
    let mut summary = BTreeMap::new();
    summary.insert(
        "request_self_ms_p50".to_string(),
        stats::median(&self_us) / 1e3,
    );
    summary.insert("spans".to_string(), spans.len() as f64);
    trace::document(
        vec![
            ("workload", Json::string(w.name.clone())),
            ("seed", Json::Number(seed as f64)),
            ("seconds", Json::Number(seconds as f64)),
            ("segments", Json::Array(edges)),
        ],
        summary,
        &spans,
    )
}
