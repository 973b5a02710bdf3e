//! Front-door unit tests: session caps, exact cursor pagination,
//! zero-pool-thread backpressure, and idle reaping that returns every
//! resource.

use super::*;
use crate::job::SeedInput;
use crate::maintenance::IndexBuilder;
use crate::prebuilt::{
    BtreeRangeDereferencer, DelimitedInterpreter, FieldType, IndexEntryReferencer,
    LookupDereferencer,
};
use crate::scheduler::SchedulerConfig;
use crate::traits::{DerefInput, Dereferencer, StageCtx};
use rede_common::Value;
use rede_storage::{FileSpec, IndexSpec, IoModel, Partitioning, SimCluster};
use std::cell::RefCell;

thread_local! {
    /// Pause hook run by `HarborGate::fetch` after every empty drain, on
    /// the fetching thread (so a test's hook never fires in another test).
    static AFTER_EMPTY_DRAIN: RefCell<Option<Box<dyn FnMut()>>> = RefCell::new(None);
}

/// Called by `HarborGate::fetch` between an empty drain and its decision.
pub(super) fn after_empty_drain() {
    AFTER_EMPTY_DRAIN.with(|hook| {
        if let Some(f) = hook.borrow_mut().as_mut() {
            f();
        }
    });
}

/// 4-node cluster with a `base` file (key | key%7 | key*2) and its
/// weight index — the same fixture shape the scheduler tests use.
fn cluster(rows: i64) -> SimCluster {
    let c = SimCluster::builder()
        .nodes(4)
        .io_model(IoModel::zero())
        .build()
        .unwrap();
    let f = c
        .create_file(FileSpec::new("base", Partitioning::hash(8)))
        .unwrap();
    for i in 0..rows {
        f.insert(
            Value::Int(i),
            Record::from_text(&format!("{i}|{}|{}", i % 7, i * 2)),
        )
        .unwrap();
    }
    IndexBuilder::new(
        c.clone(),
        IndexSpec::global("base.weight", "base", 8),
        Arc::new(DelimitedInterpreter::pipe(2, FieldType::Int)),
    )
    .build()
    .unwrap();
    c
}

/// Index-probe job over `base.weight` ∈ [lo, hi] fetching base records.
fn range_job(lo: i64, hi: i64) -> Job {
    Job::builder("range")
        .seed(SeedInput::Range {
            file: "base.weight".into(),
            lo: Value::Int(lo),
            hi: Value::Int(hi),
        })
        .dereference(
            "probe",
            Arc::new(BtreeRangeDereferencer::new("base.weight")),
        )
        .reference("to-ptr", Arc::new(IndexEntryReferencer::new("base")))
        .dereference("fetch", Arc::new(LookupDereferencer::new("base")))
        .build()
        .unwrap()
}

fn gate_over(c: &SimCluster, config: GateConfig) -> HarborGate {
    HarborGate::with_config(HarborScheduler::with_defaults(c.clone()), config)
}

fn sorted_bytes(records: &[Record]) -> Vec<Vec<u8>> {
    let mut v: Vec<Vec<u8>> = records.iter().map(|r| r.bytes().to_vec()).collect();
    v.sort();
    v
}

/// A scheduler small enough that a full cursor sink provably stalls a
/// 400-row `range_job`: saturation parks only *future* dispatches, so up
/// to `pool_threads × max_batch` = 4 × 32 = 128 records still land after
/// the sink fills — fewer than the result, so the job cannot finish
/// unfetched.
fn stall_sized() -> SchedulerConfig {
    SchedulerConfig {
        pool_threads: 4,
        ..SchedulerConfig::default()
    }
}

/// Poll `cond` up to 10 s; panic with `what` if it never holds.
fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn session_cap_rejects_with_overloaded_and_frees_on_close() {
    let c = cluster(50);
    let gate = gate_over(
        &c,
        GateConfig {
            max_sessions_per_tenant: Some(2),
            ..GateConfig::default()
        },
    );
    let s1 = gate.open_session("acme").unwrap();
    let _s2 = gate.open_session("acme").unwrap();
    // A *different* tenant is not affected by acme's cap.
    let _other = gate.open_session("globex").unwrap();
    let err = gate.open_session("acme").unwrap_err();
    assert!(matches!(err, RedeError::Overloaded(_)), "got {err:?}");
    assert_eq!(gate.stats().shed_commands, 1);
    assert_eq!(c.metrics().snapshot().shed_commands, 1);
    assert_eq!(c.metrics().sessions_active(), 3);
    // Closing frees the slot immediately.
    gate.close_session(s1).unwrap();
    assert!(gate.open_session("acme").is_ok());
    assert_eq!(c.metrics().sessions_active(), 3);
}

#[test]
fn cursor_cap_rejects_with_overloaded() {
    let c = cluster(200);
    let gate = gate_over(
        &c,
        GateConfig {
            max_cursors_per_session: 2,
            ..GateConfig::default()
        },
    );
    let s = gate.open_session("acme").unwrap();
    let job = range_job(0, 100);
    let c1 = gate.open_cursor(s, &job).unwrap();
    let _c2 = gate.open_cursor(s, &job).unwrap();
    let err = gate.open_cursor(s, &job).unwrap_err();
    assert!(matches!(err, RedeError::Overloaded(_)), "got {err:?}");
    assert_eq!(gate.stats().shed_commands, 1);
    // Closing a cursor frees the slot.
    gate.close_cursor(c1).unwrap();
    assert!(gate.open_cursor(s, &job).is_ok());
}

#[test]
fn cursor_pages_concatenate_to_the_one_shot_result() {
    let c = cluster(300);
    // One-shot reference through the plain collect path.
    let reference = {
        let sched = HarborScheduler::with_defaults(c.clone());
        let result = sched
            .submit_with(&range_job(0, 400), SubmitOptions::new().collecting())
            .unwrap()
            .wait()
            .unwrap();
        assert!(result.count > 0);
        sorted_bytes(&result.records)
    };

    let gate = gate_over(&c, GateConfig::default());
    let s = gate.open_session("acme").unwrap();
    let cur = gate.open_cursor(s, &range_job(0, 400)).unwrap();
    let mut pages = Vec::new();
    let mut all = Vec::new();
    loop {
        let page = gate.fetch(cur, 7).unwrap();
        assert!(page.records.len() <= 7, "page overflows requested size");
        assert_eq!(
            page.offset,
            all.len() as u64,
            "page offset must be the exact resume point"
        );
        all.extend(page.records.iter().cloned());
        pages.push(page.records.len());
        if page.done {
            break;
        }
    }
    assert_eq!(sorted_bytes(&all), reference, "pages dropped/duped rows");
    // The done page released the cursor; fetching again is NotFound.
    assert!(matches!(
        gate.fetch(cur, 7).unwrap_err(),
        RedeError::NotFound(_)
    ));
    assert_eq!(gate.stats().cursors, 0);
    assert_eq!(c.metrics().cursors_active(), 0);
}

/// Delegates to `inner` once `open` is set: holds every emission of its
/// stage back until the test releases it.
struct LatchedDeref {
    inner: BtreeRangeDereferencer,
    open: Arc<(Mutex<bool>, parking_lot::Condvar)>,
}

impl Dereferencer for LatchedDeref {
    fn dereference(
        &self,
        input: &DerefInput,
        ctx: &StageCtx,
        emit: &mut dyn FnMut(Record),
    ) -> Result<()> {
        let (open, cv) = &*self.open;
        let mut open = open.lock();
        while !*open {
            cv.wait(&mut open);
        }
        drop(open);
        self.inner.dereference(input, ctx, emit)
    }
}

/// Regression: a job that emits its last records and finishes between
/// fetch's empty drain and its completion check must not end the cursor
/// with an empty done page — those records would be lost.
#[test]
fn tail_emitted_between_empty_drain_and_finish_is_not_lost() {
    let c = cluster(300);
    let probe = || {
        Job::builder("probe").seed(SeedInput::Range {
            file: "base.weight".into(),
            lo: Value::Int(0),
            hi: Value::Int(400),
        })
    };
    let reference = {
        let sched = HarborScheduler::with_defaults(c.clone());
        let job = probe()
            .dereference(
                "probe",
                Arc::new(BtreeRangeDereferencer::new("base.weight")),
            )
            .build()
            .unwrap();
        let result = sched
            .submit_with(&job, SubmitOptions::new().collecting())
            .unwrap()
            .wait()
            .unwrap();
        assert!(result.count > 0);
        sorted_bytes(&result.records)
    };

    let open = Arc::new((Mutex::new(false), parking_lot::Condvar::new()));
    let job = probe()
        .dereference(
            "latched-probe",
            Arc::new(LatchedDeref {
                inner: BtreeRangeDereferencer::new("base.weight"),
                open: open.clone(),
            }),
        )
        .build()
        .unwrap();
    let gate = gate_over(&c, GateConfig::default());
    let s = gate.open_session("acme").unwrap();
    let cur = gate.open_cursor(s, &job).unwrap();
    let handle = gate.state.lock().cursors[&cur.0].handle.clone();

    // On the first empty drain, let the job emit everything and finish
    // before fetch gets to look at it.
    let mut fired = false;
    AFTER_EMPTY_DRAIN.with(|hook| {
        *hook.borrow_mut() = Some(Box::new(move || {
            if !fired {
                fired = true;
                *open.0.lock() = true;
                open.1.notify_all();
                eventually("latched job finishes", || handle.is_finished());
            }
        }));
    });
    let mut all = Vec::new();
    loop {
        let page = gate.fetch(cur, 1000).unwrap();
        assert_eq!(page.offset, all.len() as u64);
        all.extend(page.records);
        if page.done {
            break;
        }
    }
    AFTER_EMPTY_DRAIN.with(|hook| hook.borrow_mut().take());
    assert_eq!(sorted_bytes(&all), reference, "the emitted tail was lost");
    assert_eq!(gate.stats().cursors, 0);
}

#[test]
fn empty_result_yields_a_single_done_page() {
    let c = cluster(20);
    let gate = gate_over(&c, GateConfig::default());
    let s = gate.open_session("acme").unwrap();
    // weight ∈ [1000, 2000] matches nothing (weights are 0..=6 doubled).
    let cur = gate.open_cursor(s, &range_job(1000, 2000)).unwrap();
    let page = gate.fetch(cur, 10).unwrap();
    assert!(page.records.is_empty());
    assert!(page.done);
    assert_eq!(page.offset, 0);
    assert_eq!(gate.stats().cursors, 0);
}

#[test]
fn stalled_cursor_blocks_emits_without_consuming_pool_threads() {
    let c = cluster(400);
    let gate = HarborGate::with_config(
        HarborScheduler::new(c.clone(), stall_sized()),
        GateConfig {
            cursor_buffer: 4,
            ..GateConfig::default()
        },
    );
    let s = gate.open_session("acme").unwrap();
    let cur = gate.open_cursor(s, &range_job(0, 800)).unwrap();

    // Never fetch: the sink saturates at 4 records and the job's pooled
    // work parks in the queues.
    let handle = gate.state.lock().cursors[&cur.0].handle.clone();
    eventually("sink saturation", || handle.output_stalled());
    // Give in-flight tasks time to land, then hold the invariant: the
    // job is alive but costs zero pool threads while stalled.
    eventually("pool threads released", || handle.pool_threads_held() == 0);
    std::thread::sleep(Duration::from_millis(50));
    assert!(!handle.is_finished(), "job must be stalled, not finished");
    assert_eq!(
        handle.pool_threads_held(),
        0,
        "a stalled cursor must not hold pool threads"
    );
    assert!(
        c.metrics().snapshot().cursor_stalls >= 1,
        "saturation must count a cursor stall"
    );

    // Draining resumes the job and delivers the complete result.
    let mut all = Vec::new();
    loop {
        let page = gate.fetch(cur, 16).unwrap();
        all.extend(page.records);
        if page.done {
            break;
        }
    }
    assert_eq!(all.len(), 400, "stall/resume dropped records");
}

#[test]
fn idle_cursor_reap_cancels_job_and_returns_all_resources() {
    let c = cluster(400);
    let permits_at_rest = c.available_iops_permits();
    let gate = HarborGate::with_config(
        HarborScheduler::new(c.clone(), stall_sized()),
        GateConfig {
            cursor_buffer: 2,
            cursor_idle_timeout: Duration::from_millis(40),
            ..GateConfig::default()
        },
    );
    let s = gate.open_session("acme").unwrap();
    let cur = gate.open_cursor(s, &range_job(0, 800)).unwrap();
    let handle = gate.state.lock().cursors[&cur.0].handle.clone();
    eventually("sink saturation", || handle.output_stalled());

    std::thread::sleep(Duration::from_millis(60));
    let report = gate.sweep_idle();
    assert_eq!(report.cursors_reaped, 1);
    assert_eq!(gate.stats().cursors, 0);
    assert_eq!(c.metrics().cursors_active(), 0);
    assert!(matches!(
        gate.fetch(cur, 4).unwrap_err(),
        RedeError::NotFound(_)
    ));

    // The backing job was cancelled and every resource flows back.
    assert!(matches!(handle.wait(), Err(RedeError::Cancelled(_))));
    eventually("resource return after reap", || {
        handle.permits_held() == 0
            && handle.pool_threads_held() == 0
            && c.available_iops_permits() == permits_at_rest
            && gate
                .scheduler()
                .stats()
                .queue_depths
                .iter()
                .all(|&d| d == 0)
    });
    assert_eq!(gate.scheduler().stats().active_jobs, 0);
}

#[test]
fn idle_session_expires_and_frees_the_tenant_slot() {
    let c = cluster(20);
    let gate = gate_over(
        &c,
        GateConfig {
            max_sessions_per_tenant: Some(1),
            session_idle_timeout: Duration::from_millis(30),
            ..GateConfig::default()
        },
    );
    gate.open_session("acme").unwrap();
    assert!(matches!(
        gate.open_session("acme").unwrap_err(),
        RedeError::Overloaded(_)
    ));
    std::thread::sleep(Duration::from_millis(50));
    let report = gate.sweep_idle();
    assert_eq!(report.sessions_expired, 1);
    assert_eq!(c.metrics().sessions_active(), 0);
    // The expired slot is usable again.
    assert!(gate.open_session("acme").is_ok());
}

#[test]
fn scheduler_admission_bound_sheds_at_the_front_door() {
    let c = cluster(400);
    let gate = HarborGate::with_config(
        HarborScheduler::new(
            c.clone(),
            SchedulerConfig {
                max_tenant_queue_depth: Some(1),
                ..SchedulerConfig::default()
            },
        ),
        GateConfig {
            cursor_buffer: 2,
            ..GateConfig::default()
        },
    );
    let s = gate.open_session("acme").unwrap();
    // First cursor stalls (never fetched) and occupies the tenant's one
    // admission slot; the second must shed at the front door.
    let _c1 = gate.open_cursor(s, &range_job(0, 800)).unwrap();
    let err = gate.open_cursor(s, &range_job(0, 800)).unwrap_err();
    assert!(matches!(err, RedeError::Overloaded(_)), "got {err:?}");
    assert_eq!(gate.stats().shed_commands, 1);
    assert_eq!(gate.scheduler().stats().rejected_jobs, 1);
}

#[test]
fn command_handler_drives_the_full_path() {
    let c = cluster(100);
    let gate = gate_over(&c, GateConfig::default());
    let Reply::SessionOpened(s) = gate
        .handle(Command::OpenSession {
            tenant: "acme".into(),
        })
        .unwrap()
    else {
        panic!("wrong reply")
    };
    let Reply::CursorOpened(cur) = gate
        .handle(Command::Query {
            session: s,
            job: range_job(0, 40),
            opts: QueryOptions::default(),
        })
        .unwrap()
    else {
        panic!("wrong reply")
    };
    let mut rows = 0usize;
    loop {
        let Reply::Page(page) = gate
            .handle(Command::Fetch {
                cursor: cur,
                max_rows: 5,
            })
            .unwrap()
        else {
            panic!("wrong reply")
        };
        rows += page.records.len();
        if page.done {
            break;
        }
    }
    assert_eq!(rows, 21);
    let Reply::Stats(stats) = gate.handle(Command::Stats).unwrap() else {
        panic!("wrong reply")
    };
    assert_eq!(stats.sessions, 1);
    assert_eq!(stats.cursors, 0);
    assert!(matches!(
        gate.handle(Command::CloseSession { session: s }).unwrap(),
        Reply::SessionClosed
    ));
}

#[test]
fn closing_a_mid_stream_cursor_cancels_and_cleans_up() {
    let c = cluster(400);
    let gate = gate_over(
        &c,
        GateConfig {
            cursor_buffer: 8,
            ..GateConfig::default()
        },
    );
    let s = gate.open_session("acme").unwrap();
    let cur = gate.open_cursor(s, &range_job(0, 800)).unwrap();
    // Take one page, then walk away mid-stream.
    let page = gate.fetch(cur, 4).unwrap();
    assert!(!page.records.is_empty());
    let handle = gate.state.lock().cursors[&cur.0].handle.clone();
    gate.close_cursor(cur).unwrap();
    assert_eq!(gate.stats().cursors, 0);
    eventually("mid-stream close returns resources", || {
        handle.is_finished() && handle.permits_held() == 0 && handle.pool_threads_held() == 0
    });
    // The session survives its cursor.
    assert!(gate.open_cursor(s, &range_job(0, 10)).is_ok());
}

#[test]
fn gate_drop_closes_everything() {
    let c = cluster(200);
    {
        let gate = gate_over(
            &c,
            GateConfig {
                cursor_buffer: 2,
                ..GateConfig::default()
            },
        );
        let s = gate.open_session("acme").unwrap();
        let _cur = gate.open_cursor(s, &range_job(0, 400)).unwrap();
        assert_eq!(c.metrics().sessions_active(), 1);
        assert_eq!(c.metrics().cursors_active(), 1);
    }
    assert_eq!(c.metrics().sessions_active(), 0);
    assert_eq!(c.metrics().cursors_active(), 0);
}
