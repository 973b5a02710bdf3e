//! The load generator: one reader thread per workload (plus the writer
//! in `htap_ingest`).
//!
//! The reader loop does two jobs in turn:
//! * it opens a cursor for every arrival that has come due, on its
//!   tenant's session (`open_cursor_with`); a front-door `Overloaded` is a
//!   shed;
//! * it polls every open cursor once (`fetch` with a zero timeout), folds
//!   delivered pages into an order-insensitive digest, and checks the
//!   answer at the done page.
//!
//! A round that delivers nothing sleeps one poll interval, or less when
//! the next arrival is due sooner. Latency runs from the *scheduled*
//! arrival, so harness lag counts against the system rather than thinning
//! the load.

use crate::schedule::Arrival;
use crate::stats::{record_hash, Digest};
use crate::trace::{Span, Tracer};
use rede_claims::Claim;
use rede_common::{RedeError, Result};
use rede_core::gate::{CursorId, HarborGate, QueryOptions, SessionId};
use rede_core::Job;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How a finished request's answer is checked.
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// Against a one-shot reference digest.
    Reference(Digest),
    /// Patient-history probe under concurrent ingest: every record must
    /// belong to the patient. After the writer stops, the answer must hold
    /// the patient's pre-load rows and lie inside the final answer (the
    /// record hashes are kept for that).
    Patient(i64),
}

/// Everything the harness learned about one arrival.
#[derive(Debug, Clone, Default)]
pub struct Request {
    pub arrival: Option<Arrival>,
    pub job: usize,
    /// Open call start, relative to the phase start.
    pub open_start: Option<Duration>,
    pub open_us: f64,
    pub shed: bool,
    /// A cursor was opened (neither shed nor refused).
    pub admitted: bool,
    /// Done page, relative to the phase start.
    pub done: Option<Duration>,
    /// First poll after the cursor opened, relative to the phase start.
    pub first_poll: Option<Duration>,
    pub pages: u32,
    pub empty_polls: u32,
    pub digest: Digest,
    /// Record hashes of a patient probe (for the final-answer check).
    pub hashes: Vec<u64>,
    pub error: Option<String>,
}

impl Request {
    /// Latency from the scheduled arrival to the verified done page.
    pub fn latency(&self) -> Option<Duration> {
        match (self.done, self.arrival, &self.error) {
            (Some(done), Some(a), None) => Some(done.saturating_sub(a.at)),
            _ => None,
        }
    }

    pub fn completed(&self) -> bool {
        self.latency().is_some()
    }
}

/// What one phase of load produced.
pub struct Phase {
    pub start: Instant,
    pub requests: Vec<Request>,
    /// Duration of every pager round that polled at least one cursor.
    pub rounds_ms: Vec<f64>,
    /// Sampled total stage-queue depth across nodes.
    pub queue_depths: Vec<f64>,
    /// Pager spans (`gate.fetch`); the `request`/`gate.open_cursor` spans
    /// are derived from `requests` afterwards.
    pub spans: Vec<Span>,
    /// `snapshots_active` when the arrival window ended.
    pub snapshots_at_end: u64,
}

pub struct Load<'a> {
    pub gate: &'a HarborGate,
    pub sessions: &'a [SessionId],
    pub jobs: &'a [Job],
    pub checks: &'a [Check],
    pub schedule: &'a [Arrival],
    /// Job index of each arrival.
    pub job_of: &'a [usize],
    pub page_size: usize,
    pub poll_interval: Duration,
    pub queue_sample: Duration,
    /// Length of the arrival window the schedule spans.
    pub window: Duration,
    /// Raise this flag once the schedule's window has elapsed (the htap
    /// writer's stop signal).
    pub stop_at_end: Option<&'a AtomicBool>,
    pub tracer: Option<&'a Tracer>,
    /// Give up on the phase this long after its last arrival.
    pub drain_limit: Duration,
}

impl Load<'_> {
    fn snapshots_active(&self) -> u64 {
        self.gate.scheduler().cluster().metrics().snapshots_active()
    }

    /// Drive the whole schedule and drain it.
    pub fn run(&self) -> Result<Phase> {
        let t0 = Instant::now();
        let mut pager = Pager {
            load: self,
            t0,
            requests: vec![Request::default(); self.schedule.len()],
            active: Vec::new(),
            rounds_ms: Vec::new(),
            queue_depths: Vec::new(),
            spans: Vec::new(),
            last_sample: t0,
            snapshots_at_end: None,
        };
        for (i, a) in self.schedule.iter().enumerate() {
            pager.requests[i].arrival = Some(*a);
            pager.requests[i].job = self.job_of[i];
        }
        pager.run(t0 + self.window + self.drain_limit)?;
        Ok(Phase {
            start: t0,
            requests: pager.requests,
            rounds_ms: pager.rounds_ms,
            queue_depths: pager.queue_depths,
            spans: pager.spans,
            snapshots_at_end: pager
                .snapshots_at_end
                .unwrap_or_else(|| self.snapshots_active()),
        })
    }
}

struct Pager<'l, 'a> {
    load: &'l Load<'a>,
    t0: Instant,
    requests: Vec<Request>,
    /// Open cursors, by arrival index.
    active: Vec<(usize, CursorId)>,
    rounds_ms: Vec<f64>,
    queue_depths: Vec<f64>,
    spans: Vec<Span>,
    last_sample: Instant,
    snapshots_at_end: Option<u64>,
}

fn is_poll_timeout(err: &RedeError) -> bool {
    matches!(err, RedeError::Exec(msg) if msg.contains("fetch timed out"))
}

impl Pager<'_, '_> {
    /// Open the cursor of arrival `idx`, which has come due.
    fn open(&mut self, idx: usize) {
        let load = self.load;
        let a = load.schedule[idx];
        let start = Instant::now();
        let result = load.gate.open_cursor_with(
            load.sessions[a.tenant],
            &load.jobs[load.job_of[idx]],
            QueryOptions::default(),
        );
        let r = &mut self.requests[idx];
        r.open_us = start.elapsed().as_secs_f64() * 1e6;
        r.open_start = Some(start - self.t0);
        match result {
            Ok(cursor) => {
                r.admitted = true;
                self.active.push((idx, cursor));
            }
            Err(RedeError::Overloaded(_)) => r.shed = true,
            Err(err) => r.error = Some(format!("open: {err}")),
        }
    }

    fn check_window_end(&mut self) {
        if self.snapshots_at_end.is_none() && self.t0.elapsed() >= self.load.window {
            self.snapshots_at_end = Some(self.load.snapshots_active());
            if let Some(flag) = self.load.stop_at_end {
                flag.store(true, Ordering::SeqCst);
            }
        }
    }

    /// Poll every open cursor once; true when any page arrived.
    fn round(&mut self) -> bool {
        if self.last_sample.elapsed() >= self.load.queue_sample {
            self.last_sample = Instant::now();
            let depths = self.load.gate.scheduler().stats().queue_depths;
            self.queue_depths.push(depths.iter().sum::<u64>() as f64);
        }
        if self.active.is_empty() {
            return false;
        }
        let round_start = Instant::now();
        let mut progress = false;
        let mut i = 0;
        while i < self.active.len() {
            let (idx, cursor) = self.active[i];
            let call = Instant::now();
            let result = self.load.gate.fetch(cursor, self.load.page_size);
            let r = &mut self.requests[idx];
            if r.first_poll.is_none() {
                r.first_poll = Some(call - self.t0);
            }
            let finished = match result {
                Err(err) if is_poll_timeout(&err) => {
                    r.empty_polls += 1;
                    false
                }
                Err(err) => {
                    r.error = Some(format!("fetch: {err}"));
                    true
                }
                Ok(page) => {
                    progress = true;
                    r.pages += 1;
                    let check = self.load.checks[r.job];
                    for record in &page.records {
                        let h = record_hash(record.bytes());
                        r.digest.add_hash(h);
                        if let Check::Patient(patient) = check {
                            r.hashes.push(h);
                            match Claim::parse(record) {
                                Ok(c) if c.patient_id == patient => {}
                                Ok(c) => {
                                    r.error.get_or_insert(format!(
                                        "history of patient {patient} holds a claim of patient {}",
                                        c.patient_id
                                    ));
                                }
                                Err(err) => {
                                    r.error.get_or_insert(format!("unparsable claim: {err}"));
                                }
                            }
                        }
                    }
                    if let Some(tracer) = self.load.tracer {
                        self.spans.push(tracer.span(
                            "gate.fetch",
                            idx as u64,
                            call,
                            Instant::now(),
                            vec![("rows", page.records.len() as f64)],
                        ));
                    }
                    if page.done {
                        r.done = Some(self.t0.elapsed());
                        if let Check::Reference(want) = check {
                            if r.digest != want && r.error.is_none() {
                                // The done page's size tells a lost tail
                                // (short answer, empty done page) from
                                // wrong rows.
                                r.error = Some(format!(
                                    "wrong answer for job {}: {} rows, reference has {}; \
                                     the done page (page {}) held {} rows",
                                    r.job,
                                    r.digest.rows,
                                    want.rows,
                                    r.pages,
                                    page.records.len()
                                ));
                            }
                        }
                    }
                    page.done
                }
            };
            if finished {
                self.active.swap_remove(i);
            } else {
                i += 1;
            }
        }
        self.rounds_ms
            .push(round_start.elapsed().as_secs_f64() * 1e3);
        progress
    }

    fn overdue(&mut self, deadline: Instant) -> Result<()> {
        if Instant::now() < deadline {
            return Ok(());
        }
        for (_, cursor) in self.active.drain(..) {
            let _ = self.load.gate.close_cursor(cursor);
        }
        Err(RedeError::Exec(
            "phase did not drain within its limit".to_string(),
        ))
    }

    fn run(&mut self, deadline: Instant) -> Result<()> {
        let mut next = 0;
        loop {
            while next < self.load.schedule.len()
                && self.t0 + self.load.schedule[next].at <= Instant::now()
            {
                self.open(next);
                next += 1;
            }
            self.check_window_end();
            let progress = self.round();
            if next == self.load.schedule.len() && self.active.is_empty() {
                return Ok(());
            }
            self.overdue(deadline)?;
            if !progress {
                let mut wait = self.load.poll_interval;
                if let Some(a) = self.load.schedule.get(next) {
                    wait = wait.min((self.t0 + a.at).saturating_duration_since(Instant::now()));
                }
                std::thread::sleep(wait);
            }
        }
    }
}
