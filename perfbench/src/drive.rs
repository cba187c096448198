//! Drives a workload's load into a running [`Service`] from one generator
//! thread. Completions are stamped by `on_complete` callbacks on the
//! service's own threads and handed back over a channel.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use casoff_serve::{JobId, JobSpec, MetricsReport, Service, SubmitError};

use crate::oracle::Outcome;
use crate::procfs;
use crate::spans::Spans;
use crate::workload::Arrival;

/// Poll period of the traced run's `sample` spans.
const SAMPLE_PERIOD: Duration = Duration::from_millis(25);
/// Time allowed for outstanding jobs to finish once the load stops.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// One attempted job.
#[derive(Debug)]
pub struct JobRecord {
    /// What was submitted.
    pub spec: JobSpec,
    /// When the job was due: the submit call for a closed loop, the
    /// scheduled time for an open loop.
    pub due: Instant,
    /// How late the submit call started after `due`.
    pub lateness: Duration,
    /// Duration of the `submit` call.
    pub submit: Duration,
    /// Completion instant stamped by the callback.
    pub done: Option<Instant>,
    /// How the job ended.
    pub outcome: Outcome,
    /// Whether the job belongs to the measured window.
    pub measured: bool,
    id: Option<JobId>,
    span: Option<usize>,
}

/// Process CPU and service counters at one instant.
pub struct Snapshot {
    /// The instant the window edge was taken at.
    pub at: Instant,
    /// Process CPU seconds.
    pub cpu_s: f64,
    /// Service counters.
    pub metrics: MetricsReport,
}

fn snapshot(service: &Service, at: Instant) -> Snapshot {
    Snapshot {
        at,
        cpu_s: procfs::process_cpu_s(),
        metrics: service.metrics(),
    }
}

/// One periodic poll of the admission queue and device backlog.
pub struct Sample {
    /// When the poll ran.
    pub at: Instant,
    /// `Service::queue_depth`.
    pub queue_depth: usize,
    /// `Service::device_pending_s`.
    pub pending_s: Vec<f64>,
}

/// Everything a drive observed.
pub struct Driven {
    /// Every attempted job, in submission order.
    pub jobs: Vec<JobRecord>,
    /// Window start.
    pub start: Snapshot,
    /// Window end.
    pub end: Snapshot,
    /// Periodic polls (traced runs only).
    pub samples: Vec<Sample>,
}

struct Generator<'a> {
    service: &'a Service,
    spans: &'a mut Spans,
    tx: mpsc::Sender<(usize, Instant)>,
    rx: mpsc::Receiver<(usize, Instant)>,
    jobs: Vec<JobRecord>,
    outstanding: usize,
    samples: Vec<Sample>,
    next_sample: Instant,
}

impl<'a> Generator<'a> {
    fn new(service: &'a Service, spans: &'a mut Spans) -> Self {
        let (tx, rx) = mpsc::channel();
        Generator {
            service,
            spans,
            tx,
            rx,
            jobs: Vec::new(),
            outstanding: 0,
            samples: Vec::new(),
            next_sample: Instant::now(),
        }
    }

    /// Submit `spec`, due at `due`; returns whether it was admitted. A
    /// refused job is recorded as such and never retried.
    fn submit(&mut self, spec: JobSpec, due: Instant, measured: bool) -> bool {
        let index = self.jobs.len();
        let job = Some(index as u64);
        let span = self.spans.record("job", due, due, None, job);
        let t0 = Instant::now();
        let result = self.service.submit(spec.clone());
        let t1 = Instant::now();
        self.spans.record("submit", t0, t1, span, job);
        let mut record = JobRecord {
            spec,
            due,
            lateness: t0.saturating_duration_since(due),
            submit: t1 - t0,
            done: None,
            outcome: Outcome::Pending,
            measured,
            id: None,
            span,
        };
        let admitted = match result {
            Ok(id) => {
                let tx = self.tx.clone();
                // The receiver outlives the service, so the send only
                // fails if the generator already gave up on the job.
                let registered = self.service.on_complete(id, move |_| {
                    let _ = tx.send((index, Instant::now()));
                });
                match registered {
                    Ok(()) => {
                        record.id = Some(id);
                        self.outstanding += 1;
                        true
                    }
                    Err(e) => {
                        record.outcome = Outcome::WaitError(e.to_string());
                        false
                    }
                }
            }
            Err(SubmitError::Shed { .. }) => {
                record.outcome = Outcome::Shed;
                false
            }
            Err(e) => {
                record.outcome = Outcome::Rejected(format!("{e:?}"));
                false
            }
        };
        if !admitted {
            self.spans.close(span, t1);
        }
        self.jobs.push(record);
        admitted
    }

    /// Wait until `until` for one completion and collect it; returns its
    /// instant. Polls the service when a traced sample is due.
    fn pump(&mut self, until: Instant) -> Option<Instant> {
        let wake = if self.spans.on() {
            until.min(self.next_sample)
        } else {
            until
        };
        let got = match self
            .rx
            .recv_timeout(wake.saturating_duration_since(Instant::now()))
        {
            Ok((index, at)) => {
                self.collect(index, at);
                Some(at)
            }
            Err(_) => None,
        };
        self.sample();
        got
    }

    fn collect(&mut self, index: usize, at: Instant) {
        let record = &mut self.jobs[index];
        record.done = Some(at);
        self.spans.close(record.span, at);
        let id = record.id.expect("only admitted jobs complete");
        let t0 = Instant::now();
        let result = self.service.wait(id);
        self.spans.record(
            "collect",
            t0,
            Instant::now(),
            record.span,
            Some(index as u64),
        );
        record.outcome = match result {
            Ok(records) => Outcome::Done(records),
            Err(e) => Outcome::WaitError(e.to_string()),
        };
        self.outstanding -= 1;
    }

    fn sample(&mut self) {
        let now = Instant::now();
        if !self.spans.on() || now < self.next_sample {
            return;
        }
        let queue_depth = self.service.queue_depth();
        let pending_s = self.service.device_pending_s();
        let end = Instant::now();
        self.spans.record("sample", now, end, None, None);
        self.samples.push(Sample {
            at: now,
            queue_depth,
            pending_s,
        });
        self.next_sample = end + SAMPLE_PERIOD;
    }

    /// Collect until nothing is outstanding or `limit` passes; jobs still
    /// outstanding then stay [`Outcome::Pending`].
    fn drain(&mut self, limit: Instant) {
        while self.outstanding > 0 && Instant::now() < limit {
            self.pump(limit);
        }
    }

    fn finish(self, start: Option<Snapshot>, end: Option<Snapshot>) -> Result<Driven, String> {
        match (start, end) {
            (Some(start), Some(end)) => Ok(Driven {
                jobs: self.jobs,
                start,
                end,
                samples: self.samples,
            }),
            _ => Err(format!(
                "the measured window never closed ({} jobs attempted, {} outstanding)",
                self.jobs.len(),
                self.outstanding
            )),
        }
    }
}

/// Closed loop: keep `window` jobs from `specs` outstanding. The window
/// opens at the first completion after `warmup` and closes at the first
/// completion `measure` later, so it spans whole completion intervals.
/// Jobs submitted inside it are the measured set.
pub fn closed_loop(
    service: &Service,
    specs: &mut dyn Iterator<Item = JobSpec>,
    window: usize,
    warmup: Duration,
    measure: Duration,
    spans: &mut Spans,
) -> Result<Driven, String> {
    let mut g = Generator::new(service, spans);
    let load_start = Instant::now();
    let give_up = load_start + warmup + measure + DRAIN_LIMIT;
    let (mut start, mut end): (Option<Snapshot>, Option<Snapshot>) = (None, None);
    while end.is_none() && Instant::now() < give_up {
        while g.outstanding < window {
            let spec = specs.next().expect("job streams are endless");
            if !g.submit(spec, Instant::now(), start.is_some()) {
                break;
            }
        }
        if g.outstanding == 0 {
            // Everything was refused; back off instead of spinning.
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        let Some(at) = g.pump(give_up) else { continue };
        match &start {
            None if at >= load_start + warmup => start = Some(snapshot(service, at)),
            Some(s) if at >= s.at + measure => end = Some(snapshot(service, at)),
            _ => {}
        }
    }
    g.drain(give_up);
    g.finish(start, end)
}

/// Open loop: submit each arrival at its due time, whatever the backlog.
/// The window is `[warmup, warmup + measure)` after the load starts; jobs
/// due inside it are the measured set.
pub fn open_loop(
    service: &Service,
    arrivals: &[Arrival],
    warmup: Duration,
    measure: Duration,
    spans: &mut Spans,
) -> Result<Driven, String> {
    let mut g = Generator::new(service, spans);
    let load_start = Instant::now();
    let (window_start, window_end) = (load_start + warmup, load_start + warmup + measure);
    let mut start: Option<Snapshot> = None;
    let wait_until = |g: &mut Generator<'_>, start: &mut Option<Snapshot>, due: Instant| loop {
        let now = Instant::now();
        if start.is_none() && now >= window_start {
            *start = Some(snapshot(service, window_start));
        }
        if now >= due {
            break;
        }
        g.pump(due);
    };
    for arrival in arrivals {
        let due = load_start + Duration::from_secs_f64(arrival.due_s);
        wait_until(&mut g, &mut start, due);
        g.submit(
            arrival.spec.clone(),
            due,
            (window_start..window_end).contains(&due),
        );
    }
    wait_until(&mut g, &mut start, window_end);
    let end = Some(snapshot(service, window_end));
    g.drain(window_end + DRAIN_LIMIT);
    g.finish(start, end)
}
