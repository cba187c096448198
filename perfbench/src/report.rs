//! The end-to-end and per-layer metrics of one run.

use std::time::{Duration, Instant};

use casoff_serve::metrics::DeviceReport;
use casoff_serve::MetricsReport;

use crate::drive::{Driven, JobRecord};
use crate::oracle::{Tally, Verdict};
use crate::replay::Replay;
use crate::stats::{self, mean, median, ratio};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Sample count and how the value was taken.
    pub note: String,
}

fn metric(name: &str, value: f64, unit: &str, note: impl Into<String>) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
        note: note.into(),
    }
}

/// The end-to-end metric names, in report order.
pub const END_TO_END: [&str; 9] = [
    "jobs_per_s",
    "latency_p50_ms",
    "latency_tail_ms",
    "slo_met_share",
    "cpu_ms_per_job",
    "sim_device_ms_per_job",
    "failed_share",
    "setup_s",
    "peak_rss_mib",
];

/// The per-layer metric names of a traced run, in report order.
pub const PER_LAYER: [&str; 42] = [
    "genome.synth_s",
    "serve.start_s",
    "serve.frontend.submit_us_p50",
    "serve.frontend.submit_us_tail",
    "serve.queue.depth_mean",
    "serve.queue.depth_max",
    "serve.queue.sheds",
    "serve.results.hit_rate",
    "serve.results.merge_rate",
    "serve.batcher.jobs_per_batch",
    "serve.cache.hit_rate",
    "serve.cache.evictions",
    "serve.cache.encode_us_per_chunk",
    "serve.candidates.hit_rate",
    "serve.candidates.evictions",
    "core.kernels.finder_skip_rate",
    "serve.scheduler.resident_hit_rate",
    "serve.scheduler.steals_per_batch",
    "serve.scheduler.prediction_error",
    "serve.scheduler.busy_imbalance",
    "serve.scheduler.device_pending_ms_mean",
    "core.specialize.variant_hit_rate",
    "core.specialize.compiles",
    "core.specialize.compile_us_p95",
    "core.kernels.comparer_launches_per_job",
    "core.kernels.finder_launches_per_job",
    "core.kernels.fused_share",
    "core.chunk.host_us_per_batch",
    "core.chunk.host_share",
    "serve.orchestration.host_share",
    "core.chunk.prepare_us_per_batch",
    "core.chunk.run_us_per_batch",
    "gpu_sim.finder_sim_ms_per_job",
    "gpu_sim.comparer_sim_ms_per_job",
    "gpu_sim.transfer_sim_ms_per_job",
    "opencl_rt.busy_ms_per_job",
    "sycl_rt.busy_ms_per_job",
    "opencl_rt.h2d_bytes_per_batch",
    "sycl_rt.h2d_bytes_per_batch",
    "gpu_sim.h2d_skipped_share",
    "opencl_rt.replay_host_us_per_batch",
    "sycl_rt.replay_host_us_per_batch",
];

/// A run's jobs with their oracle verdicts, reduced to what the metrics
/// need.
pub struct Judged<'a> {
    /// The drive.
    pub driven: &'a Driven,
    /// One verdict per job, in submission order.
    pub verdicts: Vec<Verdict>,
}

impl Judged<'_> {
    fn window(&self) -> (Instant, Instant) {
        (self.driven.start.at, self.driven.end.at)
    }

    fn window_s(&self) -> f64 {
        let (a, b) = self.window();
        (b - a).as_secs_f64()
    }

    fn judged(&self) -> impl Iterator<Item = (&JobRecord, Verdict)> {
        self.driven.jobs.iter().zip(self.verdicts.iter().copied())
    }

    /// Jobs that completed inside the window.
    pub fn completed_in_window(&self) -> usize {
        let (a, b) = self.window();
        self.driven
            .jobs
            .iter()
            .filter(|j| j.done.is_some_and(|d| d >= a && d <= b))
            .count()
    }

    fn correct_in_window(&self) -> usize {
        let (a, b) = self.window();
        self.judged()
            .filter(|(j, v)| *v == Verdict::Correct && j.done.is_some_and(|d| d >= a && d <= b))
            .count()
    }

    /// Failure accounting over the measured set.
    pub fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for (_, v) in self.judged().filter(|(j, _)| j.measured) {
            t.add(v);
        }
        t
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.driven
            .jobs
            .iter()
            .filter(|j| j.measured)
            .filter_map(|j| {
                j.done
                    .map(|d| (d.saturating_duration_since(j.due)).as_secs_f64() * 1e3)
            })
            .collect()
    }

    fn device_delta(&self) -> Vec<DeviceDelta> {
        device_deltas(&self.driven.start.metrics, &self.driven.end.metrics)
    }

    fn cpu_s(&self) -> f64 {
        self.driven.end.cpu_s - self.driven.start.cpu_s
    }
}

/// Device counters over the window.
struct DeviceDelta {
    api: String,
    busy_s: f64,
    batches: f64,
    steals: f64,
    h2d: f64,
    h2d_skipped: f64,
    resident_hits: f64,
    resident_misses: f64,
    abs_err_s: f64,
}

fn device_deltas(a: &MetricsReport, b: &MetricsReport) -> Vec<DeviceDelta> {
    let err_s = |d: &DeviceReport| d.prediction_error * d.busy_s;
    a.devices
        .iter()
        .zip(&b.devices)
        .map(|(x, y)| DeviceDelta {
            api: y.api.clone(),
            busy_s: y.busy_s - x.busy_s,
            batches: (y.batches - x.batches) as f64,
            steals: (y.steals - x.steals) as f64,
            h2d: (y.h2d_bytes - x.h2d_bytes) as f64,
            h2d_skipped: (y.h2d_skipped_bytes - x.h2d_skipped_bytes) as f64,
            resident_hits: (y.resident_hits - x.resident_hits) as f64,
            resident_misses: (y.resident_misses - x.resident_misses) as f64,
            abs_err_s: err_s(y) - err_s(x),
        })
        .collect()
}

/// Setup times of the measuring process.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Assembly synthesis.
    pub synth: Duration,
    /// `Service::start`.
    pub start: Duration,
}

/// The nine end-to-end metrics.
pub fn end_to_end(
    run: &Judged<'_>,
    setup: Setup,
    limit: Duration,
    peak_rss_mib: f64,
) -> Vec<Metric> {
    let window_s = run.window_s();
    let completed = run.completed_in_window();
    let correct = run.correct_in_window();
    let latencies = run.latencies_ms();
    let tally = run.tally();
    let n = latencies.len();
    let tail = stats::tail(&latencies).unwrap_or(stats::Tail {
        value: 0.0,
        percentile: 0.0,
        samples: 0,
        beyond: 0,
    });
    let limit_ms = limit.as_secs_f64() * 1e3;
    let met = run
        .judged()
        .filter(|(j, v)| j.measured && *v == Verdict::Correct)
        .filter(|(j, _)| {
            j.done
                .is_some_and(|d| d.saturating_duration_since(j.due) <= limit)
        })
        .count();
    let busy_s: f64 = run.device_delta().iter().map(|d| d.busy_s).sum();
    vec![
        metric(
            "jobs_per_s",
            ratio(correct as f64, window_s),
            "jobs/s",
            format!("{correct} correct completions in a {window_s:.3} s window"),
        ),
        metric("latency_p50_ms", median(&latencies), "ms", format!("n={n}")),
        metric(
            "latency_tail_ms",
            tail.value,
            "ms",
            format!(
                "p{:.2}, n={}, {} samples beyond",
                tail.percentile, tail.samples, tail.beyond
            ),
        ),
        metric(
            "slo_met_share",
            ratio(met as f64, tally.attempted as f64),
            "ratio",
            format!("{met}/{} within {limit_ms:.0} ms", tally.attempted),
        ),
        metric(
            "cpu_ms_per_job",
            ratio(run.cpu_s() * 1e3, completed as f64),
            "ms",
            format!("{:.3} CPU s over {completed} completions", run.cpu_s()),
        ),
        metric(
            "sim_device_ms_per_job",
            ratio(busy_s * 1e3, completed as f64),
            "ms",
            format!("{busy_s:.4} simulated device s over {completed} completions"),
        ),
        metric(
            "failed_share",
            tally.failed_share(),
            "ratio",
            format!(
                "{} of {} attempted: {} shed, {} rejected, {} wait errors, {} mismatches",
                tally.failed(),
                tally.attempted,
                tally.sheds,
                tally.rejections,
                tally.wait_errors,
                tally.mismatches
            ),
        ),
        metric(
            "setup_s",
            (setup.synth + setup.start).as_secs_f64(),
            "s",
            format!(
                "synth {:.4} s + start {:.4} s, n=1",
                setup.synth.as_secs_f64(),
                setup.start.as_secs_f64()
            ),
        ),
        metric(
            "peak_rss_mib",
            peak_rss_mib,
            "MiB",
            "VmHWM after the load drained",
        ),
    ]
}

/// The per-layer metrics of a traced run plus its replay.
pub fn per_layer(
    run: &Judged<'_>,
    setup: Setup,
    replay: &Replay,
    guides_per_job: usize,
) -> Vec<Metric> {
    let (a, b) = (&run.driven.start.metrics, &run.driven.end.metrics);
    let d = |f: fn(&MetricsReport) -> u64| (f(b) - f(a)) as f64;
    let completed = run.completed_in_window() as f64;
    let devices = run.device_delta();
    let sum = |f: fn(&DeviceDelta) -> f64| devices.iter().map(f).sum::<f64>();
    let by_api = |api: &str, f: fn(&DeviceDelta) -> f64| {
        devices
            .iter()
            .filter(|x| x.api.eq_ignore_ascii_case(api))
            .map(f)
            .sum::<f64>()
    };
    let (ws, we) = run.window();
    let window_samples: Vec<_> = run
        .driven
        .samples
        .iter()
        .filter(|s| s.at >= ws && s.at <= we)
        .collect();
    let submits_us: Vec<f64> = run
        .driven
        .jobs
        .iter()
        .filter(|j| j.measured)
        .map(|j| j.submit.as_secs_f64() * 1e6)
        .collect();
    let submit_tail = stats::tail(&submits_us).map_or(0.0, |t| t.value);

    let results_total = d(|m| m.results.hits) + d(|m| m.results.misses) + d(|m| m.results.merges);
    let batches = d(|m| m.batches_formed);
    let busy = sum(|x| x.busy_s);
    let max_busy = devices.iter().map(|x| x.busy_s).fold(0.0, f64::max);
    let host_us = replay.host_us_per_batch();
    let host_share = ratio(host_us * batches, run.cpu_s() * 1e6);
    let per_batch_us = |r: &crate::replay::ApiReplay, s: f64| ratio(s * 1e6, r.batches as f64);
    let all_batches = (replay.ocl.batches + replay.sycl.batches) as f64;
    let n = window_samples.len();
    let share = |part: f64, rest: f64| ratio(part, part + rest);

    vec![
        metric(
            "genome.synth_s",
            setup.synth.as_secs_f64(),
            "s",
            "timed synth::*_mini",
        ),
        metric(
            "serve.start_s",
            setup.start.as_secs_f64(),
            "s",
            "timed Service::start",
        ),
        metric(
            "serve.frontend.submit_us_p50",
            median(&submits_us),
            "us",
            format!("n={}", submits_us.len()),
        ),
        metric(
            "serve.frontend.submit_us_tail",
            submit_tail,
            "us",
            format!("n={}", submits_us.len()),
        ),
        metric(
            "serve.queue.depth_mean",
            mean(
                &window_samples
                    .iter()
                    .map(|s| s.queue_depth as f64)
                    .collect::<Vec<_>>(),
            ),
            "jobs",
            format!("{n} samples"),
        ),
        metric(
            "serve.queue.depth_max",
            b.queue_depth_high_water as f64,
            "jobs",
            "high water since start",
        ),
        metric("serve.queue.sheds", d(|m| m.jobs_shed), "count", "window"),
        metric(
            "serve.results.hit_rate",
            ratio(d(|m| m.results.hits), results_total),
            "ratio",
            "window",
        ),
        metric(
            "serve.results.merge_rate",
            ratio(d(|m| m.results.merges), results_total),
            "ratio",
            "window",
        ),
        metric(
            "serve.batcher.jobs_per_batch",
            ratio(d(|m| m.coalesced_jobs), batches),
            "jobs",
            "coalesced_jobs / batches_formed",
        ),
        metric(
            "serve.cache.hit_rate",
            share(d(|m| m.cache.hits), d(|m| m.cache.misses)),
            "ratio",
            "window",
        ),
        metric(
            "serve.cache.evictions",
            d(|m| m.cache.evictions),
            "count",
            "window",
        ),
        metric(
            "serve.cache.encode_us_per_chunk",
            ratio(replay.encode_s * 1e6, replay.chunks_encoded as f64),
            "us",
            format!("replay, n={}", replay.chunks_encoded),
        ),
        metric(
            "serve.candidates.hit_rate",
            share(d(|m| m.candidates.hits), d(|m| m.candidates.misses)),
            "ratio",
            "window",
        ),
        metric(
            "serve.candidates.evictions",
            d(|m| m.candidates.evictions),
            "count",
            "window",
        ),
        metric(
            "core.kernels.finder_skip_rate",
            share(d(|m| m.finder_launches_skipped), d(|m| m.finder_launches)),
            "ratio",
            "window",
        ),
        metric(
            "serve.scheduler.resident_hit_rate",
            share(sum(|x| x.resident_hits), sum(|x| x.resident_misses)),
            "ratio",
            "window",
        ),
        metric(
            "serve.scheduler.steals_per_batch",
            ratio(sum(|x| x.steals), sum(|x| x.batches)),
            "ratio",
            "window",
        ),
        metric(
            "serve.scheduler.prediction_error",
            ratio(sum(|x| x.abs_err_s), busy),
            "ratio",
            "busy-weighted |error|",
        ),
        metric(
            "serve.scheduler.busy_imbalance",
            ratio(max_busy, busy / devices.len().max(1) as f64),
            "ratio",
            "max / mean device busy_s",
        ),
        metric(
            "serve.scheduler.device_pending_ms_mean",
            mean(
                &window_samples
                    .iter()
                    .map(|s| mean(&s.pending_s) * 1e3)
                    .collect::<Vec<_>>(),
            ),
            "ms",
            format!("simulated, {n} samples"),
        ),
        metric(
            "core.specialize.variant_hit_rate",
            share(d(|m| m.variants.hits), d(|m| m.variants.misses)),
            "ratio",
            "window",
        ),
        metric(
            "core.specialize.compiles",
            d(|m| m.variants.compiles),
            "count",
            "window",
        ),
        metric(
            "core.specialize.compile_us_p95",
            b.variants.compile_p95_ns as f64 / 1e3,
            "us",
            "since start",
        ),
        metric(
            "core.kernels.comparer_launches_per_job",
            ratio(d(|m| m.comparer_launches), completed),
            "count",
            "window",
        ),
        metric(
            "core.kernels.finder_launches_per_job",
            ratio(d(|m| m.finder_launches), completed),
            "count",
            "window",
        ),
        metric(
            "core.kernels.fused_share",
            ratio(d(|m| m.fused_launches), d(|m| m.comparer_launches)),
            "ratio",
            "window",
        ),
        metric(
            "core.chunk.host_us_per_batch",
            host_us,
            "us",
            format!("replay, n={all_batches}"),
        ),
        metric(
            "core.chunk.host_share",
            host_share,
            "ratio",
            format!(
                "replayed runner host time x {batches} batches / {:.3} CPU s",
                run.cpu_s()
            ),
        ),
        metric(
            "serve.orchestration.host_share",
            1.0 - host_share,
            "ratio",
            "1 - core.chunk.host_share",
        ),
        metric(
            "core.chunk.prepare_us_per_batch",
            ratio(
                (replay.ocl.prepare_s + replay.sycl.prepare_s) * 1e6,
                all_batches,
            ),
            "us",
            "replay",
        ),
        metric(
            "core.chunk.run_us_per_batch",
            ratio((replay.ocl.run_s + replay.sycl.run_s) * 1e6, all_batches),
            "us",
            "replay",
        ),
        metric(
            "gpu_sim.finder_sim_ms_per_job",
            replay.sim_ms_per_job(guides_per_job, |t| t.finder_s),
            "ms",
            "replay, simulated",
        ),
        metric(
            "gpu_sim.comparer_sim_ms_per_job",
            replay.sim_ms_per_job(guides_per_job, |t| t.comparer_s),
            "ms",
            "replay, simulated",
        ),
        metric(
            "gpu_sim.transfer_sim_ms_per_job",
            replay.sim_ms_per_job(guides_per_job, |t| t.transfer_s),
            "ms",
            "replay, simulated",
        ),
        metric(
            "opencl_rt.busy_ms_per_job",
            ratio(by_api("opencl", |x| x.busy_s) * 1e3, completed),
            "ms",
            "simulated, window",
        ),
        metric(
            "sycl_rt.busy_ms_per_job",
            ratio(by_api("sycl", |x| x.busy_s) * 1e3, completed),
            "ms",
            "simulated, window",
        ),
        metric(
            "opencl_rt.h2d_bytes_per_batch",
            ratio(by_api("opencl", |x| x.h2d), by_api("opencl", |x| x.batches)),
            "bytes",
            "window",
        ),
        metric(
            "sycl_rt.h2d_bytes_per_batch",
            ratio(by_api("sycl", |x| x.h2d), by_api("sycl", |x| x.batches)),
            "bytes",
            "window",
        ),
        metric(
            "gpu_sim.h2d_skipped_share",
            share(sum(|x| x.h2d_skipped), sum(|x| x.h2d)),
            "ratio",
            "window",
        ),
        metric(
            "opencl_rt.replay_host_us_per_batch",
            per_batch_us(&replay.ocl, replay.ocl.prepare_s + replay.ocl.run_s),
            "us",
            format!("replay, n={}", replay.ocl.batches),
        ),
        metric(
            "sycl_rt.replay_host_us_per_batch",
            per_batch_us(&replay.sycl, replay.sycl.prepare_s + replay.sycl.run_s),
            "us",
            format!("replay, n={}", replay.sycl.batches),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_keeps_to_the_charset_and_is_unique() {
        let mut seen = std::collections::HashSet::new();
        for name in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(stats::valid_metric_name(name), "{name}");
            assert!(seen.insert(name), "{name} listed twice");
        }
    }
}
