//! Layer replay: a run's chunk × guide-group mix pushed through the public
//! chunk runners directly — one OpenCL and one SYCL runner on the same
//! MI60 — timing each layer call on the host clock and reading the
//! simulated finder / comparer / transfer split from the runners'
//! [`TimingBreakdown`].

use std::hint::black_box;
use std::time::Instant;

use cas_offinder::pipeline::chunk::{
    twobit_compare_safe, CandidateSites, OclChunkRunner, SyclChunkRunner,
};
use cas_offinder::pipeline::PipelineConfig;
use cas_offinder::{Api, Query, TimingBreakdown};
use casoff_serve::cache::{ChunkPayload, EncodedChunk};
use casoff_serve::ServiceConfig;
use genome::{Assembly, Chunker};
use gpu_sim::profile::Profile;
use gpu_sim::{DeviceSpec, ExecMode};

use crate::spans::Spans;

/// One (assembly, pattern) of the run with the guide groups to replay on
/// it, each group one batch's worth of coalesced queries.
pub struct ReplayKey<'a> {
    /// Assembly the guides search.
    pub assembly: &'a Assembly,
    /// Full search pattern.
    pub pattern: Vec<u8>,
    /// Query groups, each replayed over every chunk.
    pub groups: Vec<Vec<Query>>,
}

/// Host and simulated totals of the replay on one runner.
#[derive(Debug, Clone, Default)]
pub struct ApiReplay {
    /// Chunk batches run (group × chunk).
    pub batches: u64,
    /// Host seconds in `prepare_queries`.
    pub prepare_s: f64,
    /// Host seconds in the `run_*` entry points (and table release).
    pub run_s: f64,
    /// Guides replayed (each group counted once).
    pub guides: u64,
    /// Simulated split of the timed batches.
    pub timing: TimingBreakdown,
}

/// The replay's results.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Host seconds in [`EncodedChunk::encode`].
    pub encode_s: f64,
    /// Chunks encoded.
    pub chunks_encoded: u64,
    /// The OpenCL runner.
    pub ocl: ApiReplay,
    /// The SYCL runner.
    pub sycl: ApiReplay,
}

impl Replay {
    /// Host µs per chunk batch, both runners.
    pub fn host_us_per_batch(&self) -> f64 {
        let host = self.ocl.prepare_s + self.ocl.run_s + self.sycl.prepare_s + self.sycl.run_s;
        crate::stats::ratio(host * 1e6, (self.ocl.batches + self.sycl.batches) as f64)
    }

    /// Simulated ms per job of one stage, averaged over both runners;
    /// `stage` picks the stage out of a [`TimingBreakdown`].
    pub fn sim_ms_per_job(&self, guides_per_job: usize, stage: fn(&TimingBreakdown) -> f64) -> f64 {
        let per = |r: &ApiReplay| {
            crate::stats::ratio(
                stage(&r.timing) * 1e3,
                r.guides as f64 / guides_per_job as f64,
            )
        };
        (per(&self.ocl) + per(&self.sycl)) / 2.0
    }
}

enum Runner {
    Ocl(Box<OclChunkRunner>),
    Sycl(Box<SyclChunkRunner>),
}

/// Run one chunk batch on a runner: the cached-candidate entry point when
/// `sites` is given, the full resident-token entry point otherwise.
macro_rules! run_batch {
    ($r:expr, $tables:expr, $chunk:expr, $token:expr, $sites:expr, $timing:expr, $profile:expr) => {
        match ($sites, &$chunk.payload) {
            (Some(s), ChunkPayload::Packed(p)) => $r
                .run_packed_chunk_cached_candidates($token, p, s, $tables, $timing, $profile)
                .map(|(q, _)| q),
            (Some(s), ChunkPayload::Nibble(n)) => $r
                .run_nibble_chunk_cached_candidates($token, n, s, $tables, $timing, $profile)
                .map(|(q, _)| q),
            (Some(s), ChunkPayload::Raw(b)) => $r
                .run_chunk_cached_candidates($token, b, s, $tables, $timing, $profile)
                .map(|(q, _)| q),
            (None, ChunkPayload::Packed(p)) => $r
                .run_packed_chunk_resident($token, p, $chunk.scan_len, $tables, $timing, $profile)
                .map(|(q, _)| q),
            (None, ChunkPayload::Nibble(n)) => $r
                .run_nibble_chunk_resident($token, n, $chunk.scan_len, $tables, $timing, $profile)
                .map(|(q, _)| q),
            (None, ChunkPayload::Raw(b)) => $r
                .run_chunk_resident($token, b, $chunk.scan_len, $tables, $timing, $profile)
                .map(|(q, _)| q),
        }
    };
}

/// Instants bounding one batch: prepare starts, run starts, run ends.
type BatchTimes = (Instant, Instant, Instant);

/// How a batch treats the finder.
#[derive(Clone, Copy)]
enum Sweep<'a> {
    /// Run the finder and capture its candidate list.
    Capture,
    /// Run the finder.
    Full,
    /// Skip the finder and compare against a captured list.
    Cached(&'a CandidateSites),
}

impl Runner {
    fn new(api: Api, config: &PipelineConfig, pattern: &[u8]) -> Runner {
        match api {
            Api::OpenCl => Runner::Ocl(Box::new(
                OclChunkRunner::new(config, pattern).expect("simulated OpenCL setup cannot fail"),
            )),
            Api::Sycl => Runner::Sycl(Box::new(
                SyclChunkRunner::new(config, pattern).expect("simulated SYCL setup cannot fail"),
            )),
        }
    }

    /// Prepare `queries`, run one batch, and return its instants plus the
    /// captured candidate list under [`Sweep::Capture`].
    fn batch(
        &self,
        queries: &[Query],
        chunk: &EncodedChunk,
        token: u64,
        sweep: Sweep<'_>,
        timing: &mut TimingBreakdown,
        profile: &mut Profile,
    ) -> (BatchTimes, Option<CandidateSites>) {
        let (sites, capture) = match sweep {
            Sweep::Capture => (None, true),
            Sweep::Full => (None, false),
            Sweep::Cached(sites) => (Some(sites), false),
        };
        let t0 = Instant::now();
        match self {
            Runner::Ocl(r) => {
                let tables = r
                    .prepare_queries(queries)
                    .expect("simulated upload cannot fail");
                let t1 = Instant::now();
                r.set_capture_candidates(capture);
                let out = run_batch!(r, &tables, chunk, token, sites, timing, profile)
                    .expect("simulated OpenCL launch cannot fail");
                black_box(out);
                let captured = r.take_captured_candidates();
                r.set_capture_candidates(false);
                tables.release();
                ((t0, t1, Instant::now()), captured)
            }
            Runner::Sycl(r) => {
                let tables = r.prepare_queries(queries);
                let t1 = Instant::now();
                r.set_capture_candidates(capture);
                let out = run_batch!(r, &tables, chunk, token, sites, timing, profile)
                    .expect("simulated SYCL launch cannot fail");
                black_box(out);
                let captured = r.take_captured_candidates();
                r.set_capture_candidates(false);
                ((t0, t1, Instant::now()), captured)
            }
        }
    }
}

fn cacheable(chunk: &EncodedChunk) -> bool {
    match &chunk.payload {
        ChunkPayload::Packed(p) => twobit_compare_safe(p),
        ChunkPayload::Nibble(_) | ChunkPayload::Raw(_) => true,
    }
}

/// Replay `keys` with the service's pipeline settings. Each runner first
/// sweeps every chunk once with capture armed, holding the candidate lists
/// a warm service holds; the timed batches then take the cached-candidate
/// path at `candidate_hit_rate`, the rate the service run observed.
pub fn replay(
    config: &ServiceConfig,
    keys: &[ReplayKey<'_>],
    candidate_hit_rate: f64,
    spans: &mut Spans,
) -> Replay {
    let pipeline = PipelineConfig::new(DeviceSpec::mi60())
        .chunk_size(config.chunk_size)
        .opt(config.opt)
        .exec_mode(ExecMode::Sequential)
        .resident_slots(config.resident_chunks.max(1))
        .specialize(config.specialize)
        .multi_guide(config.multi_guide);
    let mut out = Replay::default();
    let mut profile = Profile::new();
    for (k, key) in keys.iter().enumerate() {
        let plen = key.pattern.len();
        let mut chunks = Vec::new();
        for (i, c) in Chunker::new(key.assembly, config.chunk_size, plen).enumerate() {
            if c.seq.len() < plen {
                continue;
            }
            let t0 = Instant::now();
            let encoded = EncodedChunk::encode(
                c.chrom_index,
                c.chrom_name.to_string(),
                c.start,
                c.scan_len,
                c.seq,
                config.cache_encoding,
            );
            let t1 = Instant::now();
            spans.record("replay.encode", t0, t1, None, None);
            out.encode_s += (t1 - t0).as_secs_f64();
            out.chunks_encoded += 1;
            chunks.push((encoded, ((k as u64) << 32) | i as u64));
        }
        for api in [Api::OpenCl, Api::Sycl] {
            let runner = Runner::new(api, &pipeline, &key.pattern);
            let warm = &key.groups[0][..1];
            let mut cached: Vec<Option<CandidateSites>> = Vec::with_capacity(chunks.len());
            for (chunk, token) in &chunks {
                let capture = cacheable(chunk);
                let sweep = if capture { Sweep::Capture } else { Sweep::Full };
                let mut warm_timing = TimingBreakdown::default();
                let (_, sites) =
                    runner.batch(warm, chunk, *token, sweep, &mut warm_timing, &mut profile);
                cached.push(sites.filter(|_| capture));
            }
            let stats = match api {
                Api::OpenCl => &mut out.ocl,
                Api::Sycl => &mut out.sycl,
            };
            let mut credit = 0.0;
            for group in &key.groups {
                stats.guides += group.len() as u64;
                for ((chunk, token), sites) in chunks.iter().zip(&cached) {
                    credit += candidate_hit_rate;
                    let sweep = match sites {
                        Some(sites) if credit >= 1.0 => {
                            credit -= 1.0;
                            Sweep::Cached(sites)
                        }
                        _ => Sweep::Full,
                    };
                    let ((t0, t1, t2), _) =
                        runner.batch(group, chunk, *token, sweep, &mut stats.timing, &mut profile);
                    let batch = spans.record("replay.batch", t0, t2, None, None);
                    spans.record("replay.prepare", t0, t1, batch, None);
                    spans.record("replay.run", t1, t2, batch, None);
                    stats.batches += 1;
                    stats.prepare_s += (t1 - t0).as_secs_f64();
                    stats.run_s += (t2 - t1).as_secs_f64();
                }
            }
        }
    }
    out
}
