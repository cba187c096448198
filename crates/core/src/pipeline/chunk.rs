//! Chunk-level launch API — one finder→comparer interaction as a reusable
//! unit of device work.
//!
//! The serial pipelines ([`super::ocl`], [`super::sycl`], [`super::multi`])
//! all repeat the same inner loop: upload a genome chunk, launch the
//! `finder` once, then launch the `comparer` once per query and read back
//! the surviving entries. This module factors that loop body into two
//! runner types — [`OclChunkRunner`] and [`SyclChunkRunner`] — that own the
//! context/queue, the compiled pattern tables and the reusable scratch
//! buffers. Each runs every chunk through one payload-generic path,
//! `run(token, payload, scan_len, candidates, ..)`:
//!
//! 1. upload the [`ChunkPayload`] — raw bases, 2-bit packed or 4-bit
//!    nibbles — unless its residency token is still on the device;
//! 2. select candidates with the payload's finder, or stage a cached
//!    [`CandidateSites`] list in its place;
//! 3. compare every prepared query — one launch per query, or one fused
//!    launch per guide block — with the comparer the payload's
//!    [`ComparerRoute`] selects.
//!
//! The encoding only picks which kernels run and which payload buffers
//! lead their argument lists. Every launch, in either API, is described
//! once: a finder launch is one [`FinderLaunch`] — the payload's
//! [`PayloadBuffers`], the decode target, the staged or folded PAM and the
//! candidate outputs — and a comparer launch is one [`ComparerLaunch`] —
//! chunk buffers, pattern source, candidate sites. The OpenCL runner writes
//! each out as kernel arguments ([`finder_args`], [`comparer_args`]) and
//! the SYCL runner hands it to its command group, so neither runner
//! matches on the payload form to pick a kernel. The host-API calls stay
//! per API, so each runner still shows its Table I steps: the OpenCL
//! runner binds kernel arguments and enqueues commands, the SYCL runner
//! submits command groups with accessors. The API-agnostic pieces —
//! payload routing, the token LRU residency set, candidate capture and
//! entry assembly — are written once here, and [`ChunkRunner`] puts either
//! flavour behind one interface.
//!
//! The runners exist so a *scheduler* can drive chunks out of order and
//! coalesce many queries onto one chunk upload: `casoff-serve` batches
//! concurrent jobs that target the same genome chunk and pays for one
//! chunk transfer plus one finder launch per batch instead of one per job.

use gpu_sim::profile::Profile;
use gpu_sim::{Device, DeviceBuffer, NdRange, Scalar, TrafficSnapshot};
use opencl_rt::{
    ClBuffer, ClDeviceId, ClError, ClEvent, ClKernelFunction, ClResult, CommandQueue, Context,
    Kernel, KernelSource, MemFlags, Program,
};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use sycl_rt::{
    AccessMode, Buffer, Handler, Queue, SpecSelector, SyclEvent, SyclException, SyclResult,
};

use genome::base::is_concrete;
use genome::fourbit::NibbleSeq;
use genome::twobit::PackedSeq;

use crate::input::Query;
use crate::kernels::cl::{
    comparer_args, finder_args, ClChunkComparer, ClChunkFinder, ClComparer, ClPattern,
};
use crate::kernels::specialize::{self, CompiledVariant, VariantKind};
use crate::kernels::{
    comparer_name, ChunkBuffers, ComparerLaunch, ComparerOutput, Encoding, FinderLaunch,
    FinderOutput, GuideBlock, GuideThresholds, OptLevel, Pam, Pattern, PatternForm, PayloadBuffers,
    PayloadForm, Sites, StagedPattern, GUIDE_BLOCK,
};
use crate::pattern::CompiledSeq;
use crate::report::{Api, TimingBreakdown};

use super::{round_up, PipelineConfig, SyclLaunch};

/// Whether a packed chunk can be compared directly in 2-bit form.
///
/// The 2-bit comparer sees every masked base as `N`, which is exactly the
/// char comparer's view unless an exception byte is a degenerate IUPAC
/// code or a non-base byte: `base_mask` is case-insensitive, so lowercase
/// concrete bases and `n` carry no information beyond their 2-bit/mask
/// encoding, but a code like `R` matches pattern `R` where `N` does not.
pub fn twobit_compare_safe(packed: &PackedSeq) -> bool {
    packed
        .exceptions()
        .iter()
        .all(|&(_, b)| is_concrete(b) || b == b'n')
}

/// The resident representation of a chunk's bases: what the runners
/// upload and a serving cache keeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkPayload {
    /// Losslessly 2-bit packed.
    Packed(PackedSeq),
    /// 4-bit nibble packed: every IUPAC code kept as its possibility mask.
    Nibble(NibbleSeq),
    /// Raw bases.
    Raw(Vec<u8>),
}

impl ChunkPayload {
    /// Which comparer a run over this payload launches. The runners, a
    /// candidate cache and a scheduler's cost classes all route through
    /// this one decision.
    pub fn route(&self) -> ComparerRoute {
        self.view().route()
    }

    fn view(&self) -> Payload<'_> {
        match self {
            ChunkPayload::Packed(p) => Payload::Packed(p),
            ChunkPayload::Nibble(n) => Payload::Nibble(n),
            ChunkPayload::Raw(seq) => Payload::Raw(seq),
        }
    }
}

/// The comparer a chunk payload selects, named by what it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComparerRoute {
    /// The char comparer over raw bases.
    Char,
    /// The char comparer over the finder's on-device decode of a packed
    /// payload that is not [`twobit_compare_safe`].
    DecodedChar,
    /// The 2-bit comparer over the packed words and N-mask (~plen/4 +
    /// plen/8 global bytes per site instead of plen).
    TwoBit,
    /// The 4-bit comparer, by mask intersection over the nibbles — exact
    /// on any input, soft-masked and degenerate included.
    FourBit,
}

impl ComparerRoute {
    /// Whether the comparer reads the uploaded payload itself, so a cached
    /// candidate list can stand in for the finder. Only the decoded char
    /// path needs the finder's on-device decode.
    pub fn reads_payload(self) -> bool {
        self != ComparerRoute::DecodedChar
    }

    /// The encoding the comparer reads: char, 2-bit or 4-bit.
    fn encoding(self) -> Encoding {
        match self {
            ComparerRoute::Char | ComparerRoute::DecodedChar => Encoding::Char,
            ComparerRoute::TwoBit => Encoding::TwoBit,
            ComparerRoute::FourBit => Encoding::FourBit,
        }
    }

    /// The kind of this route's specialized comparer variants.
    fn variant(self) -> VariantKind {
        [
            VariantKind::CharComparer,
            VariantKind::TwoBitComparer,
            VariantKind::FourBitComparer,
        ][self.encoding() as usize]
    }
}

/// A borrowed chunk payload: what the runners' execution path reads.
#[derive(Clone, Copy)]
enum Payload<'a> {
    Raw(&'a [u8]),
    Packed(&'a PackedSeq),
    Nibble(&'a NibbleSeq),
}

impl Payload<'_> {
    fn route(self) -> ComparerRoute {
        match self {
            Payload::Raw(_) => ComparerRoute::Char,
            Payload::Packed(p) if twobit_compare_safe(p) => ComparerRoute::TwoBit,
            Payload::Packed(_) => ComparerRoute::DecodedChar,
            Payload::Nibble(_) => ComparerRoute::FourBit,
        }
    }

    /// Bases held: scan positions plus trailing context.
    fn len(self) -> usize {
        match self {
            Payload::Raw(seq) => seq.len(),
            Payload::Packed(p) => p.len(),
            Payload::Nibble(n) => n.len(),
        }
    }

    /// The payload form. Each form has its own residency set, so the forms
    /// never share a token.
    fn form(self) -> PayloadForm {
        match self {
            Payload::Raw(_) => PayloadForm::Raw,
            Payload::Packed(_) => PayloadForm::Packed,
            Payload::Nibble(_) => PayloadForm::Nibble,
        }
    }

    /// Exceptions a packed payload carries (zero for the other forms).
    fn exceptions(self) -> u32 {
        match self {
            Payload::Packed(p) => p.exceptions().len() as u32,
            Payload::Raw(_) | Payload::Nibble(_) => 0,
        }
    }

    /// Host bytes an upload moves — what a resident hit records as
    /// skipped. The device side of a nibble payload is the nibble words
    /// alone: case and host exceptions never affect matching.
    fn upload_bytes(self) -> u64 {
        (match self {
            Payload::Raw(seq) => seq.len(),
            Payload::Packed(p) => {
                p.packed_bytes().len()
                    + p.mask_bytes().len()
                    + p.exceptions().len() * (std::mem::size_of::<u32>() + 1)
            }
            Payload::Nibble(n) => n.device_byte_len(),
        }) as u64
    }
}

type OclPayload = PayloadBuffers<ClBuffer<u8>, ClBuffer<u32>>;
type SyclPayload = PayloadBuffers<Buffer<u8>, Buffer<u32>>;

/// The folded PAM a finder over `form` reads: the runner's nibble-finder
/// variant, on a nibble payload of a specializing runner; `None` (staged
/// tables) otherwise.
fn folded_pam(
    variant: &Option<Arc<CompiledVariant>>,
    form: PayloadForm,
) -> Option<Arc<CompiledVariant>> {
    variant.clone().filter(|_| form == PayloadForm::Nibble)
}

/// The token LRU residency set both runners keep per payload form, most
/// recently used first and at most `cap` entries long. The OpenCL runner
/// keeps slot indices into its fixed buffers; the SYCL runner keeps the
/// bound buffers themselves, since a live bound `Buffer` *is* residency in
/// the SYCL model (re-binding it charges no upload).
struct Residency<T> {
    cap: usize,
    entries: RefCell<Vec<(Option<u64>, T)>>,
}

impl<T> Residency<T> {
    fn new(cap: usize) -> Self {
        Residency {
            cap,
            entries: RefCell::new(Vec::new()),
        }
    }

    /// Remove and return the entry resident under `token`.
    fn take(&self, token: u64) -> Option<T> {
        let mut entries = self.entries.borrow_mut();
        let i = entries.iter().position(|(t, _)| *t == Some(token))?;
        Some(entries.remove(i).1)
    }

    /// Remove and return the least recently used entry.
    fn pop_lru(&self) -> Option<T> {
        self.entries.borrow_mut().pop().map(|(_, v)| v)
    }

    /// Make `value` the most recently used entry under `token`, dropping
    /// the least recently used entries beyond the cap.
    fn insert(&self, token: Option<u64>, value: T) {
        let mut entries = self.entries.borrow_mut();
        entries.insert(0, (token, value));
        entries.truncate(self.cap);
    }
}

/// Comparer entries `(locus, direction, mismatches)` for one query on one
/// chunk, in device compaction order. Map them into [`crate::OffTarget`]
/// records with [`super::entries_to_offtargets`].
pub type QueryEntries = Vec<(u32, u8, u16)>;

/// The finder's candidate list for one (chunk content, PAM pattern) pair,
/// read back to the host so a candidate cache can replay it into later runs
/// without launching the finder again. The list depends only on the chunk
/// bytes and the compiled pattern — never on the queries — so it is valid
/// across all three chunk encodings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateSites {
    /// Candidate loci (chunk-relative), in finder compaction order.
    pub loci: Vec<u32>,
    /// Strand flags per candidate (see the finder's `FLAG_*` constants).
    pub flags: Vec<u8>,
}

impl CandidateSites {
    /// Number of candidate sites.
    pub fn len(&self) -> usize {
        self.loci.len()
    }

    /// True when the finder produced no candidates.
    pub fn is_empty(&self) -> bool {
        self.loci.is_empty()
    }

    /// Host bytes held by the list (4-byte locus + 1-byte flag per site) —
    /// the unit a byte-budget cache charges, and the h2d traffic a
    /// device-resident replay avoids.
    pub fn byte_len(&self) -> usize {
        self.loci.len() * (std::mem::size_of::<u32>() + 1)
    }
}

/// Candidate capture: while armed, every finder pass also reads its
/// candidate list back to the host for a caller-owned candidate cache.
#[derive(Default)]
struct Capture {
    armed: Cell<bool>,
    captured: RefCell<Option<CandidateSites>>,
}

impl Capture {
    /// When armed, read a fresh `n`-site list back through `read` — a timed
    /// d2h transfer returning its simulated seconds — and park it.
    fn record<E>(
        &self,
        n: usize,
        timing: &mut TimingBreakdown,
        read: impl FnOnce(&mut [u32], &mut [u8]) -> Result<f64, E>,
    ) -> Result<(), E> {
        if self.armed.get() {
            let mut sites = CandidateSites {
                loci: vec![0; n],
                flags: vec![0; n],
            };
            if n > 0 {
                timing.transfer_s += read(&mut sites.loci, &mut sites.flags)?;
            }
            *self.captured.borrow_mut() = Some(sites);
        }
        Ok(())
    }
}

/// Account a finder pass replaced by a cached candidate list: the skipped
/// launch, the candidates it would have produced and — when the list is
/// still staged on the device — the skipped upload.
fn skip_finder(
    device: &Device,
    sites: &CandidateSites,
    staged: bool,
    timing: &mut TimingBreakdown,
) {
    device.record_launch_skipped();
    timing.finder_launches_skipped += 1;
    timing.candidates += sites.len() as u64;
    if staged {
        device.record_h2d_skipped(sites.byte_len() as u64);
    }
}

/// Cached candidate lists skip the finder, so they only replay into
/// comparers that read the payload itself.
fn check_cached_route(route: ComparerRoute, candidates: Option<&CandidateSites>) {
    assert!(
        candidates.is_none() || route.reads_payload(),
        "cached-candidate runs need a payload the comparer reads directly \
         (a packed chunk must be 2-bit-safe)"
    );
}

/// The comparer launches of one chunk as ranges of prepared queries: one
/// query each, or blocks of up to [`GUIDE_BLOCK`] on the fused path —
/// `ceil(k / GUIDE_BLOCK)` launches instead of `k`.
fn launch_blocks(queries: usize, fused: bool) -> impl Iterator<Item = Range<usize>> {
    let block = if fused { GUIDE_BLOCK } else { 1 };
    (0..queries)
        .step_by(block)
        .map(move |start| start..(start + block).min(queries))
}

/// Host-side tables of one fused guide block: guide `bi` occupies
/// `[fwd | rc]` at offset `bi * 2 * plen`, so uploads are per block, not
/// per guide.
fn block_tables(queries: &[CompiledSeq]) -> (Vec<u8>, Vec<i32>) {
    (
        queries
            .iter()
            .flat_map(|c| c.comp().iter().copied())
            .collect(),
        queries
            .iter()
            .flat_map(|c| c.comp_index().iter().copied())
            .collect(),
    )
}

/// The threshold a fused block folds into its JIT-specialized variant: a
/// block whose guides share one threshold folds it when the runner
/// specializes; mixed thresholds stage the per-guide table instead.
fn folded_threshold(specialize: bool, thresholds: &[u16]) -> Option<u16> {
    (specialize && thresholds.iter().all(|&t| t == thresholds[0])).then(|| thresholds[0])
}

/// Host copies of one comparer launch's compacted output.
struct LaunchOutput {
    mm: Vec<u16>,
    dir: Vec<u8>,
    pos: Vec<u32>,
    /// Guide tag per entry, on a fused launch.
    guide: Option<Vec<u16>>,
}

impl LaunchOutput {
    fn new(m: usize, fused: bool) -> Self {
        LaunchOutput {
            mm: vec![0; m],
            dir: vec![0; m],
            pos: vec![0; m],
            guide: fused.then(|| vec![0; m]),
        }
    }

    /// Append the entries to the per-query lists in device compaction
    /// order: entry `i` belongs to query `first + guide[i]` on a fused
    /// launch, to query `first` otherwise — so fused and serial launches
    /// produce byte-identical lists.
    fn push_into(&self, per_query: &mut [QueryEntries], first: usize) {
        for i in 0..self.pos.len() {
            let q = first + self.guide.as_ref().map_or(0, |g| g[i] as usize);
            per_query[q].push((self.pos[i], self.dir[i], self.mm[i]));
        }
    }
}

/// The device view of an OpenCL buffer, as a payload binding.
fn device<T: Scalar>(_: &mut (), buf: &ClBuffer<T>) -> ClResult<DeviceBuffer<T>> {
    Ok(buf.device_buffer())
}

/// Simulated kernel seconds of a completed OpenCL event, recorded into
/// `profile`.
fn ocl_kernel_s(ev: &ClEvent, profile: &mut Profile) -> f64 {
    match ev.launch_report() {
        Some(r) => {
            profile.record_ref(r);
            r.exec_time_s
        }
        None => ev.duration_s(),
    }
}

/// Kernel seconds of a completed SYCL command group, recorded into
/// `profile`; the rest of the group's time — its implicit accessor
/// transfers — goes to `timing.transfer_s`.
fn sycl_kernel_s(ev: &SyclEvent, profile: &mut Profile, timing: &mut TimingBreakdown) -> f64 {
    let reports = ev.launch_reports();
    let commands_s: f64 = reports.iter().map(|r| r.sim_time_s).sum();
    timing.transfer_s += (ev.duration_s() - commands_s).max(0.0);
    reports
        .iter()
        .map(|r| {
            profile.record_ref(r);
            r.exec_time_s
        })
        .sum()
}

/// Per-payload entry points over borrowed chunk data — what the serial
/// pipelines and the benchmark's layer replay call — as one-line forwards
/// into `run`'s body, plus the accessors both runners share.
macro_rules! payload_forwards {
    ($tables:ty, $result:ident) => {
        /// [`run`](Self::run) over raw bases without a residency token,
        /// returning the entries only — the serial pipelines' entry point.
        ///
        /// # Errors
        ///
        /// Propagates host-API failures.
        pub fn run_chunk(
            &self,
            seq: &[u8],
            scan_len: usize,
            tables: &$tables,
            timing: &mut TimingBreakdown,
            profile: &mut Profile,
        ) -> $result<Vec<QueryEntries>> {
            self.exec(
                None,
                Payload::Raw(seq),
                scan_len,
                None,
                tables,
                timing,
                profile,
            )
            .map(|(per_query, _)| per_query)
        }

        /// [`run`](Self::run) over raw bases under residency `token`.
        ///
        /// # Errors
        ///
        /// Propagates host-API failures.
        pub fn run_chunk_resident(
            &self,
            token: u64,
            seq: &[u8],
            scan_len: usize,
            tables: &$tables,
            timing: &mut TimingBreakdown,
            profile: &mut Profile,
        ) -> $result<(Vec<QueryEntries>, bool)> {
            self.exec(
                Some(token),
                Payload::Raw(seq),
                scan_len,
                None,
                tables,
                timing,
                profile,
            )
        }

        /// [`run`](Self::run) over a 2-bit packed payload under residency
        /// `token`.
        ///
        /// # Errors
        ///
        /// Propagates host-API failures.
        pub fn run_packed_chunk_resident(
            &self,
            token: u64,
            packed: &PackedSeq,
            scan_len: usize,
            tables: &$tables,
            timing: &mut TimingBreakdown,
            profile: &mut Profile,
        ) -> $result<(Vec<QueryEntries>, bool)> {
            let payload = Payload::Packed(packed);
            self.exec(
                Some(token),
                payload,
                scan_len,
                None,
                tables,
                timing,
                profile,
            )
        }

        /// [`run`](Self::run) over a 4-bit nibble payload under residency
        /// `token`.
        ///
        /// # Errors
        ///
        /// Propagates host-API failures.
        pub fn run_nibble_chunk_resident(
            &self,
            token: u64,
            nibble: &NibbleSeq,
            scan_len: usize,
            tables: &$tables,
            timing: &mut TimingBreakdown,
            profile: &mut Profile,
        ) -> $result<(Vec<QueryEntries>, bool)> {
            let payload = Payload::Nibble(nibble);
            self.exec(
                Some(token),
                payload,
                scan_len,
                None,
                tables,
                timing,
                profile,
            )
        }

        /// [`run`](Self::run) over raw bases under `token`, replaying the
        /// cached candidate list `sites` instead of launching the finder.
        ///
        /// # Errors
        ///
        /// Propagates host-API failures.
        pub fn run_chunk_cached_candidates(
            &self,
            token: u64,
            seq: &[u8],
            sites: &CandidateSites,
            tables: &$tables,
            timing: &mut TimingBreakdown,
            profile: &mut Profile,
        ) -> $result<(Vec<QueryEntries>, bool)> {
            self.exec(
                Some(token),
                Payload::Raw(seq),
                0,
                Some(sites),
                tables,
                timing,
                profile,
            )
        }

        /// [`run`](Self::run) over a 2-bit packed payload under `token`,
        /// replaying the cached candidate list `sites`.
        ///
        /// # Errors
        ///
        /// Propagates host-API failures.
        ///
        /// # Panics
        ///
        /// Panics if the payload is not [`twobit_compare_safe`]: skipping
        /// the finder also skips the decode the char fallback would read.
        pub fn run_packed_chunk_cached_candidates(
            &self,
            token: u64,
            packed: &PackedSeq,
            sites: &CandidateSites,
            tables: &$tables,
            timing: &mut TimingBreakdown,
            profile: &mut Profile,
        ) -> $result<(Vec<QueryEntries>, bool)> {
            let payload = Payload::Packed(packed);
            self.exec(
                Some(token),
                payload,
                0,
                Some(sites),
                tables,
                timing,
                profile,
            )
        }

        /// [`run`](Self::run) over a 4-bit nibble payload under `token`,
        /// replaying the cached candidate list `sites`.
        ///
        /// # Errors
        ///
        /// Propagates host-API failures.
        pub fn run_nibble_chunk_cached_candidates(
            &self,
            token: u64,
            nibble: &NibbleSeq,
            sites: &CandidateSites,
            tables: &$tables,
            timing: &mut TimingBreakdown,
            profile: &mut Profile,
        ) -> $result<(Vec<QueryEntries>, bool)> {
            let payload = Payload::Nibble(nibble);
            self.exec(
                Some(token),
                payload,
                0,
                Some(sites),
                tables,
                timing,
                profile,
            )
        }

        /// Arm or disarm candidate capture: while armed, every finder pass
        /// also reads its candidate list back to the host (a timed d2h
        /// transfer) and parks it for
        /// [`take_captured_candidates`](Self::take_captured_candidates).
        pub fn set_capture_candidates(&self, on: bool) {
            self.capture.armed.set(on);
        }

        /// Take the candidate list captured by the most recent finder pass
        /// while capture was armed.
        pub fn take_captured_candidates(&self) -> Option<CandidateSites> {
            self.capture.captured.borrow_mut().take()
        }

        /// Pattern length (PAM window) the runner was compiled for.
        pub fn plen(&self) -> usize {
            self.pattern.plen()
        }

        /// Simulated queue time consumed so far, in seconds.
        pub fn elapsed_s(&self) -> f64 {
            self.queue.elapsed_s()
        }

        /// Name of the simulated device the runner drives.
        pub fn device_name(&self) -> String {
            self.queue.device().spec().name.to_owned()
        }

        /// Transfer/launch counters of the underlying simulated device.
        pub fn traffic(&self) -> TrafficSnapshot {
            self.queue.device().traffic()
        }
    };
}

/// Device-side machinery of the fused multi-guide comparer path: the three
/// generic `comparer_multi*` kernels, tables for one block of up to
/// [`GUIDE_BLOCK`] guides, and the guide tag array that joins the runner's
/// shared comparer outputs.
struct MultiScratch {
    comparers: [Kernel; 3],
    comp: ClBuffer<u8>,
    comp_index: ClBuffer<i32>,
    thresholds: ClBuffer<u16>,
    guide: ClBuffer<u16>,
}

/// Unwrap a comparison-table buffer on the generic comparer path. The
/// buffers are only skipped when the runner specializes, and then the
/// specialized branch runs instead of this one.
fn generic_table<T>(buf: &Option<T>) -> &T {
    buf.as_ref()
        .expect("generic comparers always have uploaded tables")
}

/// One-kernel programs of specialized comparer variants with the variant
/// each folds, keyed by (query index, or `None` for a fused block; comparer
/// encoding; threshold).
type SpecKernels = HashMap<(Option<usize>, Encoding, u16), (Program, Kernel, Arc<CompiledVariant>)>;

/// One prepared OpenCL query: comparison-table buffers (`None` when the
/// runner specializes) and the mismatch threshold.
type OclQueryEntry = (Option<ClBuffer<u8>>, Option<ClBuffer<i32>>, u16);

/// Per-query device tables for the OpenCL comparer: the compiled two-strand
/// sequence, its index table, and the mismatch threshold.
///
/// When the runner specializes, the tables also keep each query's
/// [`CompiledSeq`] (the fold input) and a lazily built per-(query, kind)
/// one-kernel [`Program`] cache — specialized kernels embed the pattern, so
/// they cannot be shared across queries the way the generic kernels are.
/// The comparison-table buffers are `None` in that case: the folded
/// comparers carry the pattern and guide as immediates and never read
/// them, so their uploads (two per query per batch, each with a fixed
/// per-transfer charge) are skipped outright.
pub struct OclQueryTables {
    entries: Vec<OclQueryEntry>,
    spec_queries: Vec<CompiledSeq>,
    spec_kernels: RefCell<SpecKernels>,
}

impl OclQueryTables {
    /// Number of prepared queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no queries are prepared.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Step 13: explicitly release the query buffers.
    pub fn release(self) {
        for (c, ci, _) in self.entries {
            if let Some(c) = c {
                c.release();
            }
            if let Some(ci) = ci {
                ci.release();
            }
        }
        for (_, (program, kernel, _)) in self.spec_kernels.into_inner() {
            kernel.release();
            program.release();
        }
    }
}

/// The OpenCL flavour of the chunk-level API: owns the 13-step machinery
/// (context, queue, program, kernels) plus scratch buffers sized for
/// chunks of up to `chunk_size` owned positions.
pub struct OclChunkRunner {
    ctx: Context,
    queue: CommandQueue,
    program: Program,
    /// The kernel of each payload form's [`ClChunkFinder`], by form — the
    /// one every finder launch over that form names (the nibble finder
    /// folds the PAM when the runner specializes, as its launches do).
    finders: [Kernel; 3],
    /// `comparer` (the paper's, at the configured stage), `comparer-2bit`
    /// and `comparer-4bit`, by comparer encoding.
    comparers: [Kernel; 3],
    specialize: bool,
    pattern: CompiledSeq,
    /// The PAM's nibble-finder variant, folded when the runner specializes.
    pam_variant: Option<Arc<CompiledVariant>>,
    /// Decode target of the packed and nibble finders, and the char
    /// comparer's input on the [`ComparerRoute::DecodedChar`] path. Raw
    /// payloads have slots of their own, so a decode never evicts them.
    chr: ClBuffer<u8>,
    /// `resident_slots` payload slots per payload form;
    /// `residency[form]` orders that form's slot indices by recency.
    slots: Vec<OclPayload>,
    residency: [Residency<usize>; 3],
    pat: ClBuffer<u8>,
    pat_index: ClBuffer<i32>,
    loci: ClBuffer<u32>,
    flags: ClBuffer<u8>,
    fcount: ClBuffer<u32>,
    mm_count: ClBuffer<u16>,
    direction: ClBuffer<u8>,
    mm_loci: ClBuffer<u32>,
    ecount: ClBuffer<u32>,
    /// Fused multi-guide machinery, present when the runner is built with
    /// [`PipelineConfig::multi_guide`].
    multi: Option<MultiScratch>,
    /// Lazily built specialized fused programs, keyed by (comparer kind,
    /// shared block threshold) — the folded PAM pattern is fixed per
    /// runner, so it does not participate in the key.
    spec_multi_kernels: RefCell<SpecKernels>,
    capture: Capture,
    /// Identity `(token, len)` of the candidate list currently staged in
    /// `loci`/`flags`, when the producing run carried a residency token.
    cand_token: Cell<Option<(u64, u32)>>,
    cap: usize,
    lws: Option<usize>,
    rounding: usize,
}

impl OclChunkRunner {
    /// Build the runner for `pattern_seq` on `config`'s device: steps 1-8
    /// of Table I plus the step-5 scratch allocations, exactly as the
    /// serial OpenCL application performs them.
    ///
    /// # Errors
    ///
    /// Propagates OpenCL-level failures (context, build, allocation).
    pub fn new(config: &PipelineConfig, pattern_seq: &[u8]) -> ClResult<Self> {
        let device_id = ClDeviceId::from_spec(config.device.clone());
        let ctx = Context::with_mode(&[device_id], config.exec)?;
        let queue = CommandQueue::new(&ctx, 0)?;

        let pattern = CompiledSeq::compile(pattern_seq);
        let plen = pattern.plen();

        // A specializing runner knows the PAM pattern at construction, so
        // its folded nibble finder lives in the main program.
        let pam_variant = config.specialize.then(|| {
            specialize::global_cache().get_or_compile(VariantKind::NibbleFinder, &pattern, 0)
        });
        let finder_fns = PayloadForm::ALL.map(|form| ClChunkFinder {
            form,
            pam: folded_pam(&pam_variant, form),
        });
        // Raw chunks keep the paper's comparer at the configured stage; the
        // packed encodings (and, fused, all three) run the serving comparer.
        let mut source = KernelSource::new().with_function(Arc::new(ClComparer::new(config.opt)));
        for f in &finder_fns {
            source = source.with_function(Arc::new(f.clone()));
        }
        let mut serving = vec![
            (Encoding::TwoBit, ClPattern::Staged),
            (Encoding::FourBit, ClPattern::Staged),
        ];
        if config.multi_guide {
            let fused = ClPattern::Block(GuideThresholds::PerGuide(()));
            serving.extend(Encoding::ALL.map(|e| (e, fused.clone())));
        }
        for (encoding, pattern) in serving {
            source = source.with_function(Arc::new(ClChunkComparer { encoding, pattern }));
        }
        let program = Program::create_with_source(&ctx, source);
        program.build("-O3")?;
        let kernels = |names: [&str; 3]| -> ClResult<[Kernel; 3]> {
            let [a, b, c] = names.map(|name| program.create_kernel(name));
            Ok([a?, b?, c?])
        };
        let finders = kernels(finder_fns.each_ref().map(|f| f.name()))?;
        let comparers = kernels(Encoding::ALL.map(|e| comparer_name(e, PatternForm::Staged)))?;
        let cap = config.chunk_size;

        let chr = ClBuffer::<u8>::create(&ctx, MemFlags::ReadWrite, cap + plen)?;
        // One slot per resident chunk per payload form. Worst case every
        // base carries an exception, so the exception arrays are sized
        // like the chunk.
        let len = cap + plen;
        let bytes = |n: usize| ClBuffer::<u8>::create(&ctx, MemFlags::ReadOnly, n);
        let n_slots = config.resident_slots.max(1);
        let residency = [0, 1, 2].map(|_| Residency::new(n_slots));
        let mut slots = Vec::with_capacity(3 * n_slots);
        for (form, set) in PayloadForm::ALL.into_iter().zip(&residency) {
            for _ in 0..n_slots {
                set.insert(None, slots.len());
                slots.push(match form {
                    PayloadForm::Raw => PayloadBuffers::Raw(bytes(len)?),
                    PayloadForm::Packed => PayloadBuffers::Packed {
                        words: bytes(len.div_ceil(4))?,
                        mask: bytes(len.div_ceil(8))?,
                        exc_pos: ClBuffer::<u32>::create(&ctx, MemFlags::ReadOnly, len)?,
                        exc_val: bytes(len)?,
                    },
                    PayloadForm::Nibble => PayloadBuffers::Nibble(bytes(len.div_ceil(2))?),
                });
            }
        }
        let pat = ClBuffer::create_with_data(&ctx, MemFlags::Constant, pattern.comp())?;
        let pat_index = ClBuffer::create_with_data(&ctx, MemFlags::Constant, pattern.comp_index())?;
        let loci = ClBuffer::<u32>::create(&ctx, MemFlags::ReadWrite, cap)?;
        let flags = ClBuffer::<u8>::create(&ctx, MemFlags::ReadWrite, cap)?;
        let fcount = ClBuffer::<u32>::create(&ctx, MemFlags::ReadWrite, 1)?;
        // Comparer outputs for the worst case of every candidate passing on
        // both strands of every guide a launch compares.
        let outputs = 2 * cap * if config.multi_guide { GUIDE_BLOCK } else { 1 };
        let mm_count = ClBuffer::<u16>::create(&ctx, MemFlags::WriteOnly, outputs)?;
        let direction = ClBuffer::<u8>::create(&ctx, MemFlags::WriteOnly, outputs)?;
        let mm_loci = ClBuffer::<u32>::create(&ctx, MemFlags::WriteOnly, outputs)?;
        let ecount = ClBuffer::<u32>::create(&ctx, MemFlags::ReadWrite, 1)?;

        // Scratch for the fused multi-guide path: block tables for up to
        // GUIDE_BLOCK guides and the guide tag of every output entry.
        let multi = if config.multi_guide {
            Some(MultiScratch {
                comparers: kernels(Encoding::ALL.map(|e| comparer_name(e, PatternForm::Fused)))?,
                comp: ClBuffer::<u8>::create(&ctx, MemFlags::ReadOnly, GUIDE_BLOCK * 2 * plen)?,
                comp_index: ClBuffer::<i32>::create(
                    &ctx,
                    MemFlags::ReadOnly,
                    GUIDE_BLOCK * 2 * plen,
                )?,
                thresholds: ClBuffer::<u16>::create(&ctx, MemFlags::ReadOnly, GUIDE_BLOCK)?,
                guide: ClBuffer::<u16>::create(&ctx, MemFlags::WriteOnly, outputs)?,
            })
        } else {
            None
        };

        let lws = config.work_group_size;
        Ok(OclChunkRunner {
            ctx,
            queue,
            program,
            finders,
            comparers,
            specialize: config.specialize,
            pattern,
            pam_variant,
            chr,
            slots,
            residency,
            pat,
            pat_index,
            loci,
            flags,
            fcount,
            mm_count,
            direction,
            mm_loci,
            ecount,
            multi,
            spec_multi_kernels: RefCell::new(HashMap::new()),
            capture: Capture::default(),
            cand_token: Cell::new(None),
            cap,
            lws,
            rounding: lws.unwrap_or(64),
        })
    }

    /// Upload the comparer tables for `queries`; the tables can be reused
    /// across every chunk of a search (the comparer's `comp` is a plain
    /// global pointer, so each query needs its own pair).
    ///
    /// # Errors
    ///
    /// Propagates allocation failures.
    pub fn prepare_queries(&self, queries: &[Query]) -> ClResult<OclQueryTables> {
        let mut spec_queries = Vec::new();
        // The fused multi-guide path concatenates block tables from the
        // compiled sequences at launch time, so — exactly as under
        // specialization — per-query table buffers would be dead weight. A
        // single query never fuses and keeps the serial tables.
        let fused = self.multi.is_some() && queries.len() > 1;
        let entries = queries
            .iter()
            .map(|q| {
                let c = CompiledSeq::compile(&q.seq);
                // Specialized comparers fold the compiled sequence into the
                // kernel body, so the table uploads would be dead weight.
                // The generic path pays them through the queue — two real
                // `clEnqueueWriteBuffer` transfers per query, the same
                // traffic the SYCL accessors charge implicitly.
                let e = if self.specialize || fused {
                    (None, None, q.max_mismatches)
                } else {
                    let comp_buf = ClBuffer::create(&self.ctx, MemFlags::ReadOnly, c.comp().len())?;
                    let comp_index_buf =
                        ClBuffer::create(&self.ctx, MemFlags::ReadOnly, c.comp_index().len())?;
                    self.queue
                        .enqueue_write_buffer(&comp_buf, true, 0, c.comp())?;
                    self.queue
                        .enqueue_write_buffer(&comp_index_buf, true, 0, c.comp_index())?;
                    (Some(comp_buf), Some(comp_index_buf), q.max_mismatches)
                };
                if self.specialize || fused {
                    spec_queries.push(c);
                }
                Ok(e)
            })
            .collect::<ClResult<_>>()?;
        Ok(OclQueryTables {
            entries,
            spec_queries,
            spec_kernels: RefCell::new(HashMap::new()),
        })
    }

    /// Fetch (building on first use) a specialized comparer kernel and the
    /// variant it folds: with `query` (its index and compiled sequence), the
    /// `route` variant folding that query and `threshold`; without, the
    /// fused variant for a guide block sharing `threshold`, which folds the
    /// runner's PAM pattern and the threshold while the block tables stay
    /// staged data. Variants come from the process-wide single-flight
    /// cache; the one-kernel programs are cached in `map` so repeated chunks
    /// reuse them.
    fn spec_kernel<'m>(
        &self,
        map: &'m mut SpecKernels,
        query: Option<(usize, &CompiledSeq)>,
        route: ComparerRoute,
        threshold: u16,
    ) -> ClResult<(&'m Kernel, Arc<CompiledVariant>)> {
        use std::collections::hash_map::Entry;
        let encoding = route.encoding();
        let slot = match map.entry((query.map(|(qi, _)| qi), encoding, threshold)) {
            Entry::Occupied(e) => {
                let (_, kernel, variant) = e.into_mut();
                return Ok((kernel, Arc::clone(variant)));
            }
            Entry::Vacant(v) => v,
        };
        let cache = specialize::global_cache();
        let (variant, pattern) = match query {
            Some((_, q)) => {
                let variant = cache.get_or_compile(route.variant(), q, threshold);
                (Arc::clone(&variant), ClPattern::Folded(variant))
            }
            None => {
                let variant =
                    cache.get_or_compile(VariantKind::MultiComparer, &self.pattern, threshold);
                let block = ClPattern::Block(GuideThresholds::Folded(Arc::clone(&variant)));
                (variant, block)
            }
        };
        let name = comparer_name(encoding, pattern.form());
        let f = Arc::new(ClChunkComparer { encoding, pattern });
        let program = Program::create_with_source(&self.ctx, KernelSource::new().with_function(f));
        program.build("-O3")?;
        let kernel = program.create_kernel(name)?;
        let (_, kernel, variant) = slot.insert((program, kernel, variant));
        Ok((kernel, Arc::clone(variant)))
    }

    /// Run one finder→comparer interaction over `payload` — raw bases,
    /// 2-bit packed or 4-bit nibbles — comparing every prepared query
    /// against its candidates. Returns the surviving entries per query
    /// (empty when there are no candidates) and whether the payload was
    /// already resident. Entries are byte-identical across payload forms.
    ///
    /// * `token` is the caller's identity for the chunk content — two
    ///   different chunks must never share one. The runner keeps the
    ///   payloads of its last `resident_slots` tokens per payload form on
    ///   the device, and a run whose token is resident skips the upload
    ///   (recorded on the device as skipped h2d traffic). A run without a
    ///   token uploads into the least recently used slot of its form, which
    ///   then holds no token.
    /// * `candidates` replaces the finder with a list captured from an
    ///   earlier run over the same chunk content and PAM pattern: the
    ///   launch is skipped (recorded on the device and in
    ///   `timing.finder_launches_skipped`), and so is the list's upload
    ///   while it is still staged from a run under the same token.
    ///
    /// The payload holds `scan_len` owned positions plus up to `plen`
    /// trailing context bases; kernel and transfer costs accumulate into
    /// `timing` and `profile`.
    ///
    /// # Errors
    ///
    /// Propagates OpenCL-level failures.
    ///
    /// # Panics
    ///
    /// Panics if the chunk or candidate list exceeds the runner's
    /// configured capacity, or if `candidates` is given for a payload whose
    /// [`ComparerRoute`] does not [read the payload](ComparerRoute::reads_payload).
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        token: Option<u64>,
        payload: &ChunkPayload,
        scan_len: usize,
        candidates: Option<&CandidateSites>,
        tables: &OclQueryTables,
        timing: &mut TimingBreakdown,
        profile: &mut Profile,
    ) -> ClResult<(Vec<QueryEntries>, bool)> {
        let payload = payload.view();
        self.exec(
            token, payload, scan_len, candidates, tables, timing, profile,
        )
    }

    payload_forwards!(OclQueryTables, ClResult);

    #[allow(clippy::too_many_arguments)]
    fn exec(
        &self,
        token: Option<u64>,
        payload: Payload<'_>,
        scan_len: usize,
        candidates: Option<&CandidateSites>,
        tables: &OclQueryTables,
        timing: &mut TimingBreakdown,
        profile: &mut Profile,
    ) -> ClResult<(Vec<QueryEntries>, bool)> {
        self.check_capacity(payload.len(), scan_len);
        let route = payload.route();
        check_cached_route(route, candidates);
        let mut per_query = vec![Vec::new(); tables.len()];

        // Step 11 (host->device): upload the payload — unless it is still
        // resident under `token`.
        let (slot, reused) = self.claim(payload.form(), token);
        if reused {
            self.queue
                .device()
                .record_h2d_skipped(payload.upload_bytes());
        } else {
            timing.transfer_s += self.write_payload(slot, payload)?;
        }
        let n = match candidates {
            Some(sites) => self.stage_candidates(token, sites, timing)?,
            None => self.run_finder(token, payload, slot, scan_len, timing, profile)?,
        };
        if n > 0 {
            self.run_comparers(route, slot, n, tables, timing, profile, &mut per_query)?;
        }
        Ok((per_query, reused))
    }

    fn check_capacity(&self, seq_len: usize, scan_len: usize) {
        assert!(
            seq_len <= self.cap + self.pattern.plen() && scan_len <= self.cap,
            "chunk ({seq_len} bases, {scan_len} scanned) exceeds runner capacity {}",
            self.cap
        );
    }

    /// Claim the slot of payload form `form` for `token`: the slot already
    /// holding it, or the least recently used one, re-tagged. Returns the
    /// slot and whether it was resident.
    fn claim(&self, form: PayloadForm, token: Option<u64>) -> (&OclPayload, bool) {
        let set = &self.residency[form as usize];
        let hit = token.and_then(|t| set.take(t));
        let reused = hit.is_some();
        let i = hit
            .or_else(|| set.pop_lru())
            .expect("runner always has at least one slot");
        set.insert(token, i);
        (&self.slots[i], reused)
    }

    /// Enqueue the writes placing `payload` in `slot`; returns their
    /// simulated seconds. The exception arrays only move when the chunk has
    /// any.
    fn write_payload(&self, slot: &OclPayload, payload: Payload<'_>) -> ClResult<f64> {
        let q = &self.queue;
        Ok(match (slot, payload) {
            (PayloadBuffers::Raw(buf), Payload::Raw(seq)) => {
                q.enqueue_write_buffer(buf, true, 0, seq)?.duration_s()
            }
            (PayloadBuffers::Nibble(buf), Payload::Nibble(nibble)) => q
                .enqueue_write_buffer(buf, true, 0, nibble.nibble_bytes())?
                .duration_s(),
            (
                PayloadBuffers::Packed {
                    words,
                    mask,
                    exc_pos,
                    exc_val,
                },
                Payload::Packed(packed),
            ) => {
                let mut s = q
                    .enqueue_write_buffer(words, true, 0, packed.packed_bytes())?
                    .duration_s()
                    + q.enqueue_write_buffer(mask, true, 0, packed.mask_bytes())?
                        .duration_s();
                if !packed.exceptions().is_empty() {
                    let (pos, val) = packed.exception_arrays();
                    s += q.enqueue_write_buffer(exc_pos, true, 0, &pos)?.duration_s()
                        + q.enqueue_write_buffer(exc_val, true, 0, &val)?.duration_s();
                }
                s
            }
            _ => unreachable!("every payload form has slots of its own"),
        })
    }

    /// Steps 9-12 for the finder: bind the payload's finder, launch it over
    /// `scan_len` positions and read the candidate count back.
    fn run_finder(
        &self,
        token: Option<u64>,
        payload: Payload<'_>,
        slot: &OclPayload,
        scan_len: usize,
        timing: &mut TimingBreakdown,
        profile: &mut Profile,
    ) -> ClResult<usize> {
        let w = self.queue.enqueue_fill_buffer(&self.fcount, 0u32)?;
        timing.transfer_s += w.duration_s();

        // Step 9: finder arguments, in the order the launch's kernel takes
        // them (see `ClChunkFinder`).
        let form = payload.form();
        let folded = folded_pam(&self.pam_variant, form);
        let launch = FinderLaunch {
            payload: slot.bind(&mut (), device, device)?,
            exceptions: payload.exceptions(),
            decoded: form
                .decodes(folded.is_some())
                .then(|| self.chr.device_buffer()),
            pam: match folded {
                Some(variant) => Pam::Folded(variant),
                None => Pam::Staged {
                    pat: self.pat.device_buffer(),
                    pat_index: self.pat_index.device_buffer(),
                    plen: self.pattern.plen(),
                },
            },
            out: FinderOutput {
                loci: self.loci.device_buffer(),
                flags: self.flags.device_buffer(),
                count: self.fcount.device_buffer(),
            },
            scan_len: scan_len as u32,
            seq_len: payload.len() as u32,
        };
        let k = &self.finders[form as usize];
        for (i, arg) in finder_args(&launch).into_iter().enumerate() {
            k.set_arg(i, arg)?;
        }

        // Step 10: enqueue the finder.
        let gws = round_up(scan_len, self.rounding);
        let ev = self.queue.enqueue_nd_range_kernel(k, gws, self.lws)?;
        ev.wait(); // step 12
        timing.finder_s += ocl_kernel_s(&ev, profile);
        timing.finder_launches += 1;

        let n = self.read_count(&self.fcount, timing)?;
        timing.candidates += n as u64;
        // Remember the fresh list's identity for cached replays, and hand
        // it to an armed capture.
        self.cand_token.set(token.map(|t| (t, n as u32)));
        self.capture.record(n, timing, |loci, flags| {
            let r1 = self.queue.enqueue_read_buffer(&self.loci, true, 0, loci)?;
            let r2 = self
                .queue
                .enqueue_read_buffer(&self.flags, true, 0, flags)?;
            Ok::<_, ClError>(r1.duration_s() + r2.duration_s())
        })?;
        Ok(n)
    }

    /// Stage a cached candidate list into the `loci`/`flags` scratch in
    /// place of a finder pass — skipping even that upload when the same
    /// list is still staged from a run under `token`. Returns its length.
    fn stage_candidates(
        &self,
        token: Option<u64>,
        sites: &CandidateSites,
        timing: &mut TimingBreakdown,
    ) -> ClResult<usize> {
        let n = sites.len();
        assert!(n <= self.cap, "candidate list exceeds runner capacity");
        let id = token.map(|t| (t, n as u32));
        let staged = id.is_some() && self.cand_token.get() == id;
        skip_finder(self.queue.device(), sites, staged, timing);
        if !staged {
            if n > 0 {
                let w1 = self
                    .queue
                    .enqueue_write_buffer(&self.loci, true, 0, &sites.loci)?;
                let w2 = self
                    .queue
                    .enqueue_write_buffer(&self.flags, true, 0, &sites.flags)?;
                timing.transfer_s += w1.duration_s() + w2.duration_s();
            }
            self.cand_token.set(id);
        }
        Ok(n)
    }

    /// Read a one-element counter back to the host (a timed d2h transfer).
    fn read_count(&self, counter: &ClBuffer<u32>, timing: &mut TimingBreakdown) -> ClResult<usize> {
        let mut n = [0u32];
        let r = self.queue.enqueue_read_buffer(counter, true, 0, &mut n)?;
        timing.transfer_s += r.duration_s();
        Ok(n[0] as usize)
    }

    /// The comparer stage against `n` candidates staged in `loci`/`flags`:
    /// one launch per prepared query — generic, or the query's specialized
    /// variant — or, on a fused runner with several queries, one
    /// `comparer_multi*` launch per guide block. `route` picks the kernel
    /// family and the payload buffers bound ahead of the shared arguments.
    #[allow(clippy::too_many_arguments)]
    fn run_comparers(
        &self,
        route: ComparerRoute,
        slot: &OclPayload,
        n: usize,
        tables: &OclQueryTables,
        timing: &mut TimingBreakdown,
        profile: &mut Profile,
        per_query: &mut [QueryEntries],
    ) -> ClResult<()> {
        let plen = self.pattern.plen();
        let encoding = route.encoding() as usize;
        let gws = round_up(n, self.rounding);
        let fused = self.multi.as_ref().filter(|_| tables.len() > 1);
        let mut spec_kernels = tables.spec_kernels.borrow_mut();
        let mut spec_multi = self.spec_multi_kernels.borrow_mut();
        for block in launch_blocks(tables.len(), fused.is_some()) {
            let first = block.start;
            let (k, pattern) = if let Some(multi) = fused {
                let thresholds: Vec<u16> =
                    tables.entries[block.clone()].iter().map(|e| e.2).collect();
                let (comp, comp_index) = block_tables(&tables.spec_queries[block.clone()]);
                let w1 = self
                    .queue
                    .enqueue_write_buffer(&multi.comp, true, 0, &comp)?;
                let w2 =
                    self.queue
                        .enqueue_write_buffer(&multi.comp_index, true, 0, &comp_index)?;
                let wz = self.queue.enqueue_fill_buffer(&self.ecount, 0u32)?;
                timing.transfer_s += w1.duration_s() + w2.duration_s() + wz.duration_s();
                let (k, thresholds) = match folded_threshold(self.specialize, &thresholds) {
                    Some(t) => {
                        let (k, variant) = self.spec_kernel(&mut spec_multi, None, route, t)?;
                        (k, GuideThresholds::Folded(variant))
                    }
                    None => {
                        let w3 = self.queue.enqueue_write_buffer(
                            &multi.thresholds,
                            true,
                            0,
                            &thresholds,
                        )?;
                        timing.transfer_s += w3.duration_s();
                        let table = multi.thresholds.device_buffer();
                        (&multi.comparers[encoding], GuideThresholds::PerGuide(table))
                    }
                };
                let pattern = Pattern::Block(GuideBlock::new(
                    multi.comp.device_buffer(),
                    multi.comp_index.device_buffer(),
                    plen,
                    block.len(),
                    thresholds,
                    multi.guide.device_buffer(),
                ));
                (k, pattern)
            } else {
                let (comp, comp_index, threshold) = &tables.entries[first];
                let wz = self.queue.enqueue_fill_buffer(&self.ecount, 0u32)?;
                timing.transfer_s += wz.duration_s();
                if self.specialize {
                    let query = Some((first, &tables.spec_queries[first]));
                    let (k, variant) =
                        self.spec_kernel(&mut spec_kernels, query, route, *threshold)?;
                    (k, Pattern::Folded(variant))
                } else {
                    let pattern = Pattern::Staged(StagedPattern::new(
                        generic_table(comp).device_buffer(),
                        generic_table(comp_index).device_buffer(),
                        plen,
                        *threshold,
                    ));
                    (&self.comparers[encoding], pattern)
                }
            };
            let launch = ComparerLaunch {
                chunk: slot
                    .comparer_inputs((!route.reads_payload()).then_some(&self.chr))
                    .try_map(|b| device(&mut (), b))?,
                pattern,
                sites: Sites {
                    loci: self.loci.device_buffer(),
                    flags: self.flags.device_buffer(),
                    locicnt: n as u32,
                    out: ComparerOutput {
                        mm_count: self.mm_count.device_buffer(),
                        direction: self.direction.device_buffer(),
                        loci: self.mm_loci.device_buffer(),
                        count: self.ecount.device_buffer(),
                    },
                },
            };
            for (i, arg) in comparer_args(&launch).into_iter().enumerate() {
                k.set_arg(i, arg)?;
            }
            let guide = fused.map(|m| &m.guide);
            let ev = self.queue.enqueue_nd_range_kernel(k, gws, self.lws)?;
            ev.wait();
            timing.comparer_s += ocl_kernel_s(&ev, profile);
            timing.comparer_launches += 1;
            timing.fused_launches += usize::from(fused.is_some());

            // Step 11 (device->host): read back the surviving entries.
            let m = self.read_count(&self.ecount, timing)?;
            timing.entries += m as u64;
            if m == 0 {
                continue;
            }
            let mut out = LaunchOutput::new(m, guide.is_some());
            let q = &self.queue;
            let mut s = q
                .enqueue_read_buffer(&self.mm_count, true, 0, &mut out.mm)?
                .duration_s()
                + q.enqueue_read_buffer(&self.direction, true, 0, &mut out.dir)?
                    .duration_s()
                + q.enqueue_read_buffer(&self.mm_loci, true, 0, &mut out.pos)?
                    .duration_s();
            if let (Some(buf), Some(host)) = (guide, out.guide.as_mut()) {
                s += q.enqueue_read_buffer(buf, true, 0, host)?.duration_s();
            }
            timing.transfer_s += s;
            out.push_into(per_query, first);
        }
        Ok(())
    }

    /// Upload-only warmup: place `payload` in a resident slot under `token`
    /// without launching a kernel, so a later run with the same token skips
    /// the transfer. Returns whether an upload actually happened (`false`
    /// when the token was already resident).
    ///
    /// # Errors
    ///
    /// Propagates OpenCL-level failures.
    ///
    /// # Panics
    ///
    /// Panics if the chunk exceeds the runner's configured capacity.
    pub fn prefetch(&self, token: u64, payload: &ChunkPayload) -> ClResult<bool> {
        let payload = payload.view();
        self.check_capacity(payload.len(), 0);
        let (slot, reused) = self.claim(payload.form(), Some(token));
        if !reused {
            self.write_payload(slot, payload)?;
        }
        Ok(!reused)
    }

    /// Block until every enqueued command completes.
    pub fn finish(&self) {
        self.queue.finish();
    }

    /// Step 13: explicitly release every owned object.
    pub fn release(self) {
        let kernels = self.finders.into_iter().chain(self.comparers);
        kernels.for_each(Kernel::release);
        if let Some(m) = self.multi {
            m.comparers.into_iter().for_each(Kernel::release);
            m.comp.release();
            m.comp_index.release();
            m.thresholds.release();
            m.guide.release();
        }
        for (_, (program, kernel, _)) in self.spec_multi_kernels.into_inner() {
            kernel.release();
            program.release();
        }
        self.chr.release();
        for slot in self.slots {
            match slot {
                PayloadBuffers::Raw(buf) | PayloadBuffers::Nibble(buf) => buf.release(),
                PayloadBuffers::Packed {
                    words,
                    mask,
                    exc_pos,
                    exc_val,
                } => {
                    words.release();
                    mask.release();
                    exc_pos.release();
                    exc_val.release();
                }
            }
        }
        self.pat.release();
        self.pat_index.release();
        self.loci.release();
        self.flags.release();
        self.fcount.release();
        self.mm_count.release();
        self.direction.release();
        self.mm_loci.release();
        self.ecount.release();
        self.program.release();
        self.queue.release();
    }
}

/// Per-query device tables for the SYCL comparer. When the runner
/// specializes, the tables also keep each query's [`CompiledSeq`] so the
/// comparer stages can fold it into per-(pattern, threshold) variants.
pub struct SyclQueryTables {
    entries: Vec<(Buffer<u8>, Buffer<i32>, u16)>,
    spec_queries: Vec<CompiledSeq>,
}

impl SyclQueryTables {
    /// Number of prepared queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no queries are prepared.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The retained device buffers of one candidate list.
#[derive(Clone)]
struct SyclCandidates {
    loci: Buffer<u32>,
    flags: Buffer<u8>,
    len: usize,
}

/// A buffer over `data`, or a one-element dummy when it is empty: the
/// simulator rejects zero-length allocations, and the kernels never read
/// past the real length.
fn nonempty<T: Scalar>(data: Vec<T>) -> Buffer<T> {
    if data.is_empty() {
        Buffer::from_vec(vec![T::default()])
    } else {
        Buffer::from_vec(data)
    }
}

/// Fresh SYCL buffers holding `payload`, uploaded implicitly by their
/// first accessor.
fn sycl_buffers(payload: Payload<'_>) -> SyclPayload {
    match payload {
        Payload::Raw(seq) => PayloadBuffers::Raw(Buffer::from_slice(seq)),
        Payload::Nibble(nibble) => {
            PayloadBuffers::Nibble(Buffer::from_slice(nibble.nibble_bytes()))
        }
        Payload::Packed(packed) => {
            let (exc_pos, exc_val) = packed.exception_arrays();
            PayloadBuffers::Packed {
                words: Buffer::from_slice(packed.packed_bytes()),
                mask: Buffer::from_slice(packed.mask_bytes()),
                exc_pos: nonempty(exc_pos),
                exc_val: nonempty(exc_val),
            }
        }
    }
}

/// Bind `buffer` for reading (its implicit upload, when not yet bound).
fn read<T: Scalar>(h: &mut Handler<'_>, buffer: &Buffer<T>) -> SyclResult<DeviceBuffer<T>> {
    Ok(h.get_access(buffer, AccessMode::Read)?.raw())
}

/// The SYCL flavour of the chunk-level API: owns the queue and the
/// constant pattern tables; per-chunk buffers are created fresh each call
/// and released implicitly, the way the migrated application manages
/// memory (§III of the paper).
pub struct SyclChunkRunner {
    queue: Queue,
    pattern: CompiledSeq,
    pat_buf: Buffer<u8>,
    pat_index_buf: Buffer<i32>,
    /// Prefer JIT-specialized kernel variants (see
    /// [`crate::kernels::specialize`]); comparer variants are fetched from
    /// the process-wide cache per (query, threshold) at launch time.
    specialize: bool,
    /// The PAM pattern's nibble-finder variant, folded at construction.
    pam_variant: Option<Arc<CompiledVariant>>,
    opt: OptLevel,
    wgs: usize,
    /// Still-bound payload buffers of the last `resident_slots` tokens per
    /// payload form.
    residency: [Residency<SyclPayload>; 3],
    /// Fuse multi-query runs into guide-block comparer launches.
    multi_guide: bool,
    capture: Capture,
    /// Still-bound candidate buffers of recent runs, keyed by chunk token —
    /// a cached replay under a resident token rebinds instead of
    /// re-uploading the list.
    cand_res: Residency<SyclCandidates>,
}

impl SyclChunkRunner {
    /// Build the runner for `pattern_seq` on `config`'s device: selector,
    /// queue, and the constant-memory pattern tables.
    ///
    /// # Errors
    ///
    /// Propagates SYCL exceptions.
    pub fn new(config: &PipelineConfig, pattern_seq: &[u8]) -> SyclResult<Self> {
        let queue = Queue::with_mode(&SpecSelector(config.device.clone()), config.exec)?;
        let pattern = CompiledSeq::compile(pattern_seq);
        let pat_buf = Buffer::from_slice(pattern.comp()).constant();
        let pat_index_buf = Buffer::from_slice(pattern.comp_index()).constant();
        let pam_variant = config.specialize.then(|| {
            specialize::global_cache().get_or_compile(VariantKind::NibbleFinder, &pattern, 0)
        });
        let resident_cap = config.resident_slots.max(1);
        Ok(SyclChunkRunner {
            queue,
            pattern,
            pat_buf,
            pat_index_buf,
            specialize: config.specialize,
            pam_variant,
            opt: config.opt,
            wgs: config
                .work_group_size
                .unwrap_or(super::sycl::SYCL_WORK_GROUP_SIZE),
            residency: [0, 1, 2].map(|_| Residency::new(resident_cap)),
            multi_guide: config.multi_guide,
            capture: Capture::default(),
            cand_res: Residency::new(resident_cap),
        })
    }

    /// Upload the comparer tables for `queries`.
    pub fn prepare_queries(&self, queries: &[Query]) -> SyclQueryTables {
        let mut spec_queries = Vec::new();
        let entries = queries
            .iter()
            .map(|q| {
                let c = CompiledSeq::compile(&q.seq);
                let e = (
                    Buffer::from_slice(c.comp()),
                    Buffer::from_slice(c.comp_index()),
                    q.max_mismatches,
                );
                // Both the specialized and the fused paths consume compiled
                // sequences rather than the table buffers (which only charge
                // traffic if bound, so keeping them is free).
                if self.specialize || self.multi_guide {
                    spec_queries.push(c);
                }
                e
            })
            .collect();
        SyclQueryTables {
            entries,
            spec_queries,
        }
    }

    /// Run one finder→comparer interaction over `payload` (see
    /// [`OclChunkRunner::run`] for the contract). The payload buffers of
    /// the last `resident_slots` tokens per form stay bound on the device,
    /// and a resident `token` rebinds them instead of uploading; a run
    /// without a token leaves the residency set untouched. Counters and
    /// entries come back through handler copies (Table III).
    ///
    /// # Errors
    ///
    /// Propagates SYCL exceptions.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is given for a payload whose
    /// [`ComparerRoute`] does not [read the payload](ComparerRoute::reads_payload).
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        token: Option<u64>,
        payload: &ChunkPayload,
        scan_len: usize,
        candidates: Option<&CandidateSites>,
        tables: &SyclQueryTables,
        timing: &mut TimingBreakdown,
        profile: &mut Profile,
    ) -> SyclResult<(Vec<QueryEntries>, bool)> {
        let payload = payload.view();
        self.exec(
            token, payload, scan_len, candidates, tables, timing, profile,
        )
    }

    payload_forwards!(SyclQueryTables, SyclResult);

    #[allow(clippy::too_many_arguments)]
    fn exec(
        &self,
        token: Option<u64>,
        payload: Payload<'_>,
        scan_len: usize,
        candidates: Option<&CandidateSites>,
        tables: &SyclQueryTables,
        timing: &mut TimingBreakdown,
        profile: &mut Profile,
    ) -> SyclResult<(Vec<QueryEntries>, bool)> {
        let route = payload.route();
        check_cached_route(route, candidates);
        let mut per_query = vec![Vec::new(); tables.len()];

        // Rebind the buffers resident under `token`, or wrap the payload in
        // fresh ones (uploaded by their first accessor) and retain them.
        let set = &self.residency[payload.form() as usize];
        let hit = token.and_then(|t| set.take(t));
        let reused = hit.is_some();
        if reused {
            self.queue
                .device()
                .record_h2d_skipped(payload.upload_bytes());
        }
        let bufs = hit.unwrap_or_else(|| sycl_buffers(payload));
        if token.is_some() {
            set.insert(token, bufs.clone());
        }
        // Per-chunk buffers; released implicitly when they drop. The decode
        // target is `no_init`: the packed and nibble finders fully
        // overwrite it, so it carries no implicit upload.
        let decoded = Buffer::<u8>::uninit(payload.len());
        let (loci, flags, n) = match candidates {
            Some(sites) => self.stage_candidates(token, sites, timing),
            None => self.run_finder(token, payload, &bufs, &decoded, scan_len, timing, profile)?,
        };
        if n > 0 {
            let inputs = bufs.comparer_inputs((!route.reads_payload()).then_some(&decoded));
            self.run_comparers(
                route,
                inputs,
                (&loci, &flags, n),
                tables,
                timing,
                profile,
                &mut per_query,
            )?;
        }
        Ok((per_query, reused))
    }

    /// The finder command group: bind the payload's buffers (implicit
    /// upload) and its finder, then read the candidate count back. Returns
    /// the bound candidate buffers and the count.
    #[allow(clippy::too_many_arguments)]
    fn run_finder(
        &self,
        token: Option<u64>,
        payload: Payload<'_>,
        bufs: &SyclPayload,
        decoded: &Buffer<u8>,
        scan_len: usize,
        timing: &mut TimingBreakdown,
        profile: &mut Profile,
    ) -> SyclResult<(Buffer<u32>, Buffer<u8>, usize)> {
        // The kernel-output arrays are `no_init`: the finder fully
        // overwrites the slots it uses.
        let loci_buf = Buffer::<u32>::uninit(scan_len);
        let flags_buf = Buffer::<u8>::uninit(scan_len);
        let fcount_buf = Buffer::<u32>::new(1);
        let form = payload.form();
        let folded = folded_pam(&self.pam_variant, form);

        // Command group: bind accessors (implicit upload) + finder kernel.
        let ev = self.queue.submit(|h| {
            let range = NdRange::linear(round_up(scan_len, self.wgs), self.wgs);
            let payload_bufs = bufs.bind(h, read, read)?;
            let decoded = match form.decodes(folded.is_some()) {
                true => Some(h.get_access(decoded, AccessMode::ReadWrite)?.raw()),
                false => None,
            };
            let pam = match &folded {
                Some(variant) => Pam::Folded(Arc::clone(variant)),
                None => Pam::Staged {
                    pat: read(h, &self.pat_buf)?,
                    pat_index: read(h, &self.pat_index_buf)?,
                    plen: self.pattern.plen(),
                },
            };
            FinderLaunch {
                payload: payload_bufs,
                exceptions: payload.exceptions(),
                decoded,
                pam,
                // Loci and flags write-only (no upload), the counter
                // read-write.
                out: FinderOutput {
                    loci: h.get_access(&loci_buf, AccessMode::Write)?.raw(),
                    flags: h.get_access(&flags_buf, AccessMode::Write)?.raw(),
                    count: h.get_access(&fcount_buf, AccessMode::ReadWrite)?.raw(),
                },
                scan_len: scan_len as u32,
                seq_len: payload.len() as u32,
            }
            .build(SyclLaunch(h, range))
        })?;
        ev.wait();
        let finder_s = sycl_kernel_s(&ev, profile, timing);
        timing.finder_s += finder_s;
        timing.finder_launches += 1;

        let n = self.read_count(&fcount_buf, timing)?;
        timing.candidates += n as u64;
        self.capture.record(n, timing, |loci, flags| {
            let ev = self.queue.submit(|h| {
                let l = h.get_access(&loci_buf, AccessMode::Read)?;
                let f = h.get_access(&flags_buf, AccessMode::Read)?;
                h.copy_from_device(&l, loci)?;
                h.copy_from_device(&f, flags)
            })?;
            Ok::<_, SyclException>(ev.duration_s())
        })?;
        // Retain the still-bound list for cached replays under the token.
        if token.is_some() {
            let retained = SyclCandidates {
                loci: loci_buf.clone(),
                flags: flags_buf.clone(),
                len: n,
            };
            self.cand_res.insert(token, retained);
        }
        Ok((loci_buf, flags_buf, n))
    }

    /// Produce bound loci/flags buffers for a cached candidate list in
    /// place of a finder pass — rebinding the still-resident buffers of an
    /// earlier run under `token` when their length matches, uploading fresh
    /// ones otherwise.
    fn stage_candidates(
        &self,
        token: Option<u64>,
        sites: &CandidateSites,
        timing: &mut TimingBreakdown,
    ) -> (Buffer<u32>, Buffer<u8>, usize) {
        let n = sites.len();
        let staged = token
            .and_then(|t| self.cand_res.take(t))
            .filter(|c| c.len == n);
        skip_finder(self.queue.device(), sites, staged.is_some(), timing);
        let list = staged.unwrap_or_else(|| SyclCandidates {
            loci: nonempty(sites.loci.clone()),
            flags: nonempty(sites.flags.clone()),
            len: n,
        });
        if token.is_some() {
            self.cand_res.insert(token, list.clone());
        }
        (list.loci, list.flags, n)
    }

    /// Read a one-element counter back through a handler copy (Table III).
    fn read_count(&self, counter: &Buffer<u32>, timing: &mut TimingBreakdown) -> SyclResult<usize> {
        let mut n = [0u32];
        let ev = self.queue.submit(|h| {
            let acc = h.get_access(counter, AccessMode::Read)?;
            h.copy_from_device(&acc, &mut n)
        })?;
        timing.transfer_s += ev.duration_s();
        Ok(n[0] as usize)
    }

    /// The comparer stage (see [`OclChunkRunner`]'s): one command group per
    /// prepared query, or per guide block on a fused runner, reading
    /// `inputs` — the payload buffers `route` binds — and the `n`
    /// candidates in `candidates`.
    #[allow(clippy::too_many_arguments)]
    fn run_comparers(
        &self,
        route: ComparerRoute,
        inputs: ChunkBuffers<&Buffer<u8>>,
        candidates: (&Buffer<u32>, &Buffer<u8>, usize),
        tables: &SyclQueryTables,
        timing: &mut TimingBreakdown,
        profile: &mut Profile,
        per_query: &mut [QueryEntries],
    ) -> SyclResult<()> {
        let (loci_buf, flags_buf, n) = candidates;
        let plen = self.pattern.plen();
        let range = NdRange::linear(round_up(n, self.wgs), self.wgs);
        let fused = self.multi_guide && tables.len() > 1;
        let cache = specialize::global_cache();
        for block in launch_blocks(tables.len(), fused) {
            let (first, g) = (block.start, block.len());
            let (comp_buf, comp_index_buf, threshold) = &tables.entries[first];
            let outputs = 2 * g * n;
            let out_mm = Buffer::<u16>::uninit(outputs);
            let out_dir = Buffer::<u8>::uninit(outputs);
            let out_loci = Buffer::<u32>::uninit(outputs);
            let out_count = Buffer::<u32>::new(1);
            let guide = fused.then(|| Buffer::<u16>::uninit(outputs));

            let ev = self.queue.submit(|h| {
                let chunk = inputs.clone().try_map(|b| read(h, b))?;
                let loci = read(h, loci_buf)?;
                let flags = read(h, flags_buf)?;
                // Tables bind before the outputs, per-guide thresholds after.
                let outputs = |h: &mut Handler<'_>| -> SyclResult<_> {
                    Ok(ComparerOutput {
                        mm_count: h.get_access(&out_mm, AccessMode::Write)?.raw(),
                        direction: h.get_access(&out_dir, AccessMode::Write)?.raw(),
                        loci: h.get_access(&out_loci, AccessMode::Write)?.raw(),
                        count: h.get_access(&out_count, AccessMode::ReadWrite)?.raw(),
                    })
                };
                let (pattern, out) = match &guide {
                    // A fused block stages its concatenated tables, plus
                    // the per-guide thresholds unless they fold into its
                    // variant.
                    Some(guide) => {
                        let (comp, comp_index) = block_tables(&tables.spec_queries[block.clone()]);
                        let comp = read(h, &Buffer::from_vec(comp))?;
                        let comp_index = read(h, &Buffer::from_vec(comp_index))?;
                        let out = outputs(h)?;
                        let guide = h.get_access(guide, AccessMode::Write)?.raw();
                        let thresholds: Vec<u16> =
                            tables.entries[block].iter().map(|e| e.2).collect();
                        let thresholds = match folded_threshold(self.specialize, &thresholds) {
                            Some(t) => GuideThresholds::Folded(cache.get_or_compile(
                                VariantKind::MultiComparer,
                                &self.pattern,
                                t,
                            )),
                            None => {
                                GuideThresholds::PerGuide(read(h, &Buffer::from_vec(thresholds))?)
                            }
                        };
                        let pattern = Pattern::Block(GuideBlock::new(
                            comp, comp_index, plen, g, thresholds, guide,
                        ));
                        (pattern, out)
                    }
                    None if self.specialize => {
                        let query = &tables.spec_queries[first];
                        let variant = cache.get_or_compile(route.variant(), query, *threshold);
                        (Pattern::Folded(variant), outputs(h)?)
                    }
                    None => {
                        let pattern = Pattern::Staged(StagedPattern::new(
                            read(h, comp_buf)?,
                            read(h, comp_index_buf)?,
                            plen,
                            *threshold,
                        ));
                        (pattern, outputs(h)?)
                    }
                };
                let sites = Sites {
                    loci,
                    flags,
                    locicnt: n as u32,
                    out,
                };
                ComparerLaunch {
                    chunk,
                    pattern,
                    sites,
                }
                .build_at(self.opt, SyclLaunch(h, range))
            })?;
            ev.wait();
            let comparer_s = sycl_kernel_s(&ev, profile, timing);
            timing.comparer_s += comparer_s;
            timing.comparer_launches += 1;
            timing.fused_launches += usize::from(fused);

            let m = self.read_count(&out_count, timing)?;
            timing.entries += m as u64;
            if m == 0 {
                continue;
            }
            let mut out = LaunchOutput::new(m, fused);
            let ev = self.queue.submit(|h| {
                let mm = h.get_access(&out_mm, AccessMode::Read)?;
                let dir = h.get_access(&out_dir, AccessMode::Read)?;
                let pos = h.get_access(&out_loci, AccessMode::Read)?;
                h.copy_from_device(&mm, &mut out.mm)?;
                h.copy_from_device(&dir, &mut out.dir)?;
                h.copy_from_device(&pos, &mut out.pos)?;
                if let (Some(buf), Some(host)) = (&guide, out.guide.as_mut()) {
                    let gid = h.get_access(buf, AccessMode::Read)?;
                    h.copy_from_device(&gid, host)?;
                }
                Ok(())
            })?;
            timing.transfer_s += ev.duration_s();
            out.push_into(per_query, first);
        }
        Ok(())
    }

    /// Upload-only warmup: bind `payload`'s buffers in a kernel-less command
    /// group (charging the implicit accessor upload, exactly as the cold run
    /// path does) and retain them under `token`, so a later run with the
    /// same token rebinds instead of uploading. Returns whether an upload
    /// actually happened (`false` when the token was already resident).
    ///
    /// # Errors
    ///
    /// Propagates SYCL exceptions.
    pub fn prefetch(&self, token: u64, payload: &ChunkPayload) -> SyclResult<bool> {
        let payload = payload.view();
        let set = &self.residency[payload.form() as usize];
        if let Some(bufs) = set.take(token) {
            set.insert(Some(token), bufs);
            return Ok(false);
        }
        let bufs = sycl_buffers(payload);
        self.queue.submit(|h| bufs.bind(h, read, read).map(drop))?;
        set.insert(Some(token), bufs);
        Ok(true)
    }

    /// Block until every submitted command group completes.
    pub fn wait(&self) {
        self.queue.wait();
    }
}

/// A failure of either host API, as [`ChunkRunner`] reports it.
pub type ApiError = Box<dyn std::error::Error + Send + Sync>;

/// Either host API's chunk runner behind one interface, for callers that
/// choose the API per device.
pub enum ChunkRunner {
    /// The OpenCL flavour.
    Ocl(Box<OclChunkRunner>),
    /// The SYCL flavour.
    Sycl(Box<SyclChunkRunner>),
}

/// Query tables prepared by one [`ChunkRunner`], valid for that runner
/// only.
pub enum QueryTables {
    /// Tables of an OpenCL runner.
    Ocl(OclQueryTables),
    /// Tables of a SYCL runner.
    Sycl(SyclQueryTables),
}

impl QueryTables {
    /// Release the tables: step 13 on OpenCL; SYCL tables drop implicitly.
    pub fn release(self) {
        if let QueryTables::Ocl(tables) = self {
            tables.release();
        }
    }
}

/// Evaluate `$body` with `$r` bound to whichever runner `$runner` holds.
macro_rules! either {
    ($runner:expr, $r:ident => $body:expr) => {
        match $runner {
            ChunkRunner::Ocl($r) => $body,
            ChunkRunner::Sycl($r) => $body,
        }
    };
}

impl ChunkRunner {
    /// Build the `api` runner for `pattern` on `config`'s device.
    ///
    /// # Errors
    ///
    /// Propagates host-API setup failures.
    pub fn new(api: Api, config: &PipelineConfig, pattern: &[u8]) -> Result<Self, ApiError> {
        Ok(match api {
            Api::OpenCl => ChunkRunner::Ocl(Box::new(OclChunkRunner::new(config, pattern)?)),
            Api::Sycl => ChunkRunner::Sycl(Box::new(SyclChunkRunner::new(config, pattern)?)),
        })
    }

    /// Upload the comparer tables for `queries`.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures.
    pub fn prepare(&self, queries: &[Query]) -> Result<QueryTables, ApiError> {
        Ok(match self {
            ChunkRunner::Ocl(r) => QueryTables::Ocl(r.prepare_queries(queries)?),
            ChunkRunner::Sycl(r) => QueryTables::Sycl(r.prepare_queries(queries)),
        })
    }

    /// Run one chunk; see [`OclChunkRunner::run`] for the contract.
    ///
    /// # Errors
    ///
    /// Propagates host-API failures.
    ///
    /// # Panics
    ///
    /// Panics if `tables` were prepared by a runner of the other API, or as
    /// [`OclChunkRunner::run`] does.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        token: Option<u64>,
        payload: &ChunkPayload,
        scan_len: usize,
        candidates: Option<&CandidateSites>,
        tables: &QueryTables,
        timing: &mut TimingBreakdown,
        profile: &mut Profile,
    ) -> Result<(Vec<QueryEntries>, bool), ApiError> {
        Ok(match (self, tables) {
            (ChunkRunner::Ocl(r), QueryTables::Ocl(t)) => {
                r.run(token, payload, scan_len, candidates, t, timing, profile)?
            }
            (ChunkRunner::Sycl(r), QueryTables::Sycl(t)) => {
                r.run(token, payload, scan_len, candidates, t, timing, profile)?
            }
            _ => panic!("query tables belong to a runner of the other API"),
        })
    }

    /// Upload-only warmup of `payload` under `token`; returns whether an
    /// upload happened.
    ///
    /// # Errors
    ///
    /// Propagates host-API failures.
    pub fn prefetch(&self, token: u64, payload: &ChunkPayload) -> Result<bool, ApiError> {
        Ok(either!(self, r => r.prefetch(token, payload)?))
    }

    /// Arm or disarm candidate capture (see
    /// [`OclChunkRunner::set_capture_candidates`]).
    pub fn set_capture_candidates(&self, on: bool) {
        either!(self, r => r.set_capture_candidates(on))
    }

    /// Take the candidate list captured by the most recent finder pass.
    pub fn take_captured_candidates(&self) -> Option<CandidateSites> {
        either!(self, r => r.take_captured_candidates())
    }

    /// Simulated device time consumed so far, in seconds, once every
    /// enqueued command has completed.
    pub fn elapsed_s(&self) -> f64 {
        match self {
            ChunkRunner::Ocl(r) => r.finish(),
            ChunkRunner::Sycl(r) => r.wait(),
        }
        either!(self, r => r.elapsed_s())
    }

    /// Transfer/launch counters of the underlying simulated device.
    pub fn traffic(&self) -> TrafficSnapshot {
        either!(self, r => r.traffic())
    }

    /// Release every owned object: step 13 on OpenCL; SYCL resources drop
    /// implicitly.
    pub fn release(self) {
        if let ChunkRunner::Ocl(r) = self {
            r.release();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::SearchInput;
    use crate::pipeline::entries_to_offtargets;
    use crate::site::sort_canonical;
    use genome::{Assembly, Chromosome, Chunker};
    use gpu_sim::{DeviceSpec, ExecMode};

    fn toy() -> (Assembly, SearchInput) {
        let mut asm = Assembly::new("toy");
        asm.push(Chromosome::new(
            "chr1",
            b"ACGTACGTAGGTTTACGTACGAAGCCCCCACGTACGTCGG".to_vec(),
        ));
        let input = SearchInput::parse("toy\nNNNNNNNNNRG\nACGTACGTNNN 3\n").unwrap();
        (asm, input)
    }

    fn config() -> PipelineConfig {
        PipelineConfig::new(DeviceSpec::mi100())
            .chunk_size(16)
            .exec_mode(ExecMode::Sequential)
    }

    #[test]
    fn ocl_runner_reproduces_the_serial_pipeline() {
        let (asm, input) = toy();
        let cfg = config();
        let runner = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries).unwrap();
        let plen = runner.plen();
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let mut offtargets = Vec::new();
        for chunk in Chunker::new(&asm, cfg.chunk_size, plen) {
            if chunk.seq.len() < plen {
                continue;
            }
            let per_query = runner
                .run_chunk(
                    chunk.seq,
                    chunk.scan_len,
                    &tables,
                    &mut timing,
                    &mut profile,
                )
                .unwrap();
            for (query, entries) in input.queries.iter().zip(&per_query) {
                entries_to_offtargets(&chunk, &query.seq, plen, entries, &mut offtargets);
            }
        }
        sort_canonical(&mut offtargets);
        assert_eq!(offtargets, crate::cpu::search_sequential(&asm, &input));
        assert!(timing.finder_launches >= 2);
        tables.release();
        runner.release();
    }

    #[test]
    fn sycl_runner_reproduces_the_serial_pipeline() {
        let (asm, input) = toy();
        let cfg = config();
        let runner = SyclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries);
        let plen = runner.plen();
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let mut offtargets = Vec::new();
        for chunk in Chunker::new(&asm, cfg.chunk_size, plen) {
            if chunk.seq.len() < plen {
                continue;
            }
            let per_query = runner
                .run_chunk(
                    chunk.seq,
                    chunk.scan_len,
                    &tables,
                    &mut timing,
                    &mut profile,
                )
                .unwrap();
            for (query, entries) in input.queries.iter().zip(&per_query) {
                entries_to_offtargets(&chunk, &query.seq, plen, entries, &mut offtargets);
            }
        }
        runner.wait();
        sort_canonical(&mut offtargets);
        assert_eq!(offtargets, crate::cpu::search_sequential(&asm, &input));
    }

    /// The toy assembly plus a chromosome exercising every packed-path
    /// special case: masked N runs, a degenerate base ('R', which the
    /// lossless exception list must preserve — genome R matches pattern N,
    /// unlike N), and ordinary ACGT.
    fn toy_with_ambiguity() -> (Assembly, SearchInput) {
        let (mut asm, input) = toy();
        asm.push(Chromosome::new(
            "chr2",
            b"NNNNACGTACGTAGGTTTACGTACGRAGCCCCCACGTACGTCGGNNNN".to_vec(),
        ));
        (asm, input)
    }

    #[test]
    fn packed_ocl_runner_matches_the_char_path_with_fewer_upload_bytes() {
        let (asm, input) = toy_with_ambiguity();
        let cfg = config();
        let runner = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries).unwrap();
        let plen = runner.plen();
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let (mut char_h2d, mut packed_h2d) = (0u64, 0u64);
        let mut offtargets = Vec::new();
        for chunk in Chunker::new(&asm, cfg.chunk_size, plen) {
            if chunk.seq.len() < plen {
                continue;
            }
            let before = runner.traffic().h2d_bytes;
            let plain = runner
                .run_chunk(
                    chunk.seq,
                    chunk.scan_len,
                    &tables,
                    &mut timing,
                    &mut profile,
                )
                .unwrap();
            let mid = runner.traffic().h2d_bytes;
            let packed = PackedSeq::encode(chunk.seq);
            let per_query = runner
                .run(
                    None,
                    &ChunkPayload::Packed(packed.clone()),
                    chunk.scan_len,
                    None,
                    &tables,
                    &mut timing,
                    &mut profile,
                )
                .map(|(q, _)| q)
                .unwrap();
            let after = runner.traffic().h2d_bytes;
            assert_eq!(per_query, plain, "packed path must be byte-identical");
            char_h2d += mid - before;
            packed_h2d += after - mid;
            for (query, entries) in input.queries.iter().zip(&per_query) {
                entries_to_offtargets(&chunk, &query.seq, plen, entries, &mut offtargets);
            }
        }
        assert!(
            packed_h2d < char_h2d,
            "packed upload ({packed_h2d} B) must undercut the char upload ({char_h2d} B)"
        );
        sort_canonical(&mut offtargets);
        assert_eq!(offtargets, crate::cpu::search_sequential(&asm, &input));
        tables.release();
        runner.release();
    }

    #[test]
    fn packed_sycl_runner_reproduces_the_serial_pipeline() {
        let (asm, input) = toy_with_ambiguity();
        let cfg = config();
        let runner = SyclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries);
        let plen = runner.plen();
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let mut offtargets = Vec::new();
        for chunk in Chunker::new(&asm, cfg.chunk_size, plen) {
            if chunk.seq.len() < plen {
                continue;
            }
            let packed = PackedSeq::encode(chunk.seq);
            let per_query = runner
                .run(
                    None,
                    &ChunkPayload::Packed(packed.clone()),
                    chunk.scan_len,
                    None,
                    &tables,
                    &mut timing,
                    &mut profile,
                )
                .map(|(q, _)| q)
                .unwrap();
            for (query, entries) in input.queries.iter().zip(&per_query) {
                entries_to_offtargets(&chunk, &query.seq, plen, entries, &mut offtargets);
            }
        }
        runner.wait();
        sort_canonical(&mut offtargets);
        assert_eq!(offtargets, crate::cpu::search_sequential(&asm, &input));
        assert!(timing.finder_launches >= 2);
    }

    /// A chromosome dense in soft-masked runs and degenerate codes — the
    /// 2-bit encoding would carry an exception for most bases and fall back
    /// to the char comparer, the exact pathology the nibble path removes.
    fn toy_exception_dense() -> (Assembly, SearchInput) {
        let (mut asm, input) = toy();
        asm.push(Chromosome::new(
            "chr2",
            b"nnnnacgtacgtaggtttacgtacgRagccyccacgtwcgtcggnnnn".to_vec(),
        ));
        (asm, input)
    }

    #[test]
    fn nibble_ocl_runner_matches_the_char_path_with_fewer_upload_bytes() {
        let (asm, input) = toy_exception_dense();
        let cfg = config();
        let runner = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries).unwrap();
        let plen = runner.plen();
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let (mut char_h2d, mut nibble_h2d) = (0u64, 0u64);
        let mut offtargets = Vec::new();
        for chunk in Chunker::new(&asm, cfg.chunk_size, plen) {
            if chunk.seq.len() < plen {
                continue;
            }
            let before = runner.traffic().h2d_bytes;
            let plain = runner
                .run_chunk(
                    chunk.seq,
                    chunk.scan_len,
                    &tables,
                    &mut timing,
                    &mut profile,
                )
                .unwrap();
            let mid = runner.traffic().h2d_bytes;
            let nibble = NibbleSeq::encode(chunk.seq);
            let per_query = runner
                .run(
                    None,
                    &ChunkPayload::Nibble(nibble.clone()),
                    chunk.scan_len,
                    None,
                    &tables,
                    &mut timing,
                    &mut profile,
                )
                .map(|(q, _)| q)
                .unwrap();
            let after = runner.traffic().h2d_bytes;
            assert_eq!(per_query, plain, "nibble path must be byte-identical");
            char_h2d += mid - before;
            nibble_h2d += after - mid;
            for (query, entries) in input.queries.iter().zip(&per_query) {
                entries_to_offtargets(&chunk, &query.seq, plen, entries, &mut offtargets);
            }
        }
        assert!(
            (nibble_h2d as f64) < char_h2d as f64 * 0.55 + 8.0,
            "nibble upload ({nibble_h2d} B) must be about half the char upload ({char_h2d} B)"
        );
        sort_canonical(&mut offtargets);
        assert_eq!(offtargets, crate::cpu::search_sequential(&asm, &input));
        tables.release();
        runner.release();
    }

    #[test]
    fn nibble_sycl_runner_reproduces_the_serial_pipeline() {
        let (asm, input) = toy_exception_dense();
        let cfg = config();
        let runner = SyclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries);
        let plen = runner.plen();
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let mut offtargets = Vec::new();
        for chunk in Chunker::new(&asm, cfg.chunk_size, plen) {
            if chunk.seq.len() < plen {
                continue;
            }
            let nibble = NibbleSeq::encode(chunk.seq);
            let per_query = runner
                .run(
                    None,
                    &ChunkPayload::Nibble(nibble.clone()),
                    chunk.scan_len,
                    None,
                    &tables,
                    &mut timing,
                    &mut profile,
                )
                .map(|(q, _)| q)
                .unwrap();
            for (query, entries) in input.queries.iter().zip(&per_query) {
                entries_to_offtargets(&chunk, &query.seq, plen, entries, &mut offtargets);
            }
        }
        runner.wait();
        sort_canonical(&mut offtargets);
        assert_eq!(offtargets, crate::cpu::search_sequential(&asm, &input));
        assert!(timing.finder_launches >= 2);
    }

    #[test]
    fn resident_nibble_rerun_skips_the_upload_and_matches() {
        let (asm, input) = toy_exception_dense();
        let cfg = config().chunk_size(64).resident_slots(2);
        let runner = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries).unwrap();
        let chunk = Chunker::new(&asm, 64, runner.plen()).next().unwrap();
        let nibble = NibbleSeq::encode(chunk.seq);
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();

        let before = runner.traffic();
        let (first, reused) = runner
            .run_nibble_chunk_resident(
                5,
                &nibble,
                chunk.scan_len,
                &tables,
                &mut timing,
                &mut profile,
            )
            .unwrap();
        assert!(!reused, "first run must upload");
        let mid = runner.traffic();
        let (second, reused) = runner
            .run_nibble_chunk_resident(
                5,
                &nibble,
                chunk.scan_len,
                &tables,
                &mut timing,
                &mut profile,
            )
            .unwrap();
        let after = runner.traffic();
        assert!(reused, "same token must hit the resident slot");
        assert_eq!(second, first, "resident rerun must be byte-identical");
        assert!(after.since(&mid).h2d_bytes < mid.since(&before).h2d_bytes);
        assert_eq!(
            after.since(&mid).h2d_skipped_bytes,
            nibble.device_byte_len() as u64,
            "the skipped upload must be accounted"
        );
        tables.release();
        runner.release();
    }

    #[test]
    fn sycl_resident_nibble_rerun_skips_the_upload_and_matches() {
        let (asm, input) = toy_exception_dense();
        let cfg = config().chunk_size(64).resident_slots(2);
        let runner = SyclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries);
        let chunk = Chunker::new(&asm, 64, runner.plen()).next().unwrap();
        let nibble = NibbleSeq::encode(chunk.seq);
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();

        let before = runner.traffic();
        let (first, reused) = runner
            .run_nibble_chunk_resident(
                4,
                &nibble,
                chunk.scan_len,
                &tables,
                &mut timing,
                &mut profile,
            )
            .unwrap();
        assert!(!reused);
        let mid = runner.traffic();
        let (second, reused) = runner
            .run_nibble_chunk_resident(
                4,
                &nibble,
                chunk.scan_len,
                &tables,
                &mut timing,
                &mut profile,
            )
            .unwrap();
        let after = runner.traffic();
        assert!(reused, "retained sycl buffer must rebind without upload");
        assert_eq!(second, first);
        assert!(after.since(&mid).h2d_bytes < mid.since(&before).h2d_bytes);
        assert!(after.since(&mid).h2d_skipped_bytes > 0);
        runner.wait();
    }

    #[test]
    fn twobit_dispatch_tolerates_case_but_not_degenerate_codes() {
        // Lowercase concrete bases and `n` are exceptions only for lossless
        // decode; `base_mask` ignores case, so the 2-bit view is equivalent.
        assert!(twobit_compare_safe(&PackedSeq::encode(b"ACGTNNNNACGT")));
        assert!(twobit_compare_safe(&PackedSeq::encode(b"acgtnACGTNtg")));
        // Genome `R` matches pattern `R`/`D`/`V`, its masked stand-in `N`
        // does not: the chunk must fall back to the char comparer.
        assert!(!twobit_compare_safe(&PackedSeq::encode(b"ACGTRACGTACG")));
    }

    #[test]
    fn packed_path_spends_less_comparer_time_than_the_char_path() {
        // An exception-free chunk takes the comparer-2bit stage, which
        // shares packed bytes across four bases instead of loading one
        // byte per base — less simulated comparer time per launch.
        let seq: Vec<u8> = (0..4096usize).map(|i| b"ACGT"[(i * 7 + 3) % 4]).collect();
        let mut asm = Assembly::new("toy");
        asm.push(Chromosome::new("chr1", seq));
        let input = SearchInput::parse("toy\nNNNNNNNNNNN\nACGTACGTNNN 8\n").unwrap();
        let cfg = config().chunk_size(4096);
        let runner = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries).unwrap();
        let plen = runner.plen();
        let chunk = Chunker::new(&asm, cfg.chunk_size, plen).next().unwrap();

        let mut char_t = TimingBreakdown::default();
        let mut packed_t = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let plain = runner
            .run_chunk(
                chunk.seq,
                chunk.scan_len,
                &tables,
                &mut char_t,
                &mut profile,
            )
            .unwrap();
        let packed = PackedSeq::encode(chunk.seq);
        assert!(packed.exceptions().is_empty());
        let per_query = runner
            .run(
                None,
                &ChunkPayload::Packed(packed.clone()),
                chunk.scan_len,
                None,
                &tables,
                &mut packed_t,
                &mut profile,
            )
            .map(|(q, _)| q)
            .unwrap();
        assert_eq!(per_query, plain);
        assert!(char_t.candidates > 0, "the all-N PAM keeps every locus");
        assert!(
            packed_t.comparer_s < char_t.comparer_s,
            "2-bit comparer ({:.3e}s) must beat the char comparer ({:.3e}s)",
            packed_t.comparer_s,
            char_t.comparer_s
        );
        tables.release();
        runner.release();
    }

    #[test]
    fn resident_packed_rerun_skips_the_upload_and_matches() {
        let (asm, input) = toy_with_ambiguity();
        let cfg = config().chunk_size(64).resident_slots(2);
        let runner = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries).unwrap();
        let chunk = Chunker::new(&asm, 64, runner.plen()).next().unwrap();
        let packed = PackedSeq::encode(chunk.seq);
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();

        let before = runner.traffic();
        let (first, reused) = runner
            .run_packed_chunk_resident(
                7,
                &packed,
                chunk.scan_len,
                &tables,
                &mut timing,
                &mut profile,
            )
            .unwrap();
        assert!(!reused, "first run must upload");
        let mid = runner.traffic();
        let (second, reused) = runner
            .run_packed_chunk_resident(
                7,
                &packed,
                chunk.scan_len,
                &tables,
                &mut timing,
                &mut profile,
            )
            .unwrap();
        let after = runner.traffic();
        assert!(reused, "same token must hit the resident slot");
        assert_eq!(second, first, "resident rerun must be byte-identical");
        let first_h2d = mid.since(&before).h2d_bytes;
        let second_h2d = after.since(&mid).h2d_bytes;
        assert!(
            second_h2d < first_h2d,
            "resident rerun uploaded {second_h2d} B, first run {first_h2d} B"
        );
        assert_eq!(
            after.since(&mid).h2d_skipped_bytes,
            packed.packed_bytes().len() as u64
                + packed.mask_bytes().len() as u64
                + 5 * packed.exceptions().len() as u64,
            "the skipped upload must be accounted"
        );
        tables.release();
        runner.release();
    }

    #[test]
    fn resident_slots_evict_least_recently_used() {
        let (asm, input) = toy_with_ambiguity();
        let cfg = config().chunk_size(16).resident_slots(2);
        let runner = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries).unwrap();
        let plen = runner.plen();
        let chunks: Vec<_> = Chunker::new(&asm, 16, plen)
            .filter(|c| c.seq.len() >= plen)
            .take(3)
            .collect();
        assert!(chunks.len() == 3, "need three chunks to overflow two slots");
        let packed: Vec<_> = chunks.iter().map(|c| PackedSeq::encode(c.seq)).collect();
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let mut run = |tok: u64, i: usize| {
            runner
                .run_packed_chunk_resident(
                    tok,
                    &packed[i],
                    chunks[i].scan_len,
                    &tables,
                    &mut timing,
                    &mut profile,
                )
                .unwrap()
                .1
        };
        assert!(!run(0, 0) && !run(1, 1), "cold slots upload");
        assert!(run(0, 0), "both fit: token 0 still resident");
        assert!(!run(2, 2), "third token claims the LRU slot (token 1)");
        assert!(!run(1, 1), "token 1 was evicted, displacing token 0");
        assert!(run(2, 2), "token 2 remains resident in the other slot");
        assert!(!run(0, 0), "token 0 was displaced by token 1's reload");
        tables.release();
        runner.release();
    }

    #[test]
    fn resident_raw_rerun_skips_and_survives_packed_decodes() {
        let (asm, input) = toy();
        let cfg = config().chunk_size(64).resident_slots(2);
        let runner = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries).unwrap();
        let chunk = Chunker::new(&asm, 64, runner.plen()).next().unwrap();
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();

        let (first, reused) = runner
            .run_chunk_resident(
                3,
                chunk.seq,
                chunk.scan_len,
                &tables,
                &mut timing,
                &mut profile,
            )
            .unwrap();
        assert!(!reused);
        let (second, reused) = runner
            .run_chunk_resident(
                3,
                chunk.seq,
                chunk.scan_len,
                &tables,
                &mut timing,
                &mut profile,
            )
            .unwrap();
        assert!(reused, "raw rerun with the same token must skip the upload");
        assert_eq!(second, first);

        // A packed run decodes into its own scratch: the raw copy survives.
        let packed = ChunkPayload::Packed(PackedSeq::encode(chunk.seq));
        let scan = chunk.scan_len;
        runner
            .run(
                None,
                &packed,
                scan,
                None,
                &tables,
                &mut timing,
                &mut profile,
            )
            .unwrap();
        let (third, reused) = runner
            .run_chunk_resident(
                3,
                chunk.seq,
                chunk.scan_len,
                &tables,
                &mut timing,
                &mut profile,
            )
            .unwrap();
        assert!(reused, "a packed decode must not evict the raw copy");
        assert_eq!(third, first);
        tables.release();
        runner.release();
    }

    #[test]
    fn raw_residency_keeps_every_resident_slot_on_both_apis() {
        let (asm, input) = toy();
        let cfg = config().chunk_size(16).resident_slots(2);
        let plen = input.pattern.len();
        let chunks: Vec<_> = Chunker::new(&asm, 16, plen)
            .filter(|c| c.seq.len() >= plen)
            .take(2)
            .map(|c| (ChunkPayload::Raw(c.seq.to_vec()), c.scan_len))
            .collect();
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let ocl = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let sycl = SyclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let (ocl_tables, sycl_tables) = (
            ocl.prepare_queries(&input.queries).unwrap(),
            sycl.prepare_queries(&input.queries),
        );
        // Chunks A, B, then A again: with two slots the second A is a hit.
        for (tok, want) in [(0, false), (1, false), (0, true)] {
            let (payload, scan) = &chunks[tok as usize];
            let (_, o) = ocl
                .run(
                    Some(tok),
                    payload,
                    *scan,
                    None,
                    &ocl_tables,
                    &mut timing,
                    &mut profile,
                )
                .unwrap();
            let (_, s) = sycl
                .run(
                    Some(tok),
                    payload,
                    *scan,
                    None,
                    &sycl_tables,
                    &mut timing,
                    &mut profile,
                )
                .unwrap();
            assert_eq!((o, s), (want, want), "token {tok}");
        }
        ocl_tables.release();
        ocl.release();
    }

    #[test]
    fn sycl_resident_rerun_skips_the_upload_and_matches() {
        let (asm, input) = toy_with_ambiguity();
        let cfg = config().chunk_size(64).resident_slots(2);
        let runner = SyclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries);
        let chunk = Chunker::new(&asm, 64, runner.plen()).next().unwrap();
        let packed = PackedSeq::encode(chunk.seq);
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();

        let before = runner.traffic();
        let (first, reused) = runner
            .run_packed_chunk_resident(
                9,
                &packed,
                chunk.scan_len,
                &tables,
                &mut timing,
                &mut profile,
            )
            .unwrap();
        assert!(!reused);
        let mid = runner.traffic();
        let (second, reused) = runner
            .run_packed_chunk_resident(
                9,
                &packed,
                chunk.scan_len,
                &tables,
                &mut timing,
                &mut profile,
            )
            .unwrap();
        let after = runner.traffic();
        assert!(reused, "retained sycl buffers must rebind without upload");
        assert_eq!(second, first);
        assert!(
            after.since(&mid).h2d_bytes < mid.since(&before).h2d_bytes,
            "resident rerun must move fewer bytes"
        );
        assert!(after.since(&mid).h2d_skipped_bytes > 0);

        // Raw residency is independent of the packed list.
        let (raw1, reused) = runner
            .run_chunk_resident(
                9,
                chunk.seq,
                chunk.scan_len,
                &tables,
                &mut timing,
                &mut profile,
            )
            .unwrap();
        assert!(!reused, "raw and packed residency are separate");
        let (raw2, reused) = runner
            .run_chunk_resident(
                9,
                chunk.seq,
                chunk.scan_len,
                &tables,
                &mut timing,
                &mut profile,
            )
            .unwrap();
        assert!(reused);
        assert_eq!(raw2, raw1);
        runner.wait();
    }

    #[test]
    fn coalescing_queries_saves_finder_launches() {
        // k queries on one chunk must cost 1 finder launch, not k.
        let (asm, _) = toy();
        let input =
            SearchInput::parse("toy\nNNNNNNNNNRG\nACGTACGTNNN 3\nTTTACGTACNN 3\nCCCCCACGTNN 3\n")
                .unwrap();
        let cfg = config().chunk_size(64);
        let runner = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries).unwrap();
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let chunk = Chunker::new(&asm, 64, runner.plen()).next().unwrap();
        let per_query = runner
            .run_chunk(
                chunk.seq,
                chunk.scan_len,
                &tables,
                &mut timing,
                &mut profile,
            )
            .unwrap();
        assert_eq!(per_query.len(), 3);
        assert_eq!(timing.finder_launches, 1);
        assert_eq!(timing.comparer_launches, 3);
        let traffic = runner.traffic();
        assert_eq!(traffic.kernel_launches, 4);
        tables.release();
        runner.release();
    }

    #[test]
    #[should_panic(expected = "exceeds runner capacity")]
    fn oversized_chunks_are_rejected() {
        let (_, input) = toy();
        let cfg = config().chunk_size(8);
        let runner = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries).unwrap();
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let seq = vec![b'A'; 64];
        let _ = runner.run_chunk(&seq, 64, &tables, &mut timing, &mut profile);
    }

    #[test]
    fn specialized_ocl_runner_is_byte_identical_on_every_encoding() {
        let (asm, input) = toy_exception_dense();
        let cfg = config();
        let generic = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let spec = OclChunkRunner::new(&cfg.clone().specialize(true), &input.pattern).unwrap();
        let gt = generic.prepare_queries(&input.queries).unwrap();
        let st = spec.prepare_queries(&input.queries).unwrap();
        let plen = generic.plen();
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        for chunk in Chunker::new(&asm, cfg.chunk_size, plen) {
            if chunk.seq.len() < plen {
                continue;
            }
            let g = generic
                .run_chunk(chunk.seq, chunk.scan_len, &gt, &mut timing, &mut profile)
                .unwrap();
            let s = spec
                .run_chunk(chunk.seq, chunk.scan_len, &st, &mut timing, &mut profile)
                .unwrap();
            assert_eq!(s, g, "specialized char path must be byte-identical");

            let packed = PackedSeq::encode(chunk.seq);
            let g = generic
                .run(
                    None,
                    &ChunkPayload::Packed(packed.clone()),
                    chunk.scan_len,
                    None,
                    &gt,
                    &mut timing,
                    &mut profile,
                )
                .map(|(q, _)| q)
                .unwrap();
            let s = spec
                .run(
                    None,
                    &ChunkPayload::Packed(packed.clone()),
                    chunk.scan_len,
                    None,
                    &st,
                    &mut timing,
                    &mut profile,
                )
                .map(|(q, _)| q)
                .unwrap();
            assert_eq!(s, g, "specialized 2-bit path must be byte-identical");

            let nibble = NibbleSeq::encode(chunk.seq);
            let g = generic
                .run(
                    None,
                    &ChunkPayload::Nibble(nibble.clone()),
                    chunk.scan_len,
                    None,
                    &gt,
                    &mut timing,
                    &mut profile,
                )
                .map(|(q, _)| q)
                .unwrap();
            let s = spec
                .run(
                    None,
                    &ChunkPayload::Nibble(nibble.clone()),
                    chunk.scan_len,
                    None,
                    &st,
                    &mut timing,
                    &mut profile,
                )
                .map(|(q, _)| q)
                .unwrap();
            assert_eq!(s, g, "specialized nibble path must be byte-identical");
        }
        gt.release();
        st.release();
        generic.release();
        spec.release();
    }

    #[test]
    fn specialized_sycl_runner_reproduces_the_serial_pipeline() {
        let (asm, input) = toy_exception_dense();
        let cfg = config().specialize(true);
        let runner = SyclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries);
        let plen = runner.plen();
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let mut offtargets = Vec::new();
        for chunk in Chunker::new(&asm, cfg.chunk_size, plen) {
            if chunk.seq.len() < plen {
                continue;
            }
            let raw = runner
                .run_chunk(
                    chunk.seq,
                    chunk.scan_len,
                    &tables,
                    &mut timing,
                    &mut profile,
                )
                .unwrap();
            let packed = PackedSeq::encode(chunk.seq);
            let on_packed = runner
                .run(
                    None,
                    &ChunkPayload::Packed(packed.clone()),
                    chunk.scan_len,
                    None,
                    &tables,
                    &mut timing,
                    &mut profile,
                )
                .map(|(q, _)| q)
                .unwrap();
            assert_eq!(on_packed, raw, "specialized 2-bit path must match char");
            let nibble = NibbleSeq::encode(chunk.seq);
            let on_nibble = runner
                .run(
                    None,
                    &ChunkPayload::Nibble(nibble.clone()),
                    chunk.scan_len,
                    None,
                    &tables,
                    &mut timing,
                    &mut profile,
                )
                .map(|(q, _)| q)
                .unwrap();
            assert_eq!(on_nibble, raw, "specialized nibble path must match char");
            for (query, entries) in input.queries.iter().zip(&raw) {
                entries_to_offtargets(&chunk, &query.seq, plen, entries, &mut offtargets);
            }
        }
        runner.wait();
        sort_canonical(&mut offtargets);
        assert_eq!(offtargets, crate::cpu::search_sequential(&asm, &input));
    }

    /// A guide library on the toy pattern: `k` distinct 8-base guides plus
    /// the PAM wildcard tail, with uniform or cycling mismatch thresholds.
    fn library_input(k: usize, uniform: bool) -> SearchInput {
        let base = b"ACGTACGTACGTACGTTGCA";
        let mut s = String::from("toy\nNNNNNNNNNRG\n");
        for i in 0..k {
            let guide: String = (0..8)
                .map(|j| base[(i * 3 + j) % base.len()] as char)
                .collect();
            let thr = if uniform { 3 } else { 2 + (i % 2) };
            s.push_str(&format!("{guide}NNN {thr}\n"));
        }
        SearchInput::parse(&s).unwrap()
    }

    /// Fused multi-guide launches must be byte-identical to the serial
    /// per-query path on every encoding, with `ceil(k / GUIDE_BLOCK)`
    /// comparer launches instead of `k` — both generic (mixed thresholds)
    /// and threshold-folded JIT-specialized (uniform) blocks.
    #[test]
    fn fused_multi_guide_ocl_is_byte_identical_on_every_encoding() {
        let (asm, _) = toy_with_ambiguity();
        for (uniform, specialize) in [(false, false), (true, true)] {
            let input = library_input(GUIDE_BLOCK + 3, uniform);
            let cfg = config().specialize(specialize);
            let serial = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
            let fused =
                OclChunkRunner::new(&cfg.clone().multi_guide(true), &input.pattern).unwrap();
            let st = serial.prepare_queries(&input.queries).unwrap();
            let ft = fused.prepare_queries(&input.queries).unwrap();
            let plen = serial.plen();
            let mut serial_t = TimingBreakdown::default();
            let mut fused_t = TimingBreakdown::default();
            let mut profile = gpu_sim::profile::Profile::new();
            for chunk in Chunker::new(&asm, cfg.chunk_size, plen) {
                if chunk.seq.len() < plen {
                    continue;
                }
                let s = serial
                    .run_chunk(chunk.seq, chunk.scan_len, &st, &mut serial_t, &mut profile)
                    .unwrap();
                let f = fused
                    .run_chunk(chunk.seq, chunk.scan_len, &ft, &mut fused_t, &mut profile)
                    .unwrap();
                assert_eq!(f, s, "fused char path must be byte-identical");

                let packed = PackedSeq::encode(chunk.seq);
                let s = serial
                    .run(
                        None,
                        &ChunkPayload::Packed(packed.clone()),
                        chunk.scan_len,
                        None,
                        &st,
                        &mut serial_t,
                        &mut profile,
                    )
                    .map(|(q, _)| q)
                    .unwrap();
                let f = fused
                    .run(
                        None,
                        &ChunkPayload::Packed(packed.clone()),
                        chunk.scan_len,
                        None,
                        &ft,
                        &mut fused_t,
                        &mut profile,
                    )
                    .map(|(q, _)| q)
                    .unwrap();
                assert_eq!(f, s, "fused 2-bit path must be byte-identical");

                let nibble = NibbleSeq::encode(chunk.seq);
                let s = serial
                    .run(
                        None,
                        &ChunkPayload::Nibble(nibble.clone()),
                        chunk.scan_len,
                        None,
                        &st,
                        &mut serial_t,
                        &mut profile,
                    )
                    .map(|(q, _)| q)
                    .unwrap();
                let f = fused
                    .run(
                        None,
                        &ChunkPayload::Nibble(nibble.clone()),
                        chunk.scan_len,
                        None,
                        &ft,
                        &mut fused_t,
                        &mut profile,
                    )
                    .map(|(q, _)| q)
                    .unwrap();
                assert_eq!(f, s, "fused nibble path must be byte-identical");
            }
            assert_eq!(fused_t.fused_launches, fused_t.comparer_launches);
            assert!(fused_t.fused_launches > 0);
            // 19 guides per chunk run fuse into 2 block launches, not 19.
            assert_eq!(
                fused_t.comparer_launches * (GUIDE_BLOCK + 3),
                serial_t.comparer_launches * 2,
                "fused path must run ceil(k / GUIDE_BLOCK) launches"
            );
            st.release();
            ft.release();
            serial.release();
            fused.release();
        }
    }

    #[test]
    fn fused_multi_guide_sycl_is_byte_identical_on_every_encoding() {
        let (asm, _) = toy_with_ambiguity();
        for (uniform, specialize) in [(false, false), (true, true)] {
            let input = library_input(GUIDE_BLOCK + 3, uniform);
            let cfg = config().specialize(specialize);
            let serial = SyclChunkRunner::new(&cfg, &input.pattern).unwrap();
            let fused =
                SyclChunkRunner::new(&cfg.clone().multi_guide(true), &input.pattern).unwrap();
            let st = serial.prepare_queries(&input.queries);
            let ft = fused.prepare_queries(&input.queries);
            let plen = serial.plen();
            let mut serial_t = TimingBreakdown::default();
            let mut fused_t = TimingBreakdown::default();
            let mut profile = gpu_sim::profile::Profile::new();
            for chunk in Chunker::new(&asm, cfg.chunk_size, plen) {
                if chunk.seq.len() < plen {
                    continue;
                }
                let s = serial
                    .run_chunk(chunk.seq, chunk.scan_len, &st, &mut serial_t, &mut profile)
                    .unwrap();
                let f = fused
                    .run_chunk(chunk.seq, chunk.scan_len, &ft, &mut fused_t, &mut profile)
                    .unwrap();
                assert_eq!(f, s, "fused char path must be byte-identical");

                let packed = PackedSeq::encode(chunk.seq);
                let s = serial
                    .run(
                        None,
                        &ChunkPayload::Packed(packed.clone()),
                        chunk.scan_len,
                        None,
                        &st,
                        &mut serial_t,
                        &mut profile,
                    )
                    .map(|(q, _)| q)
                    .unwrap();
                let f = fused
                    .run(
                        None,
                        &ChunkPayload::Packed(packed.clone()),
                        chunk.scan_len,
                        None,
                        &ft,
                        &mut fused_t,
                        &mut profile,
                    )
                    .map(|(q, _)| q)
                    .unwrap();
                assert_eq!(f, s, "fused 2-bit path must be byte-identical");

                let nibble = NibbleSeq::encode(chunk.seq);
                let s = serial
                    .run(
                        None,
                        &ChunkPayload::Nibble(nibble.clone()),
                        chunk.scan_len,
                        None,
                        &st,
                        &mut serial_t,
                        &mut profile,
                    )
                    .map(|(q, _)| q)
                    .unwrap();
                let f = fused
                    .run(
                        None,
                        &ChunkPayload::Nibble(nibble.clone()),
                        chunk.scan_len,
                        None,
                        &ft,
                        &mut fused_t,
                        &mut profile,
                    )
                    .map(|(q, _)| q)
                    .unwrap();
                assert_eq!(f, s, "fused nibble path must be byte-identical");
            }
            assert_eq!(fused_t.fused_launches, fused_t.comparer_launches);
            assert!(fused_t.fused_launches > 0);
            assert_eq!(
                fused_t.comparer_launches * (GUIDE_BLOCK + 3),
                serial_t.comparer_launches * 2,
                "fused path must run ceil(k / GUIDE_BLOCK) launches"
            );
            serial.wait();
            fused.wait();
        }
    }

    #[test]
    fn cached_candidates_skip_the_finder_and_match_ocl() {
        let (asm, input) = toy();
        let cfg = config().chunk_size(64).resident_slots(2);
        let runner = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries).unwrap();
        let chunk = Chunker::new(&asm, 64, runner.plen()).next().unwrap();
        let mut profile = gpu_sim::profile::Profile::new();

        // Capture the candidate list from a normal run.
        let mut warm_t = TimingBreakdown::default();
        runner.set_capture_candidates(true);
        let baseline = runner
            .run_chunk(
                chunk.seq,
                chunk.scan_len,
                &tables,
                &mut warm_t,
                &mut profile,
            )
            .unwrap();
        let sites = runner.take_captured_candidates().unwrap();
        runner.set_capture_candidates(false);
        assert_eq!(sites.len() as u64, warm_t.candidates);
        assert!(!sites.is_empty());

        // Replaying it must skip the finder launch and stay byte-identical.
        let mut cached_t = TimingBreakdown::default();
        let before = runner.traffic();
        let (replay, _) = runner
            .run_chunk_cached_candidates(
                42,
                chunk.seq,
                &sites,
                &tables,
                &mut cached_t,
                &mut profile,
            )
            .unwrap();
        let mid = runner.traffic();
        assert_eq!(replay, baseline);
        assert_eq!(cached_t.finder_launches, 0);
        assert_eq!(cached_t.finder_launches_skipped, 1);
        assert_eq!(cached_t.candidates, warm_t.candidates);
        assert_eq!(mid.since(&before).kernel_launches_skipped, 1);

        // A same-token replay also skips the candidate re-upload.
        let (again, reused) = runner
            .run_chunk_cached_candidates(
                42,
                chunk.seq,
                &sites,
                &tables,
                &mut cached_t,
                &mut profile,
            )
            .unwrap();
        let after = runner.traffic();
        assert!(reused, "chr stays resident under the token");
        assert_eq!(again, baseline);
        assert!(after.since(&mid).h2d_skipped_bytes >= sites.byte_len() as u64);

        // The 2-bit and nibble cached entry points match too.
        let packed = PackedSeq::encode(chunk.seq);
        assert!(twobit_compare_safe(&packed));
        let (on_packed, _) = runner
            .run_packed_chunk_cached_candidates(
                43,
                &packed,
                &sites,
                &tables,
                &mut cached_t,
                &mut profile,
            )
            .unwrap();
        assert_eq!(on_packed, baseline);
        let nibble = NibbleSeq::encode(chunk.seq);
        let (on_nibble, _) = runner
            .run_nibble_chunk_cached_candidates(
                44,
                &nibble,
                &sites,
                &tables,
                &mut cached_t,
                &mut profile,
            )
            .unwrap();
        assert_eq!(on_nibble, baseline);
        tables.release();
        runner.release();
    }

    #[test]
    fn cached_candidates_skip_the_finder_and_match_sycl() {
        let (asm, input) = toy();
        let cfg = config().chunk_size(64).resident_slots(2);
        let runner = SyclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries);
        let chunk = Chunker::new(&asm, 64, runner.plen()).next().unwrap();
        let mut profile = gpu_sim::profile::Profile::new();

        let mut warm_t = TimingBreakdown::default();
        runner.set_capture_candidates(true);
        let baseline = runner
            .run_chunk(
                chunk.seq,
                chunk.scan_len,
                &tables,
                &mut warm_t,
                &mut profile,
            )
            .unwrap();
        let sites = runner.take_captured_candidates().unwrap();
        runner.set_capture_candidates(false);
        assert_eq!(sites.len() as u64, warm_t.candidates);
        assert!(!sites.is_empty());

        let mut cached_t = TimingBreakdown::default();
        let before = runner.traffic();
        let (replay, _) = runner
            .run_chunk_cached_candidates(
                42,
                chunk.seq,
                &sites,
                &tables,
                &mut cached_t,
                &mut profile,
            )
            .unwrap();
        let mid = runner.traffic();
        assert_eq!(replay, baseline);
        assert_eq!(cached_t.finder_launches, 0);
        assert_eq!(cached_t.finder_launches_skipped, 1);
        assert_eq!(mid.since(&before).kernel_launches_skipped, 1);

        let (again, reused) = runner
            .run_chunk_cached_candidates(
                42,
                chunk.seq,
                &sites,
                &tables,
                &mut cached_t,
                &mut profile,
            )
            .unwrap();
        let after = runner.traffic();
        assert!(reused);
        assert_eq!(again, baseline);
        assert!(after.since(&mid).h2d_skipped_bytes >= sites.byte_len() as u64);

        let packed = PackedSeq::encode(chunk.seq);
        assert!(twobit_compare_safe(&packed));
        let (on_packed, _) = runner
            .run_packed_chunk_cached_candidates(
                43,
                &packed,
                &sites,
                &tables,
                &mut cached_t,
                &mut profile,
            )
            .unwrap();
        assert_eq!(on_packed, baseline);
        let nibble = NibbleSeq::encode(chunk.seq);
        let (on_nibble, _) = runner
            .run_nibble_chunk_cached_candidates(
                44,
                &nibble,
                &sites,
                &tables,
                &mut cached_t,
                &mut profile,
            )
            .unwrap();
        assert_eq!(on_nibble, baseline);
        runner.wait();
    }
}
