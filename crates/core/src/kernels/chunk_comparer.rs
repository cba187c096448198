//! The serving comparer: one kernel body for every chunk encoding and every
//! pattern source.
//!
//! The paper tunes one comparer ([`super::ComparerKernel`], Listing 1). The
//! serving layer runs the same algorithm over three chunk encodings and
//! three pattern sources, and [`ChunkComparer`] is generic over both:
//!
//! * a [`ChunkReader`] fetches the genome side — raw chars
//!   ([`CharReader`]), 2-bit words plus an ambiguity mask
//!   ([`super::TwoBitReader`]) or 4-bit nibbles ([`super::NibbleReader`]) —
//!   and owns the match rule: `is_mismatch` on chars, the subset test on
//!   nibble masks;
//! * a [`PatternSource`] supplies the query side — one query's tables
//!   staged to local memory ([`StagedPattern`]), a query folded into a
//!   [`CompiledVariant`], or a fused guide block ([`super::GuideBlock`])
//!   whose threshold is per guide or folded.
//!
//! The bounds check, the flag guard, the strand loop, the early exit and the
//! output compaction are written once, here; each reader and source charges
//! exactly the loads and ops of the kernel it replaced. [`comparer_name`]
//! and [`comparer_model`] give every (encoding, form) pair its profiler name
//! and the code model the pseudo-ISA compiler prices.
//!
//! Hosts describe a launch as a [`ComparerLaunch`] — the chunk buffers, a
//! [`Pattern`] and the candidate [`Sites`] with their outputs — and hand it
//! a [`KernelSink`] (an OpenCL binding, a SYCL command group, a device)
//! that receives the statically dispatched kernel. A staged char launch
//! is the paper's comparer itself; every other pair runs [`ChunkComparer`].

use std::sync::Arc;

use gpu_sim::isa::{CodeModel, Staging};
use gpu_sim::kernel::{KernelProgram, LocalHandle, LocalLayout, LocalMem};
use gpu_sim::{DeviceBuffer, ItemCtx};

use genome::base::is_mismatch;

use super::comparer::{ComparerKernel, ComparerOutput};
use super::finder::{FLAG_BOTH, FLAG_FORWARD, FLAG_REVERSE};
use super::fourbit::NibbleReader;
use super::ladder::ladder_rank;
use super::multi::GuideBlock;
use super::specialize::{CompiledVariant, FoldedPattern};
use super::twobit::TwoBitReader;
use super::OptLevel;

/// The chunk encoding a comparer reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// One byte per base.
    Char,
    /// 2-bit words plus a 1-bit ambiguity mask.
    TwoBit,
    /// 4-bit IUPAC possibility masks.
    FourBit,
}

impl Encoding {
    /// All encodings, in kernel-table order.
    pub const ALL: [Encoding; 3] = [Encoding::Char, Encoding::TwoBit, Encoding::FourBit];
}

/// Where a comparer takes its pattern from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternForm {
    /// One query's tables, staged to local memory; threshold as an argument.
    Staged,
    /// One query and its threshold folded into immediates.
    Folded,
    /// A fused guide block with per-guide thresholds staged.
    Fused,
    /// A fused guide block sharing one folded threshold.
    FusedFolded,
}

impl PatternForm {
    /// All forms, in kernel-table order.
    pub const ALL: [PatternForm; 4] = [Self::Staged, Self::Folded, Self::Fused, Self::FusedFolded];
}

/// Profiler names, by [`PatternForm`] then [`Encoding`].
const NAMES: [[&str; 3]; 4] = [
    ["comparer", "comparer-2bit", "comparer-4bit"],
    ["comparer-spec", "comparer-2bit-spec", "comparer-4bit-spec"],
    [
        "comparer_multi",
        "comparer_multi-2bit",
        "comparer_multi-4bit",
    ],
    [
        "comparer_multi-spec",
        "comparer_multi-2bit-spec",
        "comparer_multi-4bit-spec",
    ],
];

/// The name a comparer form reports to the profiler (and binds under in an
/// OpenCL program). Fixed per form, not per pattern, so profile consumers
/// can aggregate by name.
pub fn comparer_name(encoding: Encoding, form: PatternForm) -> &'static str {
    NAMES[form as usize][encoding as usize]
}

/// The structural code model of a comparer form — what a launch is priced
/// with and what the `specialized.variants` ISA table compares.
///
/// Every form keeps `restrict`, registered `loci`/`flag` scalars, the two
/// guarded strand blocks and atomic compaction. Staged forms add the
/// cooperative staging and the 13-arm ladder; folded forms replace both
/// with `plen` immediate compares and drop the pattern arguments; fused
/// forms add the block's window registers and guide tags. The per-encoding
/// decode cost rides along as `extra_valu`. The staged char form is the
/// paper's comparer, priced at opt4.
pub fn comparer_model(encoding: Encoding, form: PatternForm, plen: usize) -> CodeModel {
    // Chunk pointer arguments, then decode VALU of the serial and fused
    // bodies (the fused window keeps the decoded bases in registers).
    let (chunk_ptrs, decode, fused_decode) = match encoding {
        Encoding::Char => (1, 0, 12),
        Encoding::TwoBit => (2, 40, 44),
        Encoding::FourBit => (1, 24, 28),
    };
    let model = CodeModel::new(comparer_name(encoding, form))
        .noalias(true)
        .cached_global_scalars(2)
        .guarded_blocks(2)
        .atomic_output(true);
    let staged = |model: CodeModel, ptrs, arrays, valu| {
        model
            .pointer_args(chunk_ptrs + ptrs)
            .scalar_args(3)
            .staging(Staging::Parallel)
            .staged_arrays(arrays)
            .ladder_arms(13)
            .extra_valu(valu)
    };
    match (form, encoding) {
        (PatternForm::Staged, Encoding::Char) => ComparerKernel::code_model_for(OptLevel::Opt4),
        // loci, flags, comp, comp_index + 4 outputs.
        (PatternForm::Staged, _) => staged(model, 8, 2, decode),
        // loci, flags + 4 outputs; locicnt.
        (PatternForm::Folded, _) => model
            .pointer_args(chunk_ptrs + 6)
            .scalar_args(1)
            .extra_valu(decode)
            .folded_pattern(plen as u32),
        // + the threshold table and the guide tags.
        (PatternForm::Fused, _) => staged(model, 10, 3, fused_decode + 4),
        (PatternForm::FusedFolded, _) => staged(model, 9, 2, fused_decode),
    }
}

/// How a comparer reads the genome side of a candidate window.
pub trait ChunkReader: Clone + Send + Sync + 'static {
    /// The encoding read.
    const ENCODING: Encoding;
    /// Per-strand decode state: the last fetched word(s).
    type Cursor: Copy;
    /// A cursor holding nothing yet; its sentinels force the first loads.
    const FRESH: Self::Cursor;
    /// Ops to set up a cursor at the start of a strand.
    const CURSOR_OPS: u64;
    /// Ops per base to move a read base into a fused block's window.
    const WINDOW_OPS: u64;

    /// The base at absolute position `pos` — a char, or a possibility mask
    /// for the nibble reader — reusing the cursor's word when it can.
    fn read(&self, item: &mut ItemCtx, cursor: &mut Self::Cursor, pos: usize) -> u8;

    /// A staged pattern char as this reader compares it, and the ops the
    /// lookup costs.
    fn staged(c: u8) -> (u8, u64);

    /// Folded pattern offset `k` of strand `half` as this reader compares
    /// it.
    fn folded(pattern: &FoldedPattern, half: usize, k: usize) -> u8;

    /// Whether the genome base fails to match the pattern value.
    fn mismatch(pattern: u8, base: u8) -> bool;
}

/// Raw chunk bytes.
#[derive(Debug, Clone)]
pub struct CharReader(pub DeviceBuffer<u8>);

impl ChunkReader for CharReader {
    const ENCODING: Encoding = Encoding::Char;
    type Cursor = ();
    const FRESH: () = ();
    const CURSOR_OPS: u64 = 0;
    const WINDOW_OPS: u64 = 1;

    #[inline]
    fn read(&self, item: &mut ItemCtx, _cursor: &mut (), pos: usize) -> u8 {
        self.0.load(item, pos)
    }

    /// Staged chars walk Listing 1's ladder, one compare per evaluated arm.
    #[inline]
    fn staged(c: u8) -> (u8, u64) {
        (c, ladder_rank(c))
    }

    #[inline]
    fn folded(pattern: &FoldedPattern, half: usize, k: usize) -> u8 {
        pattern.chr(half, k)
    }

    #[inline]
    fn mismatch(pattern: u8, base: u8) -> bool {
        is_mismatch(pattern, base)
    }
}

/// Where a comparer takes the query side from.
pub trait PatternSource: Clone + Send + Sync + 'static {
    /// Whether phase 0 stages tables to local memory.
    const STAGED: bool;
    /// Whether the source compares several guides against one window,
    /// loaded once per candidate.
    const WINDOWED: bool;

    /// The form, for the kernel's name and code model.
    fn form(&self) -> PatternForm;
    /// Pattern length.
    fn plen(&self) -> usize;
    /// Guides compared per candidate.
    fn guides(&self) -> usize {
        1
    }
    /// The local layout phase 0 stages into.
    fn layout(&self) -> LocalLayout {
        LocalLayout::new()
    }
    /// Phase 0: the work-group's cooperative staging.
    fn stage(&self, _item: &mut ItemCtx, _local: &mut LocalMem) {}
    /// Mismatch threshold of guide `g`.
    fn threshold(&self, item: &mut ItemCtx, local: &LocalMem, g: usize) -> u16;
    /// The `j`-th compared position of strand row `row` (`2·g + half` for
    /// guide `g`): its chunk offset and the pattern value reader `R` matches
    /// there, with the compare's ops charged; `None` past the last one.
    fn step<R: ChunkReader>(
        &self,
        item: &mut ItemCtx,
        local: &LocalMem,
        row: usize,
        j: usize,
    ) -> Option<(usize, u8)>;
    /// Tag output slot `slot` with guide `g`.
    fn tag(&self, _item: &mut ItemCtx, _slot: usize, _g: usize) {}
}

/// Pattern tables of one or more guides, `[fwd | rc]` per guide, staged by
/// the whole work-group in phase 0.
#[derive(Debug, Clone)]
pub(crate) struct LocalTables {
    pub(crate) comp: DeviceBuffer<u8>,
    pub(crate) comp_index: DeviceBuffer<i32>,
    pub(crate) plen: usize,
    span: usize,
    l_comp: LocalHandle<u8>,
    l_comp_index: LocalHandle<i32>,
}

impl LocalTables {
    /// Stage `guides` guides' tables, allocating their local arrays in
    /// `layout`.
    pub(crate) fn new(
        comp: DeviceBuffer<u8>,
        comp_index: DeviceBuffer<i32>,
        plen: usize,
        guides: usize,
        layout: &mut LocalLayout,
    ) -> LocalTables {
        let span = guides * 2 * plen;
        LocalTables {
            comp,
            comp_index,
            plen,
            span,
            l_comp: layout.array::<u8>(span),
            l_comp_index: layout.array::<i32>(span),
        }
    }

    /// A fresh layout with the same arrays.
    pub(crate) fn layout(&self) -> LocalLayout {
        let mut layout = LocalLayout::new();
        let _ = layout.array::<u8>(self.span);
        let _ = layout.array::<i32>(self.span);
        layout
    }

    /// The cooperative copy: lane `li` moves elements `li`, `li + group`, ..
    pub(crate) fn stage(&self, item: &mut ItemCtx, local: &mut LocalMem) {
        let group = item.local_range(0);
        let mut k = item.local_id(0);
        while k < self.span {
            let c = self.comp.load(item, k);
            local.store(item, self.l_comp, k, c);
            let idx = self.comp_index.load(item, k);
            local.store(item, self.l_comp_index, k, idx);
            item.ops(2);
            k += group;
        }
    }

    /// [`PatternSource::step`] over the staged rows: the index read and its
    /// end test, then the pattern read, its lookup and the compare.
    #[inline(always)]
    pub(crate) fn step<R: ChunkReader>(
        &self,
        item: &mut ItemCtx,
        local: &LocalMem,
        row: usize,
        j: usize,
    ) -> Option<(usize, u8)> {
        let base = row * self.plen;
        let k = local.load(item, self.l_comp_index, base + j);
        item.ops(1);
        let k = usize::try_from(k).ok()?;
        let (v, lookup) = R::staged(local.load(item, self.l_comp, base + k));
        item.ops(lookup + 2);
        Some((k, v))
    }
}

/// One query's tables staged to local memory, its threshold an argument.
#[derive(Debug, Clone)]
pub struct StagedPattern {
    pub(crate) tables: LocalTables,
    pub(crate) threshold: u16,
}

impl StagedPattern {
    /// Stage `comp`/`comp_index` (`2 * plen` long) and compare with
    /// `threshold`.
    pub fn new(
        comp: DeviceBuffer<u8>,
        comp_index: DeviceBuffer<i32>,
        plen: usize,
        threshold: u16,
    ) -> StagedPattern {
        let tables = LocalTables::new(comp, comp_index, plen, 1, &mut LocalLayout::new());
        StagedPattern { tables, threshold }
    }
}

impl PatternSource for StagedPattern {
    const STAGED: bool = true;
    const WINDOWED: bool = false;

    fn form(&self) -> PatternForm {
        PatternForm::Staged
    }

    #[inline]
    fn plen(&self) -> usize {
        self.tables.plen
    }

    fn layout(&self) -> LocalLayout {
        self.tables.layout()
    }

    fn stage(&self, item: &mut ItemCtx, local: &mut LocalMem) {
        self.tables.stage(item, local);
    }

    #[inline]
    fn threshold(&self, _item: &mut ItemCtx, _local: &LocalMem, _g: usize) -> u16 {
        self.threshold
    }

    #[inline(always)]
    fn step<R: ChunkReader>(
        &self,
        item: &mut ItemCtx,
        local: &LocalMem,
        row: usize,
        j: usize,
    ) -> Option<(usize, u8)> {
        self.tables.step::<R>(item, local, row, j)
    }
}

/// The candidate sites a comparer scores and the arrays passing ones are
/// compacted into.
#[derive(Debug, Clone)]
pub struct Sites {
    /// Candidate loci from the finder (chunk-relative).
    pub loci: DeviceBuffer<u32>,
    /// Strand flags from the finder.
    pub flags: DeviceBuffer<u8>,
    /// Number of candidate loci.
    pub locicnt: u32,
    /// Output arrays.
    pub out: ComparerOutput,
}

/// The serving comparer over reader `R` and pattern source `P`: one
/// work-item per candidate locus, each strand the finder flagged compared
/// with early exit at the threshold, passing sites compacted through one
/// atomic counter.
#[derive(Debug, Clone)]
pub struct ChunkComparer<R, P> {
    /// The chunk, as its encoding stores it.
    pub reader: R,
    /// The query side.
    pub pattern: P,
    /// Candidates and outputs.
    pub sites: Sites,
}

impl<R: ChunkReader, P: PatternSource> ChunkComparer<R, P> {
    /// Compare strand row `row` (`2·g + half`) against the window or chunk.
    fn compare_strand(
        &self,
        item: &mut ItemCtx,
        local: &LocalMem,
        window: &[u8],
        locus: usize,
        row: usize,
        threshold: u16,
    ) {
        let mut cursor = R::FRESH;
        item.ops(if P::WINDOWED { 1 } else { 1 + R::CURSOR_OPS });
        let mut lmm: u16 = 0;
        for j in 0..self.pattern.plen() {
            let Some((k, p)) = self.pattern.step::<R>(item, local, row, j) else {
                break;
            };
            let base = if P::WINDOWED {
                window[k]
            } else {
                self.reader.read(item, &mut cursor, locus + k)
            };
            if R::mismatch(p, base) {
                lmm += 1;
                item.ops(1);
                if lmm > threshold {
                    break;
                }
            }
        }
        item.ops(1);
        if lmm <= threshold {
            let out = &self.sites.out;
            let slot = out.count.atomic_inc(item, 0) as usize;
            out.mm_count.store(item, slot, lmm);
            out.direction.store(item, slot, [b'+', b'-'][row % 2]);
            out.loci.store(item, slot, locus as u32);
            self.pattern.tag(item, slot, row / 2);
        }
    }
}

/// Longest candidate window a fused comparer keeps on the stack; longer
/// patterns fall back to a heap buffer.
const STACK_WINDOW: usize = 64;

impl<R: ChunkReader, P: PatternSource> KernelProgram for ChunkComparer<R, P> {
    type Private = ();

    fn name(&self) -> &str {
        comparer_name(R::ENCODING, self.pattern.form())
    }

    fn phases(&self) -> usize {
        1 + usize::from(P::STAGED)
    }

    fn local_layout(&self) -> LocalLayout {
        self.pattern.layout()
    }

    fn code_model(&self) -> CodeModel {
        comparer_model(R::ENCODING, self.pattern.form(), self.pattern.plen())
    }

    fn run_phase(&self, phase: usize, item: &mut ItemCtx, _p: &mut (), local: &mut LocalMem) {
        if P::STAGED && phase == 0 {
            return self.pattern.stage(item, local);
        }
        let i = item.global_id(0);
        item.ops(1);
        if i >= self.sites.locicnt as usize {
            return;
        }
        let flag = self.sites.flags.load(item, i);
        let locus = self.sites.loci.load(item, i) as usize;
        // A guide block loads the candidate window once and shares it with
        // every guide and strand. The finder only emits loci with a full
        // `plen` window, so the reads are in bounds. Windows up to
        // `STACK_WINDOW` bases stay on the stack.
        let mut stack = [0u8; STACK_WINDOW];
        let mut heap = Vec::new();
        let window: &[u8] = if P::WINDOWED {
            let plen = self.pattern.plen();
            let window = if plen <= STACK_WINDOW {
                &mut stack[..plen]
            } else {
                heap.resize(plen, 0);
                &mut heap[..]
            };
            let mut cursor = R::FRESH;
            for (k, b) in window.iter_mut().enumerate() {
                *b = self.reader.read(item, &mut cursor, locus + k);
            }
            item.ops(plen as u64 * R::WINDOW_OPS);
            window
        } else {
            &[]
        };
        for g in 0..self.pattern.guides() {
            let threshold = self.pattern.threshold(item, local, g);
            item.ops(2);
            if flag == FLAG_BOTH || flag == FLAG_FORWARD {
                self.compare_strand(item, local, window, locus, g * 2, threshold);
            }
            item.ops(2);
            if flag == FLAG_BOTH || flag == FLAG_REVERSE {
                self.compare_strand(item, local, window, locus, g * 2 + 1, threshold);
            }
        }
    }
}

/// The chunk buffers a comparer reads, by encoding, generic over the host
/// API's buffer type.
#[derive(Debug, Clone)]
pub enum ChunkBuffers<B = DeviceBuffer<u8>> {
    /// Raw bases.
    Char(B),
    /// Packed words and the ambiguity mask.
    TwoBit {
        /// 2-bit words, 4 bases per byte.
        packed: B,
        /// Ambiguity mask, 8 bases per byte.
        mask: B,
    },
    /// Nibble words, 2 bases per byte.
    FourBit(B),
}

impl<B> ChunkBuffers<B> {
    /// Bind every buffer through `f`, in argument order.
    ///
    /// # Errors
    ///
    /// Propagates the first binding failure.
    pub fn try_map<C, E>(self, mut f: impl FnMut(B) -> Result<C, E>) -> Result<ChunkBuffers<C>, E> {
        Ok(match self {
            ChunkBuffers::Char(b) => ChunkBuffers::Char(f(b)?),
            ChunkBuffers::TwoBit { packed, mask } => ChunkBuffers::TwoBit {
                packed: f(packed)?,
                mask: f(mask)?,
            },
            ChunkBuffers::FourBit(b) => ChunkBuffers::FourBit(f(b)?),
        })
    }
}

/// The query side of one comparer launch: the pattern source it runs.
#[derive(Debug, Clone)]
pub enum Pattern {
    /// One query's tables staged to local memory, threshold an argument.
    Staged(StagedPattern),
    /// One query and threshold folded into a compiled variant.
    Folded(Arc<CompiledVariant>),
    /// A fused guide block.
    Block(GuideBlock),
}

/// Receives the kernel a [`ComparerLaunch`] builds: an OpenCL binding, a
/// SYCL command group, a device.
pub trait KernelSink {
    /// What accepting a kernel produces.
    type Output;
    /// Take the statically dispatched kernel.
    fn accept<K: KernelProgram + 'static>(self, kernel: K) -> Self::Output;
}

/// Everything one comparer launch binds.
#[derive(Debug, Clone)]
pub struct ComparerLaunch {
    /// The chunk, in the encoding the comparer reads.
    pub chunk: ChunkBuffers,
    /// The query side.
    pub pattern: Pattern,
    /// Candidates and outputs.
    pub sites: Sites,
}

impl ComparerLaunch {
    /// Build the comparer for this launch's encoding and pattern source and
    /// hand it to `sink`. A staged char launch runs the paper's comparer at
    /// opt4.
    pub fn build<S: KernelSink>(self, sink: S) -> S::Output {
        self.build_at(OptLevel::Opt4, sink)
    }

    /// [`build`](Self::build) as the chunk runners dispatch it: a staged
    /// char launch runs the paper's comparer at `opt`, so raw chunks keep
    /// the optimization stage the pipeline was configured with.
    pub(crate) fn build_at<S: KernelSink>(self, opt: OptLevel, sink: S) -> S::Output {
        let sites = self.sites;
        match (self.chunk, self.pattern) {
            (ChunkBuffers::Char(chr), Pattern::Staged(p)) => {
                let t = p.tables;
                sink.accept(ComparerKernel {
                    opt,
                    chr,
                    loci: sites.loci,
                    flags: sites.flags,
                    comp: t.comp,
                    comp_index: t.comp_index,
                    locicnt: sites.locicnt,
                    plen: t.plen as u32,
                    threshold: p.threshold,
                    out: sites.out,
                    l_comp: t.l_comp,
                    l_comp_index: t.l_comp_index,
                })
            }
            (chunk, Pattern::Staged(p)) => with_reader(chunk, p, sites, sink),
            (chunk, Pattern::Folded(p)) => with_reader(chunk, p, sites, sink),
            (chunk, Pattern::Block(p)) => with_reader(chunk, p, sites, sink),
        }
    }
}

fn with_reader<P: PatternSource, S: KernelSink>(
    chunk: ChunkBuffers,
    pattern: P,
    sites: Sites,
    sink: S,
) -> S::Output {
    match chunk {
        ChunkBuffers::Char(chr) => sink.accept(ChunkComparer {
            reader: CharReader(chr),
            pattern,
            sites,
        }),
        ChunkBuffers::TwoBit { packed, mask } => sink.accept(ChunkComparer {
            reader: TwoBitReader { packed, mask },
            pattern,
            sites,
        }),
        ChunkBuffers::FourBit(nibbles) => sink.accept(ChunkComparer {
            reader: NibbleReader(nibbles),
            pattern,
            sites,
        }),
    }
}

/// Launches a comparer directly on a device, for the kernel unit tests.
#[cfg(test)]
pub(crate) struct OnDevice<'a>(pub &'a gpu_sim::Device, pub gpu_sim::NdRange);

#[cfg(test)]
impl KernelSink for OnDevice<'_> {
    type Output = gpu_sim::SimResult<gpu_sim::LaunchReport>;

    fn accept<K: KernelProgram + 'static>(self, kernel: K) -> Self::Output {
        self.0.launch(&kernel, self.1)
    }
}
