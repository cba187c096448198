//! The `finder` kernel: select sites containing the PAM sequence (§II.A,
//! Table VI of the paper).
//!
//! One work-item per scan position. Phase 0 cooperatively stages the
//! pattern and its index array into shared local memory; phase 1 (after the
//! barrier) tests the position against the forward pattern and the
//! reverse-complement pattern and, on a hit, appends `(locus, strand flag)`
//! to the output through an atomic counter.
//!
//! The finder's reference reads are *sequential* — work-item `i` reads
//! `chr[i + k]`, so a wavefront's 64 lanes touch 64 adjacent bytes and
//! coalesce into one transaction. They are therefore issued through the
//! cached-load path of the simulator, which is what keeps the finder at a
//! few percent of total kernel time while the comparer's scattered reads
//! dominate (the paper measures the comparer at ~98%).
//!
//! The serving layer uploads chunks in three [`PayloadForm`]s. Raw bases
//! run the paper's [`FinderKernel`] as is; a packed payload runs it behind
//! a [`DecodingFinder`], whose [`WindowDecoder`] — the 2-bit words plus an
//! exception patch phase ([`super::PackedDecoder`]), or the nibbles
//! ([`super::NibbleDecoder`]) — first decodes each group's window into the
//! `chr` scratch. With the PAM folded into a variant, nibbles run the
//! single-phase [`SpecializedNibbleFinderKernel`] instead. Hosts describe
//! every finder launch as one [`FinderLaunch`] — payload buffers, decode
//! target, [`Pam`] source and outputs — and hand it a [`KernelSink`], the
//! same way they build a comparer launch.

use std::ops::Range;
use std::sync::Arc;

use gpu_sim::isa::{CodeModel, Staging};
use gpu_sim::kernel::{KernelProgram, LocalHandle, LocalLayout, LocalMem};
use gpu_sim::{Device, DeviceBuffer, ItemCtx, SimResult};

use genome::base::is_mismatch;

use super::chunk_comparer::{ChunkBuffers, KernelSink};
use super::fourbit::NibbleDecoder;
use super::specialize::{CompiledVariant, SpecializedNibbleFinderKernel};
use super::twobit::PackedDecoder;

/// Flag value: the PAM matched on both strands (Listing 1's `flag` array).
pub const FLAG_BOTH: u8 = 0;
/// Flag value: the PAM matched on the forward strand only.
pub const FLAG_FORWARD: u8 = 1;
/// Flag value: the PAM matched on the reverse strand only.
pub const FLAG_REVERSE: u8 = 2;

/// Device-side output of a finder launch.
#[derive(Debug, Clone)]
pub struct FinderOutput {
    /// Matched positions (chunk-relative), compacted by the atomic counter.
    pub loci: DeviceBuffer<u32>,
    /// Strand flag per matched position (0 both, 1 forward, 2 reverse).
    pub flags: DeviceBuffer<u8>,
    /// Single-element match counter.
    pub count: DeviceBuffer<u32>,
}

impl FinderOutput {
    /// Allocate output buffers for up to `capacity` matches.
    ///
    /// # Errors
    ///
    /// Returns an error when the device is out of memory.
    pub fn allocate(device: &Device, capacity: usize) -> SimResult<FinderOutput> {
        Ok(FinderOutput {
            loci: device.alloc(capacity)?,
            flags: device.alloc(capacity)?,
            count: device.alloc(1)?,
        })
    }

    /// Read back the match count.
    pub fn count_matches(&self) -> usize {
        self.count.to_vec()[0] as usize
    }
}

/// The finder kernel.
#[derive(Debug, Clone)]
pub struct FinderKernel {
    /// Chunk bases: `scan_len` owned positions plus window overlap.
    pub chr: DeviceBuffer<u8>,
    /// `[forward pattern | reverse-complement pattern]`, `2 * plen` bytes,
    /// constant memory (the `__constant char* pat` of Table VI).
    pub pat: DeviceBuffer<u8>,
    /// Non-`N` indices per half, `-1` terminated, constant memory.
    pub pat_index: DeviceBuffer<i32>,
    /// Output arrays.
    pub out: FinderOutput,
    /// Number of owned scan positions.
    pub scan_len: u32,
    /// Total bases available in `chr` (scan positions + overlap).
    pub seq_len: u32,
    /// Pattern length.
    pub plen: u32,
    /// Local staging handle for the pattern (`__local char* l_pat`).
    pub l_pat: LocalHandle<u8>,
    /// Local staging handle for the index array (`__local int* l_pat_index`).
    pub l_pat_index: LocalHandle<i32>,
}

impl FinderKernel {
    /// Build the kernel and its local layout for a `plen`-long pattern over
    /// a chunk.
    pub fn new(
        chr: DeviceBuffer<u8>,
        pat: DeviceBuffer<u8>,
        pat_index: DeviceBuffer<i32>,
        out: FinderOutput,
        scan_len: usize,
        seq_len: usize,
        plen: usize,
    ) -> (FinderKernel, LocalLayout) {
        let mut layout = LocalLayout::new();
        let l_pat = layout.array::<u8>(2 * plen);
        let l_pat_index = layout.array::<i32>(2 * plen);
        (
            FinderKernel {
                chr,
                pat,
                pat_index,
                out,
                scan_len: scan_len as u32,
                seq_len: seq_len as u32,
                plen: plen as u32,
                l_pat,
                l_pat_index,
            },
            layout,
        )
    }

    /// Check one strand half (`half` 0 = forward, 1 = reverse) at `pos`.
    /// Returns `true` when every compared position matches.
    fn strand_matches(
        &self,
        item: &mut ItemCtx,
        local: &LocalMem,
        pos: usize,
        half: usize,
    ) -> bool {
        let plen = self.plen as usize;
        for j in 0..plen {
            let k = local.load(item, self.l_pat_index, half * plen + j);
            item.ops(1);
            if k < 0 {
                break;
            }
            let pat_c = local.load(item, self.l_pat, half * plen + k as usize);
            // Sequential lane-adjacent read: fully coalesced.
            let chr_c = self.chr.load_coalesced(item, pos + k as usize);
            item.ops(2);
            if is_mismatch(pat_c, chr_c) {
                return false;
            }
        }
        true
    }
}

impl KernelProgram for FinderKernel {
    type Private = ();

    fn name(&self) -> &str {
        FINDER_NAMES[0]
    }

    fn phases(&self) -> usize {
        2
    }

    fn local_layout(&self) -> LocalLayout {
        let mut layout = LocalLayout::new();
        let _ = layout.array::<u8>(2 * self.plen as usize);
        let _ = layout.array::<i32>(2 * self.plen as usize);
        layout
    }

    fn code_model(&self) -> CodeModel {
        finder_model(FINDER_NAMES[0], [0; 4])
    }

    fn run_phase(&self, phase: usize, item: &mut ItemCtx, _p: &mut (), local: &mut LocalMem) {
        let plen = self.plen as usize;
        match phase {
            0 => {
                // Cooperative staging: strided over the group.
                let li = item.local_id(0);
                let group = item.local_range(0);
                let mut k = li;
                while k < 2 * plen {
                    let c = self.pat.load(item, k);
                    local.store(item, self.l_pat, k, c);
                    let idx = self.pat_index.load(item, k);
                    local.store(item, self.l_pat_index, k, idx);
                    item.ops(2);
                    k += group;
                }
            }
            _ => {
                let i = item.global_id(0);
                item.ops(2); // bounds checks
                if i >= self.scan_len as usize || i + plen > self.seq_len as usize {
                    return;
                }
                let fwd = self.strand_matches(item, local, i, 0);
                let rev = self.strand_matches(item, local, i, 1);
                let flag = match (fwd, rev) {
                    (true, true) => FLAG_BOTH,
                    (true, false) => FLAG_FORWARD,
                    (false, true) => FLAG_REVERSE,
                    (false, false) => return,
                };
                let slot = self.out.count.atomic_inc(item, 0) as usize;
                self.out.loci.store(item, slot, i as u32);
                self.out.flags.store(item, slot, flag);
            }
        }
    }
}

/// How a [`DecodingFinder`] turns its payload into the bases the paper's
/// finder scans.
pub trait WindowDecoder: Clone + Send + Sync + 'static {
    /// The payload form decoded; it names the kernel.
    const FORM: PayloadForm;
    /// Phases before the finder's: the decode, then any patch phase.
    const PHASES: usize;
    /// Pointer and scalar arguments, guarded blocks and decode VALU the
    /// decoder adds to the finder's code model.
    const MODEL: [u32; 4];

    /// The base at `k`, with its loads and ops charged.
    fn decode(&self, item: &mut ItemCtx, k: usize) -> u8;

    /// The phase after the decode: patch the group's `window` of `chr`.
    fn patch(&self, _item: &mut ItemCtx, _chr: &DeviceBuffer<u8>, _window: Range<usize>) {}
}

/// The finder over a packed payload: each work-group decodes its own read
/// window (`group span + plen` overlap) into the `chr` scratch with
/// coalesced loads and stores, lets the decoder patch it, then runs the
/// paper's [`FinderKernel`] phases unchanged — so the comparer can read
/// `chr` as plain bases. Adjacent groups write overlapping positions with
/// the same decoded and patched values, so the result is order-independent.
#[derive(Debug, Clone)]
pub struct DecodingFinder<D> {
    /// The plain finder this kernel decodes into and then runs.
    pub inner: FinderKernel,
    /// The payload and its decode rule.
    pub decoder: D,
}

impl<D: WindowDecoder> DecodingFinder<D> {
    /// The code model the kernel is priced with.
    pub fn model() -> CodeModel {
        finder_model(finder_name(D::FORM, false), D::MODEL)
    }
}

impl<D: WindowDecoder> KernelProgram for DecodingFinder<D> {
    type Private = ();

    fn name(&self) -> &str {
        finder_name(D::FORM, false)
    }

    fn phases(&self) -> usize {
        D::PHASES + 2
    }

    fn local_layout(&self) -> LocalLayout {
        self.inner.local_layout()
    }

    fn code_model(&self) -> CodeModel {
        Self::model()
    }

    fn run_phase(&self, phase: usize, item: &mut ItemCtx, p: &mut (), local: &mut LocalMem) {
        if phase >= D::PHASES {
            return self.inner.run_phase(phase - D::PHASES, item, p, local);
        }
        let group = item.local_range(0);
        let start = item.group(0) * group;
        let end = (start + group + self.inner.plen as usize).min(self.inner.seq_len as usize);
        if phase > 0 {
            return self.decoder.patch(item, &self.inner.chr, start..end);
        }
        // Strided decode: lane-adjacent reads and `chr` writes.
        let mut k = start + item.local_id(0);
        while k < end {
            let c = self.decoder.decode(item, k);
            self.inner.chr.store_coalesced(item, k, c);
            k += group;
        }
    }
}

/// The finder's code model plus a decoder's [`WindowDecoder::MODEL`].
fn finder_model(name: &str, [ptrs, scalars, guards, valu]: [u32; 4]) -> CodeModel {
    CodeModel::new(name)
        .pointer_args(6 + ptrs)
        .scalar_args(3 + scalars)
        .noalias(true)
        .staging(Staging::Parallel)
        .staged_arrays(2)
        .guarded_blocks(2 + guards)
        .ladder_arms(13)
        .atomic_output(true)
        .extra_valu(valu)
}

/// The form a chunk payload takes on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PayloadForm {
    /// One byte per base.
    Raw,
    /// 2-bit words, an ambiguity mask and an exception list.
    Packed,
    /// 4-bit IUPAC possibility masks.
    Nibble,
}

impl PayloadForm {
    /// All forms, in kernel-table order.
    pub const ALL: [PayloadForm; 3] = [PayloadForm::Raw, PayloadForm::Packed, PayloadForm::Nibble];

    /// Whether a finder over this form decodes into a target before it
    /// scans: every packed form, unless the PAM is folded (the folded
    /// nibble finder scans the nibbles directly).
    pub fn decodes(self, folded: bool) -> bool {
        self != PayloadForm::Raw && !folded
    }
}

/// Profiler names of the finders: the staged finder per [`PayloadForm`],
/// then the PAM-folded nibble finder.
pub const FINDER_NAMES: [&str; 4] = [
    "finder",
    "finder_packed",
    "finder_nibble",
    "finder_nibble-spec",
];

/// The name a finder over `form` reports to the profiler (and binds under
/// in an OpenCL program); `folded` names the PAM-folded nibble finder, the
/// only form that folds.
pub fn finder_name(form: PayloadForm, folded: bool) -> &'static str {
    FINDER_NAMES[if folded { 3 } else { form as usize }]
}

/// Device buffers holding one uploaded chunk payload, generic over the
/// host API's buffer types.
#[derive(Debug, Clone)]
pub enum PayloadBuffers<B8 = DeviceBuffer<u8>, B32 = DeviceBuffer<u32>> {
    /// Raw bases.
    Raw(B8),
    /// 2-bit words, the ambiguity mask and the exception list.
    Packed {
        /// 2-bit words, 4 bases per byte.
        words: B8,
        /// Ambiguity mask, 8 bases per byte.
        mask: B8,
        /// Exception positions, ascending.
        exc_pos: B32,
        /// Exception bytes, parallel to `exc_pos`.
        exc_val: B8,
    },
    /// Nibble words, 2 bases per byte.
    Nibble(B8),
}

impl<B8, B32> PayloadBuffers<B8, B32> {
    /// Bind every buffer through `f8` or `f32` with `cx`, in argument
    /// order.
    ///
    /// # Errors
    ///
    /// Propagates the first binding failure.
    pub fn bind<C, D8, D32, E>(
        &self,
        cx: &mut C,
        f8: impl Fn(&mut C, &B8) -> Result<D8, E>,
        f32: impl Fn(&mut C, &B32) -> Result<D32, E>,
    ) -> Result<PayloadBuffers<D8, D32>, E> {
        Ok(match self {
            PayloadBuffers::Raw(b) => PayloadBuffers::Raw(f8(cx, b)?),
            PayloadBuffers::Packed {
                words,
                mask,
                exc_pos,
                exc_val,
            } => PayloadBuffers::Packed {
                words: f8(cx, words)?,
                mask: f8(cx, mask)?,
                exc_pos: f32(cx, exc_pos)?,
                exc_val: f8(cx, exc_val)?,
            },
            PayloadBuffers::Nibble(b) => PayloadBuffers::Nibble(f8(cx, b)?),
        })
    }

    /// The buffers a comparer reads: `decoded`, the finder's decode
    /// target, when the comparer reads chars decoded from a packed
    /// payload; the payload's own buffers otherwise.
    pub fn comparer_inputs<'a>(&'a self, decoded: Option<&'a B8>) -> ChunkBuffers<&'a B8> {
        match (decoded, self) {
            (Some(chr), _) => ChunkBuffers::Char(chr),
            (None, PayloadBuffers::Raw(b)) => ChunkBuffers::Char(b),
            (None, PayloadBuffers::Nibble(b)) => ChunkBuffers::FourBit(b),
            (None, PayloadBuffers::Packed { words, mask, .. }) => ChunkBuffers::TwoBit {
                packed: words,
                mask,
            },
        }
    }
}

/// The PAM side of one finder launch.
#[derive(Debug, Clone)]
pub enum Pam {
    /// The PAM's `[fwd | rc]` tables, staged to local memory.
    Staged {
        /// Pattern bytes, `2 * plen`.
        pat: DeviceBuffer<u8>,
        /// Non-`N` indices per half, `-1` terminated.
        pat_index: DeviceBuffer<i32>,
        /// Pattern length.
        plen: usize,
    },
    /// The PAM folded into a nibble-finder variant.
    Folded(Arc<CompiledVariant>),
}

/// Everything one finder launch binds.
#[derive(Debug, Clone)]
pub struct FinderLaunch {
    /// The uploaded chunk.
    pub payload: PayloadBuffers,
    /// Exception entries a packed payload carries (zero otherwise).
    pub exceptions: u32,
    /// The decode target, present exactly when
    /// [`PayloadForm::decodes`].
    pub decoded: Option<DeviceBuffer<u8>>,
    /// The PAM side.
    pub pam: Pam,
    /// Candidate outputs.
    pub out: FinderOutput,
    /// Number of owned scan positions.
    pub scan_len: u32,
    /// Total bases available (scan positions + overlap).
    pub seq_len: u32,
}

impl FinderLaunch {
    /// Build the finder for this launch's payload form and PAM source and
    /// hand it to `sink`.
    ///
    /// # Panics
    ///
    /// Panics unless the decode target is present exactly when the form
    /// [decodes](PayloadForm::decodes), or for a folded PAM on a form
    /// other than nibbles.
    pub fn build<S: KernelSink>(self, sink: S) -> S::Output {
        let (pat, pat_index, plen) = match self.pam {
            Pam::Staged {
                pat,
                pat_index,
                plen,
            } => (pat, pat_index, plen),
            Pam::Folded(variant) => {
                let (PayloadBuffers::Nibble(nibbles), None) = (self.payload, self.decoded) else {
                    panic!("only the nibble finder folds its PAM, and it decodes nothing");
                };
                return sink.accept(SpecializedNibbleFinderKernel {
                    nibbles,
                    out: self.out,
                    scan_len: self.scan_len,
                    seq_len: self.seq_len,
                    variant,
                });
            }
        };
        let (scan_len, seq_len) = (self.scan_len as usize, self.seq_len as usize);
        let inner =
            |chr| FinderKernel::new(chr, pat, pat_index, self.out, scan_len, seq_len, plen).0;
        match (self.payload, self.decoded) {
            (PayloadBuffers::Raw(chr), None) => sink.accept(inner(chr)),
            (
                PayloadBuffers::Packed {
                    words,
                    mask,
                    exc_pos,
                    exc_val,
                },
                Some(chr),
            ) => sink.accept(DecodingFinder {
                inner: inner(chr),
                decoder: PackedDecoder {
                    packed: words,
                    mask,
                    exc_pos,
                    exc_val,
                    n_exc: self.exceptions,
                },
            }),
            (PayloadBuffers::Nibble(nibbles), Some(chr)) => sink.accept(DecodingFinder {
                inner: inner(chr),
                decoder: NibbleDecoder(nibbles),
            }),
            _ => panic!("a staged finder decodes exactly the packed payloads"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::CompiledSeq;
    use gpu_sim::{DeviceSpec, ExecMode, NdRange, SimResult};

    /// Run the finder over a chunk already resident on `device`; returns
    /// the number of matches.
    fn run_finder(device: &Device, kernel: &FinderKernel, group: usize) -> SimResult<usize> {
        let nd = NdRange::linear_cover(kernel.scan_len as usize, group);
        device.launch(kernel, nd)?;
        Ok(kernel.out.count_matches())
    }

    fn device() -> Device {
        Device::with_mode(DeviceSpec::mi100(), ExecMode::Sequential)
    }

    fn run(seq: &[u8], pattern: &[u8]) -> Vec<(u32, u8)> {
        let device = device();
        let compiled = CompiledSeq::compile(pattern);
        let chr = device.alloc_from_slice(seq).unwrap();
        let pat = device.alloc_constant_from_slice(compiled.comp()).unwrap();
        let pat_index = device
            .alloc_constant_from_slice(compiled.comp_index())
            .unwrap();
        let out = FinderOutput::allocate(&device, seq.len()).unwrap();
        let scan_len = seq.len();
        let (kernel, _layout) = FinderKernel::new(
            chr,
            pat,
            pat_index,
            out,
            scan_len,
            seq.len(),
            compiled.plen(),
        );
        let n = run_finder(&device, &kernel, 64).unwrap();
        let loci = kernel.out.loci.to_vec();
        let flags = kernel.out.flags.to_vec();
        let mut hits: Vec<(u32, u8)> = (0..n).map(|s| (loci[s], flags[s])).collect();
        hits.sort_unstable();
        hits
    }

    #[test]
    fn finds_forward_pam_sites() {
        // Pattern NGG: any base then GG.
        //            position: 0123456
        let hits = run(b"AAGGTGG", b"NGG");
        // Forward NGG at 1 (AGG) and 4 (TGG). Reverse pattern is CCN:
        // no CC in the sequence.
        assert_eq!(hits, vec![(1, FLAG_FORWARD), (4, FLAG_FORWARD)]);
    }

    #[test]
    fn finds_reverse_pam_sites() {
        // CCA at 0 is the reverse-complement image of TGG.
        let hits = run(b"CCAAAA", b"NGG");
        assert_eq!(hits, vec![(0, FLAG_REVERSE)]);
    }

    #[test]
    fn flags_sites_matching_both_strands() {
        // CCTAGG: "CC.." matches reverse at 0..2 window CCT? window is 3
        // long: positions 0 (CCT: rev pattern CCN ✓; fwd needs .GG ✗) -> 2,
        // position 3 (AGG fwd ✓).
        let hits = run(b"CCTAGG", b"NGG");
        assert!(hits.contains(&(0, FLAG_REVERSE)));
        assert!(hits.contains(&(3, FLAG_FORWARD)));
        // A window that is both: CCGG with pattern NGG -> position 1 "CGG"
        // forward ✓; reverse CCN ✓ at position 0.
        let hits = run(b"CCGG", b"NGG");
        assert!(hits.contains(&(1, FLAG_FORWARD)));
        assert!(hits.contains(&(0, FLAG_REVERSE)));
    }

    #[test]
    fn degenerate_pam_matches_a_and_g() {
        // NRG: R = A/G, so AAG and AGG both match forward.
        let hits = run(b"AAGCAGG", b"NRG");
        let fwd: Vec<u32> = hits
            .iter()
            .filter(|&&(_, f)| f == FLAG_FORWARD)
            .map(|&(p, _)| p)
            .collect();
        assert!(fwd.contains(&0), "AAG matches NRG");
        assert!(fwd.contains(&4), "AGG matches NRG");
    }

    #[test]
    fn n_runs_produce_no_sites() {
        let hits = run(&[b'N'; 100], b"NGG");
        assert!(hits.is_empty(), "masked bases match no PAM");
    }

    #[test]
    fn windows_beyond_seq_len_are_skipped() {
        // Only position 0 has a full window.
        let hits = run(b"AGG", b"NGG");
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn scan_len_limits_ownership() {
        // Same sequence, but only the first 2 positions owned.
        let device = device();
        let compiled = CompiledSeq::compile(b"NGG");
        let seq = b"AGGTGG";
        let chr = device.alloc_from_slice(seq).unwrap();
        let pat = device.alloc_constant_from_slice(compiled.comp()).unwrap();
        let pat_index = device
            .alloc_constant_from_slice(compiled.comp_index())
            .unwrap();
        let out = FinderOutput::allocate(&device, seq.len()).unwrap();
        let (kernel, _) =
            FinderKernel::new(chr, pat, pat_index, out, 2, seq.len(), compiled.plen());
        let n = run_finder(&device, &kernel, 64).unwrap();
        let loci = &kernel.out.loci.to_vec()[..n];
        assert_eq!(loci, &[0], "position 3's TGG is outside the owned range");
    }

    fn run_packed(seq: &[u8], pattern: &[u8]) -> (Vec<(u32, u8)>, Vec<u8>) {
        use genome::twobit::PackedSeq;
        let device = device();
        let compiled = CompiledSeq::compile(pattern);
        let chr = device.alloc::<u8>(seq.len()).unwrap();
        let pat = device.alloc_constant_from_slice(compiled.comp()).unwrap();
        let pat_index = device
            .alloc_constant_from_slice(compiled.comp_index())
            .unwrap();
        let out = FinderOutput::allocate(&device, seq.len()).unwrap();
        let packed = PackedSeq::encode(seq);
        let (pos, val) = packed.exception_arrays();
        let (inner, _) = FinderKernel::new(
            chr,
            pat,
            pat_index,
            out,
            seq.len(),
            seq.len(),
            compiled.plen(),
        );
        let kernel = DecodingFinder {
            inner,
            decoder: PackedDecoder {
                packed: device.alloc_from_slice(packed.packed_bytes()).unwrap(),
                mask: device.alloc_from_slice(packed.mask_bytes()).unwrap(),
                exc_pos: device
                    .alloc_from_slice(if pos.is_empty() { &[0u32] } else { &pos[..] })
                    .unwrap(),
                exc_val: device
                    .alloc_from_slice(if val.is_empty() { &[0u8] } else { &val[..] })
                    .unwrap(),
                n_exc: pos.len() as u32,
            },
        };
        let nd = NdRange::linear_cover(seq.len(), 64);
        device.launch(&kernel, nd).unwrap();
        let n = kernel.inner.out.count_matches();
        let loci = kernel.inner.out.loci.to_vec();
        let flags = kernel.inner.out.flags.to_vec();
        let mut hits: Vec<(u32, u8)> = (0..n).map(|s| (loci[s], flags[s])).collect();
        hits.sort_unstable();
        (hits, kernel.inner.chr.to_vec())
    }

    #[test]
    fn packed_finder_matches_plain_finder_and_decodes_exactly() {
        // Degenerate codes, lowercase and N runs all round-trip through the
        // on-device decode, and the hits match the plain finder's.
        let mut seq = b"NNNNAGGtggCCAaagRYSWKMaggNNNN".to_vec();
        seq.extend(std::iter::repeat_n(*b"ACGTAGGCCT", 40).flatten());
        for pattern in [&b"NGG"[..], b"NRG"] {
            let plain = run(&seq, pattern);
            let (hits, decoded) = run_packed(&seq, pattern);
            assert_eq!(decoded, seq, "on-device decode must be byte-exact");
            assert_eq!(
                hits,
                plain,
                "pattern {}",
                std::str::from_utf8(pattern).unwrap()
            );
            assert!(!hits.is_empty());
        }
    }

    #[test]
    fn packed_finder_stores_are_coalesced_class() {
        let seq = vec![b'A'; 256];
        let device = device();
        let compiled = CompiledSeq::compile(b"NGG");
        let chr = device.alloc::<u8>(256).unwrap();
        let pat = device.alloc_constant_from_slice(compiled.comp()).unwrap();
        let pat_index = device
            .alloc_constant_from_slice(compiled.comp_index())
            .unwrap();
        let out = FinderOutput::allocate(&device, 256).unwrap();
        let packed = genome::twobit::PackedSeq::encode(&seq);
        let (inner, _) = FinderKernel::new(chr, pat, pat_index, out, 256, 256, compiled.plen());
        let kernel = DecodingFinder {
            inner,
            decoder: PackedDecoder {
                packed: device.alloc_from_slice(packed.packed_bytes()).unwrap(),
                mask: device.alloc_from_slice(packed.mask_bytes()).unwrap(),
                exc_pos: device.alloc_from_slice(&[0u32]).unwrap(),
                exc_val: device.alloc_from_slice(&[0u8]).unwrap(),
                n_exc: 0,
            },
        };
        let report = device
            .launch(&kernel, NdRange::linear_cover(256, 64))
            .unwrap();
        assert!(report.counters.global_coalesced_stores >= 256);
        assert_eq!(
            report.counters.global_stores, 0,
            "no scattered stores without exceptions or hits"
        );
    }

    #[test]
    fn finder_reads_are_cached_class() {
        let device = device();
        let compiled = CompiledSeq::compile(b"NGG");
        let seq = vec![b'A'; 256];
        let chr = device.alloc_from_slice(&seq).unwrap();
        let pat = device.alloc_constant_from_slice(compiled.comp()).unwrap();
        let pat_index = device
            .alloc_constant_from_slice(compiled.comp_index())
            .unwrap();
        let out = FinderOutput::allocate(&device, seq.len()).unwrap();
        let (kernel, _) = FinderKernel::new(chr, pat, pat_index, out, 256, 256, compiled.plen());
        let nd = NdRange::linear_cover(256, 64);
        let report = device.launch(&kernel, nd).unwrap();
        assert_eq!(
            report.counters.global_loads, 0,
            "all reference reads go through the coalesced path"
        );
        assert!(report.counters.global_coalesced_loads > 0);
        assert!(report.counters.constant_loads > 0, "pattern staging reads");
    }
}
