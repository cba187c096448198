//! The fused multi-guide comparer (`comparer_multi`): a guide block as a
//! pattern source.
//!
//! A CRISPR library screen compares thousands of guides that share one PAM
//! against the *same* candidate list the finder produced for a chunk. The
//! serial path launches the comparer once per guide — `k` launches of a
//! kernel whose per-launch work is small enough that launch overhead and
//! redundant genome loads dominate (the same fusion argument the GROMACS
//! SYCL port made on AMD GPUs). A [`GuideBlock`] makes
//! [`super::ChunkComparer`] compare a block of up to [`GUIDE_BLOCK`] guides
//! in one launch:
//!
//! * phase 0 stages the concatenated `[fwd|rc]` pattern arrays of the whole
//!   block (guide `g`, half `h`, position `k` at `(g*2 + h)*plen + k`) into
//!   local memory, plus the per-guide thresholds when they differ;
//! * phase 1 loads each candidate's genome window **once** into private
//!   registers and then sweeps all guides × strands against it — the window
//!   loads amortize over `2·G` strand comparisons instead of being re-issued
//!   per guide.
//!
//! Output compaction shares one atomic counter across the block and tags
//! every entry with its guide index. Under
//! [`ExecMode::Sequential`](gpu_sim::ExecMode) each work-item emits its
//! entries for guides in ascending order, so the per-guide subsequence of
//! the shared output is exactly the serial kernel's output — byte-identical
//! results once the host demultiplexes by tag.
//!
//! When every guide in the block shares one threshold, the block can run as
//! a JIT-specialized variant ([`VariantKind::MultiComparer`]) that folds the
//! threshold into an immediate and drops the threshold-table argument and
//! its staging — [`GuideThresholds::Folded`].
//!
//! [`VariantKind::MultiComparer`]: super::VariantKind::MultiComparer

use std::sync::Arc;

use gpu_sim::kernel::{LocalHandle, LocalLayout, LocalMem};
use gpu_sim::{DeviceBuffer, ItemCtx};

use super::chunk_comparer::{ChunkReader, LocalTables, PatternForm, PatternSource};
use super::specialize::CompiledVariant;

/// Maximum guides fused into one comparer launch. `k` guides over the same
/// candidate list run in `ceil(k / GUIDE_BLOCK)` launches instead of `k`.
pub const GUIDE_BLOCK: usize = 16;

/// Mismatch thresholds of a fused block, generic over what carries the
/// per-guide table: a host buffer while the host binds it, a device buffer
/// in a launch description, the device buffer paired with its local
/// staging handle inside the kernel.
#[derive(Debug, Clone)]
pub enum GuideThresholds<T = DeviceBuffer<u16>> {
    /// One threshold per guide, staged to local memory from the table.
    PerGuide(T),
    /// Every guide shares the threshold folded into this compiled
    /// `MultiComparer` variant (which also carries the measured resources).
    Folded(Arc<CompiledVariant>),
}

/// A block of guides sharing one pattern length, compared against each
/// candidate window in one launch.
#[derive(Debug, Clone)]
pub struct GuideBlock {
    pub(crate) tables: LocalTables,
    pub(crate) nguides: usize,
    pub(crate) thresholds: GuideThresholds<(DeviceBuffer<u16>, LocalHandle<u16>)>,
    pub(crate) guide: DeviceBuffer<u16>,
}

impl GuideBlock {
    /// The block of `nguides` guides whose concatenated tables are
    /// `comp`/`comp_index`; passing entries are tagged in `guide`.
    pub fn new(
        comp: DeviceBuffer<u8>,
        comp_index: DeviceBuffer<i32>,
        plen: usize,
        nguides: usize,
        thresholds: GuideThresholds,
        guide: DeviceBuffer<u16>,
    ) -> GuideBlock {
        let mut layout = LocalLayout::new();
        let tables = LocalTables::new(comp, comp_index, plen, nguides, &mut layout);
        let thresholds = match thresholds {
            GuideThresholds::PerGuide(table) => {
                GuideThresholds::PerGuide((table, layout.array::<u16>(nguides)))
            }
            GuideThresholds::Folded(variant) => GuideThresholds::Folded(variant),
        };
        GuideBlock {
            tables,
            nguides,
            thresholds,
            guide,
        }
    }
}

impl PatternSource for GuideBlock {
    const STAGED: bool = true;
    const WINDOWED: bool = true;

    fn form(&self) -> PatternForm {
        match self.thresholds {
            GuideThresholds::PerGuide(_) => PatternForm::Fused,
            GuideThresholds::Folded(_) => PatternForm::FusedFolded,
        }
    }

    #[inline]
    fn plen(&self) -> usize {
        self.tables.plen
    }

    #[inline]
    fn guides(&self) -> usize {
        self.nguides
    }

    fn layout(&self) -> LocalLayout {
        let mut layout = self.tables.layout();
        if let GuideThresholds::PerGuide(_) = self.thresholds {
            let _ = layout.array::<u16>(self.nguides);
        }
        layout
    }

    fn stage(&self, item: &mut ItemCtx, local: &mut LocalMem) {
        self.tables.stage(item, local);
        if let GuideThresholds::PerGuide((table, l_thr)) = &self.thresholds {
            let group = item.local_range(0);
            let mut g = item.local_id(0);
            while g < self.nguides {
                let t = table.load(item, g);
                local.store(item, *l_thr, g, t);
                item.ops(1);
                g += group;
            }
        }
    }

    #[inline]
    fn threshold(&self, item: &mut ItemCtx, local: &LocalMem, g: usize) -> u16 {
        match &self.thresholds {
            GuideThresholds::PerGuide((_, l_thr)) => local.load(item, *l_thr, g),
            GuideThresholds::Folded(variant) => variant.pattern.threshold(),
        }
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

    #[inline]
    fn tag(&self, item: &mut ItemCtx, slot: usize, g: usize) {
        self.guide.store(item, slot, g as u16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::chunk_comparer::OnDevice;
    use crate::kernels::finder::{FLAG_BOTH, FLAG_FORWARD, FLAG_REVERSE};
    use crate::kernels::specialize::{CompiledVariant, VariantKind};
    use crate::kernels::{
        comparer_model, ChunkBuffers, ComparerKernel, ComparerLaunch, ComparerOutput, Encoding,
        OptLevel, Pattern, PatternForm, Sites, StagedPattern,
    };
    use crate::pattern::CompiledSeq;
    use genome::fourbit::NibbleSeq;
    use genome::twobit::TwoBitSeq;
    use gpu_sim::{Device, DeviceSpec, ExecMode, NdRange};

    fn device() -> Device {
        Device::with_mode(DeviceSpec::mi100(), ExecMode::Sequential)
    }

    fn fixture_seq(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| b"ACGTACGGTTCA"[(i * 7 + i / 3) % 12])
            .collect()
    }

    fn fixture_guides() -> Vec<(Vec<u8>, u16)> {
        vec![
            (b"ACGTACNN".to_vec(), 2),
            (b"TTCAACNN".to_vec(), 3),
            (b"ACGGTTNN".to_vec(), 1),
            (b"CGTACGNN".to_vec(), 2),
            (b"GGTTCANN".to_vec(), 4),
        ]
    }

    fn fixture_candidates(seq_len: usize, plen: usize) -> (Vec<u32>, Vec<u8>) {
        let loci: Vec<u32> = (0..(seq_len - plen) as u32).collect();
        let flags: Vec<u8> = loci
            .iter()
            .map(|&p| match p % 4 {
                0 => FLAG_BOTH,
                1 => FLAG_FORWARD,
                2 => FLAG_REVERSE,
                _ => FLAG_BOTH,
            })
            .collect();
        (loci, flags)
    }

    /// `seq` uploaded in encoding `encoding` (0 char, 1 2-bit, 2 4-bit).
    fn chunk(device: &Device, encoding: u8, seq: &[u8]) -> ChunkBuffers {
        match encoding {
            0 => ChunkBuffers::Char(device.alloc_from_slice(seq).unwrap()),
            1 => {
                let enc = TwoBitSeq::encode(seq);
                ChunkBuffers::TwoBit {
                    packed: device.alloc_from_slice(enc.packed_bytes()).unwrap(),
                    mask: device.alloc_from_slice(enc.mask_bytes()).unwrap(),
                }
            }
            _ => ChunkBuffers::FourBit(
                device
                    .alloc_from_slice(NibbleSeq::encode(seq).nibble_bytes())
                    .unwrap(),
            ),
        }
    }

    fn sites(device: &Device, loci: &[u32], flags: &[u8], out: &ComparerOutput) -> Sites {
        Sites {
            loci: device.alloc_from_slice(loci).unwrap(),
            flags: device.alloc_from_slice(flags).unwrap(),
            locicnt: loci.len() as u32,
            out: out.clone(),
        }
    }

    /// Serial reference: one comparer launch per guide on the chosen
    /// encoding — the paper's comparer for chars, the staged serving
    /// comparer otherwise — entries in compaction order (NOT sorted — byte
    /// identity includes ordering).
    fn serial_reference(
        encoding: u8,
        seq: &[u8],
        guides: &[(Vec<u8>, u16)],
        loci: &[u32],
        flags: &[u8],
    ) -> Vec<Vec<(u32, u8, u16)>> {
        let device = device();
        let nd = NdRange::linear_cover(loci.len(), 64);
        let mut out = Vec::new();
        for (pat, thr) in guides {
            let compiled = CompiledSeq::compile(pat);
            let comp = device.alloc_from_slice(compiled.comp()).unwrap();
            let comp_index = device.alloc_from_slice(compiled.comp_index()).unwrap();
            let o = ComparerOutput::allocate(&device, loci.len() * 2 + 1).unwrap();
            let sites = sites(&device, loci, flags, &o);
            if encoding == 0 {
                let (k, _) = ComparerKernel::new(
                    OptLevel::Opt3,
                    device.alloc_from_slice(seq).unwrap(),
                    sites.loci,
                    sites.flags,
                    comp,
                    comp_index,
                    loci.len(),
                    *thr,
                    o.clone(),
                    &compiled,
                );
                device.launch(&k, nd).unwrap();
            } else {
                let launch = ComparerLaunch {
                    chunk: chunk(&device, encoding, seq),
                    pattern: Pattern::Staged(StagedPattern::new(
                        comp,
                        comp_index,
                        compiled.plen(),
                        *thr,
                    )),
                    sites,
                };
                launch.build(OnDevice(&device, nd)).unwrap();
            }
            out.push(o.entries());
        }
        out
    }

    /// Fused run on the chosen encoding, demuxed per guide.
    fn fused_run(
        encoding: u8,
        seq: &[u8],
        guides: &[(Vec<u8>, u16)],
        loci: &[u32],
        flags: &[u8],
        folded: Option<u16>,
    ) -> Vec<Vec<(u32, u8, u16)>> {
        fused_run_on(&device(), encoding, seq, guides, loci, flags, folded)
    }

    fn fused_run_on(
        device: &Device,
        encoding: u8,
        seq: &[u8],
        guides: &[(Vec<u8>, u16)],
        loci: &[u32],
        flags: &[u8],
        folded: Option<u16>,
    ) -> Vec<Vec<(u32, u8, u16)>> {
        let compiled: Vec<CompiledSeq> = guides
            .iter()
            .map(|(p, _)| CompiledSeq::compile(p))
            .collect();
        let comp: Vec<u8> = compiled.iter().flat_map(|c| c.comp().to_vec()).collect();
        let index: Vec<i32> = compiled
            .iter()
            .flat_map(|c| c.comp_index().to_vec())
            .collect();
        let thresholds = match folded {
            Some(t) => GuideThresholds::Folded(Arc::new(CompiledVariant::compile(
                VariantKind::MultiComparer,
                &compiled[0],
                t,
            ))),
            None => {
                let thr_h: Vec<u16> = guides.iter().map(|&(_, t)| t).collect();
                GuideThresholds::PerGuide(device.alloc_from_slice(&thr_h).unwrap())
            }
        };
        let capacity = loci.len() * 2 * guides.len() + 1;
        let out = ComparerOutput::allocate(device, capacity).unwrap();
        let guide = device.alloc::<u16>(capacity).unwrap();
        let launch = ComparerLaunch {
            chunk: chunk(device, encoding, seq),
            pattern: Pattern::Block(GuideBlock::new(
                device.alloc_from_slice(&comp).unwrap(),
                device.alloc_from_slice(&index).unwrap(),
                compiled[0].plen(),
                guides.len(),
                thresholds,
                guide.clone(),
            )),
            sites: sites(device, loci, flags, &out),
        };
        let nd = NdRange::linear_cover(loci.len(), 64);
        launch.build(OnDevice(device, nd)).unwrap();
        let tags = guide.to_vec();
        let mut per_guide = vec![Vec::new(); guides.len()];
        for (i, entry) in out.entries().into_iter().enumerate() {
            per_guide[tags[i] as usize].push(entry);
        }
        per_guide
    }

    #[test]
    fn fused_matches_serial_per_guide_char() {
        let seq = fixture_seq(160);
        let guides = fixture_guides();
        let (loci, flags) = fixture_candidates(seq.len(), 8);
        let serial = serial_reference(0, &seq, &guides, &loci, &flags);
        let fused = fused_run(0, &seq, &guides, &loci, &flags, None);
        assert!(serial.iter().any(|g| !g.is_empty()), "fixture must hit");
        assert_eq!(fused, serial, "char fused output must be byte-identical");
    }

    #[test]
    fn fused_matches_serial_per_guide_2bit() {
        let seq = fixture_seq(160);
        let guides = fixture_guides();
        let (loci, flags) = fixture_candidates(seq.len(), 8);
        let serial = serial_reference(1, &seq, &guides, &loci, &flags);
        let fused = fused_run(1, &seq, &guides, &loci, &flags, None);
        assert_eq!(fused, serial, "2-bit fused output must be byte-identical");
    }

    #[test]
    fn fused_matches_serial_per_guide_4bit() {
        let seq = fixture_seq(160);
        let guides = fixture_guides();
        let (loci, flags) = fixture_candidates(seq.len(), 8);
        let serial = serial_reference(2, &seq, &guides, &loci, &flags);
        let fused = fused_run(2, &seq, &guides, &loci, &flags, None);
        assert_eq!(fused, serial, "4-bit fused output must be byte-identical");
    }

    #[test]
    fn folded_block_matches_per_guide_thresholds() {
        // All guides at one threshold: the folded (JIT-specialized) block
        // must equal both the per-guide-threshold fused run and serial.
        let seq = fixture_seq(160);
        let guides: Vec<(Vec<u8>, u16)> = fixture_guides()
            .into_iter()
            .map(|(p, _)| (p, 3u16))
            .collect();
        let (loci, flags) = fixture_candidates(seq.len(), 8);
        for enc in 0..3u8 {
            let serial = serial_reference(enc, &seq, &guides, &loci, &flags);
            let folded = fused_run(enc, &seq, &guides, &loci, &flags, Some(3));
            assert_eq!(folded, serial, "folded enc {enc} must be byte-identical");
        }
    }

    #[test]
    fn fused_saves_genome_loads_and_launches() {
        let seq = fixture_seq(2048);
        let guides: Vec<(Vec<u8>, u16)> = (0..8)
            .map(|i| {
                let mut p = fixture_seq(20);
                p[19 - (i % 3)] = b'N';
                (p, 20u16) // no early exit: full windows compared
            })
            .collect();
        let loci: Vec<u32> = (0..1500u32).collect();
        let flags = vec![FLAG_BOTH; loci.len()];
        let serial = device();
        let before = serial.traffic();
        for (pat, thr) in &guides {
            let compiled = CompiledSeq::compile(pat);
            let o = ComparerOutput::allocate(&serial, loci.len() * 2 + 1).unwrap();
            let sites = sites(&serial, &loci, &flags, &o);
            let (k, _) = ComparerKernel::new(
                OptLevel::Opt3,
                serial.alloc_from_slice(&seq).unwrap(),
                sites.loci,
                sites.flags,
                serial.alloc_from_slice(compiled.comp()).unwrap(),
                serial.alloc_from_slice(compiled.comp_index()).unwrap(),
                loci.len(),
                *thr,
                o,
                &compiled,
            );
            serial
                .launch(&k, NdRange::linear_cover(loci.len(), 64))
                .unwrap();
        }
        let serial_traffic = serial.traffic().since(&before);
        let fused = device();
        let before = fused.traffic();
        fused_run_on(&fused, 0, &seq, &guides, &loci, &flags, None);
        assert_eq!(serial_traffic.kernel_launches, guides.len() as u64);
        assert_eq!(fused.traffic().since(&before).kernel_launches, 1);
    }

    #[test]
    fn folded_models_price_below_generic() {
        use gpu_sim::isa;
        for enc in Encoding::ALL {
            let gen = comparer_model(enc, PatternForm::Fused, 20);
            let g = isa::compile(&gen);
            let s = isa::compile(&comparer_model(enc, PatternForm::FusedFolded, 20));
            assert!(
                s.code_bytes < g.code_bytes,
                "{}: spec {} !< generic {}",
                gen.name(),
                s.code_bytes,
                g.code_bytes
            );
        }
    }
}
