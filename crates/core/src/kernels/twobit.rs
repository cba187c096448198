//! The 2-bit chunk reader — the Cas-OFFinder authors' follow-up
//! optimization (related work \[21\] of the paper).
//!
//! The genome chunk is packed at 2 bits per base with a 1-bit ambiguity
//! mask ([`genome::twobit`]). Four consecutive bases share one packed byte,
//! so a site comparison loads roughly `plen/4 + plen/8` bytes instead of
//! `plen` — the memory-traffic reduction that gave the original authors
//! their ~30x combined improvement. [`super::ChunkComparer`] over this
//! reader is the 2-bit comparer in every pattern form, and
//! [`super::DecodingFinder`] over [`PackedDecoder`] is the 2-bit finder.

use std::ops::Range;

use gpu_sim::{DeviceBuffer, ItemCtx};

use genome::base::is_mismatch;
use genome::twobit::code_to_char;

use super::chunk_comparer::{ChunkReader, Encoding};
use super::finder::{PayloadForm, WindowDecoder};
use super::specialize::FoldedPattern;

/// Packed words plus the ambiguity mask; masked bases decode as `N`.
#[derive(Debug, Clone)]
pub struct TwoBitReader {
    /// Packed chunk bases, 4 per byte.
    pub packed: DeviceBuffer<u8>,
    /// Ambiguity mask, 8 bases per byte.
    pub mask: DeviceBuffer<u8>,
}

impl ChunkReader for TwoBitReader {
    const ENCODING: Encoding = Encoding::TwoBit;
    /// `(packed_byte_index, packed_byte, mask_byte_index, mask_byte)`.
    type Cursor = (usize, u8, usize, u8);
    const FRESH: Self::Cursor = (usize::MAX, 0, usize::MAX, 0);
    const CURSOR_OPS: u64 = 1;
    const WINDOW_OPS: u64 = 0;

    /// Decode the base at `pos`, reusing the cursor's packed and mask bytes
    /// when `pos` falls in the same byte.
    #[inline(always)]
    fn read(&self, item: &mut ItemCtx, cursor: &mut Self::Cursor, pos: usize) -> u8 {
        let (pb_idx, mb_idx) = (pos / 4, pos / 8);
        if cursor.0 != pb_idx {
            cursor.0 = pb_idx;
            cursor.1 = self.packed.load(item, pb_idx);
        }
        if cursor.2 != mb_idx {
            cursor.2 = mb_idx;
            cursor.3 = self.mask.load(item, mb_idx);
        }
        item.ops(4); // shifts and masks
        if (cursor.3 >> (pos % 8)) & 1 == 1 {
            b'N'
        } else {
            code_to_char((cursor.1 >> ((pos % 4) * 2)) & 0b11)
        }
    }

    /// Decoded codes are compared directly, no ladder.
    #[inline]
    fn staged(c: u8) -> (u8, u64) {
        (c, 0)
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

/// The 2-bit payload as a finder decodes it: packed words and the mask,
/// then the (rare) exception bytes patched over the decoded window.
#[derive(Debug, Clone)]
pub struct PackedDecoder {
    /// Packed base bytes (4 bases per byte, LSB first).
    pub packed: DeviceBuffer<u8>,
    /// Ambiguity mask bytes (8 bases per byte, LSB first).
    pub mask: DeviceBuffer<u8>,
    /// Exception positions (sorted ascending), `n_exc` entries used.
    pub exc_pos: DeviceBuffer<u32>,
    /// Exception bytes, parallel to `exc_pos`.
    pub exc_val: DeviceBuffer<u8>,
    /// Number of valid exception entries.
    pub n_exc: u32,
}

impl WindowDecoder for PackedDecoder {
    const FORM: PayloadForm = PayloadForm::Packed;
    const PHASES: usize = 2;
    // packed, mask, exc_pos, exc_val; n_exc; the window test.
    const MODEL: [u32; 4] = [4, 1, 1, 16];

    /// Lane-adjacent packed and mask reads: coalesced.
    #[inline]
    fn decode(&self, item: &mut ItemCtx, k: usize) -> u8 {
        let byte = self.packed.load_coalesced(item, k / 4);
        let mbyte = self.mask.load_coalesced(item, k / 8);
        item.ops(4); // shifts, mask test, select
        if (mbyte >> (k % 8)) & 1 == 1 {
            b'N'
        } else {
            code_to_char(byte >> ((k % 4) * 2))
        }
    }

    /// A cooperative pass over the exception list (degenerate IUPAC codes
    /// and case oddities — empty for plain ACGT/N genomes): each group
    /// applies the entries inside its own window, after the barrier that
    /// ends the decode.
    fn patch(&self, item: &mut ItemCtx, chr: &DeviceBuffer<u8>, window: Range<usize>) {
        let group = item.local_range(0);
        let mut e = item.local_id(0);
        while e < self.n_exc as usize {
            let pos = self.exc_pos.load_coalesced(item, e) as usize;
            item.ops(2); // window test
            if window.contains(&pos) {
                let v = self.exc_val.load_coalesced(item, e);
                chr.store(item, pos, v); // scattered, rare
            }
            e += group;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::kernels::chunk_comparer::OnDevice;
    use crate::kernels::finder::{FLAG_BOTH, FLAG_FORWARD};
    use crate::kernels::{
        ChunkBuffers, ComparerKernel, ComparerLaunch, ComparerOutput, OptLevel, Pattern, Sites,
        StagedPattern,
    };
    use crate::pattern::CompiledSeq;
    use genome::twobit::TwoBitSeq;
    use gpu_sim::{Device, DeviceSpec, ExecMode, NdRange};

    fn device() -> Device {
        Device::with_mode(DeviceSpec::mi100(), ExecMode::Sequential)
    }

    fn run_2bit(
        seq: &[u8],
        query: &[u8],
        candidates: &[(u32, u8)],
        threshold: u16,
    ) -> (Vec<(u32, u8, u16)>, gpu_sim::LaunchReport) {
        let device = device();
        let compiled = CompiledSeq::compile(query);
        let packed_seq = TwoBitSeq::encode(seq);
        let packed = device.alloc_from_slice(packed_seq.packed_bytes()).unwrap();
        let mask = device.alloc_from_slice(packed_seq.mask_bytes()).unwrap();
        let loci_host: Vec<u32> = candidates.iter().map(|&(p, _)| p).collect();
        let flags_host: Vec<u8> = candidates.iter().map(|&(_, f)| f).collect();
        let loci = device.alloc_from_slice(&loci_host).unwrap();
        let flags = device.alloc_from_slice(&flags_host).unwrap();
        let out = ComparerOutput::allocate(&device, candidates.len() * 2 + 1).unwrap();
        let launch = ComparerLaunch {
            chunk: ChunkBuffers::TwoBit { packed, mask },
            pattern: Pattern::Staged(StagedPattern::new(
                device.alloc_from_slice(compiled.comp()).unwrap(),
                device.alloc_from_slice(compiled.comp_index()).unwrap(),
                compiled.plen(),
                threshold,
            )),
            sites: Sites {
                loci,
                flags,
                locicnt: candidates.len() as u32,
                out: out.clone(),
            },
        };
        let nd = NdRange::linear_cover(candidates.len(), 256);
        let report = launch.build(OnDevice(&device, nd)).unwrap();
        let mut entries = out.entries();
        entries.sort_unstable();
        (entries, report)
    }

    fn run_char(
        seq: &[u8],
        query: &[u8],
        candidates: &[(u32, u8)],
        threshold: u16,
    ) -> (Vec<(u32, u8, u16)>, gpu_sim::LaunchReport) {
        let device = device();
        let compiled = CompiledSeq::compile(query);
        let chr = device.alloc_from_slice(seq).unwrap();
        let loci_host: Vec<u32> = candidates.iter().map(|&(p, _)| p).collect();
        let flags_host: Vec<u8> = candidates.iter().map(|&(_, f)| f).collect();
        let loci = device.alloc_from_slice(&loci_host).unwrap();
        let flags = device.alloc_from_slice(&flags_host).unwrap();
        let comp = device.alloc_from_slice(compiled.comp()).unwrap();
        let comp_index = device.alloc_from_slice(compiled.comp_index()).unwrap();
        let out = ComparerOutput::allocate(&device, candidates.len() * 2 + 1).unwrap();
        let (kernel, _) = ComparerKernel::new(
            OptLevel::Opt3,
            chr,
            loci,
            flags,
            comp,
            comp_index,
            candidates.len(),
            threshold,
            out,
            &compiled,
        );
        let nd = NdRange::linear_cover(candidates.len(), 256);
        let report = device.launch(&kernel, nd).unwrap();
        let mut entries = kernel.out.entries();
        entries.sort_unstable();
        (entries, report)
    }

    #[test]
    fn matches_char_comparer_on_concrete_genomes() {
        let seq = b"ACGTACGTACGTAAGGCCTTACGTACGT";
        let query = b"ACGTACNN";
        let candidates: Vec<(u32, u8)> = (0..20).map(|p| (p, FLAG_BOTH)).collect();
        let (a, _) = run_2bit(seq, query, &candidates, 3);
        let (b, _) = run_char(seq, query, &candidates, 3);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn masked_bases_decode_as_n_and_mismatch() {
        let (entries, _) = run_2bit(b"ACGNN", b"ACGTA", &[(0, FLAG_FORWARD)], 4);
        assert_eq!(entries, vec![(0, b'+', 2)]);
    }

    #[test]
    fn packed_loads_are_fewer_than_char_loads() {
        let seq: Vec<u8> = (0..4096u32)
            .map(|i| b"ACGT"[(i as usize * 13 + 5) % 4])
            .collect();
        let query = b"GGCCGACCTGTCGCTGACGCNNN";
        let candidates: Vec<(u32, u8)> = (0..2048).map(|p| (p, FLAG_BOTH)).collect();
        let (_, packed_report) = run_2bit(&seq, query, &candidates, 22);
        let (_, char_report) = run_char(&seq, query, &candidates, 22);
        // With threshold 22 (no early exit) every compared base costs the
        // char kernel one load; the packed kernel shares bytes across four.
        assert!(
            (packed_report.counters.global_loads as f64)
                < char_report.counters.global_loads as f64 * 0.6,
            "packed {} vs char {}",
            packed_report.counters.global_loads,
            char_report.counters.global_loads
        );
    }
}
