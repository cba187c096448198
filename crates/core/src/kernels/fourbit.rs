//! The 4-bit (nibble) comparer and finder — the universal packed path.
//!
//! The 2-bit kernels ([`super::TwoBitReader`], [`super::PackedDecoder`])
//! win on concrete genomes but lean on an exception list for everything the
//! 2-bit code can't express; a chunk dense in soft-masked or degenerate bases
//! either bloats its upload with exceptions or falls back to the char
//! comparer entirely. The nibble encoding ([`genome::fourbit`]) stores every
//! byte's IUPAC possibility mask directly, and since the match rule the
//! kernels implement is *subset-of-mask* (`g != 0 && (g & p) == g`,
//! [`genome::base::matches`]), a kernel reading nibbles reproduces the char
//! comparer bit for bit on any input — no exceptions, no fallback — at half
//! a byte per base of device traffic.
//!
//! Two pieces live here:
//!
//! * [`NibbleReader`] — the chunk reader that makes [`super::ChunkComparer`]
//!   the 4-bit comparer: the per-base decode is one shift-and-mask, cheaper
//!   than the 2-bit reader's packed-byte + mask-byte merge, and the match
//!   rule is the subset test on masks.
//! * [`NibbleDecoder`] — the decoder that makes [`super::DecodingFinder`]
//!   the finder over a nibble-packed chunk: each work-group decodes its read
//!   window into the `chr` scratch (uppercase canonical codes via
//!   [`mask_to_char`]) and then runs the plain finder's phases unchanged.
//!   No exception phase: the nibbles are already exact for matching
//!   purposes.

use gpu_sim::{DeviceBuffer, ItemCtx};

use genome::base::base_mask;
use genome::fourbit::mask_to_char;

use super::chunk_comparer::{ChunkReader, Encoding};
use super::finder::{PayloadForm, WindowDecoder};
use super::specialize::FoldedPattern;

/// Nibble words, two bases per byte, low nibble first; each read yields the
/// base's IUPAC possibility mask.
#[derive(Debug, Clone)]
pub struct NibbleReader(pub DeviceBuffer<u8>);

impl ChunkReader for NibbleReader {
    const ENCODING: Encoding = Encoding::FourBit;
    /// `(byte_index, byte)`.
    type Cursor = (usize, u8);
    const FRESH: Self::Cursor = (usize::MAX, 0);
    const CURSOR_OPS: u64 = 1;
    const WINDOW_OPS: u64 = 0;

    /// The possibility mask at `pos`, reusing the cursor's byte when `pos`
    /// falls in it: sequential positions cost one load per pair.
    #[inline]
    fn read(&self, item: &mut ItemCtx, cursor: &mut Self::Cursor, pos: usize) -> u8 {
        let idx = pos / 2;
        if cursor.0 != idx {
            cursor.0 = idx;
            cursor.1 = self.0.load(item, idx);
        }
        item.ops(2); // shift + mask
        (cursor.1 >> ((pos % 2) * 4)) & 0b1111
    }

    /// A staged pattern char costs its mask lookup.
    #[inline]
    fn staged(c: u8) -> (u8, u64) {
        (base_mask(c), 1)
    }

    /// The folded pattern carries its masks: no lookup.
    #[inline]
    fn folded(pattern: &FoldedPattern, half: usize, k: usize) -> u8 {
        pattern.mask(half, k)
    }

    /// The subset test that replaces the char comparer's ladder: the genome
    /// mask must be non-empty and contained in the pattern's.
    #[inline]
    fn mismatch(pattern: u8, base: u8) -> bool {
        !(base != 0 && (base & pattern) == base)
    }
}

/// The nibble payload as a finder decodes it: each base becomes the
/// canonical uppercase code of its mask ([`mask_to_char`]), which matches
/// identically to the original byte. Nothing needs patching.
#[derive(Debug, Clone)]
pub struct NibbleDecoder(pub DeviceBuffer<u8>);

impl WindowDecoder for NibbleDecoder {
    const FORM: PayloadForm = PayloadForm::Nibble;
    const PHASES: usize = 1;
    // The nibble pointer and the decode's VALU.
    const MODEL: [u32; 4] = [1, 0, 0, 8];

    /// Lane-adjacent nibble reads: coalesced.
    #[inline]
    fn decode(&self, item: &mut ItemCtx, k: usize) -> u8 {
        let byte = self.0.load_coalesced(item, k / 2);
        item.ops(3); // shift, mask, LUT
        mask_to_char((byte >> ((k % 2) * 4)) & 0b1111)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::chunk_comparer::OnDevice;
    use crate::kernels::finder::{FLAG_BOTH, FLAG_FORWARD};
    use crate::kernels::{
        ChunkBuffers, ComparerKernel, ComparerLaunch, ComparerOutput, DecodingFinder, FinderKernel,
        FinderOutput, OptLevel, Pattern, Sites, StagedPattern,
    };
    use crate::pattern::CompiledSeq;
    use genome::fourbit::NibbleSeq;
    use gpu_sim::{Device, DeviceSpec, ExecMode, NdRange};

    fn device() -> Device {
        Device::with_mode(DeviceSpec::mi100(), ExecMode::Sequential)
    }

    fn run_4bit(
        seq: &[u8],
        query: &[u8],
        candidates: &[(u32, u8)],
        threshold: u16,
    ) -> (Vec<(u32, u8, u16)>, gpu_sim::LaunchReport) {
        let device = device();
        let compiled = CompiledSeq::compile(query);
        let packed = NibbleSeq::encode(seq);
        let nibbles = device.alloc_from_slice(packed.nibble_bytes()).unwrap();
        let loci_host: Vec<u32> = candidates.iter().map(|&(p, _)| p).collect();
        let flags_host: Vec<u8> = candidates.iter().map(|&(_, f)| f).collect();
        let loci = device.alloc_from_slice(&loci_host).unwrap();
        let flags = device.alloc_from_slice(&flags_host).unwrap();
        let out = ComparerOutput::allocate(&device, candidates.len() * 2 + 1).unwrap();
        let launch = ComparerLaunch {
            chunk: ChunkBuffers::FourBit(nibbles),
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
        let (a, _) = run_4bit(seq, query, &candidates, 3);
        let (b, _) = run_char(seq, query, &candidates, 3);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn matches_char_comparer_on_exception_dense_sequences() {
        // Soft-masked runs, every degenerate code, U and invalid bytes: the
        // 2-bit path would fall back to char here; the nibble path must
        // reproduce char results exactly.
        let mut seq = b"acgtacgtRYSWKMBDHVNnryswkmbdhvUu-@acgtACGT".to_vec();
        seq.extend(std::iter::repeat_n(*b"aCgTtagRYn", 20).flatten());
        for query in [&b"ACGTACNN"[..], b"NRGNNacgt", b"RYSWKMBD"] {
            let candidates: Vec<(u32, u8)> =
                (0..seq.len() as u32 - 10).map(|p| (p, FLAG_BOTH)).collect();
            for threshold in [0u16, 2, 5] {
                let (a, _) = run_4bit(&seq, query, &candidates, threshold);
                let (b, _) = run_char(&seq, query, &candidates, threshold);
                assert_eq!(
                    a,
                    b,
                    "query {} threshold {threshold}",
                    std::str::from_utf8(query).unwrap()
                );
            }
        }
    }

    #[test]
    fn masked_bases_count_as_mismatches() {
        let (entries, _) = run_4bit(b"ACGNN", b"ACGTA", &[(0, FLAG_FORWARD)], 4);
        assert_eq!(entries, vec![(0, b'+', 2)]);
    }

    #[test]
    fn nibble_loads_are_fewer_than_char_loads() {
        let seq: Vec<u8> = (0..4096u32)
            .map(|i| b"acgt"[(i as usize * 13 + 5) % 4]) // all soft-masked
            .collect();
        let query = b"GGCCGACCTGTCGCTGACGCNNN";
        let candidates: Vec<(u32, u8)> = (0..2048).map(|p| (p, FLAG_BOTH)).collect();
        let (_, nibble_report) = run_4bit(&seq, query, &candidates, 22);
        let (_, char_report) = run_char(&seq, query, &candidates, 22);
        // With threshold 22 (no early exit) every compared base costs the
        // char kernel one load; the nibble kernel shares bytes across two.
        assert!(
            (nibble_report.counters.global_loads as f64)
                < char_report.counters.global_loads as f64 * 0.75,
            "nibble {} vs char {}",
            nibble_report.counters.global_loads,
            char_report.counters.global_loads
        );
    }

    fn run_plain_finder(seq: &[u8], pattern: &[u8]) -> Vec<(u32, u8)> {
        let device = device();
        let compiled = CompiledSeq::compile(pattern);
        let chr = device.alloc_from_slice(seq).unwrap();
        let pat = device.alloc_constant_from_slice(compiled.comp()).unwrap();
        let pat_index = device
            .alloc_constant_from_slice(compiled.comp_index())
            .unwrap();
        let out = FinderOutput::allocate(&device, seq.len()).unwrap();
        let (kernel, _) = FinderKernel::new(
            chr,
            pat,
            pat_index,
            out,
            seq.len(),
            seq.len(),
            compiled.plen(),
        );
        let nd = NdRange::linear_cover(seq.len(), 64);
        device.launch(&kernel, nd).unwrap();
        let n = kernel.out.count_matches();
        let loci = kernel.out.loci.to_vec();
        let flags = kernel.out.flags.to_vec();
        let mut hits: Vec<(u32, u8)> = (0..n).map(|s| (loci[s], flags[s])).collect();
        hits.sort_unstable();
        hits
    }

    fn run_nibble_finder(seq: &[u8], pattern: &[u8]) -> (Vec<(u32, u8)>, Vec<u8>) {
        let device = device();
        let compiled = CompiledSeq::compile(pattern);
        let packed = NibbleSeq::encode(seq);
        let chr = device.alloc::<u8>(seq.len()).unwrap();
        let pat = device.alloc_constant_from_slice(compiled.comp()).unwrap();
        let pat_index = device
            .alloc_constant_from_slice(compiled.comp_index())
            .unwrap();
        let out = FinderOutput::allocate(&device, seq.len()).unwrap();
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
            decoder: NibbleDecoder(device.alloc_from_slice(packed.nibble_bytes()).unwrap()),
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
    fn nibble_finder_matches_plain_finder_on_masked_sequences() {
        let mut seq = b"NNNNAGGtggCCAaagRYSWKMaggNNNN".to_vec();
        seq.extend(std::iter::repeat_n(*b"acgtaggcct", 40).flatten());
        for pattern in [&b"NGG"[..], b"NRG"] {
            let plain = run_plain_finder(&seq, pattern);
            let (hits, decoded) = run_nibble_finder(&seq, pattern);
            // The decode canonicalizes case (matching is case-insensitive).
            let canonical: Vec<u8> = seq.iter().map(|&b| mask_to_char(base_mask(b))).collect();
            assert_eq!(
                decoded, canonical,
                "decode is the canonical code of each mask"
            );
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
    fn nibble_finder_stores_are_coalesced_class() {
        let seq = vec![b'a'; 256]; // soft-masked everywhere
        let device = device();
        let compiled = CompiledSeq::compile(b"NGG");
        let packed = NibbleSeq::encode(&seq);
        let chr = device.alloc::<u8>(256).unwrap();
        let pat = device.alloc_constant_from_slice(compiled.comp()).unwrap();
        let pat_index = device
            .alloc_constant_from_slice(compiled.comp_index())
            .unwrap();
        let out = FinderOutput::allocate(&device, 256).unwrap();
        let (inner, _) = FinderKernel::new(chr, pat, pat_index, out, 256, 256, compiled.plen());
        let kernel = DecodingFinder {
            inner,
            decoder: NibbleDecoder(device.alloc_from_slice(packed.nibble_bytes()).unwrap()),
        };
        let report = device
            .launch(&kernel, NdRange::linear_cover(256, 64))
            .unwrap();
        assert!(report.counters.global_coalesced_stores >= 256);
        assert_eq!(
            report.counters.global_stores, 0,
            "no scattered stores: the nibble path has no exceptions"
        );
    }
}
