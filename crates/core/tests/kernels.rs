//! Characterization of the serving comparers: every comparer form — three
//! chunk encodings × {staged tables, folded variant, fused block with
//! per-guide thresholds, fused block with a folded threshold} — plus the
//! finder over each payload form (raw, 2-bit with exceptions, nibbles), the
//! specialized nibble finder and the 2-bit pipeline's comparer, launched on
//! a seeded chunk with degenerate bases. Each row pins the launch report's
//! kernel name, counters, wave cycles, ISA resources, occupancy and
//! simulated seconds, and the entries the launch produced, against
//! `tests/fixtures/kernels.txt`.
//!
//! Counts must match exactly; cycles and seconds within 1e-12 relative.
//! After a deliberate behaviour change, regenerate the fixture with
//! `CASOFF_BLESS=1 cargo test -p cas-offinder --test kernels` and review
//! its diff row by row.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use cas_offinder::kernels::specialize::{CompiledVariant, VariantKind};
use cas_offinder::kernels::{
    ChunkBuffers, ComparerLaunch, ComparerOutput, FinderLaunch, FinderOutput, GuideBlock,
    GuideThresholds, KernelSink, Pam, Pattern, PayloadBuffers, PayloadForm, Sites, StagedPattern,
};
use cas_offinder::pipeline::{self, PipelineConfig};
use cas_offinder::{CompiledSeq, SearchInput};
use genome::fourbit::NibbleSeq;
use genome::rng::Xoshiro256;
use genome::twobit::PackedSeq;
use genome::{Assembly, Chromosome};
use gpu_sim::{Device, DeviceBuffer, DeviceSpec, ExecMode, KernelProgram, LaunchReport, NdRange};

const PAM: &[u8] = b"NNNNNNNNNRG";
const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/kernels.txt");
const THRESHOLDS: [u16; 3] = [2, 4, 3];
const SHARED_THRESHOLD: u16 = 4;
const GROUP: usize = 64;

type Row = Vec<(String, String)>;

/// Seeded bases with an N run, a soft-masked stretch and scattered IUPAC
/// codes — the 2-bit reader sees those as `N`, the nibble reader as masks.
fn bases() -> Vec<u8> {
    let mut rng = Xoshiro256::seed_from_u64(0x5EED_C0DE);
    let mut seq: Vec<u8> = (0..320).map(|_| *rng.choose(b"ACGT").unwrap()).collect();
    seq[40..46].copy_from_slice(b"NNNNNN");
    for b in &mut seq[120..170] {
        b.make_ascii_lowercase();
    }
    for (i, c) in [
        (17, b'R'),
        (63, b'Y'),
        (101, b'K'),
        (150, b's'),
        (233, b'M'),
    ] {
        seq[i] = c;
    }
    seq
}

/// Three guides lifted from the chunk so every form finds entries, with a
/// degenerate code in each and the PAM positions left as `N`.
fn guides(seq: &[u8]) -> Vec<Vec<u8>> {
    [12usize, 130, 200]
        .iter()
        .enumerate()
        .map(|(g, &at)| {
            let mut guide = seq[at..at + 8].to_ascii_uppercase();
            guide[g + 1] = [b'R', b'W', b'N'][g];
            guide.extend_from_slice(b"NNN");
            guide
        })
        .collect()
}

/// The chunk in all three encodings plus a seeded candidate set.
struct Chunk {
    device: Device,
    chr: DeviceBuffer<u8>,
    packed: DeviceBuffer<u8>,
    mask: DeviceBuffer<u8>,
    exc_pos: DeviceBuffer<u32>,
    exc_val: DeviceBuffer<u8>,
    n_exc: u32,
    nibbles: DeviceBuffer<u8>,
    loci: DeviceBuffer<u32>,
    flags: DeviceBuffer<u8>,
    n: usize,
    seq_len: usize,
    guides: Vec<CompiledSeq>,
    pam: CompiledSeq,
}

impl Chunk {
    fn new() -> Chunk {
        let device = Device::with_mode(DeviceSpec::mi100(), ExecMode::Sequential);
        let seq = bases();
        let packed = PackedSeq::encode(&seq);
        let nibble = NibbleSeq::encode(&seq);
        let mut rng = Xoshiro256::seed_from_u64(0xF1A6_5EED);
        let n = seq.len() - PAM.len();
        let loci: Vec<u32> = (0..n as u32).collect();
        let flags: Vec<u8> = (0..n).map(|_| *rng.choose(&[0u8, 1, 2]).unwrap()).collect();
        let (exc_pos, exc_val) = packed.exception_arrays();
        Chunk {
            chr: device.alloc_from_slice(&seq).unwrap(),
            packed: device.alloc_from_slice(packed.packed_bytes()).unwrap(),
            mask: device.alloc_from_slice(packed.mask_bytes()).unwrap(),
            exc_pos: device.alloc_from_slice(&exc_pos).unwrap(),
            exc_val: device.alloc_from_slice(&exc_val).unwrap(),
            n_exc: exc_pos.len() as u32,
            nibbles: device.alloc_from_slice(nibble.nibble_bytes()).unwrap(),
            loci: device.alloc_from_slice(&loci).unwrap(),
            flags: device.alloc_from_slice(&flags).unwrap(),
            n,
            seq_len: seq.len(),
            guides: guides(&seq)
                .iter()
                .map(|g| CompiledSeq::compile(g))
                .collect(),
            pam: CompiledSeq::compile(PAM),
            device,
        }
    }

    fn nd(&self) -> NdRange {
        NdRange::linear_cover(self.n, GROUP)
    }

    fn output(&self, guides: usize) -> ComparerOutput {
        ComparerOutput::allocate(&self.device, 2 * guides * self.n).unwrap()
    }

    fn table<T: gpu_sim::Scalar>(&self, data: &[T]) -> DeviceBuffer<T> {
        self.device.alloc_from_slice(data).unwrap()
    }

    /// The block's concatenated `[fwd | rc]` tables.
    fn block_tables(&self) -> (DeviceBuffer<u8>, DeviceBuffer<i32>) {
        let comp: Vec<u8> = self.guides.iter().flat_map(|c| c.comp().to_vec()).collect();
        let index: Vec<i32> = self
            .guides
            .iter()
            .flat_map(|c| c.comp_index().to_vec())
            .collect();
        (self.table(&comp), self.table(&index))
    }
}

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Entries in device compaction order, tagged with their guide.
fn entries_digest(out: &ComparerOutput, guide: Option<&DeviceBuffer<u16>>) -> String {
    let n = out.count_entries();
    let (loci, dir, mm) = (
        out.loci.to_vec(),
        out.direction.to_vec(),
        out.mm_count.to_vec(),
    );
    let tags = guide.map_or_else(|| vec![0; n], |g| g.to_vec());
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..n {
        h = fnv(h, &tags[i].to_le_bytes());
        h = fnv(h, &loci[i].to_le_bytes());
        h = fnv(h, &[dir[i]]);
        h = fnv(h, &mm[i].to_le_bytes());
    }
    format!("{n}:{h:016x}")
}

fn compact(debug: String) -> String {
    debug.chars().filter(|c| !c.is_whitespace()).collect()
}

fn report_row(report: &LaunchReport, entries: String) -> Row {
    vec![
        ("kernel".into(), report.kernel.clone()),
        ("entries".into(), entries),
        ("counters".into(), compact(format!("{:?}", report.counters))),
        ("wave_cycles".into(), format!("{:.17e}", report.wave_cycles)),
        (
            "resources".into(),
            compact(format!("{:?}", report.resources)),
        ),
        (
            "occupancy".into(),
            compact(format!("{:?}", report.occupancy)),
        ),
        ("sim_time_s".into(), format!("{:.17e}", report.sim_time_s)),
    ]
}

/// The chunk encodings a comparer reads.
#[derive(Clone, Copy)]
enum Encoding {
    Char,
    TwoBit,
    FourBit,
}

impl Encoding {
    const ALL: [Encoding; 3] = [Encoding::Char, Encoding::TwoBit, Encoding::FourBit];

    fn name(self) -> &'static str {
        match self {
            Encoding::Char => "char",
            Encoding::TwoBit => "2bit",
            Encoding::FourBit => "4bit",
        }
    }

    fn variant(self) -> VariantKind {
        match self {
            Encoding::Char => VariantKind::CharComparer,
            Encoding::TwoBit => VariantKind::TwoBitComparer,
            Encoding::FourBit => VariantKind::FourBitComparer,
        }
    }

    fn buffers(self, c: &Chunk) -> ChunkBuffers {
        match self {
            Encoding::Char => ChunkBuffers::Char(c.chr.clone()),
            Encoding::TwoBit => ChunkBuffers::TwoBit {
                packed: c.packed.clone(),
                mask: c.mask.clone(),
            },
            Encoding::FourBit => ChunkBuffers::FourBit(c.nibbles.clone()),
        }
    }
}

/// Launches a comparer on the chunk's device over every candidate.
struct OnDevice<'a>(&'a Device, NdRange);

impl KernelSink for OnDevice<'_> {
    type Output = LaunchReport;

    fn accept<K: KernelProgram + 'static>(self, kernel: K) -> LaunchReport {
        self.0.launch(&kernel, self.1).unwrap()
    }
}

/// Launch the comparer for `enc` and `pattern` over every candidate.
fn launch(c: &Chunk, enc: Encoding, pattern: Pattern, out: &ComparerOutput) -> LaunchReport {
    let launch = ComparerLaunch {
        chunk: enc.buffers(c),
        pattern,
        sites: Sites {
            loci: c.loci.clone(),
            flags: c.flags.clone(),
            locicnt: c.n as u32,
            out: out.clone(),
        },
    };
    launch.build(OnDevice(&c.device, c.nd()))
}

/// One serial launch for guide `g` with its tables staged to local memory.
/// The char form is the paper's comparer at opt4.
fn staged(c: &Chunk, enc: Encoding, g: usize) -> Row {
    let q = &c.guides[g];
    let pattern = Pattern::Staged(StagedPattern::new(
        c.table(q.comp()),
        c.table(q.comp_index()),
        q.plen(),
        THRESHOLDS[g],
    ));
    let out = c.output(1);
    report_row(&launch(c, enc, pattern, &out), entries_digest(&out, None))
}

/// One serial launch for guide `g` with its pattern and threshold folded.
fn folded(c: &Chunk, enc: Encoding, g: usize) -> Row {
    let variant = CompiledVariant::compile(enc.variant(), &c.guides[g], THRESHOLDS[g]);
    let out = c.output(1);
    let report = launch(c, enc, Pattern::Folded(Arc::new(variant)), &out);
    report_row(&report, entries_digest(&out, None))
}

/// One fused launch over all three guides: per-guide thresholds staged, or
/// the shared threshold folded.
fn fused(c: &Chunk, enc: Encoding, fold: bool) -> Row {
    let (comp, comp_index) = c.block_tables();
    let thresholds = if fold {
        let pam = CompiledVariant::compile(VariantKind::MultiComparer, &c.pam, SHARED_THRESHOLD);
        GuideThresholds::Folded(Arc::new(pam))
    } else {
        GuideThresholds::PerGuide(c.table(&THRESHOLDS))
    };
    let out = c.output(c.guides.len());
    let guide = c.device.alloc::<u16>(2 * c.guides.len() * c.n).unwrap();
    let pattern = Pattern::Block(GuideBlock::new(
        comp,
        comp_index,
        PAM.len(),
        c.guides.len(),
        thresholds,
        guide.clone(),
    ));
    let report = launch(c, enc, pattern, &out);
    report_row(&report, entries_digest(&out, Some(&guide)))
}

/// Launch a finder over the whole chunk: `payload` with the PAM folded
/// into a variant, or staged (decoding packed payloads into a fresh
/// target). The row pins its report and the candidates it compacted.
fn finder(c: &Chunk, form: PayloadForm, payload: PayloadBuffers, exc: u32, folded: bool) -> Row {
    let out = FinderOutput::allocate(&c.device, c.seq_len).unwrap();
    let pam = if folded {
        let variant = CompiledVariant::compile(VariantKind::NibbleFinder, &c.pam, 0);
        Pam::Folded(Arc::new(variant))
    } else {
        Pam::Staged {
            pat: c.table(c.pam.comp()),
            pat_index: c.table(c.pam.comp_index()),
            plen: c.pam.plen(),
        }
    };
    let launch = FinderLaunch {
        payload,
        exceptions: exc,
        decoded: form
            .decodes(folded)
            .then(|| c.device.alloc::<u8>(c.seq_len).unwrap()),
        pam,
        out: out.clone(),
        scan_len: c.n as u32,
        seq_len: c.seq_len as u32,
    };
    let report = launch.build(OnDevice(&c.device, c.nd()));
    let n = out.count_matches();
    let (loci, flags) = (out.loci.to_vec(), out.flags.to_vec());
    let h = (0..n).fold(0xcbf2_9ce4_8422_2325u64, |h, i| {
        fnv(fnv(h, &loci[i].to_le_bytes()), &[flags[i]])
    });
    report_row(&report, format!("{n}:{h:016x}"))
}

/// Every finder: the staged one over each payload form — raw bases, the
/// 2-bit words with the chunk's degenerate exceptions patched in, the
/// nibbles — and the PAM-folded nibble finder.
fn finders(c: &Chunk, rows: &mut BTreeMap<String, Row>) {
    let packed = PayloadBuffers::Packed {
        words: c.packed.clone(),
        mask: c.mask.clone(),
        exc_pos: c.exc_pos.clone(),
        exc_val: c.exc_val.clone(),
    };
    let nibbles = || PayloadBuffers::Nibble(c.nibbles.clone());
    let raw = PayloadBuffers::Raw(c.chr.clone());
    for (key, form, payload, exceptions, folded) in [
        ("finder", PayloadForm::Raw, raw, 0, false),
        ("finder_packed", PayloadForm::Packed, packed, c.n_exc, false),
        ("finder_nibble", PayloadForm::Nibble, nibbles(), 0, false),
        (
            "nibble finder folded",
            PayloadForm::Nibble,
            nibbles(),
            0,
            true,
        ),
    ] {
        rows.insert(key.into(), finder(c, form, payload, exceptions, folded));
    }
}

/// The 2-bit pipeline end to end: its comparer's profile, the search
/// timing and the off-targets it reports.
fn twobit_pipeline() -> Row {
    let seq = bases();
    let mut assembly = Assembly::new("toy");
    assembly.push(Chromosome::new("chr1", seq.clone()));
    let mut text = format!("toy\n{}\n", std::str::from_utf8(PAM).unwrap());
    for (g, thr) in guides(&seq).iter().zip(THRESHOLDS) {
        writeln!(text, "{} {thr}", std::str::from_utf8(g).unwrap()).unwrap();
    }
    let input = SearchInput::parse(&text).unwrap();
    let config = PipelineConfig::new(DeviceSpec::mi100())
        .chunk_size(96)
        .exec_mode(ExecMode::Sequential);
    let report = pipeline::twobit::run(&assembly, &input, &config).unwrap();
    let stats = report
        .profile
        .kernel("comparer-2bit")
        .expect("2-bit comparer ran");
    let found = report
        .offtargets
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, o| {
            fnv(h, format!("{o:?}").as_bytes())
        });
    let t = &report.timing;
    vec![
        ("kernel".into(), "comparer-2bit".into()),
        (
            "offtargets".into(),
            format!("{}:{found:016x}", report.offtargets.len()),
        ),
        ("calls".into(), stats.calls.to_string()),
        ("items".into(), stats.items.to_string()),
        ("counters".into(), compact(format!("{:?}", stats.counters))),
        ("occupancy".into(), stats.occupancy.to_string()),
        ("comparer_launches".into(), t.comparer_launches.to_string()),
        ("candidates".into(), t.candidates.to_string()),
        ("entry_count".into(), t.entries.to_string()),
        ("total_s".into(), format!("{:.17e}", stats.total_s)),
        ("comparer_s".into(), format!("{:.17e}", t.comparer_s)),
        ("elapsed_s".into(), format!("{:.17e}", t.elapsed_s)),
    ]
}

fn rows() -> BTreeMap<String, Row> {
    let c = Chunk::new();
    let mut rows = BTreeMap::new();
    for enc in Encoding::ALL {
        for g in 0..c.guides.len() {
            rows.insert(format!("{} staged g{g}", enc.name()), staged(&c, enc, g));
            rows.insert(format!("{} folded g{g}", enc.name()), folded(&c, enc, g));
        }
        rows.insert(
            format!("{} fused per-guide", enc.name()),
            fused(&c, enc, false),
        );
        rows.insert(format!("{} fused folded", enc.name()), fused(&c, enc, true));
    }
    finders(&c, &mut rows);
    rows.insert("pipeline twobit".into(), twobit_pipeline());
    rows
}

fn render(rows: &BTreeMap<String, Row>) -> String {
    let mut out = String::new();
    for (key, fields) in rows {
        write!(out, "{key} |").unwrap();
        for (k, v) in fields {
            write!(out, " {k}={v}").unwrap();
        }
        out.push('\n');
    }
    out
}

fn parse(text: &str) -> BTreeMap<String, Row> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let (key, fields) = line.split_once(" |").expect("row key");
            let fields = fields
                .split_whitespace()
                .map(|kv| {
                    let (k, v) = kv.split_once('=').expect("field=value");
                    (k.to_string(), v.to_string())
                })
                .collect();
            (key.to_string(), fields)
        })
        .collect()
}

#[test]
fn kernel_rows_match_the_pinned_characterization() {
    let got = rows();
    if std::env::var_os("CASOFF_BLESS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
        std::fs::write(FIXTURE, render(&got)).unwrap();
        return;
    }
    let want = parse(&std::fs::read_to_string(FIXTURE).expect("fixture present"));
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "row set"
    );
    let mut mismatches = Vec::new();
    for (key, fields) in &got {
        assert_eq!(fields.len(), want[key].len(), "{key}: field count");
        for ((k, v), (wk, wv)) in fields.iter().zip(&want[key]) {
            assert_eq!(k, wk, "{key}: field order");
            let same = if k.ends_with("_s") || k == "wave_cycles" {
                let (a, b): (f64, f64) = (v.parse().unwrap(), wv.parse().unwrap());
                (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
            } else {
                v == wv
            };
            if !same {
                mismatches.push(format!("{key}: {k} = {v}, pinned {wv}"));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
