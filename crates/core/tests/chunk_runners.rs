//! Characterization of the chunk runners: for every API × payload × run
//! mode × comparer family, the entries, the `TimingBreakdown` counters, the
//! device traffic and the simulated elapsed time on a fixed toy assembly,
//! pinned against `tests/fixtures/chunk_runners.txt`.
//!
//! Counts must match exactly; simulated seconds within 1e-12 relative.
//! After a deliberate behaviour change, regenerate the fixture with
//! `CASOFF_BLESS=1 cargo test -p cas-offinder --test chunk_runners` and
//! review its diff row by row.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cas_offinder::pipeline::chunk::{CandidateSites, ChunkPayload, ChunkRunner, QueryTables};
use cas_offinder::pipeline::PipelineConfig;
use cas_offinder::{Api, Query, TimingBreakdown};
use genome::fourbit::NibbleSeq;
use genome::rng::Xoshiro256;
use genome::twobit::PackedSeq;
use genome::{Assembly, Chromosome, Chunker};
use gpu_sim::profile::Profile;
use gpu_sim::{DeviceSpec, ExecMode};

const PATTERN: &[u8] = b"NNNNNNNNNRG";
const CHUNK: usize = 48;
const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/chunk_runners.txt"
);

/// Seeded concrete bases with an N run and a soft-masked stretch; with
/// `degenerate`, a few IUPAC codes that force the 2-bit path onto the char
/// comparer.
fn bases(degenerate: bool) -> Vec<u8> {
    let mut rng = Xoshiro256::seed_from_u64(0xC4A2_AC7E);
    let mut seq: Vec<u8> = (0..200).map(|_| *rng.choose(b"ACGT").unwrap()).collect();
    seq[60..66].copy_from_slice(b"NNNNNN");
    for b in &mut seq[100..130] {
        b.make_ascii_lowercase();
    }
    if degenerate {
        seq[20] = b'R';
        seq[75] = b'Y';
        seq[150] = b'K';
    }
    seq
}

fn queries() -> Vec<Query> {
    let seq = bases(false);
    // Guides lifted from PAM-adjacent sites so every family finds entries.
    (0..seq.len() - PATTERN.len())
        .filter(|&i| matches!(&seq[i + 9..i + 11], b"AG" | b"GG"))
        .step_by(3)
        .take(3)
        .map(|i| {
            let mut g = seq[i..i + 8].to_vec();
            g.extend_from_slice(b"NNN");
            Query::new(g, 4)
        })
        .collect()
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Raw,
    Packed,
    /// Packed with degenerate exceptions: the char-comparer fallback.
    PackedChar,
    Nibble,
}

impl Kind {
    const ALL: [Kind; 4] = [Kind::Raw, Kind::Packed, Kind::PackedChar, Kind::Nibble];

    fn name(self) -> &'static str {
        match self {
            Kind::Raw => "raw",
            Kind::Packed => "packed",
            Kind::PackedChar => "packed-char",
            Kind::Nibble => "nibble",
        }
    }

    /// The toy assembly's chunks in this payload form, with scan lengths.
    fn chunks(self) -> Vec<(ChunkPayload, usize)> {
        let mut asm = Assembly::new("toy");
        asm.push(Chromosome::new(
            "chr1",
            bases(matches!(self, Kind::PackedChar)),
        ));
        Chunker::new(&asm, CHUNK, PATTERN.len())
            .filter(|c| c.seq.len() >= PATTERN.len())
            .map(|c| {
                let payload = match self {
                    Kind::Raw => ChunkPayload::Raw(c.seq.to_vec()),
                    Kind::Packed | Kind::PackedChar => {
                        ChunkPayload::Packed(PackedSeq::encode(c.seq))
                    }
                    Kind::Nibble => ChunkPayload::Nibble(NibbleSeq::encode(c.seq)),
                };
                (payload, c.scan_len)
            })
            .collect()
    }
}

#[derive(Clone, Copy, Debug)]
enum Mode {
    /// No residency token.
    Plain,
    /// One token per chunk, every run a miss.
    ResidentMiss,
    /// Two slots; chunks 0, 1, then 0 again — the third run is a hit.
    ResidentHit,
    /// Candidate capture armed on every finder pass.
    Capture,
    /// Finder replaced by candidate lists captured on another runner.
    Cached,
}

impl Mode {
    const ALL: [Mode; 5] = [
        Mode::Plain,
        Mode::ResidentMiss,
        Mode::ResidentHit,
        Mode::Capture,
        Mode::Cached,
    ];

    fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::ResidentMiss => "resident-miss",
            Mode::ResidentHit => "resident-hit",
            Mode::Capture => "capture",
            Mode::Cached => "cached",
        }
    }
}

/// Comparer family: (name, specialize, multi_guide).
const FAMILIES: [(&str, bool, bool); 4] = [
    ("generic", false, false),
    ("specialized", true, false),
    ("fused", false, true),
    ("fused-specialized", true, true),
];

/// A fresh runner of either API with the toy queries prepared.
fn runner(sycl: bool, config: &PipelineConfig) -> (ChunkRunner, QueryTables) {
    let api = if sycl { Api::Sycl } else { Api::OpenCl };
    let runner = ChunkRunner::new(api, config, PATTERN).unwrap();
    let tables = runner.prepare(&queries()).unwrap();
    (runner, tables)
}

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// One row's observations, as `field=value` pairs in a fixed order.
fn observe(sycl: bool, kind: Kind, mode: Mode, spec: bool, multi: bool) -> Vec<(String, String)> {
    let slots = if matches!(mode, Mode::ResidentHit) {
        2
    } else {
        1
    };
    let config = PipelineConfig::new(DeviceSpec::mi100())
        .chunk_size(CHUNK)
        .exec_mode(ExecMode::Sequential)
        .resident_slots(slots)
        .specialize(spec)
        .multi_guide(multi);
    let chunks = kind.chunks();
    let cached: Vec<CandidateSites> = if matches!(mode, Mode::Cached) {
        let (donor, tables) = runner(sycl, &config);
        donor.set_capture_candidates(true);
        chunks
            .iter()
            .map(|(p, scan)| {
                let mut t = TimingBreakdown::default();
                let mut profile = Profile::new();
                donor
                    .run(None, p, *scan, None, &tables, &mut t, &mut profile)
                    .unwrap();
                donor.take_captured_candidates().unwrap()
            })
            .collect()
    } else {
        Vec::new()
    };
    let order: Vec<usize> = match mode {
        Mode::ResidentHit => vec![0, 1, 0],
        _ => (0..chunks.len()).collect(),
    };

    let (runner, tables) = runner(sycl, &config);
    runner.set_capture_candidates(matches!(mode, Mode::Capture));
    let before_s = runner.elapsed_s();
    let before = runner.traffic();
    let mut timing = TimingBreakdown::default();
    let mut profile = Profile::new();
    let (mut entries, mut captured) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
    let mut reused = String::new();
    for &i in &order {
        let (payload, scan) = &chunks[i];
        let token = (!matches!(mode, Mode::Plain)).then_some(i as u64);
        let sites = cached.get(i);
        let (per_query, hit) = runner
            .run(
                token,
                payload,
                *scan,
                sites,
                &tables,
                &mut timing,
                &mut profile,
            )
            .unwrap();
        reused.push(if hit { '1' } else { '0' });
        for (q, list) in per_query.iter().enumerate() {
            entries = fnv(entries, &(q as u32).to_le_bytes());
            for &(locus, dir, mm) in list {
                entries = fnv(entries, &locus.to_le_bytes());
                entries = fnv(entries, &[dir]);
                entries = fnv(entries, &mm.to_le_bytes());
            }
        }
        if let Some(s) = runner.take_captured_candidates() {
            for (&l, &f) in s.loci.iter().zip(&s.flags) {
                captured = fnv(captured, &l.to_le_bytes());
                captured = fnv(captured, &[f]);
            }
            captured = fnv(captured, &(s.len() as u32).to_le_bytes());
        }
    }
    let traffic = runner.traffic().since(&before);
    let elapsed_s = runner.elapsed_s() - before_s;
    let int = |k: &str, v: u64| (k.to_string(), v.to_string());
    let sec = |k: &str, v: f64| (format!("{k}_s"), format!("{v:.17e}"));
    vec![
        ("reused".into(), reused),
        ("entries".into(), format!("{entries:016x}")),
        ("captured".into(), format!("{captured:016x}")),
        int("finder_launches", timing.finder_launches as u64),
        int("finder_skipped", timing.finder_launches_skipped as u64),
        int("comparer_launches", timing.comparer_launches as u64),
        int("fused_launches", timing.fused_launches as u64),
        int("candidates", timing.candidates),
        int("entry_count", timing.entries),
        int("kernel_launches", traffic.kernel_launches),
        int("h2d_transfers", traffic.h2d_transfers),
        int("h2d_bytes", traffic.h2d_bytes),
        int("d2h_transfers", traffic.d2h_transfers),
        int("d2h_bytes", traffic.d2h_bytes),
        int("h2d_skipped_transfers", traffic.h2d_skipped_transfers),
        int("h2d_skipped_bytes", traffic.h2d_skipped_bytes),
        int("launches_skipped", traffic.kernel_launches_skipped),
        sec("transfer", timing.transfer_s),
        sec("finder", timing.finder_s),
        sec("comparer", timing.comparer_s),
        sec("elapsed", elapsed_s),
    ]
}

fn rows() -> BTreeMap<String, Vec<(String, String)>> {
    let mut rows = BTreeMap::new();
    for sycl in [false, true] {
        for kind in Kind::ALL {
            for mode in Mode::ALL {
                // The cached packed path has no char fallback to replay into.
                if matches!((kind, mode), (Kind::PackedChar, Mode::Cached)) {
                    continue;
                }
                for (family, spec, multi) in FAMILIES {
                    let api = if sycl { "sycl" } else { "ocl" };
                    let key = format!("{api} {} {} {family}", kind.name(), mode.name());
                    rows.insert(key, observe(sycl, kind, mode, spec, multi));
                }
            }
        }
    }
    rows
}

fn render(rows: &BTreeMap<String, Vec<(String, String)>>) -> String {
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

fn parse(text: &str) -> BTreeMap<String, Vec<(String, String)>> {
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
fn chunk_runner_rows_match_the_pinned_characterization() {
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
        for ((k, v), (wk, wv)) in fields.iter().zip(&want[key]) {
            assert_eq!(k, wk, "{key}: field order");
            let same = if k.ends_with("_s") {
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
