//! Micro-benchmark: the comparer kernel at every optimization stage
//! (regenerates the relative shape of the paper's Fig. 2, and the opt3
//! local-staging ablation called out in DESIGN.md), and the serving
//! comparer in the forms the chunk runners launch most: 2-bit folded for
//! one guide, and 2-bit and nibble fused over an 8-guide block.
//!
//! Criterion measures host wall time of the simulation; the simulated
//! kernel seconds (what Fig. 2 plots) are printed once per variant, and
//! each serving row also prints the host nanoseconds the simulator spent
//! per work-item.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use cas_offinder::kernels::specialize::{CompiledVariant, VariantKind};
use cas_offinder::kernels::{
    ChunkBuffers, ComparerKernel, ComparerLaunch, ComparerOutput, GuideBlock, GuideThresholds,
    KernelSink, Pattern, Sites,
};
use cas_offinder::{CompiledSeq, OptLevel};
use casoff_bench::microbench::{BenchmarkId, Criterion};
use casoff_bench::{criterion_group, criterion_main};
use genome::fourbit::NibbleSeq;
use genome::rng::Xoshiro256;
use genome::twobit::PackedSeq;
use gpu_sim::{Device, DeviceBuffer, DeviceSpec, ExecMode, KernelProgram, LaunchReport, NdRange};

struct Fixture {
    device: Device,
    kernel: ComparerKernel,
    nd: NdRange,
}

fn fixture(opt: OptLevel) -> Fixture {
    let device = Device::new(DeviceSpec::mi100());
    let query = CompiledSeq::compile(b"GGCCGACCTGTCGCTGACGCNNN");
    let seq: Vec<u8> = (0..1 << 16u32)
        .map(|i| b"ACGT"[((i as usize).wrapping_mul(2654435761) >> 13) % 4])
        .collect();
    let candidates: Vec<u32> = (0..1 << 14).map(|i| (i * 3) as u32).collect();
    let flags = vec![0u8; candidates.len()];

    let chr = device.alloc_from_slice(&seq).unwrap();
    let loci = device.alloc_from_slice(&candidates).unwrap();
    let flags = device.alloc_from_slice(&flags).unwrap();
    let comp = device.alloc_from_slice(query.comp()).unwrap();
    let comp_index = device.alloc_from_slice(query.comp_index()).unwrap();
    let out = ComparerOutput::allocate(&device, candidates.len() * 2 + 1).unwrap();
    let n = candidates.len();
    let (kernel, _) = ComparerKernel::new(
        opt, chr, loci, flags, comp, comp_index, n, 4, out, &query,
    );
    let nd = NdRange::linear_cover(n, 256);
    Fixture { device, kernel, nd }
}

fn bench_comparer(c: &mut Criterion) {
    let mut group = c.benchmark_group("comparer");
    group.sample_size(10);
    for opt in OptLevel::ALL {
        let f = fixture(opt);
        let report = f.device.launch(&f.kernel, f.nd).unwrap();
        println!(
            "comparer {}: simulated {:.6}s, occupancy {}, {} wave-kcycles",
            opt,
            report.sim_time_s,
            report.occupancy.waves_per_simd,
            (report.wave_cycles / 1e3) as u64
        );
        group.bench_with_input(BenchmarkId::from_parameter(opt), &f, |b, f| {
            b.iter(|| {
                f.kernel.out.count.fill(0);
                f.device.launch(&f.kernel, f.nd).unwrap().sim_time_s
            })
        });
    }
    group.finish();
}

/// Serving-comparer guide length: a 20-nt spacer plus `NNN`.
const PLEN: usize = 23;
/// Guides in a fused block, as the serving batcher forms them.
const BLOCK: usize = 8;
const THRESHOLD: u16 = 4;

/// One seeded chunk in both compact encodings, its candidates and a block
/// of guides lifted from it, on a sequential device as the serving workers
/// run them.
struct ServingChunk {
    device: Device,
    packed: DeviceBuffer<u8>,
    mask: DeviceBuffer<u8>,
    nibbles: DeviceBuffer<u8>,
    loci: DeviceBuffer<u32>,
    flags: DeviceBuffer<u8>,
    n: usize,
    guides: Vec<CompiledSeq>,
}

fn serving_chunk() -> ServingChunk {
    let device = Device::with_mode(DeviceSpec::mi60(), ExecMode::Sequential);
    let mut rng = Xoshiro256::seed_from_u64(0xC0FF_EE15);
    let mut seq: Vec<u8> = (0..1 << 16)
        .map(|_| *rng.choose(b"ACGT").unwrap())
        .collect();
    seq[4096..4160].fill(b'N');
    let guides = (0..BLOCK)
        .map(|_| {
            let at = rng.gen_below(seq.len() - PLEN);
            let mut guide = seq[at..at + PLEN - 3].to_vec();
            guide.extend_from_slice(b"NNN");
            CompiledSeq::compile(&guide)
        })
        .collect();
    let n = 1 << 13;
    let loci: Vec<u32> = (0..n)
        .map(|_| rng.gen_below(seq.len() - PLEN) as u32)
        .collect();
    let flags: Vec<u8> = (0..n).map(|_| *rng.choose(&[0u8, 1, 2]).unwrap()).collect();
    let packed = PackedSeq::encode(&seq);
    let nibble = NibbleSeq::encode(&seq);
    ServingChunk {
        packed: device.alloc_from_slice(packed.packed_bytes()).unwrap(),
        mask: device.alloc_from_slice(packed.mask_bytes()).unwrap(),
        nibbles: device.alloc_from_slice(nibble.nibble_bytes()).unwrap(),
        loci: device.alloc_from_slice(&loci).unwrap(),
        flags: device.alloc_from_slice(&flags).unwrap(),
        n,
        guides,
        device,
    }
}

/// Launches the built comparer over every candidate.
struct OnDevice<'a>(&'a Device, NdRange);

impl KernelSink for OnDevice<'_> {
    type Output = LaunchReport;

    fn accept<K: KernelProgram + 'static>(self, kernel: K) -> LaunchReport {
        self.0.launch(&kernel, self.1).unwrap()
    }
}

/// One serving-comparer launch over the chunk, compacting into `out`.
fn serving_launch(
    c: &ServingChunk,
    chunk: &ChunkBuffers,
    pattern: &Pattern,
    out: &ComparerOutput,
) -> LaunchReport {
    out.count.fill(0);
    let launch = ComparerLaunch {
        chunk: chunk.clone(),
        pattern: pattern.clone(),
        sites: Sites {
            loci: c.loci.clone(),
            flags: c.flags.clone(),
            locicnt: c.n as u32,
            out: out.clone(),
        },
    };
    launch.build(OnDevice(&c.device, NdRange::linear_cover(c.n, 256)))
}

fn bench_chunk_comparer(c: &mut Criterion) {
    let chunk = serving_chunk();
    let two_bit = ChunkBuffers::TwoBit {
        packed: chunk.packed.clone(),
        mask: chunk.mask.clone(),
    };
    let nibbles = ChunkBuffers::FourBit(chunk.nibbles.clone());
    let folded = Pattern::Folded(Arc::new(CompiledVariant::compile(
        VariantKind::TwoBitComparer,
        &chunk.guides[0],
        THRESHOLD,
    )));
    let comp: Vec<u8> = chunk
        .guides
        .iter()
        .flat_map(|q| q.comp().to_vec())
        .collect();
    let index: Vec<i32> = chunk
        .guides
        .iter()
        .flat_map(|q| q.comp_index().to_vec())
        .collect();
    let pam = CompiledSeq::compile(&[b'N'; PLEN]);
    let block = Pattern::Block(GuideBlock::new(
        chunk.device.alloc_from_slice(&comp).unwrap(),
        chunk.device.alloc_from_slice(&index).unwrap(),
        PLEN,
        BLOCK,
        GuideThresholds::Folded(Arc::new(CompiledVariant::compile(
            VariantKind::MultiComparer,
            &pam,
            THRESHOLD,
        ))),
        chunk.device.alloc::<u16>(2 * BLOCK * chunk.n).unwrap(),
    ));

    let mut group = c.benchmark_group("chunk_comparer");
    group.sample_size(10);
    for (id, buffers, pattern, guides) in [
        ("2bit-folded-1", &two_bit, &folded, 1),
        ("2bit-fused-8", &two_bit, &block, BLOCK),
        ("4bit-fused-8", &nibbles, &block, BLOCK),
    ] {
        let out = ComparerOutput::allocate(&chunk.device, 2 * guides * chunk.n).unwrap();
        let report = serving_launch(&chunk, buffers, pattern, &out);
        println!(
            "chunk_comparer {id} ({}): simulated {:.6}s, occupancy {}, {} wave-kcycles",
            report.kernel,
            report.sim_time_s,
            report.occupancy.waves_per_simd,
            (report.wave_cycles / 1e3) as u64
        );
        let host = Cell::new((Duration::ZERO, 0u64));
        group.bench_function(BenchmarkId::from_parameter(id), |b| {
            b.iter(|| {
                let report = serving_launch(&chunk, buffers, pattern, &out);
                let (t, items) = host.get();
                host.set((t + report.wall_time, items + report.nd.work_items() as u64));
                report.sim_time_s
            })
        });
        let (t, items) = host.get();
        println!(
            "chunk_comparer {id}: host {:.1} ns per work-item",
            t.as_nanos() as f64 / items.max(1) as f64
        );
    }
    group.finish();
}

criterion_group!(benches, bench_comparer, bench_chunk_comparer);
criterion_main!(benches);
