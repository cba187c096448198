//! Micro-benchmark: the finder kernel over growing chunk sizes, plus the
//! finder share of kernel time (the paper's §IV.B observation that the
//! comparer, not the finder, is the hotspot).

use cas_offinder::kernels::{FinderKernel, FinderOutput};
use cas_offinder::CompiledSeq;
use casoff_bench::microbench::{BenchmarkId, Criterion, Throughput};
use casoff_bench::{criterion_group, criterion_main};
use gpu_sim::{Device, DeviceSpec, NdRange};

fn bench_finder(c: &mut Criterion) {
    let mut group = c.benchmark_group("finder");
    group.sample_size(10);
    let pattern = CompiledSeq::compile(b"NNNNNNNNNNNNNNNNNNNNNRG");

    for bits in [14usize, 16, 18] {
        let len = 1usize << bits;
        let device = Device::new(DeviceSpec::mi100());
        let seq: Vec<u8> = (0..len)
            .map(|i| b"ACGT"[(i.wrapping_mul(2654435761) >> 13) % 4])
            .collect();
        let chr = device.alloc_from_slice(&seq).unwrap();
        let pat = device.alloc_constant_from_slice(pattern.comp()).unwrap();
        let pat_index = device
            .alloc_constant_from_slice(pattern.comp_index())
            .unwrap();
        let out = FinderOutput::allocate(&device, len).unwrap();
        let (kernel, _) = FinderKernel::new(chr, pat, pat_index, out, len, len, pattern.plen());
        let nd = NdRange::linear_cover(len, 256);

        let report = device.launch(&kernel, nd).unwrap();
        println!(
            "finder {len} positions: simulated {:.6}s, {} candidates",
            report.sim_time_s,
            kernel.out.count_matches()
        );

        group.throughput(Throughput::Elements(len as u64));
        group.bench_with_input(BenchmarkId::from_parameter(len), &(), |b, _| {
            b.iter(|| {
                kernel.out.count.fill(0);
                device.launch(&kernel, nd).unwrap().sim_time_s
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_finder);
criterion_main!(benches);
