//! Every launch prices its kernel through `gpu_sim::isa::compile_cached`, a
//! process-wide memo keyed by code model. These tests pin that the memo
//! hands back exactly what a fresh `isa::compile` computes for every model
//! the serving kernels launch with — each comparer form, each finder, each
//! specialized variant and the generic kernel it replaces — and that
//! repeated launches of one kernel report the same resources.

use cas_offinder::kernels::specialize::{generic_model, specialized_model, VariantKind};
use cas_offinder::kernels::{
    comparer_model, DecodingFinder, Encoding, FinderKernel, FinderOutput, NibbleDecoder,
    PackedDecoder, PatternForm,
};
use cas_offinder::{CompiledSeq, OptLevel};
use gpu_sim::isa::{compile, compile_cached, CodeModel};
use gpu_sim::{Device, DeviceSpec, ExecMode, KernelProgram, NdRange};

const PLENS: [usize; 3] = [11, 20, 23];

/// The memo agrees with a fresh compile on first use and on every reuse.
fn assert_memoized(model: &CodeModel) {
    let fresh = compile(model);
    for _ in 0..2 {
        assert_eq!(compile_cached(model), fresh, "{model:?}");
    }
}

#[test]
fn every_comparer_form_is_memoized_exactly() {
    for encoding in Encoding::ALL {
        for form in PatternForm::ALL {
            for plen in PLENS {
                assert_memoized(&comparer_model(encoding, form, plen));
            }
        }
    }
}

#[test]
fn every_finder_is_memoized_exactly() {
    let device = Device::new(DeviceSpec::mi60());
    let pam = CompiledSeq::compile(b"NNNNNNNNNNNNNNNNNNNNNGG");
    let (raw, _) = FinderKernel::new(
        device.alloc::<u8>(64).unwrap(),
        device.alloc_from_slice(pam.comp()).unwrap(),
        device.alloc_from_slice(pam.comp_index()).unwrap(),
        FinderOutput::allocate(&device, 64).unwrap(),
        32,
        64,
        pam.plen(),
    );
    assert_memoized(&raw.code_model());
    assert_memoized(&DecodingFinder::<PackedDecoder>::model());
    assert_memoized(&DecodingFinder::<NibbleDecoder>::model());
}

#[test]
fn every_variant_and_its_generic_kernel_are_memoized_exactly() {
    for kind in VariantKind::ALL {
        for plen in PLENS {
            assert_memoized(&specialized_model(kind, plen));
        }
        for opt in OptLevel::ALL {
            assert_memoized(&generic_model(kind, opt));
        }
    }
}

#[test]
fn repeated_launches_report_equal_resources() {
    let device = Device::with_mode(DeviceSpec::mi100(), ExecMode::Sequential);
    let pam = CompiledSeq::compile(b"NNNNNNNNNNNNNNNNNNNNNGG");
    let seq: Vec<u8> = (0..512).map(|i| b"ACGT"[(i * 7 + i / 5) % 4]).collect();
    let out = FinderOutput::allocate(&device, seq.len()).unwrap();
    let (finder, layout) = FinderKernel::new(
        device.alloc_from_slice(&seq).unwrap(),
        device.alloc_from_slice(pam.comp()).unwrap(),
        device.alloc_from_slice(pam.comp_index()).unwrap(),
        out.clone(),
        seq.len() - pam.plen(),
        seq.len(),
        pam.plen(),
    );
    let nd = NdRange::linear_cover(seq.len(), 64);
    let first = device.launch(&finder, nd).unwrap();
    out.count.fill(0);
    let second = device.launch(&finder, nd).unwrap();
    assert_eq!(first.resources, second.resources);
    let mut expect = compile(&finder.code_model());
    expect.lds_bytes = layout.total_bytes();
    assert_eq!(first.resources, expect);
}
