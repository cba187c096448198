//! OpenCL bindings of the kernels: the `__kernel` entry points the OpenCL
//! host pipeline compiles into its program object (Table VI of the paper).
//!
//! These adapters translate the positional, type-erased `clSetKernelArg`
//! argument lists into the typed kernel structs, validating types, counts
//! and `__local` allocation sizes the way a real OpenCL runtime validates
//! argument sizes.

use gpu_sim::executor::LaunchReport;
use gpu_sim::kernel::{KernelProgram, LocalLayout};
use gpu_sim::{Device, NdRange, SimResult};

use opencl_rt::{BoundKernel, ClError, ClKernelFunction, ClResult, KernelArg};

use std::sync::Arc;

use super::chunk_comparer::{
    comparer_name, ChunkBuffers, ComparerLaunch, Encoding, KernelSink, Pattern, PatternForm, Sites,
    StagedPattern,
};
use super::comparer::ComparerOutput;
use super::finder::{FinderKernel, FinderOutput, PackedFinderKernel};
use super::fourbit::NibbleFinderKernel;
use super::multi::{GuideBlock, GuideThresholds};
use super::specialize::{CompiledVariant, SpecializedNibbleFinderKernel, VariantKind};
use super::OptLevel;

struct Bound<K: KernelProgram>(K);

impl<K: KernelProgram> BoundKernel for Bound<K> {
    fn launch(&self, device: &Device, nd: NdRange) -> SimResult<LaunchReport> {
        device.launch(&self.0, nd)
    }
}

/// Boxes whatever kernel a [`ComparerLaunch`] builds as a bound kernel.
struct BindSink;

impl KernelSink for BindSink {
    type Output = Box<dyn BoundKernel>;

    fn accept<K: KernelProgram + 'static>(self, kernel: K) -> Box<dyn BoundKernel> {
        Box::new(Bound(kernel))
    }
}

/// Reads a bound argument list front to back, type-checking each slot.
struct Args<'a> {
    args: &'a [KernelArg],
    next: usize,
}

impl Args<'_> {
    fn take<T>(&mut self, read: impl FnOnce(&KernelArg, usize) -> ClResult<T>) -> ClResult<T> {
        self.next += 1;
        read(&self.args[self.next - 1], self.next - 1)
    }

    /// A `__local` allocation that must be `expected` bytes — the size
    /// check a real runtime makes.
    fn local(&mut self, expected: usize) -> ClResult<()> {
        let index = self.next;
        let bytes = self.take(KernelArg::as_local_bytes)?;
        if bytes != expected {
            return Err(ClError::InvalidArgValue {
                index,
                expected: format!("__local allocation of {expected} bytes, got {bytes}"),
            });
        }
        Ok(())
    }

    /// The plain finder's arguments (Table VI), from `chr` on.
    fn finder(&mut self) -> ClResult<FinderKernel> {
        let chr = self.take(KernelArg::as_buf_u8)?;
        let pat = self.take(KernelArg::as_buf_u8)?;
        let pat_index = self.take(KernelArg::as_buf_i32)?;
        let out = FinderOutput {
            loci: self.take(KernelArg::as_buf_u32)?,
            flags: self.take(KernelArg::as_buf_u8)?,
            count: self.take(KernelArg::as_buf_u32)?,
        };
        let scan_len = self.take(KernelArg::as_u32)?;
        let seq_len = self.take(KernelArg::as_u32)?;
        let plen = self.take(KernelArg::as_u32)?;
        let span = 2 * plen as usize;
        self.local(span)?;
        self.local(4 * span)?;
        let mut layout = LocalLayout::new();
        Ok(FinderKernel {
            chr,
            pat,
            pat_index,
            out,
            scan_len,
            seq_len,
            plen,
            l_pat: layout.array::<u8>(span),
            l_pat_index: layout.array::<i32>(span),
        })
    }

    fn outputs(&mut self) -> ClResult<ComparerOutput> {
        Ok(ComparerOutput {
            mm_count: self.take(KernelArg::as_buf_u16)?,
            direction: self.take(KernelArg::as_buf_u8)?,
            loci: self.take(KernelArg::as_buf_u32)?,
            count: self.take(KernelArg::as_buf_u32)?,
        })
    }
}

/// The `finder` kernel as an OpenCL kernel function.
///
/// Argument layout (mirrors Table VI):
///
/// | # | argument | type |
/// |---|----------|------|
/// | 0 | `chr` | buffer\<u8\> |
/// | 1 | `pat` | buffer\<u8\> (`__constant`) |
/// | 2 | `pat_index` | buffer\<i32\> (`__constant`) |
/// | 3 | `loci` (out) | buffer\<u32\> |
/// | 4 | `flags` (out) | buffer\<u8\> |
/// | 5 | `count` (out) | buffer\<u32\> |
/// | 6 | `scan_len` | u32 |
/// | 7 | `seq_len` | u32 |
/// | 8 | `patternlen` | u32 |
/// | 9 | `l_pat` | `__local` 2·plen bytes |
/// | 10 | `l_pat_index` | `__local` 8·plen bytes |
#[derive(Debug, Default, Clone, Copy)]
pub struct ClFinder;

impl ClKernelFunction for ClFinder {
    fn name(&self) -> &str {
        "finder"
    }

    fn arity(&self) -> usize {
        11
    }

    fn bind(&self, args: &[KernelArg]) -> ClResult<Box<dyn BoundKernel>> {
        Ok(Box::new(Bound(Args { args, next: 0 }.finder()?)))
    }
}

/// The `finder_packed` kernel as an OpenCL kernel function: the finder over
/// a losslessly 2-bit packed chunk (see
/// [`PackedFinderKernel`](crate::kernels::PackedFinderKernel)).
///
/// Argument layout:
///
/// | # | argument | type |
/// |---|----------|------|
/// | 0 | `packed` | buffer\<u8\> |
/// | 1 | `mask` | buffer\<u8\> |
/// | 2 | `exc_pos` | buffer\<u32\> |
/// | 3 | `exc_val` | buffer\<u8\> |
/// | 4 | `n_exc` | u32 |
/// | 5 | `chr` (out: decoded bases) | buffer\<u8\> |
/// | 6 | `pat` | buffer\<u8\> (`__constant`) |
/// | 7 | `pat_index` | buffer\<i32\> (`__constant`) |
/// | 8 | `loci` (out) | buffer\<u32\> |
/// | 9 | `flags` (out) | buffer\<u8\> |
/// | 10 | `count` (out) | buffer\<u32\> |
/// | 11 | `scan_len` | u32 |
/// | 12 | `seq_len` | u32 |
/// | 13 | `patternlen` | u32 |
/// | 14 | `l_pat` | `__local` 2·plen bytes |
/// | 15 | `l_pat_index` | `__local` 8·plen bytes |
#[derive(Debug, Default, Clone, Copy)]
pub struct ClPackedFinder;

impl ClKernelFunction for ClPackedFinder {
    fn name(&self) -> &str {
        "finder_packed"
    }

    fn arity(&self) -> usize {
        16
    }

    fn bind(&self, args: &[KernelArg]) -> ClResult<Box<dyn BoundKernel>> {
        let mut a = Args { args, next: 0 };
        Ok(Box::new(Bound(PackedFinderKernel {
            packed: a.take(KernelArg::as_buf_u8)?,
            mask: a.take(KernelArg::as_buf_u8)?,
            exc_pos: a.take(KernelArg::as_buf_u32)?,
            exc_val: a.take(KernelArg::as_buf_u8)?,
            n_exc: a.take(KernelArg::as_u32)?,
            inner: a.finder()?,
        })))
    }
}

/// The `comparer` kernel as an OpenCL kernel function, at a fixed
/// [`OptLevel`] (the level is a compile-time property of the kernel source,
/// not a runtime argument).
///
/// Argument layout (mirrors Listing 1's parameter list):
///
/// | # | argument | type |
/// |---|----------|------|
/// | 0 | `chr` | buffer\<u8\> |
/// | 1 | `loci` | buffer\<u32\> |
/// | 2 | `flag` | buffer\<u8\> |
/// | 3 | `comp` | buffer\<u8\> (`__constant`) |
/// | 4 | `comp_index` | buffer\<i32\> (`__constant`) |
/// | 5 | `locicnts` | u32 |
/// | 6 | `patternlen` | u32 |
/// | 7 | `threshold` | u16 |
/// | 8 | `mm_count` (out) | buffer\<u16\> |
/// | 9 | `direction` (out) | buffer\<u8\> |
/// | 10 | `mm_loci` (out) | buffer\<u32\> |
/// | 11 | `entrycount` (out) | buffer\<u32\> |
/// | 12 | `l_comp` | `__local` 2·plen bytes |
/// | 13 | `l_comp_index` | `__local` 8·plen bytes |
#[derive(Debug, Default, Clone, Copy)]
pub struct ClComparer {
    /// Optimization stage this kernel was "compiled" at.
    pub opt: OptLevel,
}

impl ClComparer {
    /// The comparer at `opt`.
    pub fn new(opt: OptLevel) -> Self {
        ClComparer { opt }
    }
}

impl ClKernelFunction for ClComparer {
    fn name(&self) -> &str {
        "comparer"
    }

    fn arity(&self) -> usize {
        14
    }

    /// Listing 1's list is the staged char layout of [`ClChunkComparer`].
    fn bind(&self, args: &[KernelArg]) -> ClResult<Box<dyn BoundKernel>> {
        let f = ClChunkComparer {
            encoding: Encoding::Char,
            pattern: ClPattern::Staged,
        };
        Ok(launch(&f, args)?.build_at(self.opt, BindSink))
    }
}

/// The `finder_nibble` kernel as an OpenCL kernel function: the finder over
/// a 4-bit nibble-packed chunk (see
/// [`NibbleFinderKernel`](crate::kernels::NibbleFinderKernel)). No exception
/// arguments: the nibble masks are exact for matching.
///
/// Argument layout:
///
/// | # | argument | type |
/// |---|----------|------|
/// | 0 | `nibbles` | buffer\<u8\> |
/// | 1 | `chr` (out: decoded bases) | buffer\<u8\> |
/// | 2 | `pat` | buffer\<u8\> (`__constant`) |
/// | 3 | `pat_index` | buffer\<i32\> (`__constant`) |
/// | 4 | `loci` (out) | buffer\<u32\> |
/// | 5 | `flags` (out) | buffer\<u8\> |
/// | 6 | `count` (out) | buffer\<u32\> |
/// | 7 | `scan_len` | u32 |
/// | 8 | `seq_len` | u32 |
/// | 9 | `patternlen` | u32 |
/// | 10 | `l_pat` | `__local` 2·plen bytes |
/// | 11 | `l_pat_index` | `__local` 8·plen bytes |
#[derive(Debug, Default, Clone, Copy)]
pub struct ClNibbleFinder;

impl ClKernelFunction for ClNibbleFinder {
    fn name(&self) -> &str {
        "finder_nibble"
    }

    fn arity(&self) -> usize {
        12
    }

    fn bind(&self, args: &[KernelArg]) -> ClResult<Box<dyn BoundKernel>> {
        let mut a = Args { args, next: 0 };
        Ok(Box::new(Bound(NibbleFinderKernel {
            nibbles: a.take(KernelArg::as_buf_u8)?,
            inner: a.finder()?,
        })))
    }
}

/// The specialized nibble finder as an OpenCL kernel function: scans the
/// nibble words directly, no decode scratch, no pattern arguments.
///
/// Argument layout:
///
/// | # | argument | type |
/// |---|----------|------|
/// | 0 | `nibbles` | buffer\<u8\> |
/// | 1 | `loci` (out) | buffer\<u32\> |
/// | 2 | `flags` (out) | buffer\<u8\> |
/// | 3 | `count` (out) | buffer\<u32\> |
/// | 4 | `scan_len` | u32 |
/// | 5 | `seq_len` | u32 |
#[derive(Debug, Clone)]
pub struct ClSpecializedNibbleFinder {
    /// The compiled PAM variant (threshold 0) this function embodies.
    pub variant: Arc<CompiledVariant>,
}

impl ClKernelFunction for ClSpecializedNibbleFinder {
    fn name(&self) -> &str {
        VariantKind::NibbleFinder.kernel_name()
    }

    fn arity(&self) -> usize {
        6
    }

    fn bind(&self, args: &[KernelArg]) -> ClResult<Box<dyn BoundKernel>> {
        Ok(Box::new(Bound(SpecializedNibbleFinderKernel {
            nibbles: args[0].as_buf_u8(0)?,
            out: FinderOutput {
                loci: args[1].as_buf_u32(1)?,
                flags: args[2].as_buf_u8(2)?,
                count: args[3].as_buf_u32(3)?,
            },
            scan_len: args[4].as_u32(4)?,
            seq_len: args[5].as_u32(5)?,
            variant: Arc::clone(&self.variant),
        })))
    }
}

/// The pattern form a [`ClChunkComparer`] binds; folded forms carry their
/// compiled variant, since it is part of the kernel, not an argument.
#[derive(Debug, Clone)]
pub enum ClPattern {
    /// One query's tables and threshold as arguments.
    Staged,
    /// One query folded into the variant; no pattern arguments.
    Folded(Arc<CompiledVariant>),
    /// A fused guide block; a per-guide threshold table is an argument
    /// (`PerGuide(())`), a shared one is folded into the variant.
    Block(GuideThresholds<()>),
}

impl ClPattern {
    /// The [`PatternForm`] this binding launches as.
    pub fn form(&self) -> PatternForm {
        match self {
            ClPattern::Staged => PatternForm::Staged,
            ClPattern::Folded(_) => PatternForm::Folded,
            ClPattern::Block(GuideThresholds::PerGuide(())) => PatternForm::Fused,
            ClPattern::Block(GuideThresholds::Folded(_)) => PatternForm::FusedFolded,
        }
    }
}

/// The serving comparer ([`super::ChunkComparer`]) as an OpenCL kernel
/// function, for one chunk encoding and pattern form. It binds under the
/// form's [`comparer_name`].
///
/// Argument layout — the chunk's buffers lead (`chr`, `packed` + `mask`, or
/// `nibbles`), then, with bracketed groups present only in the forms that
/// have them:
///
/// | argument | type | forms |
/// |----------|------|-------|
/// | `loci`, `flag` | buffer\<u32\>, buffer\<u8\> | all |
/// | `comp`, `comp_index` | buffer\<u8\>, buffer\<i32\> | staged, fused |
/// | `thresholds` | buffer\<u16\> | fused per-guide |
/// | `locicnts` | u32 | all |
/// | `patternlen` | u32 | staged, fused |
/// | `threshold` | u16 | staged |
/// | `nguides` | u32 | fused |
/// | `mm_count`, `direction`, `mm_loci`, `entrycount` (out) | u16, u8, u32, u32 buffers | all |
/// | `guide` (out) | buffer\<u16\> | fused |
/// | `l_comp`, `l_comp_index` | `__local` guides·2·plen, guides·8·plen bytes | staged, fused |
/// | `l_thr` | `__local` 2·nguides bytes | fused per-guide |
///
/// The staged char form is the paper's comparer at opt4; its layout is
/// Listing 1's, so [`ClComparer`] binds the same list at its own stage.
/// [`comparer_args`] writes it.
#[derive(Debug, Clone)]
pub struct ClChunkComparer {
    /// The chunk encoding read.
    pub encoding: Encoding,
    /// The pattern form bound.
    pub pattern: ClPattern,
}

impl ClKernelFunction for ClChunkComparer {
    fn name(&self) -> &str {
        comparer_name(self.encoding, self.pattern.form())
    }

    /// The chunk's buffers plus the form's arguments, by [`PatternForm`].
    fn arity(&self) -> usize {
        let chunk = 1 + usize::from(self.encoding == Encoding::TwoBit);
        chunk + [13, 7, 16, 14][self.pattern.form() as usize]
    }

    fn bind(&self, args: &[KernelArg]) -> ClResult<Box<dyn BoundKernel>> {
        Ok(launch(self, args)?.build(BindSink))
    }
}

/// Read `args` back into the launch [`comparer_args`] wrote them from.
fn launch(f: &ClChunkComparer, args: &[KernelArg]) -> ClResult<ComparerLaunch> {
    let mut a = Args { args, next: 0 };
    let chunk = match f.encoding {
        Encoding::Char => ChunkBuffers::Char(a.take(KernelArg::as_buf_u8)?),
        Encoding::TwoBit => ChunkBuffers::TwoBit {
            packed: a.take(KernelArg::as_buf_u8)?,
            mask: a.take(KernelArg::as_buf_u8)?,
        },
        Encoding::FourBit => ChunkBuffers::FourBit(a.take(KernelArg::as_buf_u8)?),
    };
    let loci = a.take(KernelArg::as_buf_u32)?;
    let flags = a.take(KernelArg::as_buf_u8)?;
    let (locicnt, pattern, out) = match &f.pattern {
        ClPattern::Folded(variant) => {
            let locicnt = a.take(KernelArg::as_u32)?;
            (locicnt, Pattern::Folded(Arc::clone(variant)), a.outputs()?)
        }
        ClPattern::Staged => {
            let comp = a.take(KernelArg::as_buf_u8)?;
            let comp_index = a.take(KernelArg::as_buf_i32)?;
            let locicnt = a.take(KernelArg::as_u32)?;
            let plen = a.take(KernelArg::as_u32)? as usize;
            let threshold = a.take(KernelArg::as_u16)?;
            let out = a.outputs()?;
            a.local(2 * plen)?;
            a.local(8 * plen)?;
            let pattern = Pattern::Staged(StagedPattern::new(comp, comp_index, plen, threshold));
            (locicnt, pattern, out)
        }
        ClPattern::Block(thresholds) => {
            let comp = a.take(KernelArg::as_buf_u8)?;
            let comp_index = a.take(KernelArg::as_buf_i32)?;
            let thresholds = match thresholds {
                GuideThresholds::PerGuide(()) => {
                    GuideThresholds::PerGuide(a.take(KernelArg::as_buf_u16)?)
                }
                GuideThresholds::Folded(v) => GuideThresholds::Folded(Arc::clone(v)),
            };
            let locicnt = a.take(KernelArg::as_u32)?;
            let plen = a.take(KernelArg::as_u32)? as usize;
            let nguides = a.take(KernelArg::as_u32)? as usize;
            let out = a.outputs()?;
            let guide = a.take(KernelArg::as_buf_u16)?;
            a.local(nguides * 2 * plen)?;
            a.local(nguides * 8 * plen)?;
            if let GuideThresholds::PerGuide(_) = thresholds {
                a.local(2 * nguides)?;
            }
            let pattern = Pattern::Block(GuideBlock::new(
                comp, comp_index, plen, nguides, thresholds, guide,
            ));
            (locicnt, pattern, out)
        }
    };
    let sites = Sites {
        loci,
        flags,
        locicnt,
        out,
    };
    Ok(ComparerLaunch {
        chunk,
        pattern,
        sites,
    })
}

/// The argument list a [`ClChunkComparer`] binds for `launch`, in order
/// (for the staged char form, also [`ClComparer`]'s).
pub fn comparer_args(launch: &ComparerLaunch) -> Vec<KernelArg> {
    let mut args = match &launch.chunk {
        ChunkBuffers::Char(b) | ChunkBuffers::FourBit(b) => vec![KernelArg::BufU8(b.clone())],
        ChunkBuffers::TwoBit { packed, mask } => vec![
            KernelArg::BufU8(packed.clone()),
            KernelArg::BufU8(mask.clone()),
        ],
    };
    let s = &launch.sites;
    args.extend([
        KernelArg::BufU32(s.loci.clone()),
        KernelArg::BufU8(s.flags.clone()),
    ]);
    let outputs = [
        KernelArg::BufU16(s.out.mm_count.clone()),
        KernelArg::BufU8(s.out.direction.clone()),
        KernelArg::BufU32(s.out.loci.clone()),
        KernelArg::BufU32(s.out.count.clone()),
    ];
    match &launch.pattern {
        Pattern::Folded(_) => {
            args.push(KernelArg::U32(s.locicnt));
            args.extend(outputs);
        }
        Pattern::Staged(StagedPattern {
            tables: t,
            threshold,
        }) => {
            args.extend([
                KernelArg::BufU8(t.comp.clone()),
                KernelArg::BufI32(t.comp_index.clone()),
                KernelArg::U32(s.locicnt),
                KernelArg::U32(t.plen as u32),
                KernelArg::U16(*threshold),
            ]);
            args.extend(outputs);
            args.extend([
                KernelArg::Local { bytes: 2 * t.plen },
                KernelArg::Local { bytes: 8 * t.plen },
            ]);
        }
        Pattern::Block(GuideBlock {
            tables: t,
            nguides,
            thresholds,
            guide,
        }) => {
            args.extend([
                KernelArg::BufU8(t.comp.clone()),
                KernelArg::BufI32(t.comp_index.clone()),
            ]);
            if let GuideThresholds::PerGuide((table, _)) = thresholds {
                args.push(KernelArg::BufU16(table.clone()));
            }
            args.extend([
                KernelArg::U32(s.locicnt),
                KernelArg::U32(t.plen as u32),
                KernelArg::U32(*nguides as u32),
            ]);
            args.extend(outputs);
            args.push(KernelArg::BufU16(guide.clone()));
            args.extend([
                KernelArg::Local {
                    bytes: nguides * 2 * t.plen,
                },
                KernelArg::Local {
                    bytes: nguides * 8 * t.plen,
                },
            ]);
            if let GuideThresholds::PerGuide(_) = thresholds {
                args.push(KernelArg::Local { bytes: 2 * nguides });
            }
        }
    }
    args
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;

    fn device() -> Device {
        Device::new(DeviceSpec::mi100())
    }

    #[test]
    fn finder_binding_validates_local_sizes() {
        let d = device();
        let plen = 3usize;
        let args = vec![
            KernelArg::BufU8(d.alloc(16).unwrap()),
            KernelArg::BufU8(d.alloc(6).unwrap()),
            KernelArg::BufI32(d.alloc(6).unwrap()),
            KernelArg::BufU32(d.alloc(16).unwrap()),
            KernelArg::BufU8(d.alloc(16).unwrap()),
            KernelArg::BufU32(d.alloc(1).unwrap()),
            KernelArg::U32(16),
            KernelArg::U32(16),
            KernelArg::U32(plen as u32),
            KernelArg::Local { bytes: 2 * plen },
            KernelArg::Local { bytes: 8 * plen },
        ];
        assert!(ClFinder.bind(&args).is_ok());

        let mut bad = args.clone();
        bad[9] = KernelArg::Local { bytes: 1 };
        let err = ClFinder.bind(&bad).map(|_| ()).unwrap_err();
        assert!(matches!(err, ClError::InvalidArgValue { index: 9, .. }));
    }

    #[test]
    fn comparer_binding_validates_types() {
        let d = device();
        let plen = 4usize;
        let mut args = vec![
            KernelArg::BufU8(d.alloc(32).unwrap()),
            KernelArg::BufU32(d.alloc(8).unwrap()),
            KernelArg::BufU8(d.alloc(8).unwrap()),
            KernelArg::BufU8(d.alloc(8).unwrap()),
            KernelArg::BufI32(d.alloc(8).unwrap()),
            KernelArg::U32(8),
            KernelArg::U32(plen as u32),
            KernelArg::U16(4),
            KernelArg::BufU16(d.alloc(16).unwrap()),
            KernelArg::BufU8(d.alloc(16).unwrap()),
            KernelArg::BufU32(d.alloc(16).unwrap()),
            KernelArg::BufU32(d.alloc(1).unwrap()),
            KernelArg::Local { bytes: 2 * plen },
            KernelArg::Local { bytes: 8 * plen },
        ];
        assert!(ClComparer::new(OptLevel::Opt3).bind(&args).is_ok());

        args[7] = KernelArg::U32(4); // threshold must be u16
        let err = ClComparer::default().bind(&args).map(|_| ()).unwrap_err();
        assert!(matches!(err, ClError::InvalidArgValue { index: 7, .. }));
    }

    fn comparer(encoding: Encoding, pattern: ClPattern) -> ClChunkComparer {
        ClChunkComparer { encoding, pattern }
    }

    fn per_guide() -> ClPattern {
        ClPattern::Block(GuideThresholds::PerGuide(()))
    }

    #[test]
    fn arities_match_the_kernel_signatures() {
        assert_eq!(ClFinder.arity(), 11);
        assert_eq!(ClComparer::default().arity(), 14);
        assert_eq!(ClNibbleFinder.arity(), 12);
        assert_eq!(ClFinder.name(), "finder");
        assert_eq!(ClComparer::default().name(), "comparer");
        assert_eq!(ClNibbleFinder.name(), "finder_nibble");
        let variant = Arc::new(CompiledVariant::compile(
            VariantKind::MultiComparer,
            &crate::pattern::CompiledSeq::compile(b"NGG"),
            2,
        ));
        for (encoding, pattern, arity, name) in [
            (Encoding::Char, ClPattern::Staged, 14, "comparer"),
            (Encoding::TwoBit, ClPattern::Staged, 15, "comparer-2bit"),
            (Encoding::FourBit, ClPattern::Staged, 14, "comparer-4bit"),
            (
                Encoding::Char,
                ClPattern::Folded(variant.clone()),
                8,
                "comparer-spec",
            ),
            (
                Encoding::TwoBit,
                ClPattern::Folded(variant.clone()),
                9,
                "comparer-2bit-spec",
            ),
            (Encoding::Char, per_guide(), 17, "comparer_multi"),
            (Encoding::TwoBit, per_guide(), 18, "comparer_multi-2bit"),
            (Encoding::FourBit, per_guide(), 17, "comparer_multi-4bit"),
            (
                Encoding::FourBit,
                ClPattern::Block(GuideThresholds::Folded(variant.clone())),
                15,
                "comparer_multi-4bit-spec",
            ),
        ] {
            let f = comparer(encoding, pattern);
            assert_eq!((f.arity(), f.name()), (arity, name));
        }
    }

    #[test]
    fn multi_comparer_binding_validates_local_sizes() {
        let d = device();
        let (plen, nguides) = (4usize, 3usize);
        let mut args = vec![
            KernelArg::BufU8(d.alloc(64).unwrap()),
            KernelArg::BufU32(d.alloc(8).unwrap()),
            KernelArg::BufU8(d.alloc(8).unwrap()),
            KernelArg::BufU8(d.alloc(nguides * 2 * plen).unwrap()),
            KernelArg::BufI32(d.alloc(nguides * 2 * plen).unwrap()),
            KernelArg::BufU16(d.alloc(nguides).unwrap()),
            KernelArg::U32(8),
            KernelArg::U32(plen as u32),
            KernelArg::U32(nguides as u32),
            KernelArg::BufU16(d.alloc(64).unwrap()),
            KernelArg::BufU8(d.alloc(64).unwrap()),
            KernelArg::BufU32(d.alloc(64).unwrap()),
            KernelArg::BufU32(d.alloc(1).unwrap()),
            KernelArg::BufU16(d.alloc(64).unwrap()),
            KernelArg::Local {
                bytes: nguides * 2 * plen,
            },
            KernelArg::Local {
                bytes: nguides * 8 * plen,
            },
            KernelArg::Local { bytes: nguides * 2 },
        ];
        let f = comparer(Encoding::Char, per_guide());
        assert!(f.bind(&args).is_ok());

        args[16] = KernelArg::Local { bytes: 1 };
        let err = f.bind(&args).map(|_| ()).unwrap_err();
        assert!(matches!(err, ClError::InvalidArgValue { index: 16, .. }));
    }

    #[test]
    fn fourbit_comparer_binding_validates_local_sizes() {
        let d = device();
        let plen = 4usize;
        let mut args = vec![
            KernelArg::BufU8(d.alloc(4).unwrap()),
            KernelArg::BufU32(d.alloc(8).unwrap()),
            KernelArg::BufU8(d.alloc(8).unwrap()),
            KernelArg::BufU8(d.alloc(8).unwrap()),
            KernelArg::BufI32(d.alloc(8).unwrap()),
            KernelArg::U32(8),
            KernelArg::U32(plen as u32),
            KernelArg::U16(4),
            KernelArg::BufU16(d.alloc(16).unwrap()),
            KernelArg::BufU8(d.alloc(16).unwrap()),
            KernelArg::BufU32(d.alloc(16).unwrap()),
            KernelArg::BufU32(d.alloc(1).unwrap()),
            KernelArg::Local { bytes: 2 * plen },
            KernelArg::Local { bytes: 8 * plen },
        ];
        let f = comparer(Encoding::FourBit, ClPattern::Staged);
        assert!(f.bind(&args).is_ok());

        args[13] = KernelArg::Local { bytes: 2 };
        let err = f.bind(&args).map(|_| ()).unwrap_err();
        assert!(matches!(err, ClError::InvalidArgValue { index: 13, .. }));
    }

    #[test]
    fn twobit_comparer_binding_validates_local_sizes() {
        let d = device();
        let plen = 4usize;
        let mut args = vec![
            KernelArg::BufU8(d.alloc(8).unwrap()),
            KernelArg::BufU8(d.alloc(4).unwrap()),
            KernelArg::BufU32(d.alloc(8).unwrap()),
            KernelArg::BufU8(d.alloc(8).unwrap()),
            KernelArg::BufU8(d.alloc(8).unwrap()),
            KernelArg::BufI32(d.alloc(8).unwrap()),
            KernelArg::U32(8),
            KernelArg::U32(plen as u32),
            KernelArg::U16(4),
            KernelArg::BufU16(d.alloc(16).unwrap()),
            KernelArg::BufU8(d.alloc(16).unwrap()),
            KernelArg::BufU32(d.alloc(16).unwrap()),
            KernelArg::BufU32(d.alloc(1).unwrap()),
            KernelArg::Local { bytes: 2 * plen },
            KernelArg::Local { bytes: 8 * plen },
        ];
        let f = comparer(Encoding::TwoBit, ClPattern::Staged);
        assert!(f.bind(&args).is_ok());

        args[14] = KernelArg::Local { bytes: 2 };
        let err = f.bind(&args).map(|_| ()).unwrap_err();
        assert!(matches!(err, ClError::InvalidArgValue { index: 14, .. }));
    }
}
