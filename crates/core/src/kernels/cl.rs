//! OpenCL bindings of the kernels: the `__kernel` entry points the OpenCL
//! host pipeline compiles into its program object (Table VI of the paper).
//!
//! These adapters translate the positional, type-erased `clSetKernelArg`
//! argument lists into the typed kernel structs, validating types, counts
//! and `__local` allocation sizes the way a real OpenCL runtime validates
//! argument sizes.

use gpu_sim::executor::LaunchReport;
use gpu_sim::kernel::KernelProgram;
use gpu_sim::{Device, NdRange, SimResult};

use opencl_rt::{BoundKernel, ClError, ClKernelFunction, ClResult, KernelArg};

use std::sync::Arc;

use super::chunk_comparer::{
    comparer_name, ChunkBuffers, ComparerLaunch, Encoding, KernelSink, Pattern, PatternForm, Sites,
    StagedPattern,
};
use super::comparer::ComparerOutput;
use super::finder::{finder_name, FinderLaunch, FinderOutput, Pam, PayloadBuffers, PayloadForm};
use super::multi::{GuideBlock, GuideThresholds};
use super::specialize::CompiledVariant;
use super::OptLevel;

struct Bound<K: KernelProgram>(K);

impl<K: KernelProgram> BoundKernel for Bound<K> {
    fn launch(&self, device: &Device, nd: NdRange) -> SimResult<LaunchReport> {
        device.launch(&self.0, nd)
    }
}

/// Boxes whatever kernel a launch builds as a bound kernel.
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

    /// Table VI's list is the raw layout of [`ClChunkFinder`].
    fn bind(&self, args: &[KernelArg]) -> ClResult<Box<dyn BoundKernel>> {
        let f = ClChunkFinder {
            form: PayloadForm::Raw,
            pam: None,
        };
        f.bind(args)
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

/// The serving finder ([`FinderLaunch`]) as an OpenCL kernel function, for
/// one payload form, with the PAM staged (`pam: None`) or folded into a
/// nibble-finder variant. It binds under the launch's [`finder_name`].
///
/// Argument layout — the payload's buffers lead (`chr`; `packed`, `mask`,
/// `exc_pos`, `exc_val` and the u32 `n_exc`; or `nibbles`), then, with
/// bracketed groups present only in the forms that have them:
///
/// | argument | type | forms |
/// |----------|------|-------|
/// | `chr` (out: decoded bases) | buffer\<u8\> | packed, staged nibble |
/// | `pat`, `pat_index` | buffer\<u8\>, buffer\<i32\> (`__constant`) | staged |
/// | `loci`, `flags`, `count` (out) | u32, u8, u32 buffers | all |
/// | `scan_len`, `seq_len` | u32 | all |
/// | `patternlen` | u32 | staged |
/// | `l_pat`, `l_pat_index` | `__local` 2·plen, 8·plen bytes | staged |
///
/// The raw form is the paper's finder; its layout is Table VI's, so
/// [`ClFinder`] binds the same list. [`finder_args`] writes it.
#[derive(Debug, Clone)]
pub struct ClChunkFinder {
    /// The payload form scanned.
    pub form: PayloadForm,
    /// The folded PAM variant (nibbles only), or `None` for staged tables.
    pub pam: Option<Arc<CompiledVariant>>,
}

impl ClKernelFunction for ClChunkFinder {
    fn name(&self) -> &str {
        finder_name(self.form, self.pam.is_some())
    }

    /// The payload's arguments, the decode target, then 10 staged or 5
    /// folded arguments.
    fn arity(&self) -> usize {
        let folded = self.pam.is_some();
        let payload = [1, 5, 1][self.form as usize];
        payload + usize::from(self.form.decodes(folded)) + if folded { 5 } else { 10 }
    }

    fn bind(&self, args: &[KernelArg]) -> ClResult<Box<dyn BoundKernel>> {
        let mut a = Args { args, next: 0 };
        let (payload, exceptions) = match self.form {
            PayloadForm::Raw => (PayloadBuffers::Raw(a.take(KernelArg::as_buf_u8)?), 0),
            PayloadForm::Packed => (
                PayloadBuffers::Packed {
                    words: a.take(KernelArg::as_buf_u8)?,
                    mask: a.take(KernelArg::as_buf_u8)?,
                    exc_pos: a.take(KernelArg::as_buf_u32)?,
                    exc_val: a.take(KernelArg::as_buf_u8)?,
                },
                a.take(KernelArg::as_u32)?,
            ),
            PayloadForm::Nibble => (PayloadBuffers::Nibble(a.take(KernelArg::as_buf_u8)?), 0),
        };
        let decoded = self
            .form
            .decodes(self.pam.is_some())
            .then(|| a.take(KernelArg::as_buf_u8))
            .transpose()?;
        let mut pam = match &self.pam {
            Some(variant) => Pam::Folded(Arc::clone(variant)),
            None => Pam::Staged {
                pat: a.take(KernelArg::as_buf_u8)?,
                pat_index: a.take(KernelArg::as_buf_i32)?,
                plen: 0,
            },
        };
        let out = FinderOutput {
            loci: a.take(KernelArg::as_buf_u32)?,
            flags: a.take(KernelArg::as_buf_u8)?,
            count: a.take(KernelArg::as_buf_u32)?,
        };
        let scan_len = a.take(KernelArg::as_u32)?;
        let seq_len = a.take(KernelArg::as_u32)?;
        if let Pam::Staged { plen, .. } = &mut pam {
            *plen = a.take(KernelArg::as_u32)? as usize;
            a.local(2 * *plen)?;
            a.local(8 * *plen)?;
        }
        let launch = FinderLaunch {
            payload,
            exceptions,
            decoded,
            pam,
            out,
            scan_len,
            seq_len,
        };
        Ok(launch.build(BindSink))
    }
}

/// The argument list a [`ClChunkFinder`] binds for `launch`, in order (for
/// raw bases, also [`ClFinder`]'s).
pub fn finder_args(launch: &FinderLaunch) -> Vec<KernelArg> {
    let mut args = match &launch.payload {
        PayloadBuffers::Raw(b) | PayloadBuffers::Nibble(b) => vec![KernelArg::BufU8(b.clone())],
        PayloadBuffers::Packed {
            words,
            mask,
            exc_pos,
            exc_val,
        } => vec![
            KernelArg::BufU8(words.clone()),
            KernelArg::BufU8(mask.clone()),
            KernelArg::BufU32(exc_pos.clone()),
            KernelArg::BufU8(exc_val.clone()),
            KernelArg::U32(launch.exceptions),
        ],
    };
    args.extend(launch.decoded.iter().map(|b| KernelArg::BufU8(b.clone())));
    if let Pam::Staged { pat, pat_index, .. } = &launch.pam {
        args.extend([
            KernelArg::BufU8(pat.clone()),
            KernelArg::BufI32(pat_index.clone()),
        ]);
    }
    let out = &launch.out;
    args.extend([
        KernelArg::BufU32(out.loci.clone()),
        KernelArg::BufU8(out.flags.clone()),
        KernelArg::BufU32(out.count.clone()),
        KernelArg::U32(launch.scan_len),
        KernelArg::U32(launch.seq_len),
    ]);
    if let Pam::Staged { plen, .. } = launch.pam {
        args.extend([
            KernelArg::U32(plen as u32),
            KernelArg::Local { bytes: 2 * plen },
            KernelArg::Local { bytes: 8 * plen },
        ]);
    }
    args
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
    use crate::kernels::VariantKind;
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

    fn nibble_variant() -> Arc<CompiledVariant> {
        let pam = crate::pattern::CompiledSeq::compile(b"NGG");
        Arc::new(CompiledVariant::compile(VariantKind::NibbleFinder, &pam, 0))
    }

    #[test]
    fn arities_match_the_kernel_signatures() {
        assert_eq!(ClFinder.arity(), 11);
        assert_eq!(ClComparer::default().arity(), 14);
        assert_eq!(ClFinder.name(), "finder");
        assert_eq!(ClComparer::default().name(), "comparer");
        for (form, pam, arity, name) in [
            (PayloadForm::Raw, None, 11, "finder"),
            (PayloadForm::Packed, None, 16, "finder_packed"),
            (PayloadForm::Nibble, None, 12, "finder_nibble"),
            (
                PayloadForm::Nibble,
                Some(nibble_variant()),
                6,
                "finder_nibble-spec",
            ),
        ] {
            let f = ClChunkFinder { form, pam };
            assert_eq!((f.arity(), f.name()), (arity, name));
        }
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

    /// A finder launch over 16 bases of `form`, with the PAM staged or
    /// folded into `variant`.
    fn finder_launch(
        d: &Device,
        form: PayloadForm,
        variant: Option<Arc<CompiledVariant>>,
    ) -> FinderLaunch {
        let plen = 3;
        let payload = match form {
            PayloadForm::Raw => PayloadBuffers::Raw(d.alloc_from_slice(&[b'A'; 16]).unwrap()),
            PayloadForm::Packed => PayloadBuffers::Packed {
                words: d.alloc(4).unwrap(),
                mask: d.alloc(2).unwrap(),
                exc_pos: d.alloc(1).unwrap(),
                exc_val: d.alloc(1).unwrap(),
            },
            PayloadForm::Nibble => PayloadBuffers::Nibble(d.alloc(8).unwrap()),
        };
        let pam = match variant {
            Some(variant) => Pam::Folded(variant),
            None => Pam::Staged {
                pat: d.alloc(2 * plen).unwrap(),
                pat_index: d.alloc_from_slice(&[-1; 6]).unwrap(),
                plen,
            },
        };
        FinderLaunch {
            decoded: form
                .decodes(matches!(pam, Pam::Folded(_)))
                .then(|| d.alloc(16).unwrap()),
            payload,
            exceptions: 0,
            pam,
            out: FinderOutput::allocate(d, 16).unwrap(),
            scan_len: 14,
            seq_len: 16,
        }
    }

    #[test]
    fn finder_args_bind_back_for_every_form_and_pam() {
        let d = device();
        for (form, pam) in [
            (PayloadForm::Raw, None),
            (PayloadForm::Packed, None),
            (PayloadForm::Nibble, None),
            (PayloadForm::Nibble, Some(nibble_variant())),
        ] {
            let f = ClChunkFinder { form, pam };
            let args = finder_args(&finder_launch(&d, form, f.pam.clone()));
            assert_eq!(args.len(), f.arity(), "{}", f.name());
            let report = f
                .bind(&args)
                .unwrap()
                .launch(&d, NdRange::linear_cover(14, 64))
                .unwrap();
            assert_eq!(report.kernel, f.name());
            if form == PayloadForm::Raw {
                assert!(ClFinder.bind(&args).is_ok(), "Table VI's list");
            }
            if form.decodes(f.pam.is_some()) {
                let mut bad = args.clone();
                let last = bad.len() - 1;
                bad[last] = KernelArg::Local { bytes: 1 };
                let err = f.bind(&bad).map(|_| ()).unwrap_err();
                assert!(matches!(err, ClError::InvalidArgValue { index, .. } if index == last));
            }
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
