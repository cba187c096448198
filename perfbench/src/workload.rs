//! The three workloads and their seeded inputs.
//!
//! Every guide is a 20-nt spacer drawn from a PAM-adjacent site of the
//! assembly it searches, followed by `NNN`, so each job's oracle holds at
//! least the site it was drawn from. The service only ever sees the
//! generated [`JobSpec`]s.

use std::collections::HashSet;
use std::time::Duration;

use casoff_serve::trace::schedule_digest;
use casoff_serve::{JobSpec, ServiceConfig, TenantConfig, TenantId, TraceEvent};
use genome::rng::Xoshiro256;
use genome::Assembly;

/// Miniature scale: `hg38-mini` spans ~744 kbp, ~95 chunks of 8 KiB.
pub const GENOME_SCALE: f64 = 0.1;
/// Spacer bases ahead of the 3-base PAM.
pub const SPACER_LEN: usize = 20;
/// Mismatch limit of every search.
pub const MAX_MISMATCHES: u16 = 5;
/// Jobs the `scan` submitter keeps outstanding.
pub const SCAN_WINDOW: usize = 8;
/// Guides per `library` screen.
pub const LIBRARY_GUIDES: usize = 64;
/// `open_loop` arrival rate: well below the knee (p50 rises steeply past
/// ~20/s), where latency on a shared 2-core host is steady enough to gate.
pub const OPEN_LOOP_RATE: f64 = 8.0;
/// Share of `open_loop` arrivals that repeat an earlier spec.
pub const REPEAT_SHARE: f64 = 0.3;
/// `open_loop` tenants: fair-queue weights, also their arrival shares.
pub const TENANT_WEIGHTS: [u32; 3] = [4, 2, 1];
/// Specs of a closed-loop stream folded into its input digest.
pub const DIGEST_PREFIX: usize = 64;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop single-guide searches, [`SCAN_WINDOW`] outstanding.
    Scan,
    /// Closed-loop [`LIBRARY_GUIDES`]-guide screens, one outstanding.
    Library,
    /// Seeded Poisson arrivals at [`OPEN_LOOP_RATE`] from three tenants.
    OpenLoop,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Scan, Workload::Library, Workload::OpenLoop];

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Scan => "scan",
            Workload::Library => "library",
            Workload::OpenLoop => "open_loop",
        }
    }

    /// The PAMs the workload's guides search under.
    pub fn pams(self) -> &'static [&'static [u8; 3]] {
        match self {
            Workload::Scan => &[b"NGG", b"NRG"],
            Workload::Library => &[b"NGG"],
            Workload::OpenLoop => &[b"NGG", b"NRG", b"NAG"],
        }
    }

    /// Synthesize the assemblies the workload searches.
    pub fn synthesize(self) -> Vec<Assembly> {
        match self {
            Workload::Scan | Workload::Library => vec![genome::synth::hg38_mini(GENOME_SCALE)],
            Workload::OpenLoop => vec![
                genome::synth::hg19_mini(GENOME_SCALE),
                genome::synth::hg38_masked_mini(GENOME_SCALE),
            ],
        }
    }

    /// The service configuration: the unmodified paper pool, plus the
    /// weighted tenants for `open_loop`.
    pub fn config(self) -> ServiceConfig {
        let mut config = ServiceConfig::paper_pool();
        if self == Workload::OpenLoop {
            // Weights steer the fair queue; each quota is the whole queue
            // budget, so an offered load below the knee is never shed (a
            // derived 1/7 quota would shed the light tenant's second
            // overlapping job).
            config.tenants = tenants()
                .zip(TENANT_WEIGHTS)
                .map(|(id, weight)| TenantConfig {
                    quota_cost: Some(config.queue_cost_limit),
                    ..TenantConfig::weighted(id, weight)
                })
                .collect();
        }
        config
    }

    /// The fixed latency limit `slo_met_share` is measured against.
    pub fn latency_limit(self) -> Duration {
        match self {
            Workload::Scan => Duration::from_millis(600),
            Workload::Library => Duration::from_millis(2000),
            Workload::OpenLoop => Duration::from_millis(500),
        }
    }

    /// Load run before the measured window opens, so the genome and
    /// candidate caches fill and the first kernel variants compile.
    pub fn warmup(self) -> Duration {
        match self {
            Workload::Scan | Workload::OpenLoop => Duration::from_millis(1500),
            Workload::Library => Duration::from_millis(2000),
        }
    }

    /// Guides searched per job.
    pub fn guides_per_job(self) -> usize {
        match self {
            Workload::Library => LIBRARY_GUIDES,
            Workload::Scan | Workload::OpenLoop => 1,
        }
    }
}

fn tenants() -> impl Iterator<Item = TenantId> {
    (1..=TENANT_WEIGHTS.len() as u32).map(TenantId)
}

/// The full search pattern for `pam`: [`SPACER_LEN`] `N`s, then the PAM.
pub fn pattern_for(pam: &[u8]) -> Vec<u8> {
    let mut pattern = vec![b'N'; SPACER_LEN];
    pattern.extend_from_slice(pam);
    pattern
}

fn iupac_matches(code: u8, base: u8) -> bool {
    match code {
        b'N' => true,
        b'R' => matches!(base, b'A' | b'G'),
        _ => code == base,
    }
}

/// Forward-strand PAM-adjacent sites of every (assembly, PAM) pair: windows
/// of [`SPACER_LEN`] uppercase `ACGT` bases followed by a base-exact PAM
/// match. Soft-masked and degenerate bases are skipped, so every drawn
/// spacer is found again by the search at zero mismatches.
pub struct SiteIndex {
    keys: Vec<SiteKey>,
}

/// The sites of one (assembly, PAM) pair.
struct SiteKey {
    /// Index of the assembly.
    assembly: usize,
    /// The PAM.
    pam: &'static [u8; 3],
    /// `(chromosome index, position)` of every site.
    sites: Vec<(usize, usize)>,
}

impl SiteIndex {
    /// Index `assemblies` under every PAM of `workload`.
    pub fn build(workload: Workload, assemblies: &[Assembly]) -> SiteIndex {
        let window = SPACER_LEN + 3;
        let mut keys = Vec::new();
        for (a, assembly) in assemblies.iter().enumerate() {
            for &pam in workload.pams() {
                let mut sites = Vec::new();
                for (c, chrom) in assembly.chromosomes().iter().enumerate() {
                    let seq = &chrom.seq;
                    for pos in 0..seq.len().saturating_sub(window - 1) {
                        let w = &seq[pos..pos + window];
                        if w[..SPACER_LEN].iter().all(|b| b"ACGT".contains(b))
                            && w[SPACER_LEN..]
                                .iter()
                                .zip(pam)
                                .all(|(&b, &p)| iupac_matches(p, b))
                        {
                            sites.push((c, pos));
                        }
                    }
                }
                assert!(
                    !sites.is_empty(),
                    "{} has no {:?} sites",
                    assembly.name(),
                    pam
                );
                keys.push(SiteKey {
                    assembly: a,
                    pam,
                    sites,
                });
            }
        }
        SiteIndex { keys }
    }
}

/// Seeded source of specs. The same seed yields the same sequence, however
/// many specs a run consumes.
pub struct JobStream<'a> {
    workload: Workload,
    rng: Xoshiro256,
    assemblies: &'a [Assembly],
    index: &'a SiteIndex,
    used: HashSet<Vec<u8>>,
}

impl<'a> JobStream<'a> {
    /// A stream over `assemblies` (indexed by `index`) seeded by `seed`.
    pub fn new(
        workload: Workload,
        seed: u64,
        assemblies: &'a [Assembly],
        index: &'a SiteIndex,
    ) -> Self {
        JobStream {
            workload,
            rng: Xoshiro256::seed_from_u64(seed ^ 0xB3C4_0FF1_CE00_0000),
            assemblies,
            index,
            used: HashSet::new(),
        }
    }

    /// A guide never drawn before by this stream, from a site of the
    /// `key`-th (assembly, PAM) pair.
    fn fresh_guide(&mut self, key: usize) -> Vec<u8> {
        let SiteKey {
            assembly, sites, ..
        } = &self.index.keys[key];
        for _ in 0..100_000 {
            let (c, pos) = sites[self.rng.gen_below(sites.len())];
            let spacer = &self.assemblies[*assembly].chromosomes()[c].seq[pos..pos + SPACER_LEN];
            if self.used.insert(spacer.to_vec()) {
                let mut guide = spacer.to_vec();
                guide.extend_from_slice(b"NNN");
                return guide;
            }
        }
        panic!(
            "{} PAM-adjacent sites cannot supply another fresh spacer",
            sites.len()
        );
    }

    /// A fresh spec on a uniformly drawn (assembly, PAM) pair.
    fn fresh_spec(&mut self) -> JobSpec {
        let key = self.rng.gen_below(self.index.keys.len());
        self.fresh_spec_on(key)
    }

    /// A fresh spec on the `key`-th (assembly, PAM) pair.
    fn fresh_spec_on(&mut self, key: usize) -> JobSpec {
        let SiteKey { assembly, pam, .. } = self.index.keys[key];
        let assembly = self.assemblies[assembly].name().to_string();
        let pattern = pattern_for(pam);
        match self.workload {
            Workload::Library => {
                let guides = (0..LIBRARY_GUIDES).map(|_| self.fresh_guide(key)).collect();
                JobSpec::library(assembly, pattern, guides, MAX_MISMATCHES)
            }
            Workload::Scan | Workload::OpenLoop => {
                let guide = self.fresh_guide(key);
                JobSpec::new(assembly, pattern, guide, MAX_MISMATCHES)
            }
        }
    }
}

impl Iterator for JobStream<'_> {
    type Item = JobSpec;

    fn next(&mut self) -> Option<JobSpec> {
        Some(self.fresh_spec())
    }
}

/// One scheduled `open_loop` submission.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Due time, seconds after the load starts.
    pub due_s: f64,
    /// The spec, tenant included.
    pub spec: JobSpec,
    /// The earlier arrival whose spec this one repeats.
    pub repeat_of: Option<usize>,
}

/// `n` labels in the proportions of `weights` (rounded down, the remainder
/// going to the first labels), shuffled.
fn balanced(rng: &mut Xoshiro256, n: usize, weights: &[u32]) -> Vec<usize> {
    let total: u32 = weights.iter().sum();
    let mut counts: Vec<usize> = weights
        .iter()
        .map(|&w| n * w as usize / total as usize)
        .collect();
    let short = n - counts.iter().sum::<usize>();
    for c in counts.iter_mut().take(short) {
        *c += 1;
    }
    let mut labels: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(label, &c)| std::iter::repeat_n(label, c))
        .collect();
    rng.shuffle(&mut labels);
    labels
}

/// The `open_loop` schedule over `horizon_s` seconds: a Poisson process at
/// [`OPEN_LOOP_RATE`] conditioned on its count (`rate × horizon` arrivals
/// at sorted uniform times), so every seed offers the same load. The mix is
/// stratified so every seed offers the same kind of load too: tenants
/// arrive in exact proportion to their weights (in seeded order), exactly
/// [`REPEAT_SHARE`] of arrivals (at seeded positions) repeat a uniformly
/// chosen earlier spec, and fresh specs cycle through the (assembly, PAM)
/// pairs.
pub fn open_loop_schedule(
    seed: u64,
    horizon_s: f64,
    assemblies: &[Assembly],
    index: &SiteIndex,
) -> Vec<Arrival> {
    let mut stream = JobStream::new(Workload::OpenLoop, seed, assemblies, index);
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x0FE2_100B_0000_0000);
    let n = (OPEN_LOOP_RATE * horizon_s).round() as usize;
    let mut times: Vec<f64> = (0..n).map(|_| rng.gen_f64() * horizon_s).collect();
    times.sort_by(f64::total_cmp);
    let tenant_ids: Vec<TenantId> = tenants().collect();
    let tenant_of = balanced(&mut rng, n, &TENANT_WEIGHTS);
    let repeats = (REPEAT_SHARE * n as f64).round() as u32;
    let mut repeat = balanced(&mut rng, n, &[n as u32 - repeats, repeats]);
    // The first arrival has nothing to repeat.
    if let Some(fresh) = repeat.iter().position(|&r| r == 0) {
        repeat.swap(0, fresh);
    }
    // Fresh specs cycle through the (assembly, PAM) pairs in index order —
    // each assembly under its three PAMs, then the other — so the genome
    // and candidate caches churn the same way under every seed.
    let mut fresh = 0;
    let mut arrivals: Vec<Arrival> = Vec::with_capacity(n);
    for (i, due_s) in times.into_iter().enumerate() {
        let repeat_of = (repeat[i] == 1 && i > 0).then(|| rng.gen_below(i));
        let spec = match repeat_of {
            Some(j) => arrivals[j].spec.clone(),
            None => {
                let key = fresh % index.keys.len();
                fresh += 1;
                stream.fresh_spec_on(key)
            }
        };
        arrivals.push(Arrival {
            due_s,
            spec: spec.for_tenant(tenant_ids[tenant_of[i]]),
            repeat_of,
        });
    }
    arrivals
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn fold_spec(mut h: u64, spec: &JobSpec) -> u64 {
    h = fnv1a64(h, spec.assembly.as_bytes());
    h = fnv1a64(h, &[0]);
    h = fnv1a64(h, &spec.pattern);
    h = fnv1a64(h, &[0]);
    h = fnv1a64(h, &spec.guide);
    h = fnv1a64(h, &spec.max_mismatches.to_le_bytes());
    h = fnv1a64(h, &spec.tenant.0.to_le_bytes());
    for guide in spec.library.iter().flatten() {
        h = fnv1a64(h, guide);
        h = fnv1a64(h, &[0]);
    }
    h
}

/// Digest of a spec list, in the style of
/// [`schedule_digest`]: FNV-1a over every spec's fields in order.
pub fn specs_digest<'s>(specs: impl IntoIterator<Item = &'s JobSpec>) -> u64 {
    specs.into_iter().fold(FNV_OFFSET, fold_spec)
}

/// Digest of an `open_loop` schedule: [`schedule_digest`] over the due
/// times, spec indices and tenants, folded with the content of every spec.
pub fn schedule_input_digest(arrivals: &[Arrival]) -> u64 {
    let events: Vec<TraceEvent> = arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| TraceEvent {
            at_s: a.due_s,
            spec_index: a.repeat_of.unwrap_or(i),
            tenant: a.spec.tenant,
        })
        .collect();
    let h = fnv1a64(FNV_OFFSET, &schedule_digest(&events).to_le_bytes());
    arrivals.iter().fold(h, |h, a| fold_spec(h, &a.spec))
}

/// The input digest of a run of `workload` under `seed`: the whole
/// schedule for `open_loop`, the first [`DIGEST_PREFIX`] specs of the
/// stream for the closed loops.
pub fn input_digest(
    workload: Workload,
    seed: u64,
    horizon_s: f64,
    assemblies: &[Assembly],
    index: &SiteIndex,
) -> u64 {
    match workload {
        Workload::OpenLoop => {
            schedule_input_digest(&open_loop_schedule(seed, horizon_s, assemblies, index))
        }
        Workload::Scan | Workload::Library => {
            let prefix: Vec<JobSpec> = JobStream::new(workload, seed, assemblies, index)
                .take(DIGEST_PREFIX)
                .collect();
            specs_digest(&prefix)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Vec<Assembly> {
        vec![genome::synth::hg38_mini(0.03)]
    }

    #[test]
    fn same_seed_gives_the_same_input_digest() {
        let assemblies = toy();
        for workload in [Workload::Scan, Workload::Library] {
            let index = SiteIndex::build(workload, &assemblies);
            let a = input_digest(workload, 7, 1.0, &assemblies, &index);
            let b = input_digest(workload, 7, 1.0, &assemblies, &index);
            let c = input_digest(workload, 8, 1.0, &assemblies, &index);
            assert_eq!(a, b, "{}", workload.name());
            assert_ne!(a, c, "{}", workload.name());
        }
        let open = vec![
            genome::synth::hg19_mini(0.01),
            genome::synth::hg38_masked_mini(0.01),
        ];
        let index = SiteIndex::build(Workload::OpenLoop, &open);
        let a = input_digest(Workload::OpenLoop, 7, 4.0, &open, &index);
        assert_eq!(a, input_digest(Workload::OpenLoop, 7, 4.0, &open, &index));
        assert_ne!(a, input_digest(Workload::OpenLoop, 8, 4.0, &open, &index));
    }

    #[test]
    fn guides_come_from_pam_adjacent_sites_and_never_repeat() {
        let assemblies = toy();
        let index = SiteIndex::build(Workload::Scan, &assemblies);
        let specs: Vec<JobSpec> = JobStream::new(Workload::Scan, 1, &assemblies, &index)
            .take(200)
            .collect();
        let distinct: HashSet<&[u8]> = specs.iter().map(|s| &s.guide[..]).collect();
        assert_eq!(distinct.len(), specs.len());
        for spec in &specs {
            assert_eq!(spec.guide.len(), spec.pattern.len());
            assert!(spec.guide.ends_with(b"NNN"));
            let spacer = &spec.guide[..SPACER_LEN];
            let pam = &spec.pattern[SPACER_LEN..];
            let found = assemblies[0].chromosomes().iter().any(|c| {
                c.seq.windows(SPACER_LEN + 3).any(|w| {
                    &w[..SPACER_LEN] == spacer
                        && w[SPACER_LEN..]
                            .iter()
                            .zip(pam)
                            .all(|(&b, &p)| iupac_matches(p, b))
                })
            });
            assert!(found, "spacer not drawn from a PAM-adjacent site");
        }
    }

    #[test]
    fn open_loop_offers_a_fixed_count_with_repeats_and_weighted_tenants() {
        let open = vec![
            genome::synth::hg19_mini(0.01),
            genome::synth::hg38_masked_mini(0.01),
        ];
        let index = SiteIndex::build(Workload::OpenLoop, &open);
        let arrivals = open_loop_schedule(3, 600.0 / OPEN_LOOP_RATE, &open, &index);
        assert_eq!(arrivals.len(), 600);
        assert!(arrivals.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        let repeats = arrivals.iter().filter(|a| a.repeat_of.is_some()).count();
        assert_eq!(repeats, 180, "exactly 30% of 600 arrivals repeat");
        let count = |t: u32| {
            arrivals
                .iter()
                .filter(|a| a.spec.tenant == TenantId(t))
                .count()
        };
        assert_eq!((count(1), count(2), count(3)), (343, 172, 85));
        for a in &arrivals {
            if let Some(j) = a.repeat_of {
                assert_eq!(a.spec.guide, arrivals[j].spec.guide);
            }
        }
    }
}
