//! The CPU oracle every collected result is checked against, and the
//! failure accounting behind `failed_share`.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use cas_offinder::{cpu, sort_canonical, OffTarget, Query, SearchInput};
use casoff_serve::JobSpec;
use genome::Assembly;

/// (assembly, pattern, mismatch limit).
type SearchKey = (String, Vec<u8>, u16);

/// Expected sites of every guide the run searched, from
/// [`cpu::search_sequential`].
pub struct Oracle {
    sites: HashMap<(SearchKey, Vec<u8>), Vec<OffTarget>>,
}

impl Oracle {
    /// Search every distinct guide of `specs`. Guides sharing an (assembly,
    /// pattern, limit) go through one sequential search with all of them as
    /// queries; each guide's records are the canonically ordered subset
    /// carrying its sequence, which is exactly its single-query result.
    pub fn compute<'s>(
        assemblies: &[Assembly],
        specs: impl IntoIterator<Item = &'s JobSpec>,
    ) -> Oracle {
        let mut groups: BTreeMap<SearchKey, BTreeSet<Vec<u8>>> = BTreeMap::new();
        for spec in specs {
            let key = (
                spec.assembly.clone(),
                spec.pattern.clone(),
                spec.max_mismatches,
            );
            groups.entry(key).or_default().extend(guides(spec).cloned());
        }
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut sites = HashMap::new();
        for (key, guides) in groups {
            let assembly = assemblies
                .iter()
                .find(|a| a.name() == key.0)
                .expect("specs name only synthesized assemblies");
            for guide in &guides {
                sites.insert((key.clone(), guide.clone()), Vec::new());
            }
            // The oracle runs outside the measured window; split the guides
            // over the host's cores so long runs stay within their budget.
            let guides: Vec<Vec<u8>> = guides.into_iter().collect();
            let share = guides.len().div_ceil(threads);
            let records: Vec<OffTarget> = std::thread::scope(|scope| {
                let handles: Vec<_> = guides
                    .chunks(share)
                    .map(|part| {
                        let input = SearchInput {
                            genome: key.0.clone(),
                            pattern: key.1.clone(),
                            queries: part.iter().map(|g| Query::new(g.clone(), key.2)).collect(),
                        };
                        scope.spawn(move || cpu::search_sequential(assembly, &input))
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("the oracle search does not panic"))
                    .collect()
            });
            for record in records {
                sites
                    .get_mut(&(key.clone(), record.query.clone()))
                    .expect("records carry a searched guide")
                    .push(record);
            }
        }
        Oracle { sites }
    }

    /// The records a correct service returns for `spec`: one guide's sites,
    /// or the canonically sorted union over a library's guides. `None` if
    /// the spec was not part of [`Oracle::compute`].
    pub fn expected(&self, spec: &JobSpec) -> Option<Vec<OffTarget>> {
        let key = (
            spec.assembly.clone(),
            spec.pattern.clone(),
            spec.max_mismatches,
        );
        let mut out = Vec::new();
        for guide in guides(spec) {
            out.extend_from_slice(self.sites.get(&(key.clone(), guide.clone()))?);
        }
        if spec.library.is_some() {
            sort_canonical(&mut out);
        }
        Some(out)
    }

    /// Guides with no expected site. Every guide is drawn from a site of
    /// its own assembly, so any count above zero is a generator fault.
    pub fn empty_guides(&self) -> usize {
        self.sites.values().filter(|s| s.is_empty()).count()
    }

    /// Total expected records over all guides.
    pub fn total_sites(&self) -> usize {
        self.sites.values().map(Vec::len).sum()
    }

    /// Mutable access to one guide's records, for tests that plant a
    /// deliberately wrong entry.
    #[cfg(test)]
    fn entry_mut(&mut self, spec: &JobSpec) -> &mut Vec<OffTarget> {
        let key = (
            spec.assembly.clone(),
            spec.pattern.clone(),
            spec.max_mismatches,
        );
        self.sites
            .get_mut(&(key, spec.guide.clone()))
            .expect("searched")
    }
}

fn guides(spec: &JobSpec) -> impl Iterator<Item = &Vec<u8>> {
    spec.library
        .as_deref()
        .unwrap_or(std::slice::from_ref(&spec.guide))
        .iter()
}

/// How one attempted job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Still computing when the run gave up on it.
    Pending,
    /// Load-shed at admission.
    Shed,
    /// Rejected at admission for another reason.
    Rejected(String),
    /// `on_complete` or `wait` returned an error.
    WaitError(String),
    /// Collected records.
    Done(Vec<OffTarget>),
}

/// The verdict on one job after the oracle check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Collected and byte-identical to the oracle.
    Correct,
    /// Collected but different from the oracle.
    Mismatch,
    /// Shed at admission.
    Shed,
    /// Rejected at admission.
    Rejected,
    /// Never collected.
    WaitError,
}

/// Check `outcome` of `spec` against the oracle.
pub fn verdict(oracle: &Oracle, spec: &JobSpec, outcome: &Outcome) -> Verdict {
    match outcome {
        Outcome::Shed => Verdict::Shed,
        Outcome::Rejected(_) => Verdict::Rejected,
        Outcome::Pending | Outcome::WaitError(_) => Verdict::WaitError,
        Outcome::Done(records) => match oracle.expected(spec) {
            Some(expected) if expected == *records => Verdict::Correct,
            _ => Verdict::Mismatch,
        },
    }
}

/// Failure accounting over a set of attempted jobs. Nothing is retried:
/// every shed, rejection, wait error and mismatch counts once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs collected byte-identical to the oracle.
    pub correct: u64,
    /// Load sheds.
    pub sheds: u64,
    /// Other admission rejections.
    pub rejections: u64,
    /// Jobs never collected.
    pub wait_errors: u64,
    /// Collected results that differ from the oracle.
    pub mismatches: u64,
}

impl Tally {
    /// Count one verdict.
    pub fn add(&mut self, v: Verdict) {
        self.attempted += 1;
        match v {
            Verdict::Correct => self.correct += 1,
            Verdict::Mismatch => self.mismatches += 1,
            Verdict::Shed => self.sheds += 1,
            Verdict::Rejected => self.rejections += 1,
            Verdict::WaitError => self.wait_errors += 1,
        }
    }

    /// Attempted jobs that did not end correct.
    pub fn failed(&self) -> u64 {
        self.sheds + self.rejections + self.wait_errors + self.mismatches
    }

    /// [`Tally::failed`] over [`Tally::attempted`].
    pub fn failed_share(&self) -> f64 {
        crate::stats::ratio(self.failed() as f64, self.attempted as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genome::Chromosome;

    fn toy() -> (Vec<Assembly>, JobSpec, JobSpec) {
        let mut asm = Assembly::new("toy");
        let mut seq = b"TTACGTACGTAGGCCACGTACGTTGGAACGTACCTAGGTT".to_vec();
        seq.extend_from_slice(b"GGACGTACGTAGGCA");
        asm.push(Chromosome::new("chr1", seq));
        let plain = JobSpec::new("toy", b"NNNNNNNNNGG".to_vec(), b"ACGTACGTNNN".to_vec(), 2);
        let library = JobSpec::library(
            "toy",
            b"NNNNNNNNNGG".to_vec(),
            vec![b"ACGTACGTNNN".to_vec(), b"ACGTACCTNNN".to_vec()],
            2,
        );
        (vec![asm], plain, library)
    }

    fn served(assemblies: &[Assembly], spec: &JobSpec) -> Vec<OffTarget> {
        let mut text = format!(
            "{}\n{}\n",
            spec.assembly,
            String::from_utf8_lossy(&spec.pattern)
        );
        for g in guides(spec) {
            text.push_str(&format!(
                "{} {}\n",
                String::from_utf8_lossy(g),
                spec.max_mismatches
            ));
        }
        cpu::search_sequential(&assemblies[0], &SearchInput::parse(&text).unwrap())
    }

    #[test]
    fn grouped_oracle_equals_each_spec_searched_alone() {
        let (assemblies, plain, library) = toy();
        let oracle = Oracle::compute(&assemblies, [&plain, &library]);
        assert_eq!(
            oracle.expected(&plain).unwrap(),
            served(&assemblies, &plain)
        );
        assert_eq!(
            oracle.expected(&library).unwrap(),
            served(&assemblies, &library)
        );
        assert_eq!(oracle.empty_guides(), 0);
    }

    #[test]
    fn a_wrong_oracle_entry_counts_in_failed_share() {
        let (assemblies, plain, library) = toy();
        let mut oracle = Oracle::compute(&assemblies, [&plain, &library]);
        let good = Outcome::Done(served(&assemblies, &plain));
        let mut tally = Tally::default();
        tally.add(verdict(&oracle, &plain, &good));
        assert_eq!((tally.failed(), tally.failed_share()), (0, 0.0));

        // Plant a wrong entry: the correct result must now count as failed.
        oracle
            .entry_mut(&plain)
            .pop()
            .expect("the toy guide has sites");
        tally.add(verdict(&oracle, &plain, &good));
        let lib = Outcome::Done(served(&assemblies, &library));
        tally.add(verdict(&oracle, &library, &lib));
        assert_eq!(tally.mismatches, 2);
        assert_eq!(tally.attempted, 3);
        assert!((tally.failed_share() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn sheds_rejections_and_wait_errors_all_fail() {
        let (assemblies, plain, _) = toy();
        let oracle = Oracle::compute(&assemblies, [&plain]);
        let mut tally = Tally::default();
        for outcome in [
            Outcome::Shed,
            Outcome::Rejected("bad".into()),
            Outcome::WaitError("unknown".into()),
            Outcome::Pending,
        ] {
            tally.add(verdict(&oracle, &plain, &outcome));
        }
        assert_eq!(tally.failed(), 4);
        assert_eq!(tally.failed_share(), 1.0);
    }
}
