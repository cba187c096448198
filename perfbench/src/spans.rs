//! In-memory spans recorded around the benchmark's own calls into each
//! layer, written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Start instant.
    pub start: Instant,
    /// End instant.
    pub end: Instant,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Job the span belongs to, where there is one.
    pub job: Option<u64>,
}

/// Per-name totals: how often a span ran, its summed duration, and its
/// summed self time (duration minus the part its children cover).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans of this name.
    pub count: u64,
    /// Summed durations, seconds.
    pub total_s: f64,
    /// Summed self time, seconds.
    pub self_s: f64,
}

/// A span journal that records only while tracing is on.
pub struct Spans {
    on: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A journal that records iff `on`.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Record a span; returns its index when recording.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        job: Option<u64>,
    ) -> Option<usize> {
        self.on.then(|| {
            self.spans.push(Span {
                name,
                start,
                end,
                parent,
                job,
            });
            self.spans.len() - 1
        })
    }

    /// Close a span recorded open (with `end == start`).
    pub fn close(&mut self, index: Option<usize>, end: Instant) {
        if let Some(i) = index {
            self.spans[i].end = end;
        }
    }

    /// Totals and self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end.saturating_duration_since(s.start).as_secs_f64();
            // Union of the children's intervals, clipped to the parent.
            let mut cover: Vec<(Instant, Instant)> = children[i]
                .iter()
                .map(|&c| {
                    (
                        self.spans[c].start.max(s.start),
                        self.spans[c].end.min(s.end),
                    )
                })
                .filter(|(a, b)| a < b)
                .collect();
            cover.sort();
            let mut covered = 0.0;
            let mut reach: Option<Instant> = None;
            for (a, b) in cover {
                let from = reach.map_or(a, |r| r.max(a));
                if b > from {
                    covered += (b - from).as_secs_f64();
                }
                reach = Some(reach.map_or(b, |r| r.max(b)));
            }
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += total;
            t.self_s += (total - covered).max(0.0);
        }
        out
    }

    /// The journal as tab-separated rows (index, name, start and end in µs
    /// after `base`, parent index, job id), one span per line.
    pub fn to_tsv(&self, base: Instant) -> String {
        let mut out = String::from("index\tname\tstart_us\tend_us\tparent\tjob\n");
        let us = |t: Instant| t.saturating_duration_since(base).as_secs_f64() * 1e6;
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{:.1}\t{:.1}\t{}\t{}",
                s.name,
                us(s.start),
                us(s.end),
                opt(s.parent.map(|p| p as u64)),
                opt(s.job)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let t0 = Instant::now();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let mut spans = Spans::new(true);
        let job = spans.record("job", ms(0), ms(0), None, Some(1));
        spans.close(job, ms(100));
        spans.record("submit", ms(0), ms(10), job, Some(1));
        spans.record("collect", ms(5), ms(20), job, Some(1));
        // A child running past its parent only covers the overlap.
        spans.record("collect", ms(95), ms(130), job, Some(1));
        let totals = spans.self_times();
        let j = totals["job"];
        assert_eq!(j.count, 1);
        assert!((j.total_s - 0.100).abs() < 1e-9);
        assert!((j.self_s - 0.075).abs() < 1e-9, "{}", j.self_s);
        assert_eq!(totals["collect"].count, 2);
    }

    #[test]
    fn a_journal_that_is_off_records_nothing() {
        let mut spans = Spans::new(false);
        let t = Instant::now();
        assert_eq!(spans.record("job", t, t, None, None), None);
        assert!(spans.self_times().is_empty());
    }
}
