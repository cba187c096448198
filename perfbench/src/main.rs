//! `perfbench`: the casoff-serve benchmark.
//!
//! ```text
//! perfbench --workload <scan|library|open_loop> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one seeded workload against `casoff_serve::Service` on the paper
//! pool, checks every collected result against the CPU oracle and prints
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! traced run (`--trace 1`). The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! Every measured run happens in a fresh child process of this binary:
//! calibration rates and the kernel-variant cache are process-wide, so a
//! second service in one process would start warm and hide both `setup_s`
//! and the cold variant compiles. `setup_s` is the median over
//! [`SETUP_PROBES`] setup-only children plus the measuring child.

mod drive;
mod oracle;
mod procfs;
mod replay;
mod report;
mod spans;
mod stats;
mod workload;

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use cas_offinder::Query;
use casoff_serve::Service;
use genome::Assembly;

use crate::drive::Driven;
use crate::oracle::{Oracle, Tally, Verdict};
use crate::replay::ReplayKey;
use crate::report::{Judged, Metric, Setup, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::workload::{JobStream, SiteIndex, Workload, SCAN_WINDOW};

const USAGE: &str =
    "usage: perfbench --workload <scan|library|open_loop> --seed <n> --seconds <s> --trace <0|1>";

/// Setup-only child processes per untraced run.
const SETUP_PROBES: usize = 4;

/// `open_loop` runs whose generator ran later than this at its tail rank
/// are invalid: the offered load was not the scheduled one.
const LATENESS_BOUND_MS: f64 = 25.0;

/// Guide groups the layer replay pushes through each runner.
const REPLAY_GROUPS: usize = 4;

/// End-to-end metrics left out of the result object because they are zero
/// on a healthy run; `failed` over `attempted` carries the same figure.
const REPORT_ONLY: [&str; 1] = ["failed_share"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Bench,
    Setup,
    Run { traced: bool },
}

struct Args {
    /// One workload, or every workload in turn for `--workload all`.
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    role: Role,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flags.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let mut take = |key: &str| {
        flags
            .remove(key)
            .ok_or_else(|| format!("--{key} is required"))
    };
    let name = take("workload")?;
    let workloads = match name.as_str() {
        "all" => Workload::ALL.to_vec(),
        _ => vec![Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?],
    };
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let role = match flags.remove("role").as_deref() {
        None => Role::Bench,
        Some("setup") => Role::Setup,
        Some("run") => Role::Run { traced: trace },
        Some(other) => return Err(format!("unknown role {other:?}")),
    };
    if let Some(key) = flags.keys().next() {
        return Err(format!("unknown flag --{key}"));
    }
    if role != Role::Bench && workloads.len() != 1 {
        return Err("a child process runs exactly one workload".into());
    }
    Ok(Args {
        workloads,
        seed,
        seconds,
        trace,
        role,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.role {
        Role::Bench => args.workloads.iter().try_for_each(|&w| bench(&args, w)),
        Role::Setup => setup_child(args.workloads[0]),
        Role::Run { traced } => run_child(&args, traced),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Child processes.

/// Print one metric in the child-to-parent line protocol.
fn emit(kind: &str, m: &Metric) {
    println!(
        "@metric\t{kind}\t{}\t{}\t{}\t{}",
        m.name, m.value, m.unit, m.note
    );
}

/// Synthesize and start, then stop: one fresh-process `setup_s` sample.
fn setup_child(workload: Workload) -> Result<(), String> {
    let t0 = Instant::now();
    let service = Service::start(workload.config(), workload.synthesize());
    let setup_s = t0.elapsed().as_secs_f64();
    service.shutdown();
    println!("@metric\te2e\tsetup_s\t{setup_s}\ts\t");
    Ok(())
}

fn run_child(args: &Args, traced: bool) -> Result<(), String> {
    let workload = args.workloads[0];
    let measure = Duration::from_secs(args.seconds);
    let mut spans = Spans::new(traced);
    let origin = Instant::now();

    let t0 = Instant::now();
    let assemblies = workload.synthesize();
    let t1 = Instant::now();
    spans.record("setup.synth", t0, t1, None, None);
    let kept = assemblies.clone();
    let config = workload.config();
    let t2 = Instant::now();
    let service = Service::start(config.clone(), assemblies);
    let t3 = Instant::now();
    spans.record("setup.start", t2, t3, None, None);
    let setup = Setup {
        synth: t1 - t0,
        start: t3 - t2,
    };

    let index = SiteIndex::build(workload, &kept);
    let horizon_s = (workload.warmup() + measure).as_secs_f64();
    let digest = workload::input_digest(workload, args.seed, horizon_s, &kept, &index);
    println!(
        "inputs: workload {} seed {} digest {digest:016x} ({})",
        workload.name(),
        args.seed,
        match workload {
            Workload::OpenLoop => "whole schedule".to_string(),
            _ => format!("first {} specs of the stream", workload::DIGEST_PREFIX),
        }
    );
    let driven = match workload {
        Workload::OpenLoop => {
            let arrivals = workload::open_loop_schedule(args.seed, horizon_s, &kept, &index);
            drive::open_loop(&service, &arrivals, workload.warmup(), measure, &mut spans)
        }
        Workload::Scan | Workload::Library => {
            let mut stream = JobStream::new(workload, args.seed, &kept, &index);
            let window = if workload == Workload::Scan {
                SCAN_WINDOW
            } else {
                1
            };
            drive::closed_loop(
                &service,
                &mut stream,
                window,
                workload.warmup(),
                measure,
                &mut spans,
            )
        }
    };
    let peak_rss_mib = procfs::peak_rss_mib();
    service.shutdown();
    let driven = driven?;

    // A warm process compiles nothing: its setup and compiles are hidden.
    let compiles = driven.end.metrics.variants.compiles;
    if compiles == 0 {
        return Err("no kernel variant compiled: the service started in a warm process".into());
    }

    let oracle_start = Instant::now();
    let oracle = Oracle::compute(&kept, driven.jobs.iter().map(|j| &j.spec));
    let verdicts: Vec<Verdict> = driven
        .jobs
        .iter()
        .map(|j| oracle::verdict(&oracle, &j.spec, &j.outcome))
        .collect();
    let mut all = Tally::default();
    verdicts.iter().for_each(|&v| all.add(v));
    println!(
        "oracle: {} jobs checked byte for byte against cpu::search_sequential ({} expected sites, \
         {} guides without a site) in {:.2} s: {} correct, {} mismatches, {} wait errors, {} shed, \
         {} rejected",
        all.attempted,
        oracle.total_sites(),
        oracle.empty_guides(),
        oracle_start.elapsed().as_secs_f64(),
        all.correct,
        all.mismatches,
        all.wait_errors,
        all.sheds,
        all.rejections
    );
    println!(
        "submitted: {} jobs, digest {:016x}",
        driven.jobs.len(),
        workload::specs_digest(driven.jobs.iter().map(|j| &j.spec))
    );

    let mut valid = true;
    if workload == Workload::OpenLoop {
        let lateness: Vec<f64> = driven
            .jobs
            .iter()
            .filter(|j| j.measured)
            .map(|j| j.lateness.as_secs_f64() * 1e3)
            .collect();
        let tail = stats::tail(&lateness).map_or(0.0, |t| t.value);
        let max = lateness.iter().copied().fold(0.0, f64::max);
        valid = tail <= LATENESS_BOUND_MS;
        println!(
            "generator lateness: max {max:.2} ms, tail {tail:.2} ms over {} arrivals (bound {LATENESS_BOUND_MS} ms){}",
            lateness.len(),
            if valid { "" } else { ": RUN INVALID" }
        );
    }

    let judged = Judged {
        driven: &driven,
        verdicts,
    };
    let e2e = report::end_to_end(&judged, setup, workload.latency_limit(), peak_rss_mib);
    let names: Vec<&str> = e2e.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        names, END_TO_END,
        "end-to-end metrics out of step with END_TO_END"
    );
    for m in &e2e {
        emit("e2e", m);
    }

    if traced {
        let (a, b) = (
            &driven.start.metrics.candidates,
            &driven.end.metrics.candidates,
        );
        let hit_rate = stats::ratio(
            (b.hits - a.hits) as f64,
            (b.hits - a.hits + b.misses - a.misses) as f64,
        );
        let keys = replay_keys(&driven, &kept, workload);
        let replay = replay::replay(&config, &keys, hit_rate, &mut spans);
        let layers = report::per_layer(&judged, setup, &replay, workload.guides_per_job());
        let names: Vec<&str> = layers.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names, PER_LAYER,
            "per-layer metrics out of step with PER_LAYER"
        );
        for m in &layers {
            emit("layer", m);
        }
        println!("span self time (name: count, total s, self s):");
        for (name, t) in spans.self_times() {
            println!(
                "  {name:<16} {:>7} {:>10.4} {:>10.4}",
                t.count, t.total_s, t.self_s
            );
        }
        let path = std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name(format!("spans-{}-seed{}.tsv", workload.name(), args.seed));
        std::fs::write(&path, spans.to_tsv(origin)).map_err(|e| e.to_string())?;
        println!("spans written to {}", path.display());
    }

    let tally = judged.tally();
    let correct =
        all.mismatches == 0 && all.wait_errors == 0 && oracle.empty_guides() == 0 && valid;
    println!(
        "@result\t{}\t{}\t{}",
        u8::from(correct),
        tally.attempted,
        tally.failed()
    );
    Ok(())
}

/// The replay's guide groups: the run's distinct specs per (assembly,
/// pattern) in submission order, cut into groups of the observed
/// `jobs_per_batch`, [`REPLAY_GROUPS`] in all and at least one per pair.
fn replay_keys<'a>(
    driven: &Driven,
    assemblies: &'a [Assembly],
    workload: Workload,
) -> Vec<ReplayKey<'a>> {
    let (a, b) = (&driven.start.metrics, &driven.end.metrics);
    let per_batch = stats::ratio(
        (b.coalesced_jobs - a.coalesced_jobs) as f64,
        (b.batches_formed - a.batches_formed) as f64,
    );
    let group = (per_batch.round() as usize).clamp(1, workload.config().max_batch);
    let mut order: Vec<(String, Vec<u8>)> = Vec::new();
    let mut guides: BTreeMap<(String, Vec<u8>), Vec<Query>> = BTreeMap::new();
    let mut seen = HashSet::new();
    for job in &driven.jobs {
        let spec = &job.spec;
        let key = (spec.assembly.clone(), spec.pattern.clone());
        let list = guides.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            Vec::new()
        });
        let batch = spec
            .library
            .as_deref()
            .unwrap_or(std::slice::from_ref(&spec.guide));
        for g in batch {
            if seen.insert(g.clone()) {
                list.push(Query::new(g.clone(), spec.max_mismatches));
            }
        }
    }
    let per_key = (REPLAY_GROUPS / order.len().max(1)).max(1);
    order
        .into_iter()
        .map(|key| {
            let list = &guides[&key];
            ReplayKey {
                assembly: assemblies
                    .iter()
                    .find(|asm| asm.name() == key.0)
                    .expect("specs name synthesized assemblies"),
                groups: list
                    .chunks(group)
                    .take(per_key)
                    .map(<[Query]>::to_vec)
                    .collect(),
                pattern: key.1,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The parent process.

/// What one child reported.
#[derive(Default)]
struct ChildReport {
    info: Vec<String>,
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    correct: bool,
    attempted: u64,
    failed: u64,
}

impl ChildReport {
    fn value(&self, name: &str) -> Option<f64> {
        self.e2e.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

fn spawn_child(
    args: &Args,
    workload: Workload,
    role: &str,
    trace: bool,
) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload.name(),
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
            "--role",
            role,
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {role} child: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {role} child failed ({})", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut report = ChildReport::default();
    let mut got_result = false;
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split('\t').collect();
        match fields[..] {
            ["@metric", kind, name, value, unit, note] => {
                let m = Metric {
                    name: name.to_string(),
                    value: value.parse().map_err(|e| format!("{name}: {e}"))?,
                    unit: unit.to_string(),
                    note: note.to_string(),
                };
                match kind {
                    "e2e" => report.e2e.push(m),
                    _ => report.layers.push(m),
                }
            }
            ["@result", correct, attempted, failed] => {
                got_result = true;
                report.correct = correct == "1";
                report.attempted = attempted.parse().map_err(|e| format!("attempted: {e}"))?;
                report.failed = failed.parse().map_err(|e| format!("failed: {e}"))?;
            }
            _ => report.info.push(line.to_string()),
        }
    }
    if role == "run" && !got_result {
        return Err("the run child printed no result".into());
    }
    Ok(report)
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<40} {:>14.6} {:<7} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() || !stats::valid_metric_name(&m.name) {
            return Err(format!(
                "metric {:?} = {} cannot be reported",
                m.name, m.value
            ));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    ))
}

/// Run and report one workload; the report ends with its result line.
fn bench(args: &Args, workload: Workload) -> Result<(), String> {
    println!(
        "perfbench: workload {} seed {} measuring {} s, trace {} ({} host cores)",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let plain = spawn_child(args, workload, "run", false)?;
    let line = if !args.trace {
        let mut setups = Vec::with_capacity(SETUP_PROBES + 1);
        for _ in 0..SETUP_PROBES {
            let probe = spawn_child(args, workload, "setup", false)?;
            setups.push(
                probe
                    .value("setup_s")
                    .ok_or("the setup child printed no setup_s")?,
            );
        }
        setups.push(
            plain
                .value("setup_s")
                .ok_or("the run child printed no setup_s")?,
        );
        let mut e2e = plain.e2e.clone();
        for m in e2e.iter_mut().filter(|m| m.name == "setup_s") {
            m.value = stats::median(&setups);
            m.note = format!(
                "median of {} fresh processes, range {:.4}..{:.4} s",
                setups.len(),
                setups.iter().copied().fold(f64::INFINITY, f64::min),
                setups.iter().copied().fold(0.0, f64::max)
            );
        }
        plain.info.iter().for_each(|l| println!("{l}"));
        print_table("end-to-end metrics:", &e2e);
        let kept: Vec<Metric> = e2e
            .into_iter()
            .filter(|m| !REPORT_ONLY.contains(&m.name.as_str()))
            .collect();
        result_json(plain.correct, plain.attempted, plain.failed, &kept)?
    } else {
        let traced = spawn_child(args, workload, "run", true)?;
        println!("untraced run:");
        plain.info.iter().for_each(|l| println!("  {l}"));
        println!("traced run:");
        traced.info.iter().for_each(|l| println!("  {l}"));
        print_table("end-to-end metrics (traced run):", &traced.e2e);
        print_table("per-layer metrics (traced run):", &traced.layers);
        println!("tracing overhead (traced - untraced, same seed):");
        for m in &traced.e2e {
            let base = plain.value(&m.name).unwrap_or(f64::NAN);
            println!(
                "  {:<24} {:>+14.6} {} ({base:.6} -> {:.6})",
                m.name,
                m.value - base,
                m.unit,
                m.value
            );
        }
        result_json(
            plain.correct && traced.correct,
            traced.attempted,
            traced.failed,
            &traced.layers,
        )?
    };
    println!("{line}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn the_benchmark_command_line_parses_and_bad_ones_do_not() {
        let a = args("--workload open_loop --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workloads, a.seed, a.seconds, a.trace, a.role),
            (vec![Workload::OpenLoop], 7, 10, true, Role::Bench)
        );
        let all = args("--workload all --seed 1 --seconds 5 --trace 0").unwrap();
        assert_eq!(all.workloads, Workload::ALL);
        for bad in [
            "--workload scan --seed 1 --seconds 5",
            "--workload nope --seed 1 --seconds 5 --trace 0",
            "--workload scan --seed 1 --seconds 5 --trace 2",
            "--workload scan --seed 1 --seconds 5 --trace 0 --x 1",
            "--workload all --seed 1 --seconds 5 --trace 0 --role run",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn the_result_line_is_one_json_object_with_the_four_keys() {
        let m = vec![Metric {
            name: "jobs_per_s".into(),
            value: 41.25,
            unit: "jobs/s".into(),
            note: String::new(),
        }];
        let line = result_json(true, 10, 0, &m).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"jobs_per_s\": {\"value\": 41.25, \"unit\": \"jobs/s\"}}}"
        );
        let bad = vec![Metric {
            name: "x".into(),
            value: f64::NAN,
            unit: "s".into(),
            note: String::new(),
        }];
        assert!(result_json(true, 1, 0, &bad).is_err());
    }

    /// The names `BENCHMARK.json` declares are the names this binary emits.
    #[test]
    fn benchmark_json_declares_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        let section = |key: &str| -> Vec<String> {
            let from = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[from..from + text[from..].find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').unwrap()].to_string())
                .collect()
        };
        let e2e: Vec<&str> = END_TO_END
            .iter()
            .copied()
            .filter(|n| !REPORT_ONLY.contains(n))
            .collect();
        assert_eq!(section("end_to_end"), e2e);
        assert_eq!(section("per_layer"), PER_LAYER);
    }
}
