//! End-to-end and per-layer benchmark of vertical federated training.
//!
//! ```text
//! vfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's data from `--seed`, then times back-to-back
//! calls of `vf2boost_core::train_federated_session` (one process, one
//! training job at a time) for about `--seconds` seconds. Every call is
//! checked: its margins must be bitwise identical to the first call's and
//! within a mean |Δmargin| of 1e-3 of the co-located trainer on the joined
//! data. With `--trace 0` the last stdout line carries the end-to-end
//! metrics (medians over the calls); with `--trace 1` it carries the
//! per-layer metrics of a traced call plus layer probes. The line before it
//! is a record stamped with the shape, the machine and the commit.

mod json;
mod layers;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use vf2_datagen::vertical::VerticalScenario;
use vf2_gbdt::data::Dataset;
use vf2_gbdt::loss::sigmoid;
use vf2_gbdt::metrics::logloss;
use vf2_gbdt::train::Trainer;
use vf2boost_core::config::TrainConfig;
use vf2boost_core::train::{train_federated_session, TrainOutput};
use vf2boost_core::SessionConfig;

use json::Json;
use layers::{median, secs, Metrics, PER_LAYER};
use workload::{Workload, WORKLOADS};

/// End-to-end metrics and their units, as in BENCHMARK.json.
const END_TO_END: &[(&str, &str)] = &[
    ("train_s", "s"),
    ("setup_s", "s"),
    ("wan_mb", "MB"),
    ("peak_rss_mb", "MB"),
    ("train_logloss", "nats"),
];

/// Fewest timed training calls per untraced run, whatever `--seconds` says.
const MIN_CALLS: usize = 3;

/// Trace-ring capacity of the traced run: far above what any workload
/// records, so the ring drops nothing.
const TRACE_CAP: usize = 1 << 24;

/// Mean |Δmargin| allowed against the co-located trainer (the bound of the
/// repository's losslessness tests).
const LOSSLESS_BOUND: f64 = 1e-3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// One checked training call.
struct Call {
    setup_s: f64,
    train_s: f64,
    out: TrainOutput,
}

/// Checks every call's margins against the first call's (bitwise) and the
/// co-located trainer's (mean |Δ| < [`LOSSLESS_BOUND`]).
struct Checker {
    central: Vec<f64>,
    first: Option<Vec<f64>>,
    /// Largest mean |Δmargin| seen against the co-located trainer.
    worst: f64,
}

impl Checker {
    fn check(&mut self, margins: Vec<f64>) -> Result<(), String> {
        if margins.len() != self.central.len() {
            return Err(format!("{} margins for {} rows", margins.len(), self.central.len()));
        }
        let diff = margins.iter().zip(&self.central).map(|(a, b)| (a - b).abs()).sum::<f64>()
            / margins.len() as f64;
        self.worst = self.worst.max(diff);
        if diff.is_nan() || diff >= LOSSLESS_BOUND {
            return Err(format!("mean |margin - co-located margin| = {diff}"));
        }
        match &self.first {
            None => self.first = Some(margins),
            Some(first) => {
                if let Some(i) =
                    (0..margins.len()).find(|&i| margins[i].to_bits() != first[i].to_bits())
                {
                    return Err(format!(
                        "margin {i} is {} but the first call gave {}",
                        margins[i], first[i]
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Runs one training call with a fresh checkpoint directory and checks it.
fn train_once(
    split: &VerticalScenario,
    cfg: &TrainConfig,
    dir: &Path,
    checker: &mut Checker,
) -> Result<Call, String> {
    let session = SessionConfig::new(cfg.seed, dir);
    settle();
    let t0 = Instant::now();
    let res = train_federated_session(&split.hosts, &split.guest, cfg, Some(&session));
    let outer = t0.elapsed();
    let _ = std::fs::remove_dir_all(dir);
    let out = res.map_err(|f| format!("training failed: {f}"))?;
    let setup = outer.saturating_sub(out.report.wall_time);
    let hosts: Vec<&Dataset> = split.hosts.iter().collect();
    checker.check(out.model.predict_margin(&hosts, &split.guest))?;
    Ok(Call { setup_s: secs(setup), train_s: secs(outer) - secs(setup), out })
}

/// Where checkpoints and probe files go: under the build directory, inside
/// the checkout.
fn scratch_dir(w: &Workload) -> PathBuf {
    let root = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    root.join("vfbench-tmp").join(format!("{}-{}", w.name, std::process::id()))
}

fn proc_field(file: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Waits (up to 5 s) until the link and party threads of the previous call
/// have exited, so its teardown does not share the CPU with the next call.
fn settle() {
    let threads = || std::fs::read_dir("/proc/self/task").map_or(1, |d| d.count());
    let t0 = Instant::now();
    while threads() > 1 && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// This process's peak resident set (VmHWM), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let field = proc_field("/proc/self/status", "VmHWM").ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = field.trim_end_matches("kB").trim().parse().map_err(|e| format!("VmHWM: {e}"))?;
    Ok(kb * 1024.0 / 1e6)
}

/// The checked-out commit, read from `.git` when the working directory is
/// a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Shape, machine and commit of a run.
fn stamp(w: &Workload, args: &Args, cfg: &TrainConfig, nproc: usize) -> Json {
    Json::obj()
        .set("record", "vfbench/v1")
        .set("workload", w.name)
        .set("seed", args.seed)
        .set("trace", args.trace)
        .set("key_bits", w.key_bits)
        .set("rows", w.rows)
        .set(
            "features_per_party",
            Json::obj().set("hosts", w.host_features.to_vec()).set("guest", w.guest_features),
        )
        .set("trees", workload::TREES)
        .set("layers", w.layers)
        .set("bins", w.bins)
        .set("workers", cfg.workers)
        .set("nproc", nproc)
        .set("cpu_model", proc_field("/proc/cpuinfo", "model name").unwrap_or_default())
        .set("git_commit", git_commit())
        .set("wan_bandwidth_bytes_per_s", cfg.wan.bandwidth_bytes_per_sec)
        .set("wan_latency_s", secs(cfg.wan.latency))
}

fn call_record(c: &Call) -> Json {
    Json::obj()
        .set("setup_s", c.setup_s)
        .set("train_s", c.train_s)
        .set("wan_mb", c.out.report.total_bytes() as f64 / 1e6)
        .set("leaves", c.out.model.trees.iter().map(|t| t.num_leaves()).collect::<Vec<_>>())
}

struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Metrics,
    record: Json,
}

/// Untraced run: back-to-back calls for the time budget, medians reported.
fn run_untraced(
    args: &Args,
    split: &VerticalScenario,
    cfg: &TrainConfig,
    checker: &mut Checker,
    scratch: &Path,
) -> Result<Outcome, String> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let (mut calls, mut attempted, mut failed) = (Vec::new(), 0usize, 0usize);
    let mut first_call_rss = f64::NAN;
    loop {
        attempted += 1;
        match train_once(split, cfg, &scratch.join(format!("call{attempted}")), checker) {
            Ok(call) => {
                // The process has run one training job of this workload and
                // nothing else; later calls inherit the allocator's retained
                // arenas, so their peak says less about one job.
                if calls.is_empty() {
                    first_call_rss = peak_rss_mb()?;
                }
                calls.push(call);
            }
            Err(e) => {
                eprintln!("vfbench: call {attempted}: {e}");
                failed += 1;
                break;
            }
        }
        let elapsed = start.elapsed();
        if attempted >= MIN_CALLS && elapsed + elapsed / attempted as u32 > budget {
            break;
        }
    }
    if calls.is_empty() {
        return Err("no training call succeeded".into());
    }
    let labels = split.guest.labels().ok_or("guest carries no labels")?;
    let probs: Vec<f64> = checker.first.iter().flatten().map(|&m| sigmoid(m)).collect();
    let med = |f: &dyn Fn(&Call) -> f64| median(calls.iter().map(f).collect());
    let metrics = vec![
        ("train_s", med(&|c| c.train_s)),
        ("setup_s", med(&|c| c.setup_s)),
        ("wan_mb", med(&|c| c.out.report.total_bytes() as f64 / 1e6)),
        ("peak_rss_mb", first_call_rss),
        ("train_logloss", logloss(labels, &probs)),
    ];
    let record = Json::obj().set("calls", calls.iter().map(call_record).collect::<Vec<_>>());
    Ok(Outcome { attempted, failed, metrics, record })
}

/// Traced run: default calls alternating with calls whose trace ring is
/// unbounded (default first and last, so neither kind always runs first),
/// then layer probes. Per-layer numbers come from the first traced call,
/// `trace.overhead` from the medians of both kinds.
fn run_traced(
    args: &Args,
    split: &VerticalScenario,
    cfg: &TrainConfig,
    checker: &mut Checker,
    scratch: &Path,
) -> Result<Outcome, String> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let traced_cfg = TrainConfig { trace_events_cap: TRACE_CAP, ..*cfg };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut probe_metrics = None;
    loop {
        let n = plain.len() + traced.len();
        let dir = scratch.join(format!("call{n}"));
        let step = Instant::now();
        if n % 2 == 0 {
            plain.push(train_once(split, cfg, &dir, checker)?);
        } else {
            traced.push(train_once(split, &traced_cfg, &dir, checker)?);
        }
        if probe_metrics.is_none() && !traced.is_empty() {
            let out = &traced[0].out;
            probe_metrics = Some(layers::probes(cfg, split, out, &scratch.join("probe"))?);
        } else if n >= 2 && n % 2 == 0 && start.elapsed() + 2 * step.elapsed() > budget {
            break;
        }
    }
    let attempted = plain.len() + traced.len();
    let first = &traced[0];
    let report = &first.out.report;
    let mut problems = Vec::new();
    for p in std::iter::once(&report.guest).chain(&report.hosts) {
        if p.trace.dropped() != 0 || p.trace.is_empty() {
            problems.push(format!(
                "{}: trace ring holds {} events and dropped {}",
                p.name,
                p.trace.len(),
                p.trace.dropped()
            ));
        }
    }
    // Retransmissions on these fault-free links are spurious (an ack later
    // than the retransmission timeout); they are reported, not failed.
    let retransmissions = report.link_events().retransmissions;
    if retransmissions != 0 {
        eprintln!("vfbench: traced call: {retransmissions} retransmissions on fault-free links");
    }
    for problem in &problems {
        eprintln!("vfbench: traced call: {problem}");
    }
    let overhead = median(traced.iter().map(|c| c.train_s).collect())
        / median(plain.iter().map(|c| c.train_s).collect());
    let mut metrics = layers::report_metrics(report);
    metrics.extend(probe_metrics.unwrap_or_default());
    metrics.push(("trace.overhead", overhead));
    let parties: Vec<Json> = std::iter::once(&report.guest)
        .chain(&report.hosts)
        .map(|p| layers::party_record(p, report.wall_time))
        .collect();
    let record = Json::obj()
        .set("calls", plain.iter().map(call_record).collect::<Vec<_>>())
        .set("traced_calls", traced.iter().map(call_record).collect::<Vec<_>>())
        .set("parties", parties);
    Ok(Outcome { attempted, failed: usize::from(!problems.is_empty()), metrics, record })
}

/// Orders `metrics` as `spec` lists them, failing if any is missing,
/// repeated or not a finite number.
fn select(metrics: &Metrics, spec: &[(&str, &str)]) -> Result<Json, String> {
    let mut out = Json::obj();
    for &(name, unit) in spec {
        let found: Vec<f64> = metrics.iter().filter(|(n, _)| *n == name).map(|m| m.1).collect();
        match found[..] {
            [v] if v.is_finite() => {
                out = out.set(name, Json::obj().set("value", v).set("unit", unit));
            }
            _ => return Err(format!("metric {name} could not be produced ({found:?})")),
        }
    }
    Ok(out)
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = w.config(nproc);
    let (data, split) = w.inputs(args.seed);
    let central = Trainer::new(w.gbdt()).fit(&data).predict_margin(&data);
    let mut checker = Checker { central, first: None, worst: 0.0 };
    let scratch = scratch_dir(w);
    let outcome = if args.trace {
        run_traced(args, &split, &cfg, &mut checker, &scratch)
    } else {
        run_untraced(args, &split, &cfg, &mut checker, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    if let Some(parent) = scratch.parent() {
        let _ = std::fs::remove_dir(parent); // only if no other run uses it
    }
    let outcome = outcome?;
    let spec = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = select(&outcome.metrics, spec)?;
    let mut record = stamp(w, args, &cfg, nproc).set("colocated_mean_abs_diff", checker.worst);
    if let (Json::Obj(fields), Json::Obj(more)) = (&mut record, outcome.record) {
        fields.extend(more);
    }
    println!("{record}");
    let result = Json::obj()
        .set("correct", outcome.failed == 0)
        .set("attempted", outcome.attempted)
        .set("failed", outcome.failed)
        .set("metrics", metrics);
    println!("{result}");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vfbench: {e}");
            eprintln!("usage: vfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
