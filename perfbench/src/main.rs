//! End-to-end and per-layer benchmark of the taco-workspaces serving stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload spgemm_warm --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each exists):
//! `spgemm_warm` (closed loop, warm tuned SpGEMM against the hand kernel),
//! `cold_tune` (closed loop, never-seen expressions: tune, compile, `cc`),
//! `serve_mixed` (open loop, three tenants through the serving daemon).
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a traced run, and
//! the spans are written to `.bench_build/perfbench/`. Every result is
//! checked against an independent reference; a mismatch makes the exit
//! code nonzero.

mod cold;
mod common;
mod exprs;
mod layers;
mod serve;
mod trace;
mod warm;

use common::{median, quantile, Metrics, Tally};
use layers::Samples;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use taco_core::{ResourceBudget, VerifyMode};
use taco_native::NativeCompiler;
use taco_runtime::{Backend, Engine};

/// Set-ups per run; `setup_s` is their median, and the first-request
/// metrics of `spgemm_warm` and `serve_mixed` draw one sample per set-up.
pub const SETUPS: usize = 7;

/// Default open-loop arrival rate of `serve_mixed`, requests per second:
/// about 18 % of the capacity `--capacity` measures on a 2-vCPU machine
/// (see `perfbench/README.md` for why not more).
const SERVE_RATE: f64 = 300.0;

/// Parsed command line and the run's pinned settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker and kernel thread count; never above `available_parallelism`.
    pub threads: usize,
    /// Open-loop arrival rate of `serve_mixed`, requests per second.
    pub rate: f64,
    /// `serve_mixed` only: measure the closed-loop capacity the arrival
    /// rate is chosen from, instead of running the open loop.
    pub capacity: bool,
    /// Working directory of this run (native artifacts, compiler temp
    /// files); removed at exit.
    pub run_dir: PathBuf,
    /// Traced runs only: a compiler whose artifact directory is private to
    /// the compile-pass replay, so every replayed `cc` is cold.
    pub replay_cc: Option<NativeCompiler>,
    /// Settings and provenance of the run, as a JSON object.
    pub stamp: String,
}

impl Ctx {
    pub fn deadline(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Points the native artifact cache at a fresh directory, so no earlier
    /// run or set-up can turn a compile into a load.
    /// Must run while the process has no other threads.
    pub fn fresh_native_dir(&self, name: &str) -> PathBuf {
        let dir = self.run_dir.join(format!("native-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("native artifact directory is creatable");
        std::env::set_var("TACO_NATIVE_CACHE", &dir);
        dir
    }

    /// An engine with every setting that changes what is measured pinned:
    /// native backend, warn-mode verification (the release default, which
    /// still gates native code on zero deny findings), unlimited budget, an
    /// event log large enough to keep every event of a run.
    pub fn engine(&self) -> Engine {
        Engine::builder()
            .backend(Backend::Native)
            .verify(VerifyMode::Warn)
            .budget(ResourceBudget::unlimited())
            .max_events(1 << 16)
            .build()
    }
}

/// What a workload run hands back for printing.
#[derive(Default)]
pub struct Report {
    pub tally: Tally,
    pub e2e: Metrics,
    pub samples: Samples,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// A benchmark-validity failure (not a program failure), e.g. a
    /// compile that was served from an artifact cache.
    pub invalid: Option<String>,
    /// Traced runs: the spans as a JSON document.
    pub spans: Option<String>,
}

/// The per-layer metrics of `BENCHMARK.json`, in order, with units.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("runtime.tune_lookup_us", "us"),
    ("runtime.tune_candidates", "count"),
    ("runtime.tune_pruned", "count"),
    ("runtime.tune_viable_share", "fraction"),
    ("ir.concretize_us", "us"),
    ("lower.lower_us", "us"),
    ("verify.verify_us", "us"),
    ("verify.cost_us", "us"),
    ("llir.specialize_us", "us"),
    ("llir.emit_us", "us"),
    ("llir.c_bytes", "bytes"),
    ("native.cc_ms", "ms"),
    ("native.dlopen_us", "us"),
    ("runtime.trust_check_ms", "ms"),
    ("core.bind_ms", "ms"),
    ("native.kernel_ms", "ms"),
    ("llir.interp_kernel_ms", "ms"),
    ("core.extract_ms", "ms"),
    ("kernels.hand_ms", "ms"),
    ("kernels.madds", "count"),
    ("runtime.cache_hit_share", "fraction"),
    ("runtime.native_fallbacks", "count"),
    ("serve.admit_us", "us"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p90_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.shed_share", "fraction"),
    ("serve.degraded_share", "fraction"),
    ("serve.native_share", "fraction"),
    ("bench.generator_lag_ms", "ms"),
    ("bench.unattributed_share", "fraction"),
    ("bench.trace_overhead_share", "fraction"),
    ("bench.stage_coverage_share", "fraction"),
];

/// Folds the traced run's samples into the per-layer metrics: queue-wait
/// percentiles, per-request shares as means (`serve.shed` → `shed_share`),
/// everything else as a median.
fn layer_metrics(samples: &Samples) -> Metrics {
    let mut out = Metrics::default();
    for &(name, unit) in LAYER_METRICS {
        let (values, value) = match name {
            "serve.queue_wait_p50_ms" => {
                let v = samples.get("serve.queue_wait_ms");
                (v, quantile(v, 0.5))
            }
            "serve.queue_wait_p90_ms" => {
                let v = samples.get("serve.queue_wait_ms");
                (v, quantile(v, 0.9))
            }
            "serve.shed_share" | "serve.degraded_share" | "serve.native_share" => {
                let v = samples.get(name.trim_end_matches("_share"));
                (v, common::share(v.iter().sum(), v.len() as f64))
            }
            _ => {
                let v = samples.get(name);
                (v, median(v))
            }
        };
        out.put(name, value, unit, values.len());
    }
    out
}

/// The command line, checked.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: Option<usize>,
    rate: f64,
    capacity: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let (mut threads, mut rate, mut capacity) = (None, SERVE_RATE, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--threads" => threads = Some(value()?.parse().map_err(|e| format!("--threads: {e}"))?),
            "--serve-rate" => rate = value()?.parse().map_err(|e| format!("--serve-rate: {e}"))?,
            "--capacity" => capacity = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    if !(rate.is_finite() && rate > 0.0) {
        return Err(format!("--serve-rate {rate} is not a rate"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        threads,
        rate,
        capacity,
    })
}

fn cc_version() -> String {
    std::process::Command::new("cc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unavailable".to_string())
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn run() -> Result<(Report, Ctx), String> {
    let Args {
        workload,
        seed,
        seconds,
        trace,
        threads,
        rate,
        capacity,
    } = parse_args()?;
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = match threads {
        Some(t) if t > avail || t == 0 => {
            return Err(format!(
                "--threads {t} is outside 1..={avail} (available_parallelism)"
            ))
        }
        Some(t) => t,
        None => avail.min(2),
    };
    if !["spgemm_warm", "cold_tune", "serve_mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }

    // Pin every environment knob the program reads, before any thread
    // exists: thread count, budget, backend, compiler; temporary files stay
    // inside the checkout.
    let run_dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_build/perfbench")
        .join(format!("run-{workload}-{seed}-{}", std::process::id()));
    let tmp = run_dir.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);
    std::env::set_var("TACO_THREADS", threads.to_string());
    std::env::set_var("CC", "cc");
    std::env::remove_var("TACO_BUDGET_BYTES");
    std::env::remove_var("TACO_BACKEND");

    let cc = cc_version();
    let stamp = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"threads\": {threads}, \"available_parallelism\": {avail}, \"cc\": {}, \
         \"commit\": {}, \"serve_rate\": {rate}, \"setups\": {SETUPS}}}",
        json_str(&workload),
        json_str(&cc),
        json_str(&git_commit()),
    );
    println!("stamp {stamp}");

    let mut ctx = Ctx {
        workload,
        seed,
        seconds,
        trace,
        threads,
        rate,
        capacity,
        run_dir,
        replay_cc: None,
        stamp,
    };
    if trace {
        let dir = ctx.fresh_native_dir("replay");
        ctx.replay_cc = Some(
            NativeCompiler::from_env()
                .map_err(|e| format!("C compiler for the compile replay: {e}"))?,
        );
        println!("compile replay artifacts in {}", dir.display());
    }
    let report = match ctx.workload.as_str() {
        "spgemm_warm" => warm::run(&ctx),
        "cold_tune" => cold::run(&ctx),
        _ => serve::run(&ctx),
    };
    Ok((report, ctx))
}

fn main() -> ExitCode {
    let (mut report, ctx) = match run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let metrics = if ctx.trace {
        layer_metrics(&report.samples)
    } else {
        std::mem::take(&mut report.e2e)
    };
    if ctx.trace {
        let out = ctx
            .run_dir
            .parent()
            .expect("run directory has a parent")
            .join(format!("spans-{}-seed{}.json", ctx.workload, ctx.seed));
        if let Some(doc) = &report.spans {
            match std::fs::write(&out, doc) {
                Ok(()) => println!("spans written to {}", out.display()),
                Err(e) => eprintln!("perfbench: writing {}: {e}", out.display()),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&ctx.run_dir);

    for note in &report.notes {
        println!("{note}");
    }
    let t = report.tally;
    println!(
        "requests: attempted {} ok {} failed {} shed {} aborted {} late {} wrong {}",
        t.attempted, t.ok, t.failed, t.shed, t.aborted, t.late, t.wrong
    );
    for m in &metrics.0 {
        println!(
            "  {:<30} {:>14.6} {:<8} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    if let Some(m) = metrics.0.iter().find(|m| !m.value.is_finite()) {
        report
            .invalid
            .get_or_insert(format!("{} is not a number", m.name));
    }
    if let Some(why) = &report.invalid {
        println!("invalid run: {why}");
    }
    let correct = t.wrong == 0 && report.invalid.is_none() && t.attempted > 0;
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted.max(1),
        t.not_ok(),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
