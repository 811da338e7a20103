//! `cold_tune`: closed loop, one client, a seeded stream of never-seen
//! expressions, each at its own small shape so each is a new tuning key and
//! a new native artifact. Each expression is requested twice: the first
//! request pays tune, compile, `cc`, trust check and run; the second reuses
//! the decision.

use crate::common::{
    derive_seed, geomean_of_quantiles, median, ms, peak_rss_mb, reset_peak_rss, share, timed,
    SplitMix, Tally,
};
use crate::exprs::{self, Case};
use crate::layers::{self, Samples};
use crate::trace::Tracer;
use crate::{Ctx, Report};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use taco_native::NativeCompiler;
use taco_runtime::{Engine, EngineEvent};
use taco_tensor::gen::Pattern;

/// Expressions per run, at least.
const MIN_EXPRS: usize = 30;
/// The stream cycles through these families in order. SpGEMM comes twice
/// per cycle so that the median second request falls inside one family's
/// cluster (addition) and the 90th percentile inside another's (SpGEMM),
/// not on the gap between two clusters, where it would jump between runs.
const FAMILIES: [&str; 7] = [
    "spgemm", "add", "spmv/csr", "spmv/coo", "spmv/csc", "mttkrp", "spgemm",
];
const PER_ROW: usize = 8;
const MIN_N: usize = 256;
const MAX_N: usize = 768;

/// The seeded expression stream: family `i % 7`; the side length of the
/// `i`-th expression follows a golden-ratio sequence over `MIN_N..=MAX_N`
/// with a seeded start, so every run covers the size range evenly; a
/// (family, size) pair never repeats.
struct Stream {
    seed: u64,
    start: f64,
    used: HashSet<(&'static str, usize)>,
    next: usize,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        Stream {
            seed,
            start: SplitMix::new(derive_seed(seed, 3)).unit(),
            used: HashSet::new(),
            next: 0,
        }
    }

    fn next_case(&mut self) -> Case {
        const PHI: f64 = 0.618_033_988_749_895;
        let family = FAMILIES[self.next % FAMILIES.len()];
        let mut step = self.next as f64;
        let n = loop {
            let n = MIN_N + ((self.start + step * PHI).fract() * (MAX_N - MIN_N) as f64) as usize;
            if self.used.insert((family, n)) {
                break n;
            }
            step += 0.5;
        };
        let seed = derive_seed(self.seed, 1000 + self.next as u64);
        self.next += 1;
        match family {
            "spgemm" => exprs::spgemm(n, PER_ROW * n, Pattern::Uniform, seed, false),
            "add" => exprs::add(n, PER_ROW * n, seed),
            "mttkrp" => exprs::mttkrp([n, 64, 64], PER_ROW * n, 16, seed, false),
            spmv => exprs::spmv(n, PER_ROW * n, &spmv["spmv/".len()..], seed),
        }
    }
}

struct Setup {
    engine: Arc<Engine>,
    stream: Stream,
    cases: Vec<Case>,
}

/// Engine, toolchain probe, and the first cycle of the stream; later
/// expressions are generated between requests.
fn setup(ctx: &Ctx, n: usize) -> Setup {
    ctx.fresh_native_dir(&format!("setup{n}"));
    let engine = Arc::new(ctx.engine());
    layers::warm_probe(&engine);
    let mut stream = Stream::new(ctx.seed);
    let cases = (0..FAMILIES.len()).map(|_| stream.next_case()).collect();
    Setup {
        engine,
        stream,
        cases,
    }
}

/// Native artifacts compiled by `cc`, loaded from the artifact cache, and
/// refused (rejected or unavailable) among `events`.
fn native_events(events: &[EngineEvent]) -> (usize, usize, usize) {
    let (mut built, mut loaded, mut refused) = (0, 0, 0);
    for e in events {
        match e {
            EngineEvent::NativeCompiled {
                compile_nanos: 0, ..
            } => loaded += 1,
            EngineEvent::NativeCompiled { .. } => built += 1,
            EngineEvent::NativeRejected { .. } => refused += 1,
            EngineEvent::Fallback(taco_core::FallbackEvent::NativeUnavailable { .. }) => {
                refused += 1
            }
            _ => {}
        }
    }
    (built, loaded, refused)
}

/// Cold really is cold, checked per expression: each one built at least
/// one native artifact with `cc` (or recorded why it could not go native),
/// loaded none from a cache, was decided on a serial schedule, and had its
/// second request served natively unless native was refused.
#[derive(Default)]
struct ColdAudit {
    /// Events the engine has logged so far, dropped ones included.
    mark: u64,
    expressions: usize,
    built: usize,
    loaded: usize,
    refused: usize,
    compiled_before: u64,
    /// The first failed check, naming its expression.
    violation: Option<String>,
}

impl ColdAudit {
    fn new(engine: &Engine) -> ColdAudit {
        ColdAudit {
            mark: engine.last_events().len() as u64 + engine.dropped_events(),
            compiled_before: engine.native_stats().compiled,
            ..ColdAudit::default()
        }
    }

    /// Books the expression whose requests ran since the last call;
    /// `second_native` says whether its second request ran native code.
    fn expression(&mut self, engine: &Engine, case: &Case, second_native: bool) {
        let events = engine.last_events();
        let total = events.len() as u64 + engine.dropped_events();
        let new = (total - self.mark).min(events.len() as u64) as usize;
        self.mark = total;
        let (built, loaded, refused) = native_events(&events[events.len() - new..]);
        self.expressions += 1;
        self.built += built;
        self.loaded += loaded;
        self.refused += refused;
        let decision = layers::decision(engine, case);
        let problem = if loaded > 0 {
            Some(format!("loaded {loaded} native artifacts from a cache"))
        } else if built + refused == 0 {
            Some("built no native artifact and recorded no refusal".to_string())
        } else if decision.is_none() {
            Some("left no tuning decision".to_string())
        } else if let Some(d) = decision.filter(|d| d.schedule.contains("parallelize")) {
            Some(format!(
                "was decided on a parallel schedule ({})",
                d.schedule
            ))
        } else if !second_native && refused == 0 {
            Some("ran its second request on the interpreter without a recorded refusal".to_string())
        } else {
            None
        };
        if let (Some(p), None) = (problem, &self.violation) {
            self.violation = Some(format!(
                "expression {} ({}, shape {:?}) {p}",
                self.expressions,
                case.family,
                case.operands[0].1.shape()
            ));
        }
    }
}

fn tuned(engine: &Engine, case: &Case) -> Option<taco_tensor::Tensor> {
    engine
        .run_tuned(&case.stmt, case.opts.clone(), &case.inputs())
        .ok()
        .map(|o| o.result)
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut s = None;
    for n in 0..crate::SETUPS {
        drop(s.take());
        let (d, built) = timed(|| setup(ctx, n));
        setup_s.push(d.as_secs_f64());
        s = Some(built);
    }
    let mut s = s.expect("at least one set-up");
    reset_peak_rss();
    let mut audit = ColdAudit::new(&s.engine);
    let done = if ctx.trace {
        traced(ctx, &mut s, &mut audit, &mut report)
    } else {
        measured(ctx, &mut s, &setup_s, &mut audit, &mut report)
    };
    report.invalid = audit.violation.take();
    report.notes.push(format!(
        "cold_tune: {done} expressions, NativeStats.compiled {} ({} by cc, {} from cache), \
         {} refused native, {} tuning searches",
        s.engine.native_stats().compiled - audit.compiled_before,
        audit.built,
        audit.loaded,
        audit.refused,
        s.engine.tuner().tunings()
    ));
    report
}

/// Both requests of one expression as a user makes them: their times when
/// the results are correct, and whether the second ran native code.
fn untraced_pair(
    engine: &Engine,
    case: &Case,
    tally: &mut Tally,
) -> (Option<f64>, Option<f64>, bool) {
    let mut pair = [None, None];
    let mut native_runs = 0;
    for slot in &mut pair {
        native_runs = engine.native_stats().native_runs;
        let (d, out) = timed(|| tuned(engine, case));
        *slot = case.score(tally, out.as_ref()).then_some(ms(d));
    }
    let second_native = engine.native_stats().native_runs > native_runs;
    (pair[0], pair[1], second_native)
}

/// The measured run: the stream for `--seconds` (at least `MIN_EXPRS`
/// expressions), summarised per family. Returns the expression count.
fn measured(
    ctx: &Ctx,
    s: &mut Setup,
    setup_s: &[f64],
    audit: &mut ColdAudit,
    report: &mut Report,
) -> usize {
    // Request times per family: (first requests, second requests).
    let mut by_family: BTreeMap<String, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    let mut ratio = Vec::new();
    let mut busy = 0.0;
    let started = Instant::now();
    let mut done = 0usize;
    let mut cases = std::mem::take(&mut s.cases).into_iter();
    while started.elapsed() < ctx.deadline() || done < MIN_EXPRS {
        let case = cases.next().unwrap_or_else(|| s.stream.next_case());
        let times = by_family.entry(case.family.clone()).or_default();
        let (first, second, second_native) = untraced_pair(&s.engine, &case, &mut report.tally);
        audit.expression(&s.engine, &case, second_native);
        times.0.extend(first);
        times.1.extend(second);
        if let (Some(d2), "spgemm") = (second, case.family.as_str()) {
            let h = case.hand.time().expect("SpGEMM has a hand kernel");
            ratio.push(share(d2, ms(h)));
        }
        busy += first.unwrap_or(0.0) + second.unwrap_or(0.0);
        done += 1;
    }
    for (family, (f, w)) in &by_family {
        report.notes.push(format!(
            "  {family:<10} first p50 {:8.3} ms, second p50 {:8.3} ms (n={})",
            median(f),
            median(w),
            w.len()
        ));
    }
    // Families differ in cost by orders of magnitude, so each summary is
    // the geometric mean over families of the per-family figure.
    let firsts = by_family.values().map(|(f, _)| f);
    let seconds = || by_family.values().map(|(_, w)| w);
    let completions = report.tally.ok as usize;
    let e = &mut report.e2e;
    e.put("setup_s", median(setup_s), "s", setup_s.len());
    e.put(
        "latency_p50_ms",
        geomean_of_quantiles(seconds(), 0.5),
        "ms",
        done,
    );
    e.put(
        "latency_p90_ms",
        geomean_of_quantiles(seconds(), 0.9),
        "ms",
        done,
    );
    e.put(
        "first_result_p50_ms",
        geomean_of_quantiles(firsts, 0.5),
        "ms",
        done,
    );
    e.put(
        "throughput_rps",
        completions as f64 / (busy / 1e3),
        "1/s",
        completions,
    );
    e.put(
        "ok_share",
        share(report.tally.ok as f64, report.tally.attempted as f64),
        "fraction",
        report.tally.attempted as usize,
    );
    e.put("hand_ratio", median(&ratio), "x", ratio.len());
    e.put("peak_rss_mb", peak_rss_mb(), "MB", 1);
    done
}

/// The traced run. Expressions alternate between untraced (the reference
/// for tracing overhead, measured in the same stretch of time so drift in
/// machine speed cancels) and traced: the first request timed whole (the
/// search is not decomposable from outside), the second decomposed into
/// the warm path's public calls; then a replay of the chosen kernel's
/// compile passes with a cold `cc`, its trust check on a fresh engine, an
/// interpreter run, the hand kernel, and one request through a one-worker
/// server. Returns the expression count.
fn traced(ctx: &Ctx, s: &mut Setup, audit: &mut ColdAudit, report: &mut Report) -> usize {
    let tracer = Tracer::new(true);
    let samples: &mut Samples = &mut report.samples;
    let engine = &s.engine;
    let engine_cc = NativeCompiler::from_env().expect("C compiler for native loads");
    let mut replay = layers::Replay::new(ctx);
    let server = taco_serve::Server::builder()
        .engine(Arc::clone(engine))
        .workers(1)
        .default_policy(crate::serve::pinned_policy(
            taco_serve::TenantPolicy::permissive(),
        ))
        .build();
    // Second-request times per family: (untraced, traced).
    let mut second: BTreeMap<String, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    let started = Instant::now();
    let mut id = 0u64;
    let mut last_end = Instant::now();
    let mut cases = std::mem::take(&mut s.cases).into_iter();
    while started.elapsed() < ctx.deadline() || id < 4 * FAMILIES.len() as u64 {
        let case = cases.next().unwrap_or_else(|| s.stream.next_case());
        if id.is_multiple_of(4) {
            let (_, d2, second_native) = untraced_pair(engine, &case, &mut report.tally);
            audit.expression(engine, &case, second_native);
            second.entry(case.family.clone()).or_default().0.extend(d2);
            id += 2;
            last_end = Instant::now();
            continue;
        }
        samples.push("bench.generator_lag_ms", ms(last_end.elapsed()));
        let out1 = tracer.span("request", id, || {
            tracer.span("runtime.run_tuned_cold", id, || tuned(engine, &case))
        });
        if !case.score(&mut report.tally, out1.as_ref()) {
            audit.expression(engine, &case, false);
            id += 2;
            last_end = Instant::now();
            continue;
        }
        let chosen = layers::tune_lookup(
            &tracer,
            samples,
            engine,
            &case.stmt,
            &case.opts,
            &case.inputs(),
            id,
        )
        .expect("the first request recorded a decision");
        let kernel = engine
            .compile(&chosen.stmt, chosen.opts.clone())
            .expect("chosen kernel is cached");
        let native = layers::load_native(&engine_cc, &kernel);
        audit.expression(engine, &case, native.is_some());
        let operands = layers::converted(&chosen, &case);
        let (d2, out2) = timed(|| {
            tracer.span("request", id + 1, || {
                let c = layers::tune_lookup(
                    &tracer,
                    samples,
                    engine,
                    &case.stmt,
                    &case.opts,
                    &case.inputs(),
                    id + 1,
                )
                .expect("decision is remembered");
                layers::warm_request(
                    &tracer,
                    samples,
                    engine,
                    &c,
                    native.as_ref(),
                    &operands,
                    id + 1,
                )
            })
        });
        if case.score(&mut report.tally, Some(&out2)) {
            second
                .entry(case.family.clone())
                .or_default()
                .1
                .push(ms(d2));
        }
        let inputs: Vec<(&str, &taco_tensor::Tensor)> =
            operands.iter().map(|(n, t)| (n.as_str(), &**t)).collect();
        replay.run(&tracer, samples, &chosen, &kernel, &inputs, id);
        if let Some(h) = tracer.span("kernels.hand", id, || case.hand.time()) {
            samples.push("kernels.hand_ms", ms(h));
        }
        samples.push("kernels.madds", case.madds as f64);
        let request = taco_serve::Request::new(
            "probe",
            chosen.stmt.clone(),
            chosen.opts.clone(),
            operands.clone(),
            Duration::from_secs(60),
        );
        for served in layers::serve_probe(&tracer, samples, &server, &request, 1, id) {
            case.score(&mut report.tally, served.result());
        }
        id += 2;
        last_end = Instant::now();
    }
    server.drain();
    let untraced_p50 = geomean_of_quantiles(second.values().map(|(u, _)| u), 0.5);
    let traced_p50 = geomean_of_quantiles(second.values().map(|(_, t)| t), 0.5);
    samples.push(
        "bench.trace_overhead_share",
        share(traced_p50 - untraced_p50, untraced_p50),
    );
    samples.push(
        "bench.unattributed_share",
        tracer.unattributed_share("request"),
    );
    layers::tune_counts(engine, samples);
    layers::engine_stats(engine, samples);
    report.spans = Some(tracer.to_json(&ctx.stamp));
    (id / 2) as usize
}
