//! `spgemm_warm`: closed loop, one client, repeated `Engine::run_tuned` on
//! power-law CSR SpGEMM at n = 4096, rotating over a few seeded operand
//! pairs of one shape and density. One tuning decision (made in set-up) and
//! one trusted native kernel serve every measured request, so the time is
//! tune lookup, bind, native kernel and extract; the hand kernel runs on the
//! same operands right before every request and sets the ceiling.

use crate::common::{
    derive_seed, geomean_of_quantiles, median, ms, peak_rss_mb, reset_peak_rss, share, timed, Tally,
};
use crate::exprs::{self, Case};
use crate::layers::{self, Chosen, Samples};
use crate::trace::Tracer;
use crate::{Ctx, Report};
use std::sync::Arc;
use std::time::{Duration, Instant};
use taco_native::NativeCompiler;
use taco_runtime::{Engine, TuneDecision};
use taco_serve::{Request, Server, TenantPolicy};
use taco_tensor::gen::Pattern;

const N: usize = 4096;
const PER_ROW: usize = 8;
const PAIRS: u64 = 9;

struct Setup {
    engine: Arc<Engine>,
    cases: Vec<Case>,
    first_ms: f64,
    tally: Tally,
}

/// Builds the engine and operands, computes the references, and warms the
/// tuner, kernel cache and native trust ledger.
fn setup(ctx: &Ctx, n: usize) -> Setup {
    ctx.fresh_native_dir(&format!("setup{n}"));
    let engine = Arc::new(ctx.engine());
    let cases: Vec<Case> = (0..PAIRS)
        .map(|p| {
            exprs::spgemm(
                N,
                N * PER_ROW,
                Pattern::PowerLaw,
                derive_seed(ctx.seed, 100 + p),
                false,
            )
        })
        .collect();
    // The first request tunes, compiles, builds the native artifact and
    // runs the trust check; every later request (on any pair: one shape,
    // one density) reuses all of it.
    let case = &cases[0];
    let (d, out) = timed(|| engine.run_tuned(&case.stmt, case.opts.clone(), &case.inputs()));
    let mut tally = Tally::default();
    case.score(&mut tally, out.ok().map(|o| o.result).as_ref());
    let first_ms = ms(d);
    Setup {
        engine,
        cases,
        first_ms,
        tally,
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut first_ms = Vec::new();
    let mut s = None;
    for n in 0..crate::SETUPS {
        drop(s.take());
        let (d, built) = timed(|| setup(ctx, n));
        setup_s.push(d.as_secs_f64());
        first_ms.push(built.first_ms);
        report.tally.add(&built.tally);
        s = Some(built);
    }
    let s = s.expect("at least one set-up");
    reset_peak_rss();

    if ctx.trace {
        traced(ctx, &s, &mut report);
        return report;
    }

    // One trusted serial native kernel must serve every request: a
    // parallel decision would run on the interpreter, since native code
    // rejects parallel loops.
    let decision = layers::decision(&s.engine, &s.cases[0]);
    let runs_before = s.engine.native_stats().native_runs;

    // Call times per operand pair, and per request its time over the hand
    // kernel's on the same operands, taken right after it.
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); s.cases.len()];
    let (mut ratio, mut hand) = (Vec::new(), Vec::new());
    let mut busy = 0.0;
    let started = Instant::now();
    let mut i = 0usize;
    // At least 100 requests, so the 90th percentile has ten samples beyond.
    while started.elapsed() < ctx.deadline() || i < 100 {
        let pair = i % s.cases.len();
        let case = &s.cases[pair];
        i += 1;
        let h = ms(case.hand.time().expect("SpGEMM has a hand kernel"));
        hand.push(h);
        if let Some(d) = untraced_request(&s.engine, case, &mut report.tally) {
            lat[pair].push(ms(d));
            busy += d.as_secs_f64();
            ratio.push(ms(d) / h);
        }
    }
    let served = ratio.len();
    let native_runs = s.engine.native_stats().native_runs - runs_before;
    report.invalid = serial_native_check(decision.as_ref(), native_runs, served as u64);
    let hand_p50 = median(&hand);
    let e = &mut report.e2e;
    e.put("setup_s", median(&setup_s), "s", setup_s.len());
    // The operand pairs differ in cost, so each latency figure is the
    // geometric mean over pairs of that pair's quantile (see
    // `geomean_of_quantiles`).
    e.put(
        "latency_p50_ms",
        geomean_of_quantiles(&lat, 0.5),
        "ms",
        served,
    );
    e.put(
        "latency_p90_ms",
        geomean_of_quantiles(&lat, 0.9),
        "ms",
        served,
    );
    e.put(
        "first_result_p50_ms",
        median(&first_ms),
        "ms",
        first_ms.len(),
    );
    // Completions over the time spent in requests, not in hand-kernel runs.
    e.put("throughput_rps", share(served as f64, busy), "1/s", served);
    e.put(
        "ok_share",
        share(report.tally.ok as f64, report.tally.attempted as f64),
        "fraction",
        report.tally.attempted as usize,
    );
    e.put("hand_ratio", median(&ratio), "x", ratio.len());
    e.put("peak_rss_mb", peak_rss_mb(), "MB", 1);
    report.notes.push(format!(
        "spgemm_warm: n={N}, {PER_ROW}/row power-law, {PAIRS} operand pairs, hand p50 {hand_p50:.3} ms over {} runs; \
         pair p50s {:.1?} ms",
        hand.len(),
        lat.iter().map(|l| median(l)).collect::<Vec<_>>()
    ));
    report
        .notes
        .push(decision_note(decision.as_ref(), native_runs, served));
    report
}

/// The schedule and thread count the tuner chose, and how many requests
/// the native kernel served.
fn decision_note(decision: Option<&TuneDecision>, native_runs: u64, requests: usize) -> String {
    match decision {
        Some(d) => format!(
            "decision: {} (threads {:?}, {:?} workspace); native runs {native_runs} for {requests} requests",
            d.schedule, d.threads, d.workspace_kind
        ),
        None => "decision: none recorded".to_string(),
    }
}

/// Why the run does not measure one trusted serial native kernel, if it
/// does not: no decision, a parallel decision, or requests the native
/// kernel did not serve.
pub fn serial_native_check(
    decision: Option<&TuneDecision>,
    native_runs: u64,
    requests: u64,
) -> Option<String> {
    match decision {
        None => Some("the tuner recorded no decision in set-up".to_string()),
        Some(d) if d.schedule.contains("parallelize") => Some(format!(
            "the tuner chose a parallel schedule ({}), which native code cannot serve",
            d.schedule
        )),
        Some(_) if native_runs < requests => Some(format!(
            "only {native_runs} of {requests} requests ran the native kernel"
        )),
        Some(_) => None,
    }
}

/// One request as a user makes it; its time when the result is correct.
fn untraced_request(engine: &Engine, case: &Case, tally: &mut Tally) -> Option<Duration> {
    let (d, out) = timed(|| engine.run_tuned(&case.stmt, case.opts.clone(), &case.inputs()));
    case.score(tally, out.ok().map(|o| o.result).as_ref())
        .then_some(d)
}

/// The traced run: requests alternate between the untraced call (the
/// reference for tracing overhead and stage coverage, measured in the same
/// stretch of time so drift in machine speed cancels) and the same request
/// decomposed into the public calls the warm path makes, each in its
/// layer's span; then replays of the chosen kernel's compile passes, trust
/// check and interpreter run, and a short probe through the serving layer.
fn traced(ctx: &Ctx, s: &Setup, report: &mut Report) {
    let tracer = Tracer::new(true);
    let samples = &mut report.samples;
    let engine = &s.engine;
    let engine_cc = NativeCompiler::from_env().expect("C compiler for native loads");
    let case0 = &s.cases[0];
    let chosen = layers::tune_lookup(
        &tracer,
        samples,
        engine,
        &case0.stmt,
        &case0.opts,
        &case0.inputs(),
        0,
    )
    .expect("set-up tuned the statement");
    let kernel = engine
        .compile(&chosen.stmt, chosen.opts.clone())
        .expect("chosen kernel compiles");
    let native = layers::load_native(&engine_cc, &kernel);
    let decision = layers::decision(engine, case0);
    let runs_before = engine.native_stats().native_runs;

    let started = Instant::now();
    let (mut request_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut last_end = Instant::now();
    let mut id = 1u64;
    while started.elapsed() < ctx.deadline() || request_ms.len() < 100 {
        let case = &s.cases[(id as usize / 2) % s.cases.len()];
        if id.is_multiple_of(2) {
            if let Some(d) = untraced_request(engine, case, &mut report.tally) {
                untraced_ms.push(ms(d));
            }
            id += 1;
            last_end = Instant::now();
            continue;
        }
        let begin = Instant::now();
        samples.push("bench.generator_lag_ms", ms(begin - last_end));
        let (d, out) = timed(|| {
            tracer.span("request", id, || {
                let c = layers::tune_lookup(
                    &tracer,
                    samples,
                    engine,
                    &case.stmt,
                    &case.opts,
                    &case.inputs(),
                    id,
                )
                .expect("decision is remembered");
                let operands = layers::converted(&c, case);
                layers::warm_request(&tracer, samples, engine, &c, native.as_ref(), &operands, id)
            })
        });
        request_ms.push(ms(d));
        case.score(&mut report.tally, Some(&out));
        let h = tracer
            .span("kernels.hand", id, || case.hand.time())
            .expect("SpGEMM has a hand kernel");
        samples.push("kernels.hand_ms", ms(h));
        samples.push("kernels.madds", case.madds as f64);
        last_end = Instant::now();
        id += 1;
    }
    let native_runs = engine.native_stats().native_runs - runs_before;
    report.invalid = serial_native_check(decision.as_ref(), native_runs, untraced_ms.len() as u64);
    report.notes.push(decision_note(
        decision.as_ref(),
        native_runs,
        untraced_ms.len(),
    ));
    let untraced_p50 = median(&untraced_ms);
    let traced_p50 = median(&request_ms);
    samples.push(
        "bench.trace_overhead_share",
        share(traced_p50 - untraced_p50, untraced_p50),
    );
    samples.push(
        "bench.unattributed_share",
        tracer.unattributed_share("request"),
    );
    let stages: f64 = [
        "runtime.tune_lookup_us",
        "core.bind_ms",
        "native.kernel_ms",
        "core.extract_ms",
    ]
    .iter()
    .map(|n| median(samples.get(n)) / if n.ends_with("_us") { 1e3 } else { 1.0 })
    .sum();
    samples.push("bench.stage_coverage_share", share(stages, untraced_p50));

    replay(
        ctx,
        &tracer,
        samples,
        &mut report.tally,
        engine,
        &chosen,
        case0,
        id,
    );

    layers::engine_stats(engine, samples);
    layers::tune_counts(engine, samples);
    report.notes.push(format!(
        "traced: untraced p50 {untraced_p50:.3} ms, traced p50 {traced_p50:.3} ms, stages cover {:.1}% of the untraced p50",
        100.0 * share(stages, untraced_p50)
    ));
    report.spans = Some(tracer.to_json(&ctx.stamp));
}

/// Replays of the chosen kernel outside the request path (compile passes
/// with a cold `cc`, an interpreter run, the trust check on a fresh engine)
/// and a few requests through a one-worker server on the same engine.
#[allow(clippy::too_many_arguments)]
fn replay(
    ctx: &Ctx,
    tracer: &Tracer,
    samples: &mut Samples,
    tally: &mut Tally,
    engine: &Arc<Engine>,
    chosen: &Chosen,
    case: &Case,
    first_id: u64,
) {
    let operands = layers::converted(chosen, case);
    let inputs: Vec<(&str, &taco_tensor::Tensor)> =
        operands.iter().map(|(n, t)| (n.as_str(), &**t)).collect();
    let kernel = engine
        .compile(&chosen.stmt, chosen.opts.clone())
        .expect("chosen kernel compiles");
    layers::Replay::new(ctx).run(tracer, samples, chosen, &kernel, &inputs, first_id);

    let server = Server::builder()
        .engine(Arc::clone(engine))
        .workers(1)
        .default_policy(crate::serve::pinned_policy(TenantPolicy::permissive()))
        .build();
    let request = Request::new(
        "probe",
        chosen.stmt.clone(),
        chosen.opts.clone(),
        operands.clone(),
        Duration::from_secs(60),
    );
    for served in layers::serve_probe(tracer, samples, &server, &request, 8, first_id + 10) {
        case.score(tally, served.result());
    }
    server.drain();
}
