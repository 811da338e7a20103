//! `serve_mixed`: open loop. One generator thread sends seeded Poisson
//! arrivals at a fixed rate to a server with two workers; three tenants
//! send different requests:
//!
//! * `interactive`: SpMV over csr/coo/csc/dcsr at n = 4096, tight deadline,
//!   high priority;
//! * `batch`: power-law SpGEMM at n = 2048 and MTTKRP with a dense output,
//!   loose deadline, low priority;
//! * `capped`: SpGEMM under a byte budget below its dense row workspace, so
//!   it completes on the hash-workspace rung of the degrade ladder.
//!
//! Kernel shapes come from this fixed set, so every compile happens in
//! set-up. Latency runs from the moment a request was due to the moment its
//! outcome arrived, so a stalled generator or server shows.
//!
//! The mix and the deadlines follow stated rules rather than guessed
//! constants. A calibration on the idle server after set-up measures each
//! class's latency; every class then gets an equal share of worker time
//! (its share of arrivals is proportional to the inverse of its idle median
//! latency), and its deadline is a fixed multiple of its idle 90th
//! percentile: tight for `interactive`, loose for `batch`.

use crate::common::{
    derive_seed, geomean_of_quantiles, median, ms, peak_rss_mb, quantile, reset_peak_rss, share,
    timed, SplitMix, Tally,
};
use crate::exprs::{self, Case};
use crate::layers::{self, Chosen, Samples};
use crate::trace::Tracer;
use crate::{Ctx, Report};
use std::sync::Arc;
use std::time::{Duration, Instant};
use taco_core::{AbortReason, ResourceBudget, VerifyMode};
use taco_llir::WorkspaceKind;
use taco_native::NativeCompiler;
use taco_runtime::{Backend, Engine};
use taco_serve::{Outcome, Priority, Request, Server, TenantPolicy, Ticket};
use taco_tensor::gen::Pattern;

const SPMV_N: usize = 4096;
const GEMM_N: usize = 2048;
const PER_ROW: usize = 8;
/// Batch SpGEMM entries per operand row. A power-law n = 2048 product at 4
/// per row runs in tens of milliseconds, so a batch request holding a worker
/// delays interactive requests without dominating the whole mix.
const BATCH_PER_ROW: usize = 4;
/// Three quarters of the dense row workspace of the n = 2048 SpGEMM (8
/// bytes a column). The cap bounds every single allocation, result buffers
/// included, so the capped operands are sparse enough (`CAPPED_NNZ` entries
/// each) that the result fits under it.
const CAP_BYTES: u64 = 6 * GEMM_N as u64;
const CAPPED_NNZ: usize = 1024;
/// Deadline of each tenant's requests as a multiple of the class's idle
/// 90th-percentile latency.
const INTERACTIVE_SLACK: f64 = 10.0;
const CAPPED_SLACK: f64 = 20.0;
const BATCH_SLACK: f64 = 50.0;
/// Idle requests per class in the calibration.
const CALIBRATION_REQUESTS: usize = 60;
/// Set-up requests pay compile, `cc` and the trust check, so they get a
/// deadline no compile misses.
const WARMUP_DEADLINE: Duration = Duration::from_secs(60);

/// A tenant policy with the settings that change what is measured pinned:
/// native backend and warn-mode verification. The budget is the caller's.
pub fn pinned_policy(policy: TenantPolicy) -> TenantPolicy {
    policy
        .with_backend(Backend::Native)
        .with_verify(VerifyMode::Warn)
}

/// One request class of the mix.
struct Class {
    tenant: &'static str,
    case: Case,
    priority: Priority,
    /// Deadline over the idle 90th-percentile latency.
    slack: f64,
    /// Set by the calibration: the deadline, and the share of arrivals.
    deadline: Duration,
    weight: f64,
    /// The kernel that serves the class once warm (the capped class runs
    /// the hash-workspace rung).
    workspace: WorkspaceKind,
}

impl Class {
    fn request(&self, deadline: Duration) -> Request {
        Request::new(
            self.tenant,
            self.case.stmt.clone(),
            self.case.opts.clone(),
            self.case.operands.clone(),
            deadline,
        )
        .with_priority(self.priority)
    }
}

fn class(tenant: &'static str, case: Case, priority: Priority, slack: f64) -> Class {
    Class {
        tenant,
        case,
        priority,
        slack,
        deadline: WARMUP_DEADLINE,
        weight: 1.0,
        workspace: WorkspaceKind::Dense,
    }
}

fn classes(seed: u64) -> Vec<Class> {
    let mut out = Vec::new();
    for (n, fmt) in ["csr", "coo", "csc", "dcsr"].into_iter().enumerate() {
        let case = exprs::spmv(
            SPMV_N,
            SPMV_N * PER_ROW,
            fmt,
            derive_seed(seed, 200 + n as u64),
        );
        out.push(class(
            "interactive",
            case,
            Priority::High,
            INTERACTIVE_SLACK,
        ));
    }
    let gemm = exprs::spgemm(
        GEMM_N,
        GEMM_N * BATCH_PER_ROW,
        Pattern::PowerLaw,
        derive_seed(seed, 210),
        true,
    );
    out.push(class("batch", gemm, Priority::Low, BATCH_SLACK));
    let mttkrp = exprs::mttkrp(
        [1024, 128, 128],
        64 * 1024,
        16,
        derive_seed(seed, 211),
        true,
    );
    out.push(class("batch", mttkrp, Priority::Low, BATCH_SLACK));
    let capped = exprs::spgemm(
        GEMM_N,
        CAPPED_NNZ,
        Pattern::Uniform,
        derive_seed(seed, 212),
        true,
    );
    out.push(Class {
        workspace: WorkspaceKind::Hash,
        ..class("capped", capped, Priority::Normal, CAPPED_SLACK)
    });
    out
}

struct Setup {
    server: Server,
    classes: Vec<Class>,
    /// First-request time of each class (compile, `cc`, trust check).
    first_ms: Vec<f64>,
    tally: Tally,
}

fn setup(ctx: &Ctx, n: usize) -> Setup {
    ctx.fresh_native_dir(&format!("setup{n}"));
    let engine = Arc::new(ctx.engine());
    let unlimited = ResourceBudget::unlimited();
    let server = Server::builder()
        .engine(engine)
        .workers(ctx.threads)
        .queue_capacity(256)
        .tenant(
            "interactive",
            pinned_policy(TenantPolicy::permissive().with_budget(unlimited)),
        )
        .tenant(
            "batch",
            pinned_policy(TenantPolicy::permissive().with_budget(unlimited)),
        )
        .tenant(
            "capped",
            pinned_policy(
                TenantPolicy::permissive()
                    .with_budget(ResourceBudget::unlimited().with_max_workspace_bytes(CAP_BYTES)),
            ),
        )
        .build();
    let classes = classes(ctx.seed);
    // Warm every class: the first request compiles, builds the native
    // artifact and runs the trust check; the second runs trusted.
    let mut tally = Tally::default();
    let mut first_ms = Vec::new();
    for class in &classes {
        for round in 0..2 {
            let (d, outcome) = timed(|| call(&server, class));
            if round == 0 {
                first_ms.push(ms(d));
            }
            class.case.score(&mut tally, outcome.result());
        }
    }
    Setup {
        server,
        classes,
        first_ms,
        tally,
    }
}

impl Setup {
    /// Draws a request class by weight.
    fn pick(&self, rng: &mut SplitMix) -> usize {
        let total: f64 = self.classes.iter().map(|c| c.weight).sum();
        let mut left = rng.unit() * total;
        self.classes
            .iter()
            .position(|c| {
                left -= c.weight;
                left < 0.0
            })
            .unwrap_or(self.classes.len() - 1)
    }
}

/// Sends one request of `class` with a deadline no compile misses and waits
/// for its outcome; a refused request becomes a failed outcome.
fn call(server: &Server, class: &Class) -> Outcome {
    match server.submit(class.request(WARMUP_DEADLINE)) {
        Ok(t) => t.wait(),
        Err(e) => Outcome::Failed {
            message: e.to_string(),
        },
    }
}

/// An admitted request waiting for its outcome.
struct Pending {
    ticket: Ticket,
    class: usize,
    id: u64,
    due: Instant,
    sent: Instant,
    admit: Duration,
}

/// What the open loop measured.
#[derive(Default)]
struct Loop {
    tally: Tally,
    /// Due-to-outcome latency of every answered request, per class.
    latency_ms: Vec<Vec<f64>>,
    /// Answered requests past their deadline, per class.
    late: Vec<u64>,
    lag_ms: Vec<f64>,
    window_s: f64,
}

/// Books an outcome: correct and within deadline, late, wrong, aborted or
/// failed.
fn settle(
    s: &Setup,
    p: Pending,
    outcome: Outcome,
    out: &mut Loop,
    tracer: &Tracer,
    samples: &mut Samples,
) {
    let now = Instant::now();
    let latency = now - p.due;
    let class = &s.classes[p.class];
    out.latency_ms[p.class].push(ms(latency));
    if tracer.enabled() {
        layers::note_served(samples, p.admit, &outcome, now - p.sent);
        let root = tracer.record("request", p.id, p.due, latency, None);
        tracer.record("bench.generator_lag", p.id, p.due, p.sent - p.due, root);
        tracer.record("serve.submit", p.id, p.sent, p.admit, root);
        if let Outcome::Completed {
            queue_wait, report, ..
        } = &outcome
        {
            let queued = p.sent + p.admit;
            tracer.record("serve.queue", p.id, queued, *queue_wait, root);
            tracer.record(
                "serve.run",
                p.id,
                queued + *queue_wait,
                report.elapsed,
                root,
            );
        }
    }
    match outcome {
        Outcome::Completed { result, .. } => {
            if !class.case.check(&result) {
                out.tally.wrong += 1;
            } else if latency > class.deadline {
                out.tally.late += 1;
                out.late[p.class] += 1;
            } else {
                out.tally.ok += 1;
            }
        }
        Outcome::Aborted {
            reason: AbortReason::DeadlineExceeded { .. },
            ..
        } => {
            out.tally.late += 1;
            out.late[p.class] += 1;
        }
        Outcome::Aborted { .. } => out.tally.aborted += 1,
        _ => out.tally.failed += 1,
    }
}

/// Runs the open loop for `window`: Poisson arrivals at `ctx.rate`, the
/// class drawn by weight, outcomes collected between arrivals.
fn open_loop(
    ctx: &Ctx,
    s: &Setup,
    window: Duration,
    stream: u64,
    tracer: &Tracer,
    samples: &mut Samples,
) -> Loop {
    let mut rng = SplitMix::new(derive_seed(ctx.seed, stream));
    let mut out = Loop {
        latency_ms: vec![Vec::new(); s.classes.len()],
        late: vec![0; s.classes.len()],
        ..Loop::default()
    };
    let mut pending: Vec<Pending> = Vec::new();
    let start = Instant::now();
    let end = start + window;
    let mut due = start;
    let mut id = stream << 32;
    let poll = |pending: &mut Vec<Pending>, out: &mut Loop, samples: &mut Samples, block: bool| {
        let mut i = 0;
        while i < pending.len() {
            let got = if block {
                Some(
                    pending[i]
                        .ticket
                        .wait_timeout(Duration::from_secs(120))
                        .unwrap_or(Outcome::Failed {
                            message: "no outcome within 120 s".into(),
                        }),
                )
            } else {
                pending[i].ticket.wait_timeout(Duration::ZERO)
            };
            match got {
                Some(outcome) => {
                    let p = pending.swap_remove(i);
                    settle(s, p, outcome, out, tracer, samples);
                }
                None => i += 1,
            }
        }
    };
    while due < end {
        let now = Instant::now();
        if now < due {
            poll(&mut pending, &mut out, samples, false);
            let left = due.saturating_duration_since(Instant::now());
            std::thread::sleep(left.min(Duration::from_micros(250)));
            continue;
        }
        let class = s.pick(&mut rng);
        out.tally.attempted += 1;
        out.lag_ms.push(ms(now - due));
        let sent = Instant::now();
        let submitted = tracer.span("serve.submit", id, || {
            s.server
                .submit(s.classes[class].request(s.classes[class].deadline))
        });
        let admit = sent.elapsed();
        if tracer.enabled() {
            samples.push("serve.shed", f64::from(u8::from(submitted.is_err())));
        }
        match submitted {
            Ok(ticket) => pending.push(Pending {
                ticket,
                class,
                id,
                due,
                sent,
                admit,
            }),
            Err(_) => out.tally.shed += 1,
        }
        id += 1;
        // Exponential inter-arrival gap at the configured rate.
        let gap = -(1.0 - rng.unit()).ln() / ctx.rate;
        due += Duration::from_secs_f64(gap);
    }
    out.window_s = window.as_secs_f64();
    poll(&mut pending, &mut out, samples, true);
    out
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut first_ms: Vec<Vec<f64>> = Vec::new();
    let mut s: Option<Setup> = None;
    for n in 0..crate::SETUPS {
        if let Some(old) = s.take() {
            old.server.drain();
        }
        let (d, built) = timed(|| setup(ctx, n));
        setup_s.push(d.as_secs_f64());
        first_ms.resize(built.first_ms.len(), Vec::new());
        for (class, t) in built.first_ms.iter().enumerate() {
            first_ms[class].push(*t);
        }
        report.tally.add(&built.tally);
        s = Some(built);
    }
    let mut s = s.expect("at least one set-up");
    report.notes.push(format!(
        "first requests per class, median over set-ups: {:.1?} ms",
        first_ms.iter().map(|f| median(f)).collect::<Vec<_>>()
    ));
    let ratios = calibrate(&mut s, &mut report);
    reset_peak_rss();
    if ctx.capacity {
        return capacity(ctx, &s, report);
    }

    if ctx.trace {
        traced(ctx, &s, &mut report);
        s.server.drain();
        return report;
    }

    let off = Tracer::new(false);
    let mut unused = Samples::default();
    let measured = open_loop(ctx, &s, ctx.deadline(), 1, &off, &mut unused);
    report.tally.add(&measured.tally);
    let t = &measured.tally;
    // Classes differ in cost by orders of magnitude, so each summary is the
    // geometric mean over classes of the per-class figure (see
    // `geomean_of_quantiles`).
    let answered: usize = measured.latency_ms.iter().map(Vec::len).sum();
    let e = &mut report.e2e;
    e.put("setup_s", median(&setup_s), "s", setup_s.len());
    e.put(
        "latency_p50_ms",
        geomean_of_quantiles(&measured.latency_ms, 0.5),
        "ms",
        answered,
    );
    e.put(
        "latency_p90_ms",
        geomean_of_quantiles(&measured.latency_ms, 0.9),
        "ms",
        answered,
    );
    e.put(
        "first_result_p50_ms",
        geomean_of_quantiles(&first_ms, 0.5),
        "ms",
        first_ms.iter().map(Vec::len).sum(),
    );
    e.put(
        "throughput_rps",
        t.ok as f64 / measured.window_s,
        "1/s",
        t.ok as usize,
    );
    e.put(
        "ok_share",
        share(t.ok as f64, t.attempted as f64),
        "fraction",
        t.attempted as usize,
    );
    e.put(
        "hand_ratio",
        geomean_of_quantiles(&ratios, 0.5),
        "x",
        ratios.iter().map(Vec::len).sum(),
    );
    e.put("peak_rss_mb", peak_rss_mb(), "MB", 1);
    for (n, class) in s.classes.iter().enumerate() {
        report.notes.push(format!(
            "  {:<11} {:<9} answered {:5}, late {:4}, p50 {:8.3} ms, p90 {:8.3} ms",
            class.tenant,
            class.case.family,
            measured.latency_ms[n].len(),
            measured.late[n],
            median(&measured.latency_ms[n]),
            quantile(&measured.latency_ms[n], 0.9)
        ));
    }
    let stats = s.server.stats();
    report.notes.push(format!(
        "serve_mixed: rate {} req/s, {} workers; arrivals {} ok {} late {} shed {} aborted {} failed {} wrong {}; \
         server degraded {} native {} cache hits {}",
        ctx.rate,
        ctx.threads,
        t.attempted,
        t.ok,
        t.late,
        t.shed,
        t.aborted,
        t.failed,
        t.wrong,
        stats.totals.degraded,
        stats.totals.native_runs,
        stats.totals.cache_hits
    ));

    s.server.drain();
    report
}

/// The traced run: half of `--seconds` on the untraced open loop (the
/// reference for tracing overhead), half on the same loop with spans taken
/// from outcomes; then per request class a replay of its kernel through the
/// layer calls.
fn traced(ctx: &Ctx, s: &Setup, report: &mut Report) {
    let off = Tracer::new(false);
    let tracer = Tracer::new(true);
    let samples = &mut report.samples;
    let untraced = open_loop(ctx, s, ctx.deadline() / 2, 1, &off, &mut Samples::default());
    report.tally.add(&untraced.tally);
    let untraced_p50 = geomean_of_quantiles(&untraced.latency_ms, 0.5);
    let measured = open_loop(ctx, s, ctx.deadline() / 2, 2, &tracer, samples);
    report.tally.add(&measured.tally);
    for lag in &measured.lag_ms {
        samples.push("bench.generator_lag_ms", *lag);
    }
    let traced_p50 = geomean_of_quantiles(&measured.latency_ms, 0.5);
    samples.push(
        "bench.trace_overhead_share",
        share(traced_p50 - untraced_p50, untraced_p50),
    );
    samples.push(
        "bench.unattributed_share",
        tracer.unattributed_share("request"),
    );

    let engine: &Arc<Engine> = s.server.engine();
    let engine_cc = NativeCompiler::from_env().expect("C compiler for native loads");
    let mut replay = layers::Replay::new(ctx);
    for (n, class) in s.classes.iter().enumerate() {
        let id = 1 << 40 | n as u64;
        let case = &class.case;
        let inputs = case.inputs();
        let _ = layers::tune_lookup(
            &tracer, samples, engine, &case.stmt, &case.opts, &inputs, id,
        );
        let chosen = Chosen {
            stmt: case.stmt.clone(),
            opts: case.opts.clone().with_workspace_kind(class.workspace),
            conversions: Vec::new(),
        };
        let Ok(kernel) = engine.compile(&chosen.stmt, chosen.opts.clone()) else {
            continue;
        };
        let native = layers::load_native(&engine_cc, &kernel);
        replay.run(&tracer, samples, &chosen, &kernel, &inputs, id);
        for _ in 0..3 {
            let got = tracer.span("request", id, || {
                layers::warm_request(
                    &tracer,
                    samples,
                    engine,
                    &chosen,
                    native.as_ref(),
                    &case.operands,
                    id,
                )
            });
            case.score(&mut report.tally, Some(&got));
        }
        if let Some(h) = tracer.span("kernels.hand", id, || case.hand.time()) {
            samples.push("kernels.hand_ms", ms(h));
        }
        samples.push("kernels.madds", case.madds as f64);
    }
    layers::tune_counts(engine, samples);
    layers::engine_stats(engine, samples);
    report.spans = Some(tracer.to_json(&ctx.stamp));
}

/// Calibration on the idle server, after set-up and before any
/// measurement: for each class, alternating pairs of one request (submit to
/// outcome, through admission, queue, ladder and native dispatch) and one
/// hand-kernel run on the same operands, where the class has one.
/// Alternating cancels drift in machine speed. Sets each class's deadline
/// (its slack times its idle 90th percentile) and share of arrivals (equal
/// worker time: inversely proportional to its idle median), and returns the
/// per-class request-over-hand ratios.
fn calibrate(s: &mut Setup, report: &mut Report) -> Vec<Vec<f64>> {
    let mut ratios = Vec::new();
    for class in &mut s.classes {
        let (mut idle, mut ratio) = (Vec::new(), Vec::new());
        for _ in 0..CALIBRATION_REQUESTS {
            let (d, outcome) = timed(|| call(&s.server, class));
            if class.case.score(&mut report.tally, outcome.result()) {
                idle.push(ms(d));
                if let Some(h) = class.case.hand.time() {
                    ratio.push(share(ms(d), ms(h)));
                }
            }
        }
        let (p50, p90) = (median(&idle), quantile(&idle, 0.9));
        class.deadline = Duration::from_secs_f64(class.slack * p90 / 1e3);
        class.weight = share(1.0, p50);
        report.notes.push(format!(
            "  {:<11} {:<9} idle p50 {p50:8.3} ms, p90 {p90:8.3} ms, over hand {:.2}",
            class.tenant,
            class.case.family,
            median(&ratio)
        ));
        if !ratio.is_empty() {
            ratios.push(ratio);
        }
    }
    let total: f64 = s.classes.iter().map(|c| c.weight).sum();
    for class in &mut s.classes {
        class.weight = share(class.weight, total);
        report.notes.push(format!(
            "  {:<11} {:<9} share {:.3}, deadline {:.2} ms",
            class.tenant,
            class.case.family,
            class.weight,
            ms(class.deadline)
        ));
    }
    ratios
}

/// Capacity probe: the same mix in a closed loop that keeps twice as many
/// requests outstanding as there are workers, with deadlines no request
/// misses. Completions per second are the capacity the open-loop rate is
/// set against.
fn capacity(ctx: &Ctx, s: &Setup, mut report: Report) -> Report {
    let mut rng = SplitMix::new(derive_seed(ctx.seed, 9));
    let mut pending: std::collections::VecDeque<(usize, Ticket)> = Default::default();
    let started = Instant::now();
    let mut completed = 0u64;
    while started.elapsed() < ctx.deadline() {
        while pending.len() < 2 * ctx.threads {
            let class = s.pick(&mut rng);
            let ticket = s
                .server
                .submit(s.classes[class].request(WARMUP_DEADLINE))
                .expect("capacity probe is admitted");
            pending.push_back((class, ticket));
        }
        let (class, ticket) = pending.pop_front().expect("requests are outstanding");
        if s.classes[class]
            .case
            .score(&mut report.tally, ticket.wait().result())
        {
            completed += 1;
        }
    }
    let rps = completed as f64 / started.elapsed().as_secs_f64();
    report.notes.push(format!(
        "serve_mixed capacity: {rps:.1} req/s with {} workers; 70% is {:.0}",
        ctx.threads,
        0.7 * rps
    ));
    report
        .e2e
        .put("capacity_rps", rps, "1/s", completed as usize);
    for (_, t) in pending {
        let _ = t.wait();
    }
    s.server.drain();
    report
}
