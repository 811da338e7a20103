//! Per-layer replays for the traced run.
//!
//! Each function here drives one request's work through the public calls of
//! the layer that does it, inside a span named after that layer, so the
//! traced run can say where a request's time goes without any tracing in the
//! program itself. The warm path ([`warm_request`]) is the same sequence of
//! calls `Engine::run_tuned` makes for a remembered decision: tune lookup,
//! kernel-cache hit, bind, native kernel, extract.

use crate::common::{ms, us, SplitMix};
use crate::exprs::Case;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use taco_core::candidates::{enumerate_candidates, ScheduleCandidate};
use taco_core::{CompiledKernel, IndexStmt};
use taco_llir::{emit_native, Executable};
use taco_lower::LowerOptions;
use taco_native::{NativeCompiler, NativeKernel, NativeRunOptions};
use taco_runtime::{Engine, EngineEvent, TuneDecision, TuneKey};
use taco_serve::{Outcome, Request, Server};
use taco_tensor::Tensor;

/// Samples per per-layer metric name.
#[derive(Debug, Default)]
pub struct Samples(pub BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

/// The kernel a request actually ran: the statement compiled and the
/// options it was compiled with.
pub struct Chosen {
    pub stmt: IndexStmt,
    pub opts: LowerOptions,
    pub conversions: Vec<(String, taco_tensor::Format)>,
}

/// Tune lookup exactly as the remembered-decision path does it: the key,
/// the decision, and the candidate it names. `None` when no decision exists
/// for the statement (the lookup is still timed).
pub fn tune_lookup(
    tracer: &Tracer,
    samples: &mut Samples,
    engine: &Engine,
    stmt: &IndexStmt,
    opts: &LowerOptions,
    inputs: &[(&str, &Tensor)],
    request: u64,
) -> Option<Chosen> {
    let start = Instant::now();
    let found = tracer.span("runtime.tune_lookup", request, || {
        let key = TuneKey::new(stmt, inputs);
        let decision = engine.tuner().decision(&key);
        let cands = enumerate_candidates(stmt);
        let name = decision.as_ref().map(|d| d.schedule.clone());
        let cand: Option<ScheduleCandidate> =
            name.and_then(|n| cands.into_iter().find(|c| c.name == n));
        decision.zip(cand)
    });
    samples.push("runtime.tune_lookup_us", us(start.elapsed()));
    let (decision, cand) = found?;
    let mut opts = opts.clone().with_workspace_kind(cand.workspace_kind);
    if let Some(t) = decision.threads {
        opts = opts.with_threads(t);
    }
    Some(Chosen {
        stmt: cand.stmt,
        opts,
        conversions: cand.conversions,
    })
}

/// The tuner's remembered decision for a case's statement and operands.
pub fn decision(engine: &Engine, case: &Case) -> Option<TuneDecision> {
    engine
        .tuner()
        .decision(&TuneKey::new(&case.stmt, &case.inputs()))
}

/// Operands converted as the chosen candidate requires.
pub fn converted(chosen: &Chosen, case: &Case) -> Vec<(String, Arc<Tensor>)> {
    case.operands
        .iter()
        .map(
            |(n, t)| match chosen.conversions.iter().find(|(cn, _)| cn == n) {
                Some((_, f)) if t.format() != f => (
                    n.clone(),
                    Arc::new(t.convert(f.clone()).expect("candidate conversion applies")),
                ),
                _ => (n.clone(), Arc::clone(t)),
            },
        )
        .collect()
}

/// The warm request path after the tune lookup: kernel-cache hit, bind,
/// kernel (native when `native` is given, the interpreter otherwise),
/// extract. Returns the result.
#[allow(clippy::too_many_arguments)]
pub fn warm_request(
    tracer: &Tracer,
    samples: &mut Samples,
    engine: &Engine,
    chosen: &Chosen,
    native: Option<&NativeKernel>,
    operands: &[(String, Arc<Tensor>)],
    request: u64,
) -> Tensor {
    let inputs: Vec<(&str, &Tensor)> = operands.iter().map(|(n, t)| (n.as_str(), &**t)).collect();
    let kernel = tracer.span("runtime.cache_lookup", request, || {
        engine
            .compile(&chosen.stmt, chosen.opts.clone())
            .expect("warm kernel is cached")
    });
    let (d, binding) = crate::common::timed(|| {
        tracer.span("core.bind", request, || {
            kernel.bind(&inputs, None).expect("operands bind")
        })
    });
    samples.push("core.bind_ms", ms(d));
    let mut binding = binding;
    match native {
        Some(nk) => {
            let (d, run) = crate::common::timed(|| {
                tracer.span("native.kernel", request, || {
                    nk.run(&mut binding, &kernel.budget(), NativeRunOptions::default())
                })
            });
            run.expect("native kernel runs");
            samples.push("native.kernel_ms", ms(d));
        }
        None => {
            let (d, run) = crate::common::timed(|| {
                tracer.span("llir.interp_kernel", request, || {
                    kernel.run_bound(&mut binding)
                })
            });
            run.expect("interpreted kernel runs");
            samples.push("llir.interp_kernel_ms", ms(d));
        }
    }
    let (d, result) = crate::common::timed(|| {
        tracer.span("core.extract", request, || {
            kernel.extract(&binding, None).expect("result extracts")
        })
    });
    samples.push("core.extract_ms", ms(d));
    result
}

/// True when the engine would serve this kernel natively: it passed the
/// static verifier and the emitter accepts it.
pub fn native_eligible(kernel: &CompiledKernel) -> bool {
    kernel.verify_report().is_some_and(|r| r.denies() == 0)
        && emit_native(kernel.executable()).is_ok()
}

/// Loads the native form of a kernel through `compiler` (a hit in the
/// engine's artifact cache, so a load rather than a compile).
pub fn load_native(compiler: &NativeCompiler, kernel: &CompiledKernel) -> Option<NativeKernel> {
    if !native_eligible(kernel) {
        return None;
    }
    let source = emit_native(kernel.executable()).ok()?;
    compiler.compile(&source, kernel.fingerprint()).ok()
}

/// One interpreter run of the kernel on a fresh binding.
fn interp_kernel(
    tracer: &Tracer,
    samples: &mut Samples,
    kernel: &CompiledKernel,
    inputs: &[(&str, &Tensor)],
    request: u64,
) {
    let mut binding = kernel.bind(inputs, None).expect("operands bind");
    let (d, run) = crate::common::timed(|| {
        tracer.span("llir.interp_kernel", request, || {
            kernel.run_bound(&mut binding)
        })
    });
    run.expect("interpreted kernel runs");
    samples.push("llir.interp_kernel_ms", ms(d));
}

/// Replays the compile pipeline on the chosen schedule, one public call per
/// pass: concretize, lower, verify, cost, specialize (the interpreter's
/// executable), emit C, then `cc` into the replay artifact directory under
/// a name never used before (a cold compile) and a second load of the same
/// artifact (dlopen alone).
fn compile_passes(
    tracer: &Tracer,
    samples: &mut Samples,
    replay_cc: &NativeCompiler,
    chosen: &Chosen,
    salt: &mut SplitMix,
    request: u64,
) {
    let mut pass = |name, metric, scale: fn(Duration) -> f64, f: &mut dyn FnMut()| {
        let start = Instant::now();
        tracer.span(name, request, f);
        samples.push(metric, scale(start.elapsed()));
    };
    pass("ir.concretize", "ir.concretize_us", us, &mut || {
        let _ = std::hint::black_box(IndexStmt::new(chosen.stmt.source().clone()));
    });
    let mut lowered = None;
    pass("lower.lower", "lower.lower_us", us, &mut || {
        lowered = taco_lower::lower(chosen.stmt.concrete(), &chosen.opts).ok();
    });
    let Some(lk) = lowered else { return };
    pass("verify.verify", "verify.verify_us", us, &mut || {
        std::hint::black_box(taco_verify::verify_lowered(&lk));
    });
    pass("verify.cost", "verify.cost_us", us, &mut || {
        std::hint::black_box(taco_verify::analyze_cost(&lk));
    });
    let mut exe = None;
    pass("llir.specialize", "llir.specialize_us", us, &mut || {
        exe = Executable::compile(&lk.kernel).ok();
    });
    let Some(exe) = exe else { return };
    let mut source = None;
    pass("llir.emit", "llir.emit_us", us, &mut || {
        source = emit_native(&exe).ok()
    });
    let Some(source) = source else { return };
    // A name never used in the replay directory, so `cc` really runs.
    let name = salt.next_u64();
    let mut built = None;
    pass("native.cc", "native.cc_ms", ms, &mut || {
        built = replay_cc.compile(&source, name).ok()
    });
    // Unload before reloading, so the second load maps the object afresh.
    drop(built);
    pass("native.dlopen", "native.dlopen_us", us, &mut || {
        std::hint::black_box(replay_cc.compile(&source, name).ok());
    });
    samples.push("llir.c_bytes", source.c_source.len() as f64);
}

/// The differential trust check as a fresh engine pays it: the first
/// native-engine run of a kernel (interpreter run, native run, comparison)
/// minus a warm run of the same kernel, less any `cc` time the first run
/// spent (the artifact is normally already on disk).
fn trust_check(
    tracer: &Tracer,
    samples: &mut Samples,
    fresh: &Engine,
    chosen: &Chosen,
    inputs: &[(&str, &Tensor)],
    request: u64,
) {
    if fresh.compile(&chosen.stmt, chosen.opts.clone()).is_err() {
        return;
    }
    let before = fresh.last_events().len();
    let first = Instant::now();
    let ok = tracer.span("runtime.trust_check", request, || {
        fresh.run(&chosen.stmt, chosen.opts.clone(), inputs).is_ok()
    });
    let first = first.elapsed();
    let events = fresh.last_events();
    let cc: u64 = events[before.min(events.len())..]
        .iter()
        .map(|e| match e {
            EngineEvent::NativeCompiled { compile_nanos, .. } => *compile_nanos,
            _ => 0,
        })
        .sum();
    let (warm, _) = crate::common::timed(|| fresh.run(&chosen.stmt, chosen.opts.clone(), inputs));
    if ok {
        let check = first
            .saturating_sub(warm)
            .saturating_sub(Duration::from_nanos(cc));
        samples.push("runtime.trust_check_ms", ms(check));
    }
}

/// Sends `count` copies of a request through `server` one at a time and
/// records admission, queue wait, run time and the remainder of each
/// outcome's latency: what the serving layer adds to this kernel.
pub fn serve_probe(
    tracer: &Tracer,
    samples: &mut Samples,
    server: &Server,
    request: &Request,
    count: usize,
    first_id: u64,
) -> Vec<Outcome> {
    let mut out = Vec::with_capacity(count);
    for n in 0..count {
        let id = first_id + n as u64;
        let sent = Instant::now();
        let ticket = tracer.span("serve.submit", id, || server.submit(request.clone()));
        let admit = sent.elapsed();
        samples.push("serve.shed", f64::from(u8::from(ticket.is_err())));
        let outcome = match ticket {
            Ok(t) => t.wait(),
            Err(e) => Outcome::Failed {
                message: e.to_string(),
            },
        };
        let latency = sent.elapsed();
        note_served(samples, admit, &outcome, latency);
        out.push(outcome);
    }
    out
}

/// Books one served request into the serving-layer samples.
pub fn note_served(samples: &mut Samples, admit: Duration, outcome: &Outcome, latency: Duration) {
    samples.push("serve.admit_us", us(admit));
    if let Outcome::Completed {
        queue_wait,
        report,
        rung,
        native,
        ..
    } = outcome
    {
        samples.push("serve.queue_wait_ms", ms(*queue_wait));
        samples.push("serve.run_ms", ms(report.elapsed));
        let rest = latency
            .saturating_sub(admit)
            .saturating_sub(*queue_wait)
            .saturating_sub(report.elapsed);
        samples.push("serve.overhead_ms", ms(rest));
        samples.push(
            "serve.degraded",
            f64::from(u8::from(*rung != taco_core::DegradeRung::AsScheduled)),
        );
        samples.push("serve.native", f64::from(u8::from(*native)));
    }
}

/// Autotune counts from the engine's event log, one sample per search:
/// candidates enumerated, candidates statically pruned, and the share of
/// candidates that were timed to completion.
pub fn tune_counts(engine: &Engine, samples: &mut Samples) {
    for e in engine.last_events() {
        if let EngineEvent::Autotuned {
            candidates,
            pruned,
            viable,
            ..
        } = e
        {
            samples.push("runtime.tune_candidates", candidates as f64);
            samples.push("runtime.tune_pruned", pruned as f64);
            samples.push(
                "runtime.tune_viable_share",
                crate::common::share(viable as f64, candidates as f64),
            );
        }
    }
}

/// Kernel-cache hit share and native fallbacks (rejected or unavailable
/// kernels) from the engine's counters.
pub fn engine_stats(engine: &Engine, samples: &mut Samples) {
    let cache = engine.cache_stats();
    samples.push(
        "runtime.cache_hit_share",
        crate::common::share(cache.hits as f64, (cache.hits + cache.misses) as f64),
    );
    let native = engine.native_stats();
    samples.push(
        "runtime.native_fallbacks",
        (native.unavailable + native.rejected) as f64,
    );
}

/// What a traced run replays outside the request path for each kernel it
/// served: the compile passes with a cold `cc`, one interpreter run, and the
/// trust check on a fresh engine.
pub struct Replay<'a> {
    replay_cc: &'a NativeCompiler,
    fresh: Engine,
    salt: SplitMix,
}

impl<'a> Replay<'a> {
    pub fn new(ctx: &'a crate::Ctx) -> Replay<'a> {
        let fresh = ctx.engine();
        warm_probe(&fresh);
        Replay {
            replay_cc: ctx
                .replay_cc
                .as_ref()
                .expect("traced runs carry a replay compiler"),
            fresh,
            salt: SplitMix::new(crate::common::derive_seed(ctx.seed, 7)),
        }
    }

    /// Replays one kernel inside a `replay` span.
    pub fn run(
        &mut self,
        tracer: &Tracer,
        samples: &mut Samples,
        chosen: &Chosen,
        kernel: &CompiledKernel,
        inputs: &[(&str, &Tensor)],
        request: u64,
    ) {
        tracer.span("replay", request, || {
            compile_passes(
                tracer,
                samples,
                self.replay_cc,
                chosen,
                &mut self.salt,
                request,
            );
            interp_kernel(tracer, samples, kernel, inputs, request);
            trust_check(tracer, samples, &self.fresh, chosen, inputs, request);
        });
    }
}

/// Probes a fresh engine's C compiler with a tiny kernel, so a later
/// trust-check sample does not pay the one-time toolchain probe.
pub fn warm_probe(engine: &Engine) {
    let tiny = crate::exprs::spmv(8, 16, "csr", 1);
    let _ = engine.run(&tiny.stmt, tiny.opts.clone(), &tiny.inputs());
}
