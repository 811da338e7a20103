//! Measures the kernel engine's cold/warm split: what the first request
//! pays (autotune search + compile + run) versus what every later request
//! pays (decision reuse + cache hit + run).
//!
//! ```text
//! cargo run --release -p taco-bench --bin runtime [-- --scale 0.05 --reps 3 --json --verify]
//! ```
//!
//! With `--json`, writes the results to `BENCH_runtime.json` in the working
//! directory (CI asserts this file is produced and parses). Every compile
//! runs the static verifier; `--verify` hardens enforcement to deny so any
//! proven violation fails the bin, and the JSON always carries
//! `verify_nanos` plus the verdict counts.

use std::sync::Arc;
use std::time::{Duration, Instant};
use taco_bench::timing::{fmt_duration, time_once};
use taco_bench::BenchArgs;
use taco_core::{
    enumerate_candidates, CoreError, DegradeRung, IndexStmt, ResourceBudget, Supervisor,
};
use taco_ir::expr::{sum, IndexVar, TensorVar};
use taco_ir::notation::IndexAssignment;
use taco_llir::WorkspaceKind;
use taco_lower::LowerOptions;
use taco_runtime::{Backend, Engine, EngineEvent, VerifyMode};
use taco_serve::{Request, Server, TenantPolicy, Ticket};
use taco_tensor::gen::{random_csr, random_csr_nnz, Pattern};
use taco_tensor::{Format, Tensor};

fn spgemm_unscheduled(n: usize) -> IndexStmt {
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j, k) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
    IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), b.access([i, k.clone()]) * c.access([k, j])),
    ))
    .expect("valid statement")
}

/// The Figure 2 SpGEMM schedule: reorder to linear combinations of rows,
/// precompute into a dense row workspace.
fn spgemm_fig2(n: usize) -> IndexStmt {
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j, k) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
    let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
    let mut s = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), mul.clone()),
    ))
    .expect("valid statement");
    s.reorder(&k, &j).expect("reorders");
    let w = TensorVar::new("w", vec![n], Format::dvec());
    s.precompute(&mul, &[(j.clone(), j.clone(), j.clone())], &w).expect("precomputes");
    s
}

fn main() {
    let args = BenchArgs::from_env();
    // --scale 1.0 is a 1024×1024 SpGEMM; the default smoke scale keeps the
    // whole bin under a second.
    let n = ((1024.0 * args.scale) as usize).clamp(32, 4096);
    let stmt = spgemm_unscheduled(n);
    let opts = LowerOptions::fused("spgemm");
    let b = random_csr(n, n, 0.05, 41).to_tensor();
    let c = random_csr(n, n, 0.05, 42).to_tensor();
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c)];

    let verify_mode =
        if args.verify { VerifyMode::Deny } else { taco_core::default_verify_mode() };
    println!(
        "KERNEL ENGINE: {n}x{n} SpGEMM, density 0.05, no manual schedule, verify {verify_mode}\n"
    );
    let engine = Engine::builder().verify(verify_mode).build();

    // Cold: autotune search (every candidate compiled and timed) + run.
    let (cold, outcome) =
        time_once(|| engine.run_tuned(&stmt, opts.clone(), &inputs).expect("tunes"));
    assert!(outcome.tuned, "first request must run the search");
    let schedule = outcome.schedule.clone();
    // Candidates the search never timed because the cost analyzer proved
    // their peak footprint dominated (read now, before later compiles can
    // age the Autotuned event out of the bounded ring).
    let pruned_candidates: usize = engine
        .last_events()
        .iter()
        .map(|e| match e {
            EngineEvent::Autotuned { pruned, .. } => *pruned,
            _ => 0,
        })
        .sum();

    // Warm: decision reuse + kernel-cache hit + run (best of reps).
    let mut warm = Duration::MAX;
    for _ in 0..args.reps {
        let (d, o) = time_once(|| engine.run_tuned(&stmt, opts.clone(), &inputs).expect("runs"));
        assert!(!o.tuned, "later requests must reuse the decision");
        warm = warm.min(d);
    }

    // Compile-only split, measured on the tuned schedule through a fresh
    // engine so the cold side is a genuine miss.
    let tuned = enumerate_candidates(&stmt)
        .into_iter()
        .find(|cand| cand.name == schedule)
        .expect("tuned schedule is in the candidate space");
    let fresh = Engine::builder().verify(verify_mode).build();
    let (cold_compile, _) = time_once(|| fresh.compile(&tuned.stmt, opts.clone()).expect("compiles"));
    let (warm_compile, kernel) =
        time_once(|| fresh.compile(&tuned.stmt, opts.clone()).expect("compiles"));
    let (run_only, _) = time_once(|| kernel.run(&inputs).expect("runs"));

    // Parallel scaling: the Figure 2 schedule with the outer row loop
    // parallelized, timed at increasing pinned thread counts. threads = 1
    // exercises the executor's serial fallback and is the baseline the
    // speedup column divides by.
    let avail = std::thread::available_parallelism().map_or(1, |t| t.get());
    let par_stmt = {
        let mut s = spgemm_fig2(n);
        s.parallelize(&IndexVar::new("i")).expect("workspace privatizes the reduction");
        s
    };
    let mut thread_counts: Vec<usize> = vec![1, 2, 4, avail];
    thread_counts.sort_unstable();
    thread_counts.dedup();
    let mut scaling: Vec<(usize, Duration)> = Vec::new();
    for &t in &thread_counts {
        let kernel =
            engine.compile(&par_stmt, opts.clone().with_threads(t)).expect("parallel compiles");
        let mut best = Duration::MAX;
        for _ in 0..args.reps.max(1) {
            let (d, _) = time_once(|| kernel.run(&inputs).expect("runs"));
            best = best.min(d);
        }
        scaling.push((t, best));
    }

    // Verifier cost on the tuned kernel, measured standalone (the engine
    // path folds it into compile time), plus the verdict totals the two
    // engines recorded across every fresh compile.
    let (verify_d, tuned_report) = time_once(|| taco_verify::verify_lowered(kernel.lowered()));
    let (mut verified_kernels, mut verify_denies, mut verify_warns) = (0usize, 0usize, 0usize);
    for event in engine.last_events().iter().chain(fresh.last_events().iter()) {
        if let EngineEvent::Verified { denies, warns, .. } = event {
            verified_kernels += 1;
            verify_denies += denies;
            verify_warns += warns;
        }
    }

    // Symbolic cost analysis (DESIGN.md §17): analyzer latency re-measured
    // standalone on the tuned kernel (the compile path folds it in and
    // caches the report), and bound tightness — the proven peak-byte bound
    // evaluated against the real binding, over the budget meter's observed
    // allocation peak from a supervised run. Tightness ≥ 1 is the soundness
    // invariant; how far above 1 is the price of proof.
    let (analysis_d, _) = time_once(|| taco_core::analyze_cost(kernel.lowered()));
    let mut cost_binding = kernel.bind(&inputs, None).expect("binds");
    let static_peak = kernel.static_peak_bytes(&cost_binding);
    let observed_peak = kernel
        .run_bound_supervised(&mut cost_binding, &Supervisor::new())
        .expect("supervised run")
        .progress
        .peak_bytes();
    let bound_tightness = static_peak
        .map(|bound| bound as f64 / observed_peak.max(1) as f64)
        .unwrap_or(f64::NAN);
    assert!(
        static_peak.is_none_or(|bound| bound >= observed_peak),
        "analysis sweep: static bound {static_peak:?} under observed peak {observed_peak}"
    );

    // Workspace storage backends: the Figure 2 schedule timed once per
    // backend on the same operands. Dense is the paper's array workspace;
    // hash and coord-list are the sparse graceful-degradation rungs whose
    // footprint scales with entries touched, not the result dimension.
    let ws_stmt = spgemm_fig2(n);
    let kinds = [WorkspaceKind::Dense, WorkspaceKind::Hash, WorkspaceKind::CoordList];
    let mut kind_nanos: Vec<(WorkspaceKind, Duration)> = Vec::new();
    for kind in kinds {
        let kernel = engine
            .compile(&ws_stmt, opts.clone().with_workspace_kind(kind))
            .expect("workspace backend compiles");
        let mut best = Duration::MAX;
        for _ in 0..args.reps.max(1) {
            let (d, _) = time_once(|| kernel.run(&inputs).expect("runs"));
            best = best.min(d);
        }
        kind_nanos.push((kind, best));
    }

    // Native backend: the Figure 2 schedule compiled to machine code via
    // the system C compiler and raced against the interpreter on the same
    // operands. The first native run pays emit + cc + dlopen + the
    // differential trust check; later runs dispatch straight to the `.so`.
    // Without a toolchain the engine degrades to the interpreter and the
    // section reports `available: false` — the JSON parses either way.
    let native_stmt = spgemm_fig2(n);
    let interp_engine = Engine::builder().verify(verify_mode).backend(Backend::Interp).build();
    let native_engine = Engine::builder().verify(verify_mode).backend(Backend::Native).build();
    let mut interp_best = Duration::MAX;
    for _ in 0..args.reps.max(1) {
        let (d, _) =
            time_once(|| interp_engine.run(&native_stmt, opts.clone(), &inputs).expect("runs"));
        interp_best = interp_best.min(d);
    }
    // First run compiles and differentially validates; it is not timed as a
    // native run because it commits the interpreter's result.
    native_engine.run(&native_stmt, opts.clone(), &inputs).expect("trust-establishing run");
    let mut native_best = Duration::MAX;
    for _ in 0..args.reps.max(1) {
        let (d, _) =
            time_once(|| native_engine.run(&native_stmt, opts.clone(), &inputs).expect("runs"));
        native_best = native_best.min(d);
    }
    let native_stats = native_engine.native_stats();
    let native_available = native_stats.trusted > 0;
    let native_compile_nanos: u64 = native_engine
        .last_events()
        .iter()
        .map(|e| match e {
            EngineEvent::NativeCompiled { compile_nanos, .. } => *compile_nanos,
            _ => 0,
        })
        .sum();

    // Format matrix (DESIGN.md §16): the same SpMV with the sparse operand
    // packed into each level-capability format, timed on the interpreter,
    // plus the blocked BCSR kernel raced native vs interp. Column-major
    // formats reorder the loops to match their level order; the timings
    // isolate what the storage layout alone costs on identical nonzeros.
    let spmv_of = |fmt: &Format| -> IndexStmt {
        let a = TensorVar::new("a", vec![n], Format::dvec());
        let bv = TensorVar::new("B", vec![n, n], fmt.clone());
        let xv = TensorVar::new("x", vec![n], Format::dvec());
        let (i, j) = (IndexVar::new("i"), IndexVar::new("j"));
        let mut s = IndexStmt::new(IndexAssignment::assign(
            a.access([i.clone()]),
            sum(j.clone(), bv.access([i.clone(), j.clone()]) * xv.access([j.clone()])),
        ))
        .expect("valid statement");
        if !fmt.is_identity_order() {
            s.reorder(&i, &j).expect("column-major reorder");
        }
        s
    };
    let x = Tensor::from_entries(
        vec![n],
        Format::dvec(),
        (0..n).map(|c| (vec![c], (c % 7) as f64 + 1.0)).collect(),
    )
    .expect("dense vector");
    let spmv_opts = LowerOptions::fused("spmv_formats");
    let format_list: Vec<(&str, Format)> = vec![
        ("csr", Format::csr()),
        ("dcsr", Format::dcsr()),
        ("coo", Format::coo(2)),
        ("csc", Format::csc()),
        ("dcsc", Format::dcsc()),
    ];
    let mut format_nanos: Vec<(&str, Duration)> = Vec::new();
    for (label, fmt) in &format_list {
        let bf = b.convert(fmt.clone()).expect("format conversion");
        let fmt_inputs: Vec<(&str, &Tensor)> = vec![("B", &bf), ("x", &x)];
        let kernel =
            interp_engine.compile(&spmv_of(fmt), spmv_opts.clone()).expect("format compiles");
        let mut best = Duration::MAX;
        for _ in 0..args.reps.max(1) {
            let (d, _) = time_once(|| kernel.run(&fmt_inputs).expect("runs"));
            best = best.min(d);
        }
        format_nanos.push((label, best));
    }
    // Blocked BCSR SpMV y(i,k) = Σ_{j,l} B(i,j,k,l) x(j,l) over 2×2 tiles.
    let (br, bc) = (2usize, 2usize);
    let bn = n - n % br.max(bc);
    let b_even = random_csr(bn, bn, 0.05, 41).to_tensor();
    let b4 = b_even.to_blocked(br, bc).expect("blocks");
    let x2 = Tensor::from_entries(
        vec![bn / bc, bc],
        Format::dense(2),
        (0..bn).map(|c| (vec![c / bc, c % bc], (c % 7) as f64 + 1.0)).collect(),
    )
    .expect("blocked vector");
    let bcsr_stmt = {
        let y = TensorVar::new("y", vec![bn / br, br], Format::dense(2));
        let bt = TensorVar::new("B", vec![bn / br, bn / bc, br, bc], Format::bcsr());
        let xt = TensorVar::new("x", vec![bn / bc, bc], Format::dense(2));
        let (i, j, k, l) = (
            IndexVar::new("i"),
            IndexVar::new("j"),
            IndexVar::new("k"),
            IndexVar::new("l"),
        );
        IndexStmt::new(IndexAssignment::assign(
            y.access([i.clone(), k.clone()]),
            sum(
                j.clone(),
                sum(
                    l.clone(),
                    bt.access([i.clone(), j.clone(), k.clone(), l.clone()])
                        * xt.access([j, l]),
                ),
            ),
        ))
        .expect("valid statement")
    };
    let bcsr_inputs: Vec<(&str, &Tensor)> = vec![("B", &b4), ("x", &x2)];
    let bcsr_opts = LowerOptions::compute("bspmv");
    let mut bcsr_interp = Duration::MAX;
    for _ in 0..args.reps.max(1) {
        let (d, _) =
            time_once(|| interp_engine.run(&bcsr_stmt, bcsr_opts.clone(), &bcsr_inputs).expect("runs"));
        bcsr_interp = bcsr_interp.min(d);
    }
    // First native run pays the differential trust check; time the later ones.
    native_engine.run(&bcsr_stmt, bcsr_opts.clone(), &bcsr_inputs).expect("trust run");
    let mut bcsr_native = Duration::MAX;
    for _ in 0..args.reps.max(1) {
        let (d, _) =
            time_once(|| native_engine.run(&bcsr_stmt, bcsr_opts.clone(), &bcsr_inputs).expect("runs"));
        bcsr_native = bcsr_native.min(d);
    }

    // Degrade-and-retry ladder under shrinking byte budgets, on operands
    // sparse enough (fixed 256 nnz per 1024-row matrix) that the sparse
    // workspace rungs genuinely fit where the dense one does not. Budgets:
    // unlimited commits on the first rung; one just below the dense
    // workspace's runtime footprint lands on a sparse-workspace rung; one
    // below every rung's working set exhausts the ladder.
    let ln = 1024;
    let lb = random_csr_nnz(ln, ln, 256, Pattern::Uniform, 41).to_tensor();
    let lc = random_csr_nnz(ln, ln, 256, Pattern::Uniform, 42).to_tensor();
    let ladder_inputs: Vec<(&str, &Tensor)> = vec![("B", &lb), ("C", &lc)];
    let ladder_stmt = spgemm_fig2(ln);
    let budgets: Vec<(&str, ResourceBudget)> = vec![
        ("unlimited", ResourceBudget::unlimited()),
        ("15000-byte total", ResourceBudget::unlimited().with_max_total_bytes(15_000)),
        ("2000-byte total", ResourceBudget::unlimited().with_max_total_bytes(2_000)),
    ];
    let mut ladder_rungs: Vec<(String, String, usize)> = Vec::new();
    let mut ladder_exhausted = 0usize;
    let mut ladder_retries = 0usize;
    for (label, budget) in &budgets {
        let sup = Supervisor::new().with_budget(*budget);
        match ladder_stmt.run_supervised(
            LowerOptions::fused("spgemm_ladder"),
            &sup,
            &ladder_inputs,
            None,
        ) {
            Ok(out) => {
                let retries = out
                    .fallbacks
                    .iter()
                    .filter(|f| matches!(f, taco_core::FallbackEvent::DegradedRetry { .. }))
                    .count();
                ladder_retries += retries;
                ladder_rungs.push((label.to_string(), out.rung.to_string(), retries));
            }
            Err(CoreError::Aborted(_)) => {
                ladder_exhausted += 1;
                ladder_retries += DegradeRung::LADDER.len();
                ladder_rungs.push((label.to_string(), "exhausted".to_string(), DegradeRung::LADDER.len()));
            }
            Err(e) => panic!("ladder run failed outside the budget protocol: {e}"),
        }
    }

    // Serving front end: the same Figure 2 schedule pushed through the
    // multi-tenant daemon under deliberate overload — 48 clients on 4
    // workers with a 16-slot queue, one tenant rate-capped so shedding is
    // deterministic. Reported as client-observed (submit-to-outcome)
    // latency percentiles plus shed and warm-kernel coalesce rates.
    const SERVE_CLIENTS: usize = 48;
    const SERVE_WORKERS: usize = 4;
    let serve_stmt = spgemm_fig2(n);
    let sb = Arc::new(b.clone());
    let sc = Arc::new(c.clone());
    let server = Server::builder()
        .workers(SERVE_WORKERS)
        .queue_capacity(16)
        .tenant("metered", TenantPolicy::default().with_rate(0.0, 4))
        .build();
    let mut serve_latencies: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SERVE_CLIENTS)
            .map(|client| {
                let (server, serve_stmt, sb, sc) = (&server, &serve_stmt, &sb, &sc);
                scope.spawn(move || {
                    let tenant = if client % 4 == 3 { "metered" } else { "bulk" };
                    let request = Request::new(
                        tenant,
                        serve_stmt.clone(),
                        LowerOptions::fused("spgemm_served"),
                        vec![("B".into(), Arc::clone(sb)), ("C".into(), Arc::clone(sc))],
                        Duration::from_secs(60),
                    );
                    let t0 = Instant::now();
                    let completed = server
                        .submit(request)
                        .map(Ticket::wait)
                        .is_ok_and(|outcome| outcome.is_completed());
                    completed.then(|| t0.elapsed())
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("bench client thread must not panic"))
            .collect()
    });
    server.drain();
    serve_latencies.sort_unstable();
    let serve_stats = server.stats();
    let percentile = |p: f64| -> Duration {
        if serve_latencies.is_empty() {
            Duration::ZERO
        } else {
            serve_latencies[((serve_latencies.len() - 1) as f64 * p).round() as usize]
        }
    };
    let (serve_p50, serve_p99) = (percentile(0.50), percentile(0.99));
    assert!(serve_stats.totals.completed > 0, "the serving bench must complete requests");
    assert!(serve_stats.totals.shed() > 0, "deliberate overload must shed");

    let stats = engine.cache_stats();
    println!("  tuned schedule          {schedule}");
    println!("  verify (tuned kernel)   {:>12}  [{tuned_report}]", fmt_duration(verify_d));
    println!(
        "  verified kernels        {verified_kernels:>12}  ({verify_denies} deny, \
         {verify_warns} warn)"
    );
    println!("  cold request (tune+run) {:>12}", fmt_duration(cold));
    println!("  warm request            {:>12}", fmt_duration(warm));
    println!("  cold compile            {:>12}", fmt_duration(cold_compile));
    println!("  warm compile (hit)      {:>12}", fmt_duration(warm_compile));
    println!("  run only                {:>12}", fmt_duration(run_only));
    println!("  available parallelism   {avail:>12}");
    let base = scaling[0].1;
    for &(t, d) in &scaling {
        println!(
            "  parallel run, {t} thread{} {:>11}  ({:.2}x vs 1 thread)",
            if t == 1 { " " } else { "s" },
            fmt_duration(d),
            base.as_secs_f64() / d.as_secs_f64().max(f64::MIN_POSITIVE),
        );
    }
    println!(
        "  cost analysis           {:>12}  (bound {} B vs peak {observed_peak} B, \
         tightness {bound_tightness:.2}x, {pruned_candidates} candidates pruned)",
        fmt_duration(analysis_d),
        static_peak.map_or_else(|| "unbounded".to_string(), |b| b.to_string()),
    );
    let dense_kind = kind_nanos[0].1;
    for &(kind, d) in &kind_nanos {
        println!(
            "  {:<22}  {:>13}  ({:.2}x vs dense)",
            format!("workspace({kind})"),
            fmt_duration(d),
            d.as_secs_f64() / dense_kind.as_secs_f64().max(f64::MIN_POSITIVE),
        );
    }
    if native_available {
        println!(
            "  native run              {:>12}  ({:.2}x vs interp {}, compile {})",
            fmt_duration(native_best),
            interp_best.as_secs_f64() / native_best.as_secs_f64().max(f64::MIN_POSITIVE),
            fmt_duration(interp_best),
            fmt_duration(Duration::from_nanos(native_compile_nanos)),
        );
    } else {
        println!(
            "  native run              {:>12}  (unavailable: no toolchain or kernel rejected; \
             interpreter served {} runs)",
            "-",
            native_stats.unavailable + native_stats.rejected,
        );
    }
    let csr_spmv = format_nanos[0].1;
    for &(label, d) in &format_nanos {
        println!(
            "  spmv(B:{:<5})          {:>13}  ({:.2}x vs csr)",
            label,
            fmt_duration(d),
            d.as_secs_f64() / csr_spmv.as_secs_f64().max(f64::MIN_POSITIVE),
        );
    }
    println!(
        "  spmv(B:bcsr {br}x{bc})      {:>13}  interp, {} native ({:.2}x)",
        fmt_duration(bcsr_interp),
        fmt_duration(bcsr_native),
        bcsr_interp.as_secs_f64() / bcsr_native.as_secs_f64().max(f64::MIN_POSITIVE),
    );
    println!("  ladder ({ln}x{ln}, 256 nnz operands):");
    for (label, rung, retries) in &ladder_rungs {
        println!("    {label:<18} -> {rung} ({retries} degraded retries)");
    }
    println!(
        "  ladder totals           {:>12}  ({} exhausted, {} degraded retries)",
        format!("{} runs", ladder_rungs.len()),
        ladder_exhausted,
        ladder_retries,
    );
    println!(
        "  serving ({SERVE_CLIENTS} clients / {SERVE_WORKERS} workers): {} completed, \
         {} shed ({:.0}%), p50 {}, p99 {}, coalesce {:.0}%",
        serve_stats.totals.completed,
        serve_stats.totals.shed(),
        serve_stats.shed_rate() * 100.0,
        fmt_duration(serve_p50),
        fmt_duration(serve_p99),
        serve_stats.coalesce_rate() * 100.0,
    );
    println!("  cache                   {stats}");
    for event in engine.last_events() {
        println!("  event: {event}");
    }

    if args.json {
        let threads_json =
            thread_counts.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(", ");
        let scaling_json = scaling
            .iter()
            .map(|(t, d)| format!("\"{t}\": {}", d.as_nanos()))
            .collect::<Vec<_>>()
            .join(", ");
        let kinds_json = kind_nanos
            .iter()
            .map(|(k, d)| format!("\"{k}\": {}", d.as_nanos()))
            .collect::<Vec<_>>()
            .join(", ");
        let formats_json = format_nanos
            .iter()
            .map(|(label, d)| format!("\"{label}\": {}", d.as_nanos()))
            .collect::<Vec<_>>()
            .join(", ");
        let rungs_json = ladder_rungs
            .iter()
            .map(|(label, rung, retries)| {
                format!(
                    "{{\"budget\": {label:?}, \"rung\": {rung:?}, \"degraded_retries\": {retries}}}"
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let json = format!(
            "{{\n  \"kernel\": \"spgemm\",\n  \"n\": {n},\n  \"schedule\": {schedule:?},\n  \
             \"cold_request_nanos\": {},\n  \"warm_request_nanos\": {},\n  \
             \"cold_compile_nanos\": {},\n  \"warm_compile_nanos\": {},\n  \
             \"run_nanos\": {},\n  \"available_parallelism\": {avail},\n  \
             \"threads\": [{threads_json}],\n  \
             \"parallel_run_nanos\": {{{scaling_json}}},\n  \
             \"workspace_kind_run_nanos\": {{{kinds_json}}},\n  \
             \"native\": {{\"available\": {native_available}, \
             \"interp_run_nanos\": {}, \"native_run_nanos\": {}, \
             \"compile_nanos\": {native_compile_nanos}, \
             \"compiled\": {}, \"trusted\": {}, \"rejected\": {}, \
             \"unavailable\": {}, \"native_runs\": {}}},\n  \
             \"formats\": {{\"spmv_run_nanos\": {{{formats_json}}}, \
             \"bcsr\": {{\"block\": [{br}, {bc}], \
             \"interp_run_nanos\": {}, \"native_run_nanos\": {}}}}},\n  \
             \"ladder_runs\": [{rungs_json}],\n  \
             \"ladder_exhausted\": {ladder_exhausted},\n  \
             \"ladder_degraded_retries\": {ladder_retries},\n  \
             \"verify_mode\": \"{verify_mode}\",\n  \"verify_nanos\": {},\n  \
             \"verified_kernels\": {verified_kernels},\n  \
             \"verify_denies\": {verify_denies},\n  \"verify_warns\": {verify_warns},\n  \
             \"analysis\": {{\"analysis_nanos\": {}, \
             \"static_peak_bytes\": {}, \"observed_peak_bytes\": {observed_peak}, \
             \"bound_tightness\": {}, \"pruned_candidates\": {pruned_candidates}}},\n  \
             \"serving\": {{\"clients\": {SERVE_CLIENTS}, \"workers\": {SERVE_WORKERS}, \
             \"completed\": {}, \"shed\": {}, \"shed_rate\": {:.4}, \
             \"coalesce_rate\": {:.4}, \"p50_latency_nanos\": {}, \
             \"p99_latency_nanos\": {}}},\n  \
             \"cache_hit_rate\": {:.4},\n  \"cache_hits\": {},\n  \
             \"cache_misses\": {},\n  \"cache_compiles\": {},\n  \"tunings\": {}\n}}\n",
            cold.as_nanos(),
            warm.as_nanos(),
            cold_compile.as_nanos(),
            warm_compile.as_nanos(),
            run_only.as_nanos(),
            interp_best.as_nanos(),
            native_best.as_nanos(),
            native_stats.compiled,
            native_stats.trusted,
            native_stats.rejected,
            native_stats.unavailable,
            native_stats.native_runs,
            bcsr_interp.as_nanos(),
            bcsr_native.as_nanos(),
            verify_d.as_nanos(),
            analysis_d.as_nanos(),
            static_peak.map_or_else(|| "null".to_string(), |b| b.to_string()),
            if bound_tightness.is_finite() {
                format!("{bound_tightness:.4}")
            } else {
                "null".to_string()
            },
            serve_stats.totals.completed,
            serve_stats.totals.shed(),
            serve_stats.shed_rate(),
            serve_stats.coalesce_rate(),
            serve_p50.as_nanos(),
            serve_p99.as_nanos(),
            stats.hit_rate(),
            stats.hits,
            stats.misses,
            stats.compiles,
            engine.tuner().tunings(),
        );
        std::fs::write("BENCH_runtime.json", &json).expect("write BENCH_runtime.json");
        println!("\nwrote BENCH_runtime.json");
    }
}
