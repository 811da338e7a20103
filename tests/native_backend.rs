//! Differential suite for the native codegen backend: kernels compiled to
//! shared objects and run through the dlopen ABI must be *byte-identical*
//! to the interpreter across kernels, workspace backends, and thread
//! counts; the trust lifecycle (untrusted → differential check → trusted)
//! must be observable through engine events and counters; and a corrupted
//! on-disk artifact must degrade to the interpreter with a typed fallback,
//! never an error.
//!
//! Every test that needs a C toolchain skips with a visible marker when
//! none is present, so the suite is green (and honest) on minimal images.

use std::sync::Once;
use taco_native::NativeCompiler;
use taco_tensor::gen::{random_csf3, random_csr};
use taco_workspaces::prelude::*;

/// Points the artifact cache at a per-process temp directory, once, before
/// any native compile in this test binary. Tests within one binary share
/// the directory (the cache is content-addressed, so that is safe); other
/// test binaries are other processes with their own directory.
fn init_cache() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let dir = std::env::temp_dir().join(format!("taco-native-test-{}", std::process::id()));
        std::env::set_var("TACO_NATIVE_CACHE", &dir);
    });
}

/// A probed compiler, or a visible skip marker. Returning `None` makes the
/// caller return early: the test passes but the log says why it was empty.
fn require_cc(test: &str) -> Option<NativeCompiler> {
    init_cache();
    match NativeCompiler::from_env() {
        Ok(cc) => Some(cc),
        Err(e) => {
            eprintln!("SKIPPED {test}: no C toolchain ({e})");
            None
        }
    }
}

fn iv(n: &str) -> IndexVar {
    IndexVar::new(n)
}

/// Figure 2 SpGEMM (reorder + row workspace) over `n`×`n` CSR matrices.
fn scheduled_spgemm(n: usize) -> IndexStmt {
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j, k) = (iv("i"), iv("j"), iv("k"));
    let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
    let mut stmt = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), mul.clone()),
    ))
    .unwrap();
    stmt.reorder(&k, &j).unwrap();
    let w = TensorVar::new("w", vec![n], Format::dvec());
    stmt.precompute(&mul, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
    stmt
}

/// Sparse addition `A = B + C` through a row workspace.
fn workspace_sparse_add(m: usize, n: usize) -> IndexStmt {
    let a = TensorVar::new("A", vec![m, n], Format::csr());
    let b = TensorVar::new("B", vec![m, n], Format::csr());
    let c = TensorVar::new("C", vec![m, n], Format::csr());
    let (i, j) = (iv("i"), iv("j"));
    let bij: IndexExpr = b.access([i.clone(), j.clone()]).into();
    let cij: IndexExpr = c.access([i.clone(), j.clone()]).into();
    let mut stmt =
        IndexStmt::new(IndexAssignment::assign(a.access([i, j.clone()]), bij.clone() + cij.clone()))
            .unwrap();
    let w = TensorVar::new("w", vec![n], Format::dvec());
    stmt.precompute(&(bij + cij), &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
    stmt
}

/// Section V MTTKRP over a CSF 3-tensor with the rank-`r` workspace.
fn workspace_mttkrp(di: usize, dk: usize, dl: usize, r: usize) -> IndexStmt {
    let a = TensorVar::new("A", vec![di, r], Format::dense(2));
    let b = TensorVar::new("B", vec![di, dk, dl], Format::csf3());
    let c = TensorVar::new("C", vec![dl, r], Format::dense(2));
    let d = TensorVar::new("D", vec![dk, r], Format::dense(2));
    let (i, j, k, l) = (iv("i"), iv("j"), iv("k"), iv("l"));
    let bc = b.access([i.clone(), k.clone(), l.clone()]) * c.access([l.clone(), j.clone()]);
    let mut stmt = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), sum(l.clone(), bc.clone() * d.access([k.clone(), j.clone()]))),
    ))
    .unwrap();
    stmt.reorder(&j, &k).unwrap();
    stmt.reorder(&j, &l).unwrap();
    let w = TensorVar::new("w", vec![r], Format::dvec());
    stmt.precompute(&bc, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
    stmt
}

/// Equal structure via `PartialEq`, bitwise-equal values (catches
/// sign-of-zero and NaN-payload drift `==` on floats would wave through).
fn assert_byte_identical(interp: &Tensor, native: &Tensor, what: &str) {
    assert_eq!(interp, native, "{what}: structure differs");
    let ib: Vec<u64> = interp.vals().iter().map(|v| v.to_bits()).collect();
    let nb: Vec<u64> = native.vals().iter().map(|v| v.to_bits()).collect();
    assert_eq!(ib, nb, "{what}: values differ bitwise");
}

/// Runs `stmt` on an interpreter-pinned engine and a native-pinned engine
/// (twice — the first native-engine run is the differential trust check and
/// commits the interpreter's result) and asserts all three results are
/// byte-identical. Returns the native engine for further inspection.
fn differential(
    stmt: &IndexStmt,
    opts: LowerOptions,
    inputs: &[(&str, &Tensor)],
    what: &str,
) -> Engine {
    let interp = Engine::builder().backend(Backend::Interp).build();
    let reference = interp.run(stmt, opts.clone(), inputs).unwrap();

    let native = Engine::builder().backend(Backend::Native).build();
    let first = native.run(stmt, opts.clone(), inputs).unwrap();
    assert_byte_identical(&reference, &first, &format!("{what} (trust-check run)"));

    let stats = native.native_stats();
    if stats.rejected > 0 || stats.unavailable > 0 {
        panic!("{what}: native kernel not accepted ({stats:?}): {:#?}", native.last_events());
    }
    assert_eq!(stats.compiled, 1, "{what}: one kernel must compile natively ({stats:?})");
    assert_eq!(stats.trusted, 1, "{what}: the differential check must promote it ({stats:?})");
    assert_eq!(stats.rejected, 0, "{what}: nothing to reject ({stats:?})");
    assert_eq!(stats.unavailable, 0, "{what}: toolchain is present ({stats:?})");

    let second = native.run(stmt, opts, inputs).unwrap();
    assert_byte_identical(&reference, &second, &format!("{what} (trusted native run)"));
    assert!(
        native.native_stats().native_runs >= 1,
        "{what}: the second run must execute natively ({:?})",
        native.native_stats()
    );
    assert!(
        native
            .last_events()
            .iter()
            .any(|e| matches!(e, EngineEvent::NativeCompiled { .. })),
        "{what}: the compile must be logged: {:?}",
        native.last_events()
    );
    native
}

#[test]
fn native_spgemm_byte_identical_across_workspace_kinds() {
    let Some(_cc) = require_cc("native_spgemm_byte_identical_across_workspace_kinds") else {
        return;
    };
    let n = 24;
    let stmt = scheduled_spgemm(n);
    let b = random_csr(n, n, 0.2, 51).to_tensor();
    let c = random_csr(n, n, 0.2, 52).to_tensor();
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c)];
    for kind in [WorkspaceKind::Dense, WorkspaceKind::Hash, WorkspaceKind::CoordList] {
        let opts = LowerOptions::fused("spgemm").with_workspace_kind(kind);
        differential(&stmt, opts, &inputs, &format!("spgemm/{kind:?}"));
    }
}

#[test]
fn native_spgemm_byte_identical_across_thread_counts() {
    let Some(_cc) = require_cc("native_spgemm_byte_identical_across_thread_counts") else {
        return;
    };
    let n = 26;
    let serial = scheduled_spgemm(n);
    let b = random_csr(n, n, 0.25, 53).to_tensor();
    let c = random_csr(n, n, 0.25, 54).to_tensor();
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c)];

    // Serial kernels trust and run natively regardless of the thread
    // setting (no parallel loop is generated without `parallelize`).
    for threads in [1, 2, 4] {
        let opts = LowerOptions::fused("spgemm").with_threads(threads);
        differential(&serial, opts, &inputs, &format!("spgemm/threads={threads}"));
    }

    // A parallelized kernel contains `ParallelFor`, whose deterministic
    // clone-and-merge semantics are interpreter-only: the native backend
    // must *reject* it (typed, logged, cached) and every run must still
    // commit the interpreter's byte-identical result.
    let mut par = scheduled_spgemm(n);
    par.parallelize(&iv("i")).unwrap();
    for threads in [2, 4] {
        let opts = LowerOptions::fused("spgemm_par").with_threads(threads);
        let interp = Engine::builder().backend(Backend::Interp).build();
        let reference = interp.run(&par, opts.clone(), &inputs).unwrap();

        let native = Engine::builder().backend(Backend::Native).build();
        let first = native.run(&par, opts.clone(), &inputs).unwrap();
        let second = native.run(&par, opts, &inputs).unwrap();
        assert_byte_identical(&reference, &first, &format!("parallel spgemm t={threads}"));
        assert_byte_identical(&reference, &second, &format!("parallel spgemm t={threads}"));

        let stats = native.native_stats();
        assert_eq!(stats.rejected, 1, "parallel kernel must be rejected once ({stats:?})");
        assert_eq!(stats.native_runs, 0);
        assert!(
            native
                .last_events()
                .iter()
                .any(|e| matches!(e, EngineEvent::NativeRejected { .. })),
            "rejection must be logged: {:?}",
            native.last_events()
        );
    }
}

#[test]
fn native_sparse_add_byte_identical_across_workspace_kinds() {
    let Some(_cc) = require_cc("native_sparse_add_byte_identical_across_workspace_kinds") else {
        return;
    };
    let (m, n) = (17, 23);
    let stmt = workspace_sparse_add(m, n);
    let b = random_csr(m, n, 0.3, 55).to_tensor();
    let c = random_csr(m, n, 0.3, 56).to_tensor();
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c)];
    for kind in [WorkspaceKind::Dense, WorkspaceKind::Hash, WorkspaceKind::CoordList] {
        let opts = LowerOptions::fused("add_ws").with_workspace_kind(kind);
        differential(&stmt, opts, &inputs, &format!("sparse-add/{kind:?}"));
    }
}

#[test]
fn native_mttkrp_byte_identical_across_workspace_kinds() {
    let Some(_cc) = require_cc("native_mttkrp_byte_identical_across_workspace_kinds") else {
        return;
    };
    let (di, dk, dl, r) = (9, 7, 6, 5);
    let stmt = workspace_mttkrp(di, dk, dl, r);
    let b = random_csf3([di, dk, dl], 60, 57).to_tensor();
    let c = Tensor::from_dense(&taco_workspaces::tensor::gen::random_dense(dl, r, 58), Format::dense(2))
        .unwrap();
    let d = Tensor::from_dense(&taco_workspaces::tensor::gen::random_dense(dk, r, 59), Format::dense(2))
        .unwrap();
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c), ("D", &d)];
    for kind in [WorkspaceKind::Dense, WorkspaceKind::Hash, WorkspaceKind::CoordList] {
        let opts = LowerOptions::compute("mttkrp_ws").with_workspace_kind(kind);
        differential(&stmt, opts, &inputs, &format!("mttkrp/{kind:?}"));
    }
}

#[test]
fn supervised_runs_report_the_backend_and_trust_transition() {
    let Some(_cc) = require_cc("supervised_runs_report_the_backend_and_trust_transition") else {
        return;
    };
    let n = 21;
    let stmt = scheduled_spgemm(n);
    let b = random_csr(n, n, 0.2, 61).to_tensor();
    let c = random_csr(n, n, 0.2, 62).to_tensor();
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c)];
    let engine = Engine::builder().backend(Backend::Native).build();
    let supervisor = Supervisor::new();
    let opts = LowerOptions::fused("spgemm");

    // First supervised run is the differential trust check: it commits the
    // interpreter's result, so `native` must read false.
    let first = engine
        .execute(
            &stmt,
            opts.clone(),
            &supervisor,
            &inputs,
            None,
            VerifyMode::Warn,
            Backend::Auto,
        )
        .unwrap();
    assert!(!first.native, "trust-check run commits the interpreter's result");
    assert_eq!(engine.native_stats().trusted, 1);

    // Second run executes on the now-trusted native kernel.
    let second = engine
        .execute(
            &stmt,
            opts,
            &supervisor,
            &inputs,
            None,
            VerifyMode::Warn,
            Backend::Auto,
        )
        .unwrap();
    assert!(second.native, "trusted kernel must run natively");
    assert_byte_identical(
        &first.outcome.result,
        &second.outcome.result,
        "supervised interp vs native",
    );
    // Per-call interpreter pinning overrides the engine default.
    let pinned = engine
        .execute(
            &stmt,
            LowerOptions::fused("spgemm"),
            &supervisor,
            &inputs,
            None,
            VerifyMode::Warn,
            Backend::Interp,
        )
        .unwrap();
    assert!(!pinned.native, "Backend::Interp must pin this call to the interpreter");
}

#[test]
fn interp_backend_never_touches_the_native_pipeline() {
    init_cache();
    let n = 18;
    let stmt = scheduled_spgemm(n);
    let b = random_csr(n, n, 0.2, 63).to_tensor();
    let c = random_csr(n, n, 0.2, 64).to_tensor();
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c)];
    let engine = Engine::builder().backend(Backend::Interp).build();
    engine.run(&stmt, LowerOptions::fused("spgemm"), &inputs).unwrap();
    engine.run(&stmt, LowerOptions::fused("spgemm"), &inputs).unwrap();
    let stats = engine.native_stats();
    assert_eq!(
        (stats.compiled, stats.trusted, stats.rejected, stats.unavailable, stats.native_runs),
        (0, 0, 0, 0, 0),
        "interpreter-pinned engine must never compile natively ({stats:?})"
    );
}

#[test]
fn corrupted_artifact_degrades_to_interpreter_with_typed_fallback() {
    let Some(_cc) = require_cc("corrupted_artifact_degrades_to_interpreter_with_typed_fallback")
    else {
        return;
    };
    // A dimension no other test in this binary uses, so the artifact this
    // test corrupts is not one a sibling test may later dlopen.
    let n = 19;
    let stmt = scheduled_spgemm(n);
    let b = random_csr(n, n, 0.2, 65).to_tensor();
    let c = random_csr(n, n, 0.2, 66).to_tensor();
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c)];
    let opts = LowerOptions::fused("spgemm");

    // Populate the on-disk cache, then drop the engine so nothing holds the
    // shared object mapped while we overwrite it.
    let warm = Engine::builder().backend(Backend::Native).build();
    let reference = warm.run(&stmt, opts.clone(), &inputs).unwrap();
    assert_eq!(warm.native_stats().compiled, 1);
    drop(warm);

    let fp = stmt.compile(opts.clone()).unwrap().fingerprint();
    let prefix = format!("k{fp:016x}");
    let cache = taco_native::cache_dir();
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&cache).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with(&prefix) && name.ends_with(".so") {
            std::fs::write(&path, b"this is not an ELF shared object").unwrap();
            corrupted += 1;
        }
    }
    assert!(corrupted >= 1, "the warm run must have installed an artifact under {cache:?}");

    // A fresh engine cache-hits the corrupted artifact: dlopen fails, the
    // failure is a typed degradation (never an error), and the run commits
    // the interpreter's byte-identical result.
    let engine = Engine::builder().backend(Backend::Native).build();
    let result = engine.run(&stmt, opts, &inputs).unwrap();
    assert_byte_identical(&reference, &result, "corrupt-artifact fallback");
    let stats = engine.native_stats();
    assert_eq!(stats.unavailable, 1, "load failure must count as unavailable ({stats:?})");
    assert_eq!(stats.native_runs, 0);
    assert!(
        engine.last_events().iter().any(|e| matches!(
            e,
            EngineEvent::Fallback(FallbackEvent::NativeUnavailable { .. })
        )),
        "fallback must be logged: {:?}",
        engine.last_events()
    );
}
