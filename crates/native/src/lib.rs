//! Native execution backend: compile-and-dlopen for emitted C kernels.
//!
//! The LLIR interpreter is the portable reference executor; this crate is
//! the machine-speed alternative. Given a compiled kernel's
//! [`Executable`](taco_llir::Executable), the pipeline is:
//!
//! 1. [`taco_llir::emit_native`] renders a self-contained C translation
//!    unit against the `taco_ctx` table ABI of `taco_kernel.h`, plus an
//!    [`AbiPlan`](taco_llir::AbiPlan) describing how bindings map onto the
//!    context tables.
//! 2. [`NativeCompiler`] invokes the system C compiler (`$CC`, falling
//!    back to `cc`) to build a shared object in a content-addressed
//!    on-disk cache keyed by kernel fingerprint + source hash + ABI
//!    version. Identical kernels across processes share one artifact.
//! 3. The shared object is loaded with raw `dlopen`/`dlsym`/`dlclose`
//!    FFI (no crate dependencies) and its exported `taco_abi_version()`
//!    is checked against the host's [`taco_llir::ABI_VERSION`].
//! 4. [`NativeKernel::run`] marshals a [`Binding`](taco_llir::Binding)
//!    into the context tables (zero-copy: the kernel works directly on the
//!    binding's buffers) and calls the fixed `taco_kernel_entry` symbol.
//!
//! # Supervision and budgets
//!
//! All memory is host-owned. The kernel allocates and grows arrays only
//! through `extern "C"` callbacks, which charge the same
//! [`BudgetMeter`](taco_llir::BudgetMeter) the interpreter uses — budget
//! aborts are byte-identical between backends. The loop-iteration fuse is
//! charged in supervision-stride batches through the poll callback, which
//! also publishes the meter's progress counters and observes the cancel
//! flag and wall-clock deadline, so a native run aborts on exactly the same
//! iteration count as an interpreted one and honours cancellation within
//! one stride.
//!
//! [`NativeKernel`] is a [`RunBody`](taco_llir::RunBody): snapshot and
//! rollback, deadline resolution and abort typing are llir's, shared with
//! the interpreter through [`taco_llir::run_transaction`] and
//! [`taco_llir::Supervisor::run`].
//!
//! # Failure is degradation, not error
//!
//! Every way this backend can fail to produce a runnable kernel — no C
//! compiler, probe failure, unsupported construct, compile or load error —
//! is an [`NativeError`] the engine converts into a typed fallback to the
//! interpreter, never a user-visible error.

#![warn(missing_docs)]
#![cfg_attr(not(unix), allow(dead_code))]

mod cc;
mod dl;
mod run;

pub use cc::{cache_dir, NativeCompiler};
pub use run::{NativeKernel, NativeRunOptions};

/// Why a native kernel could not be produced or loaded. All variants are
/// recoverable: the engine degrades to the interpreter.
#[derive(Debug, Clone, PartialEq)]
pub enum NativeError {
    /// No working C compiler (probe failed, `$CC` missing, or a platform
    /// without `dlopen`).
    Unavailable(String),
    /// The kernel uses a construct with no native equivalent.
    Unsupported(String),
    /// The C compiler rejected the emitted translation unit.
    CompileFailed(String),
    /// The shared object could not be loaded or has a stale ABI.
    LoadFailed(String),
}

impl std::fmt::Display for NativeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NativeError::Unavailable(why) => write!(f, "native backend unavailable: {why}"),
            NativeError::Unsupported(what) => write!(f, "kernel not natively executable: {what}"),
            NativeError::CompileFailed(why) => write!(f, "native compilation failed: {why}"),
            NativeError::LoadFailed(why) => write!(f, "shared object load failed: {why}"),
        }
    }
}

impl std::error::Error for NativeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};
    use taco_llir::{
        emit_native, ArrayTy, BudgetResource, Binding, Executable, Expr, Kernel, Param,
        ResourceBudget, RunError, Stmt, WorkspaceKind,
    };

    fn compiler() -> Option<NativeCompiler> {
        match NativeCompiler::from_env() {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("SKIPPED: {e}; native tests not run");
                None
            }
        }
    }

    fn build(kernel: &Kernel) -> Option<(NativeKernel, Executable)> {
        let cc = compiler()?;
        let exe = Executable::compile(kernel).unwrap();
        let src = emit_native(&exe).unwrap();
        let native = cc.compile(&src, 0xfee1_dead).expect("kernel compiles");
        Some((native, exe))
    }

    fn scale_kernel() -> Kernel {
        Kernel::new("scale")
            .scalar_param("n")
            .array_param(Param::input("x", ArrayTy::F64))
            .array_param(Param::output("out", ArrayTy::F64))
            .body(vec![Stmt::for_(
                "i",
                Expr::int(0),
                Expr::var("n"),
                vec![Stmt::store(
                    "out",
                    Expr::var("i"),
                    Expr::float(2.0) * Expr::load("x", Expr::var("i")),
                )],
            )])
    }

    #[test]
    fn native_matches_interpreter_on_scale() {
        let Some((native, exe)) = build(&scale_kernel()) else { return };
        let mut nb = Binding::new();
        nb.set_scalar("n", 4);
        nb.set_f64("x", vec![1.0, 2.5, -3.0, 0.5]);
        nb.set_f64("out", vec![0.0; 4]);
        let mut ib = Binding::new();
        ib.set_scalar("n", 4);
        ib.set_f64("x", vec![1.0, 2.5, -3.0, 0.5]);
        ib.set_f64("out", vec![0.0; 4]);

        let report = native
            .run(&mut nb, &ResourceBudget::unlimited(), NativeRunOptions::default())
            .expect("native run");
        exe.run(&mut ib).expect("interp run");
        assert_eq!(nb.f64_array("out").unwrap(), ib.f64_array("out").unwrap());
        assert_eq!(report.iterations, 4);
    }

    #[test]
    fn iteration_fuse_aborts_identically() {
        let Some((native, exe)) = build(&scale_kernel()) else { return };
        let budget = ResourceBudget::unlimited().with_max_loop_iterations(3);
        let mut nb = Binding::new();
        nb.set_scalar("n", 100);
        nb.set_f64("x", vec![1.0; 100]);
        nb.set_f64("out", vec![0.0; 100]);
        let mut ib = Binding::new();
        ib.set_scalar("n", 100);
        ib.set_f64("x", vec![1.0; 100]);
        ib.set_f64("out", vec![0.0; 100]);

        let ne = native.run(&mut nb, &budget, NativeRunOptions::default()).unwrap_err();
        let ie = exe.run_with_budget(&mut ib, &budget).unwrap_err();
        assert_eq!(ne, ie, "budget abort payloads must be byte-identical");
        match ne {
            RunError::BudgetExceeded { resource, limit, requested, .. } => {
                assert_eq!(resource, BudgetResource::LoopIterations);
                assert_eq!((limit, requested), (3, 4));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn writable_arrays_roll_back_on_abort() {
        let Some((native, _)) = build(&scale_kernel()) else { return };
        let budget = ResourceBudget::unlimited().with_max_loop_iterations(2);
        let mut nb = Binding::new();
        nb.set_scalar("n", 10);
        nb.set_f64("x", vec![1.0; 10]);
        nb.set_f64("out", vec![9.0; 10]);
        native.run(&mut nb, &budget, NativeRunOptions::default()).unwrap_err();
        assert_eq!(
            nb.f64_array("out").unwrap(),
            &[9.0; 10],
            "aborted native run must leave outputs untouched"
        );
    }

    #[test]
    fn cancellation_observed_within_a_stride() {
        let Some((native, _)) = build(&scale_kernel()) else { return };
        let cancel = AtomicBool::new(true);
        let mut nb = Binding::new();
        nb.set_scalar("n", 1_000_000);
        nb.set_f64("x", vec![0.0; 1_000_000]);
        nb.set_f64("out", vec![0.0; 1_000_000]);
        let err = native
            .run(
                &mut nb,
                &ResourceBudget::unlimited(),
                NativeRunOptions { cancel: Some(&cancel), ..Default::default() },
            )
            .unwrap_err();
        assert_eq!(err, RunError::Cancelled);
        assert!(cancel.load(Ordering::Relaxed));
    }

    #[test]
    fn expired_deadline_aborts() {
        let Some((native, _)) = build(&scale_kernel()) else { return };
        let mut nb = Binding::new();
        nb.set_scalar("n", 1_000_000);
        nb.set_f64("x", vec![0.0; 1_000_000]);
        nb.set_f64("out", vec![0.0; 1_000_000]);
        let start = Instant::now() - Duration::from_millis(50);
        let err = native
            .run(
                &mut nb,
                &ResourceBudget::unlimited(),
                NativeRunOptions {
                    deadline: Some((start, Duration::from_millis(1))),
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, RunError::DeadlineExceeded { .. }), "{err:?}");
    }

    #[test]
    fn map_workspace_matches_interpreter() {
        // Scatter with duplicate keys, drain sorted into the output —
        // exercises map init/scatter/drain and the hidden backing slots.
        let kernel = Kernel::new("ws")
            .scalar_param("n")
            .array_param(Param::input("keys", ArrayTy::Int))
            .array_param(Param::input("vals", ArrayTy::F64))
            .array_param(Param::output("out", ArrayTy::F64))
            .body(vec![
                Stmt::MapInit {
                    map: "w".into(),
                    kind: WorkspaceKind::Hash,
                    capacity: Expr::int(2),
                },
                Stmt::for_(
                    "i",
                    Expr::int(0),
                    Expr::var("n"),
                    vec![Stmt::MapScatter {
                        map: "w".into(),
                        key: Expr::load("keys", Expr::var("i")),
                        val: Expr::load("vals", Expr::var("i")),
                        add: true,
                    }],
                ),
                Stmt::MapDrainSorted {
                    map: "w".into(),
                    key: "k".into(),
                    val: "v".into(),
                    body: vec![Stmt::store_add("out", Expr::var("k"), Expr::var("v"))],
                },
            ]);
        let Some((native, exe)) = build(&kernel) else { return };
        let keys = vec![7i64, 3, 7, 0, 3, 7];
        let vals = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut nb = Binding::new();
        nb.set_scalar("n", 6);
        nb.set_int("keys", keys.clone());
        nb.set_f64("vals", vals.clone());
        nb.set_f64("out", vec![0.0; 8]);
        let mut ib = Binding::new();
        ib.set_scalar("n", 6);
        ib.set_int("keys", keys);
        ib.set_f64("vals", vals);
        ib.set_f64("out", vec![0.0; 8]);
        native
            .run(&mut nb, &ResourceBudget::unlimited(), NativeRunOptions::default())
            .expect("native");
        exe.run(&mut ib).expect("interp");
        assert_eq!(nb.f64_array("out").unwrap(), ib.f64_array("out").unwrap());
    }

    #[test]
    fn division_by_zero_is_a_typed_fault() {
        let kernel = Kernel::new("div")
            .scalar_param("n")
            .array_param(Param::output("out", ArrayTy::Int))
            .body(vec![Stmt::store(
                "out",
                Expr::int(0),
                Expr::int(1) / Expr::var("n"),
            )]);
        let Some((native, exe)) = build(&kernel) else { return };
        let mut nb = Binding::new();
        nb.set_scalar("n", 0);
        nb.set_int("out", vec![0]);
        let mut ib = Binding::new();
        ib.set_scalar("n", 0);
        ib.set_int("out", vec![0]);
        let ne = native
            .run(&mut nb, &ResourceBudget::unlimited(), NativeRunOptions::default())
            .unwrap_err();
        let ie = exe.run(&mut ib).unwrap_err();
        assert_eq!(ne, ie);
        assert_eq!(ne, RunError::DivisionByZero);
    }

    #[test]
    fn out_of_bounds_store_is_a_typed_fault_not_memory_corruption() {
        let kernel = Kernel::new("oob")
            .scalar_param("n")
            .array_param(Param::output("out", ArrayTy::F64))
            .body(vec![Stmt::store("out", Expr::var("n"), Expr::float(1.0))]);
        let Some((native, exe)) = build(&kernel) else { return };
        let mut nb = Binding::new();
        nb.set_scalar("n", 99);
        nb.set_f64("out", vec![0.0; 4]);
        let mut ib = Binding::new();
        ib.set_scalar("n", 99);
        ib.set_f64("out", vec![0.0; 4]);
        let ne = native
            .run(&mut nb, &ResourceBudget::unlimited(), NativeRunOptions::default())
            .unwrap_err();
        let ie = exe.run(&mut ib).unwrap_err();
        assert_eq!(ne, ie);
    }

    #[test]
    fn scalar_outputs_commit_only_on_success() {
        let kernel = Kernel::new("count")
            .scalar_param("n")
            .array_param(Param::input("x", ArrayTy::F64))
            .scalar_output("nnz")
            .body(vec![
                Stmt::DeclInt("nnz".into(), Expr::int(0)),
                Stmt::for_(
                    "i",
                    Expr::int(0),
                    Expr::var("n"),
                    vec![Stmt::if_(
                        Expr::load("x", Expr::var("i")).ne(Expr::float(0.0)),
                        vec![Stmt::incr("nnz")],
                    )],
                ),
            ]);
        let Some((native, exe)) = build(&kernel) else { return };
        let mut nb = Binding::new();
        nb.set_scalar("n", 5);
        nb.set_f64("x", vec![1.0, 0.0, 2.0, 0.0, 3.0]);
        let mut ib = Binding::new();
        ib.set_scalar("n", 5);
        ib.set_f64("x", vec![1.0, 0.0, 2.0, 0.0, 3.0]);
        native
            .run(&mut nb, &ResourceBudget::unlimited(), NativeRunOptions::default())
            .expect("native");
        exe.run(&mut ib).expect("interp");
        assert_eq!(nb.scalar_output("nnz"), Some(3));
        assert_eq!(nb.scalar_output("nnz"), ib.scalar_output("nnz"));
    }

    #[test]
    fn allocation_budget_aborts_identically() {
        let kernel = Kernel::new("alloc")
            .scalar_param("n")
            .array_param(Param::output("out", ArrayTy::F64))
            .body(vec![
                Stmt::Alloc { arr: "w".into(), ty: ArrayTy::F64, len: Expr::var("n") },
                Stmt::store("out", Expr::int(0), Expr::load("w", Expr::int(0))),
            ]);
        let Some((native, exe)) = build(&kernel) else { return };
        let budget = ResourceBudget::unlimited().with_max_workspace_bytes(64);
        let mk = || {
            let mut b = Binding::new();
            b.set_scalar("n", 100);
            b.set_f64("out", vec![0.0]);
            b
        };
        let mut nb = mk();
        let mut ib = mk();
        let ne = native.run(&mut nb, &budget, NativeRunOptions::default()).unwrap_err();
        let ie = exe.run_with_budget(&mut ib, &budget).unwrap_err();
        assert_eq!(ne, ie, "AllocSink must make backends agree on budget aborts");
    }

    #[test]
    fn missing_compiler_is_unavailable() {
        let err = NativeCompiler::with_cc("/nonexistent/definitely-not-a-compiler")
            .expect_err("bogus compiler must not probe successfully");
        assert!(matches!(err, NativeError::Unavailable(_)), "{err:?}");
    }

    #[test]
    fn compile_cache_hits_on_second_build() {
        let Some(cc) = compiler() else { return };
        let exe = Executable::compile(&scale_kernel()).unwrap();
        let src = emit_native(&exe).unwrap();
        let fp = 0xabcd_0001u64;
        // The cache is content-addressed and shared across processes, so a
        // previous test run may have left the artifact behind; evict it so
        // the first build below is a genuine compile.
        if let Ok(entries) = std::fs::read_dir(cache_dir()) {
            let prefix = format!("k{fp:016x}");
            for entry in entries.flatten() {
                if entry.file_name().to_string_lossy().starts_with(&prefix) {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        let first = cc.compile(&src, fp).expect("first build");
        let second = cc.compile(&src, fp).expect("cache hit");
        assert!(first.compile_nanos > 0);
        assert_eq!(second.compile_nanos, 0, "cache hit must skip the compiler");
    }
}
