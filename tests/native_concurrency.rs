//! Several engines in one process must not interfere on the native
//! backend: concurrent compiler probes and concurrent `cc` builds of the
//! same and of different kernels all succeed, and every result is
//! byte-identical to the interpreter.

use std::sync::{Arc, Barrier};
use taco_native::NativeCompiler;
use taco_tensor::gen::random_csr;
use taco_workspaces::prelude::*;

const ENGINES: usize = 8;
const THREADS_PER_ENGINE: usize = 4;

/// The Figure 2 SpGEMM over `n`×`n` CSR matrices; each `n` is a different
/// kernel.
fn spgemm(n: usize) -> IndexStmt {
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j, k) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
    let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
    let mut stmt = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), mul.clone()),
    ))
    .unwrap();
    stmt.reorder(&k, &j).unwrap();
    let w = TensorVar::new("w", vec![n], Format::dvec());
    stmt.precompute(&mul, &[(j.clone(), j.clone(), j.clone())], &w)
        .unwrap();
    stmt
}

struct Case {
    stmt: IndexStmt,
    b: Tensor,
    c: Tensor,
    expected: Tensor,
}

impl Case {
    fn new(n: usize) -> Case {
        let stmt = spgemm(n);
        let b = random_csr(n, n, 0.2, 300 + n as u64).to_tensor();
        let c = random_csr(n, n, 0.2, 400 + n as u64).to_tensor();
        let expected = stmt
            .compile(LowerOptions::fused("stress"))
            .unwrap()
            .run(&[("B", &b), ("C", &c)])
            .unwrap();
        Case {
            stmt,
            b,
            c,
            expected,
        }
    }
}

#[test]
fn engines_compile_and_run_natively_in_parallel_without_interference() {
    // A fresh artifact cache, so the engines really race on `cc` builds
    // instead of loading artifacts an earlier run left behind.
    let dir = std::env::temp_dir().join(format!("taco-native-stress-{}", std::process::id()));
    std::env::set_var("TACO_NATIVE_CACHE", &dir);
    if let Err(e) = NativeCompiler::from_env() {
        eprintln!("SKIPPED engines_compile_and_run_natively_in_parallel: no C toolchain ({e})");
        return;
    }

    // One kernel every thread runs, plus one per thread slot, so each
    // engine compiles the shared kernel and several different ones at once.
    let shared = Arc::new(Case::new(12));
    let own: Vec<Arc<Case>> = (0..THREADS_PER_ENGINE)
        .map(|t| Arc::new(Case::new(13 + t)))
        .collect();
    let engines: Vec<Arc<Engine>> = (0..ENGINES)
        .map(|_| Arc::new(Engine::builder().backend(Backend::Native).build()))
        .collect();
    let start = Arc::new(Barrier::new(ENGINES * THREADS_PER_ENGINE));

    std::thread::scope(|s| {
        for engine in &engines {
            for case in &own {
                let (engine, start) = (Arc::clone(engine), Arc::clone(&start));
                let (shared, case) = (Arc::clone(&shared), Arc::clone(case));
                s.spawn(move || {
                    start.wait();
                    // Twice each: the differential trust check, then the
                    // trusted native kernel.
                    for case in [&shared, &case, &shared, &case] {
                        let got = engine
                            .run(
                                &case.stmt,
                                LowerOptions::fused("stress"),
                                &[("B", &case.b), ("C", &case.c)],
                            )
                            .unwrap();
                        assert_eq!(
                            got, case.expected,
                            "native run differs from the interpreter"
                        );
                        let bits =
                            |t: &Tensor| t.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&got), bits(&case.expected), "values differ bitwise");
                    }
                });
            }
        }
    });

    for (e, engine) in engines.iter().enumerate() {
        let stats = engine.native_stats();
        let unavailable: Vec<EngineEvent> = engine
            .last_events()
            .into_iter()
            .filter(|ev| {
                matches!(
                    ev,
                    EngineEvent::Fallback(FallbackEvent::NativeUnavailable { .. })
                )
            })
            .collect();
        assert_eq!(
            stats.unavailable, 0,
            "engine {e}: {stats:?} {unavailable:?}"
        );
        assert!(unavailable.is_empty(), "engine {e}: {unavailable:?}");
        assert!(
            stats.native_runs > 0,
            "engine {e} never ran natively: {stats:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
