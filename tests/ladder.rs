//! One ladder, one budget plan: the engine's request path must descend the
//! degrade ladder exactly as `IndexStmt::run_supervised` does (the engine
//! adds only caching, the per-call verify gate and backend dispatch), and
//! serve admission must shed a request exactly when `compile_with_budget`
//! would fail it with `BudgetExceeded`.

use std::sync::Arc;
use std::time::Duration;
use taco_workspaces::prelude::*;
use taco_workspaces::tensor::gen::{random_csf3, random_csr, random_dense};
use taco_workspaces::tensor::DenseTensor;

fn iv(n: &str) -> IndexVar {
    IndexVar::new(n)
}

/// The Figure 2 matrix multiply (reorder + row workspace) over `n`×`n`
/// matrices: CSR `B` times `C` into `A`.
fn matmul(n: usize, a_format: Format, c_format: Format) -> IndexStmt {
    let a = TensorVar::new("A", vec![n, n], a_format);
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], c_format);
    let (i, j, k) = (iv("i"), iv("j"), iv("k"));
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

/// MTTKRP with the Section V workspace schedule over a `di`×`dk`×`dl` CSF
/// tensor and rank `r`.
fn mttkrp(di: usize, dk: usize, dl: usize, r: usize) -> IndexStmt {
    let a = TensorVar::new("A", vec![di, r], Format::dense(2));
    let b = TensorVar::new("B", vec![di, dk, dl], Format::csf3());
    let c = TensorVar::new("C", vec![dl, r], Format::dense(2));
    let d = TensorVar::new("D", vec![dk, r], Format::dense(2));
    let (i, j, k, l) = (iv("i"), iv("j"), iv("k"), iv("l"));
    let bc = b.access([i.clone(), k.clone(), l.clone()]) * c.access([l.clone(), j.clone()]);
    let mut stmt = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(
            k.clone(),
            sum(l.clone(), bc.clone() * d.access([k.clone(), j.clone()])),
        ),
    ))
    .unwrap();
    stmt.reorder(&j, &k).unwrap();
    stmt.reorder(&j, &l).unwrap();
    let w = TensorVar::new("w", vec![r], Format::dvec());
    stmt.precompute(&bc, &[(j.clone(), j.clone(), j.clone())], &w)
        .unwrap();
    stmt
}

/// An `n`×`n` CSR matrix with the given nonzero columns per row.
fn csr_rows(n: usize, rows: &[(usize, Vec<usize>)]) -> Tensor {
    let mut data = vec![0.0; n * n];
    for (r, cols) in rows {
        for c in cols {
            data[r * n + c] = 1.0 + *r as f64 * 0.5 + *c as f64 * 0.25;
        }
    }
    Tensor::from_dense(&DenseTensor::from_data(vec![n, n], data), Format::csr()).unwrap()
}

fn budget(max_workspace_bytes: Option<u64>, max_loop_iterations: Option<u64>) -> ResourceBudget {
    let mut b = ResourceBudget::unlimited();
    b.max_workspace_bytes = max_workspace_bytes;
    b.max_loop_iterations = max_loop_iterations;
    b
}

/// Runs one budget through both ladders and asserts they agree: the same
/// committed rung, fallback trail and result bytes, or the same last abort.
/// The engine compiles under the supervisor's budget so its budget plan
/// sees what `run_supervised` sees; the second engine call is served from
/// the kernel cache and must not change the answer. Returns the committed
/// rung (`None` when every rung aborted).
fn assert_same_descent(
    what: &str,
    stmt: &IndexStmt,
    opts: &LowerOptions,
    inputs: &[(&str, &Tensor)],
    budget: ResourceBudget,
) -> Option<DegradeRung> {
    let supervisor = Supervisor::new().with_budget(budget);
    let core = stmt.run_supervised(opts.clone(), &supervisor, inputs, None);
    let engine = Engine::builder()
        .budget(budget)
        .backend(Backend::Interp)
        .build();
    for call in ["cold", "warm"] {
        let run = engine.execute(
            stmt,
            opts.clone(),
            &supervisor,
            inputs,
            None,
            VerifyMode::Warn,
            Backend::Auto,
        );
        match (&core, run) {
            (Ok(core), Ok(run)) => {
                assert_eq!(
                    run.outcome.rung, core.rung,
                    "{what} ({call}): committed rung"
                );
                assert_eq!(
                    run.outcome.fallbacks, core.fallbacks,
                    "{what} ({call}): trail"
                );
                assert_eq!(
                    run.outcome.result, core.result,
                    "{what} ({call}): result bytes"
                );
                assert_eq!(
                    run.cache_hit,
                    call == "warm",
                    "{what} ({call}): cache signal"
                );
            }
            (Err(CoreError::Aborted(core)), Err(EngineError::Core(CoreError::Aborted(run)))) => {
                assert_eq!(run.reason, core.reason, "{what} ({call}): last abort");
            }
            (core, run) => panic!("{what} ({call}): ladders disagree: {core:?} vs {run:?}"),
        }
    }
    core.ok().map(|outcome| outcome.rung)
}

#[test]
fn engine_and_core_descend_the_same_ladder() {
    // SpGEMM whose one output row gathers 32 entries: the row workspace
    // outgrows a hash map's 384-byte start long before a coordinate list
    // outgrows its 256 bytes, while the output arrays stay small.
    let n = 128;
    let b = csr_rows(n, &[(0, (0..8).collect())]);
    let c = csr_rows(
        n,
        &(0..8)
            .map(|k| (k, (0..4).map(|t| k * 4 + t).collect()))
            .collect::<Vec<_>>(),
    );
    let spgemm_inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c)];
    let fused = LowerOptions::fused("spgemm");
    let stmt = matmul(n, Format::csr(), Format::csr());
    let cases = [
        (
            "spgemm unlimited",
            budget(None, None),
            Some(DegradeRung::AsScheduled),
        ),
        // Over the dense 17n bound: the plan downgrades to hash up front.
        (
            "spgemm plan->hash",
            budget(Some(1024), None),
            Some(DegradeRung::AsScheduled),
        ),
        // The planned hash map outgrows the cap at run time; the hash rung
        // is skipped (the plan already chose it) and coord-list commits.
        (
            "spgemm hash aborts",
            budget(Some(512), None),
            Some(DegradeRung::CoordListWorkspace),
        ),
        // Every rung trips the iteration fuse.
        ("spgemm fuse", budget(None, Some(50)), None),
    ];
    for (what, budget, expect) in cases {
        let rung = assert_same_descent(what, &stmt, &fused, &spgemm_inputs, budget);
        assert_eq!(rung, expect, "{what}: forced rung");
    }

    let (di, dk, dl, r) = (8, 7, 6, 5);
    let bt = random_csf3([di, dk, dl], 60, 9).to_tensor();
    let ct = Tensor::from_dense(&random_dense(dl, r, 10), Format::dense(2)).unwrap();
    let dt = Tensor::from_dense(&random_dense(dk, r, 11), Format::dense(2)).unwrap();
    let mttkrp_inputs: Vec<(&str, &Tensor)> = vec![("B", &bt), ("C", &ct), ("D", &dt)];
    let compute = LowerOptions::compute("mttkrp");
    let stmt = mttkrp(di, dk, dl, r);
    let cases = [
        (
            "mttkrp unlimited",
            budget(None, None),
            Some(DegradeRung::AsScheduled),
        ),
        // No workspace backend fits: the plan compiles the direct kernel.
        (
            "mttkrp plan->direct",
            budget(Some(32), None),
            Some(DegradeRung::AsScheduled),
        ),
        // The direct kernel iterates less than every workspace rung.
        (
            "mttkrp fuse->direct",
            budget(None, Some(560)),
            Some(DegradeRung::DirectMerge),
        ),
        ("mttkrp fuse", budget(None, Some(100)), None),
    ];
    for (what, budget, expect) in cases {
        let rung = assert_same_descent(what, &stmt, &compute, &mttkrp_inputs, budget);
        assert_eq!(rung, expect, "{what}: forced rung");
    }
}

#[test]
fn admission_sheds_exactly_when_compile_exceeds_the_budget() {
    let n = 64; // dense row workspace 17n = 1088 bytes; hash starts at 384, coord-list at 256
    let b = Arc::new(random_csr(n, n, 0.05, 71).to_tensor());
    let c_csr = Arc::new(random_csr(n, n, 0.05, 72).to_tensor());
    let c_dense = Arc::new(c_csr.convert(Format::dense(2)).unwrap());
    let opts = LowerOptions::fused("matmul");
    // SpGEMM's direct merge kernel is unrealizable (it iterates CSR `C`
    // before `k` is bound); SpMM's, with `C` dense, always lowers.
    let cases = [
        ("spgemm", matmul(n, Format::csr(), Format::csr()), &c_csr, 3),
        (
            "spmm",
            matmul(n, Format::dense(2), Format::dense(2)),
            &c_dense,
            0,
        ),
    ];
    let limits = [
        0,
        100,
        255,
        256,
        257,
        383,
        384,
        385,
        1087,
        1088,
        1089,
        1 << 20,
    ];
    for (what, stmt, c, expect_shed) in cases {
        let mut shed = 0;
        for limit in limits {
            let budget = ResourceBudget::unlimited().with_max_workspace_bytes(limit);
            let compiled = stmt.compile_with_budget(opts.clone(), budget);
            let server = Server::builder()
                .workers(1)
                .tenant("t", TenantPolicy::default().with_budget(budget))
                .build();
            let submitted = server.submit(Request::new(
                "t",
                stmt.clone(),
                opts.clone(),
                vec![("B".into(), Arc::clone(&b)), ("C".into(), Arc::clone(c))],
                Duration::from_secs(60),
            ));
            match (compiled, submitted) {
                (
                    Err(CoreError::BudgetExceeded {
                        context,
                        requested,
                        limit: l,
                        ..
                    }),
                    Err(Rejected::BudgetInfeasible {
                        workspace,
                        bound_bytes,
                        budget_bytes,
                        ..
                    }),
                ) => {
                    assert_eq!(Some(workspace), context, "{what} @ {limit}: workspace");
                    assert_eq!(bound_bytes, requested, "{what} @ {limit}: bound");
                    assert_eq!(budget_bytes, l, "{what} @ {limit}: limit");
                    assert_eq!(
                        server.engine().cache_stats().compiles,
                        0,
                        "{what} @ {limit}"
                    );
                    shed += 1;
                }
                (Err(CoreError::BudgetExceeded { .. }), other) => {
                    panic!(
                        "{what} @ {limit}: compile exceeds the budget but admission gave {other:?}"
                    )
                }
                (compiled, Err(rejected)) => {
                    panic!("{what} @ {limit}: shed {rejected:?} but compile gave {compiled:?}")
                }
                (_, Ok(ticket)) => {
                    let _ = ticket.wait();
                }
            }
            server.drain();
        }
        assert_eq!(shed, expect_shed, "{what}: shed count");
    }
}
