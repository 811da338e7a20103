//! Both execution backends run under one supervised transaction: the same
//! kernel, operands and supervisor must report the same progress counters
//! on the interpreter and on its native shared object, whether the run
//! commits or aborts, and an aborted run must leave either binding exactly
//! as it was bound.
//!
//! Every test needs a C toolchain and skips with a visible marker when none
//! is present.

use std::time::Duration;
use taco_workspaces::llir::{emit_native, Binding, ExecReport, Progress, Supervisor};
use taco_workspaces::native::{NativeCompiler, NativeKernel};
use taco_workspaces::prelude::*;
use taco_workspaces::tensor::gen::{random_csf3, random_csr, random_dense};

fn require_cc(test: &str) -> Option<NativeCompiler> {
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

/// SpGEMM compiled fused (assemble + compute into CSR), with its operands.
fn spgemm_case(n: usize, density: f64) -> (CompiledKernel, Vec<(&'static str, Tensor)>) {
    let kernel = scheduled_spgemm(n).compile(LowerOptions::fused("spgemm")).unwrap();
    let b = random_csr(n, n, density, 71).to_tensor();
    let c = random_csr(n, n, density, 72).to_tensor();
    (kernel, vec![("B", b), ("C", c)])
}

/// Workspace MTTKRP into a dense result, with its operands.
fn mttkrp_case(
    dims: [usize; 3],
    r: usize,
    nnz: usize,
) -> (CompiledKernel, Vec<(&'static str, Tensor)>) {
    let [di, dk, dl] = dims;
    let kernel =
        workspace_mttkrp(di, dk, dl, r).compile(LowerOptions::compute("mttkrp_ws")).unwrap();
    let b = random_csf3(dims, nnz, 73).to_tensor();
    let c = Tensor::from_dense(&random_dense(dl, r, 74), Format::dense(2)).unwrap();
    let d = Tensor::from_dense(&random_dense(dk, r, 75), Format::dense(2)).unwrap();
    (kernel, vec![("B", b), ("C", c), ("D", d)])
}

fn load_native(cc: &NativeCompiler, kernel: &CompiledKernel) -> NativeKernel {
    let source = emit_native(kernel.executable()).expect("kernel emits C");
    cc.compile(&source, kernel.fingerprint()).expect("kernel compiles natively")
}

fn bind(kernel: &CompiledKernel, operands: &[(&'static str, Tensor)]) -> Binding {
    let inputs: Vec<(&str, &Tensor)> = operands.iter().map(|(n, t)| (*n, t)).collect();
    kernel.bind(&inputs, None).expect("operands bind")
}

/// The counters both backends must agree on (`workers` is 0 on both: the
/// native backend refuses parallel loops and these kernels have none).
fn counters(p: &Progress) -> (u64, u64, u64, u64) {
    (p.iterations, p.allocated_bytes, p.peak_single_bytes, p.peak_map_bytes)
}

/// Runs `kernel` under `supervisor` on the interpreter and natively, each
/// on its own fresh binding, and asserts the two runs agree: same
/// progress counters and result on commit; same reason and counters on
/// abort, with both bindings as they were bound. Returns the
/// interpreter's report when the run commits.
fn agree(
    what: &str,
    kernel: &CompiledKernel,
    native: &NativeKernel,
    operands: &[(&'static str, Tensor)],
    supervisor: &Supervisor,
) -> Option<ExecReport> {
    let pristine = bind(kernel, operands);
    let mut ib = pristine.clone();
    let mut nb = pristine.clone();
    let interp = supervisor.run(kernel.executable(), &mut ib);
    let nat = supervisor.run(native, &mut nb);
    match (interp, nat) {
        (Ok(i), Ok(n)) => {
            assert_eq!(counters(&n.progress), counters(&i.progress), "{what}: commit progress");
            assert_eq!(
                kernel.extract(&nb, None).unwrap(),
                kernel.extract(&ib, None).unwrap(),
                "{what}: results differ"
            );
            Some(i)
        }
        (Err(i), Err(n)) => {
            assert_eq!(n.reason, i.reason, "{what}: abort reasons differ");
            assert_eq!(counters(&n.progress), counters(&i.progress), "{what}: abort progress");
            assert_eq!(ib, pristine, "{what}: interpreter binding not rolled back");
            assert_eq!(nb, pristine, "{what}: native binding not rolled back");
            None
        }
        (i, n) => panic!("{what}: backends disagree on the outcome: {i:?} vs {n:?}"),
    }
}

/// Commit, iteration-fuse abort and total-bytes abort, the two limits set
/// to half of what the committed run used.
fn agree_on_commit_and_aborts(
    what: &str,
    kernel: &CompiledKernel,
    native: &NativeKernel,
    operands: &[(&'static str, Tensor)],
) {
    let report = agree(&format!("{what}/commit"), kernel, native, operands, &Supervisor::new())
        .expect("an unlimited run commits");
    let used = report.progress;
    assert!(used.iterations > 1 && used.allocated_bytes > 1, "{what}: {used}");

    let fuse = ResourceBudget::unlimited().with_max_loop_iterations(used.iterations / 2);
    let fused = Supervisor::new().with_budget(fuse);
    assert!(agree(&format!("{what}/fuse"), kernel, native, operands, &fused).is_none());

    let bytes = ResourceBudget::unlimited().with_max_total_bytes(used.allocated_bytes / 2);
    let capped = Supervisor::new().with_budget(bytes);
    assert!(agree(&format!("{what}/bytes"), kernel, native, operands, &capped).is_none());
}

#[test]
fn spgemm_progress_agrees_across_backends() {
    let Some(cc) = require_cc("spgemm_progress_agrees_across_backends") else { return };
    let (kernel, operands) = spgemm_case(64, 0.1);
    let native = load_native(&cc, &kernel);
    agree_on_commit_and_aborts("spgemm", &kernel, &native, &operands);
}

#[test]
fn mttkrp_progress_agrees_across_backends() {
    let Some(cc) = require_cc("mttkrp_progress_agrees_across_backends") else { return };
    let (kernel, operands) = mttkrp_case([12, 10, 9], 8, 200);
    let native = load_native(&cc, &kernel);
    agree_on_commit_and_aborts("mttkrp", &kernel, &native, &operands);
}

#[test]
fn heartbeat_samples_a_native_run() {
    let Some(cc) = require_cc("heartbeat_samples_a_native_run") else { return };
    let supervisor = Supervisor::new().with_heartbeat(Duration::from_millis(1));
    // Grow the operand until one native run takes at least 20 ms.
    for nnz in (14..=20).map(|s| 1usize << s) {
        let (kernel, operands) = mttkrp_case([256, 256, 256], 64, nnz);
        let native = load_native(&cc, &kernel);
        let mut binding = bind(&kernel, &operands);
        let report = supervisor.run(&native, &mut binding).expect("native run commits");
        if report.elapsed < Duration::from_millis(20) {
            continue;
        }
        assert!(
            report.samples.iter().any(|s| s.progress.iterations > 0),
            "a {:?} native run must be sampled with progress: {:?}",
            report.elapsed,
            report.samples
        );
        return;
    }
    panic!("no native MTTKRP run reached 20 ms");
}
