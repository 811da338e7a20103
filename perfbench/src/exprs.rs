//! The expressions the workloads request, their seeded operands, their
//! independent references, and the hand kernels that set the ceiling.
//!
//! Every reference comes from outside the compiler under test: the hand
//! kernels of `taco-kernels` for SpGEMM, addition and MTTKRP, and the dense
//! oracle `taco_core::oracle::eval_dense` for SpMV in each format.

use crate::common::{csr_matches, dense_matches, derive_seed, spgemm_madds, timed, Tally};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use taco_core::oracle::eval_dense;
use taco_core::IndexStmt;
use taco_ir::expr::{sum, IndexExpr, IndexVar, TensorVar};
use taco_ir::notation::IndexAssignment;
use taco_kernels::add::add2_merge;
use taco_kernels::mttkrp::{mttkrp_dense_reference, mttkrp_splatt, DenseMat};
use taco_kernels::spgemm::spgemm_workspace_sorted;
use taco_lower::LowerOptions;
use taco_tensor::gen::{random_csf3, random_csr_nnz, random_dense, Pattern};
use taco_tensor::{Csf3, Csr, DenseTensor, Format, Tensor};

/// What a correct result must equal.
enum Reference {
    Csr(Csr),
    Dense(Vec<usize>, Vec<f64>),
}

/// The hand-written kernel computing the same result, timed as the ceiling.
pub enum Hand {
    SpGemm(Csr, Csr),
    Add(Csr, Csr),
    Mttkrp(Csf3, DenseMat, DenseMat),
    /// No hand kernel exists for this expression (SpMV).
    None,
}

impl Hand {
    /// Runs the hand kernel once; `None` when there is none.
    pub fn time(&self) -> Option<Duration> {
        let (d, ()) = match self {
            Hand::SpGemm(b, c) => timed(|| {
                black_box(spgemm_workspace_sorted(black_box(b), black_box(c)));
            }),
            Hand::Add(b, c) => timed(|| {
                black_box(add2_merge(black_box(b), black_box(c)));
            }),
            Hand::Mttkrp(b, c, d) => timed(|| {
                black_box(mttkrp_splatt(black_box(b), black_box(c), black_box(d)));
            }),
            Hand::None => return None,
        };
        Some(d)
    }
}

/// One requestable expression with its operands and reference.
pub struct Case {
    /// Expression family, e.g. `spgemm` or `spmv/csc`.
    pub family: String,
    /// The statement as requested (unscheduled for the tuner; scheduled for
    /// the server, which does not tune).
    pub stmt: IndexStmt,
    pub opts: LowerOptions,
    pub operands: Vec<(String, Arc<Tensor>)>,
    reference: Reference,
    pub hand: Hand,
    /// Multiply-adds the expression performs on these operands.
    pub madds: u64,
}

impl Case {
    /// Operands in the borrowed form the engine takes.
    pub fn inputs(&self) -> Vec<(&str, &Tensor)> {
        self.operands
            .iter()
            .map(|(n, t)| (n.as_str(), &**t))
            .collect()
    }

    /// True when `got` equals the reference within tolerance.
    pub fn check(&self, got: &Tensor) -> bool {
        match &self.reference {
            Reference::Csr(want) => csr_matches(got, want),
            Reference::Dense(shape, want) => dense_matches(got, shape, want),
        }
    }

    /// Books one attempted request: ok when `got` matches the reference,
    /// wrong when it does not, failed when there is no result. Returns
    /// whether it was ok.
    pub fn score(&self, tally: &mut Tally, got: Option<&Tensor>) -> bool {
        tally.attempted += 1;
        match got {
            Some(t) if self.check(t) => tally.ok += 1,
            Some(_) => tally.wrong += 1,
            None => tally.failed += 1,
        }
        got.is_some_and(|t| self.check(t))
    }
}

fn iv(name: &str) -> IndexVar {
    IndexVar::new(name)
}

fn sparse(n: usize, nnz: usize, pattern: Pattern, seed: u64) -> Csr {
    random_csr_nnz(n, n, nnz, pattern, seed)
}

/// `A(i,j) = Σ_k B(i,k)·C(k,j)`, all CSR, `n × n`, `nnz` stored entries
/// per operand. `scheduled` applies the paper's Figure 2 schedule (row
/// workspace); otherwise the tuner chooses.
pub fn spgemm(n: usize, nnz: usize, pattern: Pattern, seed: u64, scheduled: bool) -> Case {
    let b = sparse(n, nnz, pattern, derive_seed(seed, 1));
    let c = sparse(n, nnz, pattern, derive_seed(seed, 2));
    let (ta, tb, tc) = (
        TensorVar::new("A", vec![n, n], Format::csr()),
        TensorVar::new("B", vec![n, n], Format::csr()),
        TensorVar::new("C", vec![n, n], Format::csr()),
    );
    let (i, j, k) = (iv("i"), iv("j"), iv("k"));
    let mul = tb.access([i.clone(), k.clone()]) * tc.access([k.clone(), j.clone()]);
    let mut stmt = IndexStmt::new(IndexAssignment::assign(
        ta.access([i.clone(), j.clone()]),
        sum(k.clone(), mul.clone()),
    ))
    .expect("SpGEMM concretizes");
    if scheduled {
        stmt.reorder(&k, &j).expect("SpGEMM loops reorder");
        let w = TensorVar::new("w", vec![n], Format::dvec());
        stmt.precompute(&mul, &[(j.clone(), j.clone(), j)], &w)
            .expect("row workspace applies");
    }
    let want = spgemm_workspace_sorted(&b, &c);
    Case {
        family: "spgemm".to_string(),
        stmt,
        opts: LowerOptions::fused("spgemm"),
        operands: vec![
            ("B".into(), Arc::new(b.to_tensor())),
            ("C".into(), Arc::new(c.to_tensor())),
        ],
        reference: Reference::Csr(want),
        madds: spgemm_madds(&b, &c),
        hand: Hand::SpGemm(b, c),
    }
}

/// `A(i,j) = B(i,j) + C(i,j)`, all CSR, `nnz` stored entries per operand.
pub fn add(n: usize, nnz: usize, seed: u64) -> Case {
    let b = sparse(n, nnz, Pattern::Uniform, derive_seed(seed, 1));
    let c = sparse(n, nnz, Pattern::Uniform, derive_seed(seed, 2));
    let (ta, tb, tc) = (
        TensorVar::new("A", vec![n, n], Format::csr()),
        TensorVar::new("B", vec![n, n], Format::csr()),
        TensorVar::new("C", vec![n, n], Format::csr()),
    );
    let (i, j) = (iv("i"), iv("j"));
    let bij: IndexExpr = tb.access([i.clone(), j.clone()]).into();
    let cij: IndexExpr = tc.access([i.clone(), j.clone()]).into();
    let stmt = IndexStmt::new(IndexAssignment::assign(ta.access([i, j]), bij + cij))
        .expect("addition concretizes");
    Case {
        family: "add".to_string(),
        stmt,
        opts: LowerOptions::fused("add"),
        operands: vec![
            ("B".into(), Arc::new(b.to_tensor())),
            ("C".into(), Arc::new(c.to_tensor())),
        ],
        reference: Reference::Csr(add2_merge(&b, &c)),
        madds: (b.nnz() + c.nnz()) as u64,
        hand: Hand::Add(b, c),
    }
}

/// The SpMV operand formats the workloads rotate over.
fn spmv_format(name: &str) -> Format {
    match name {
        "csr" => Format::csr(),
        "coo" => Format::coo(2),
        "csc" => Format::csc(),
        "dcsr" => Format::dcsr(),
        other => panic!("no SpMV format named {other}"),
    }
}

/// Largest SpMV side whose reference comes from the dense oracle: the oracle
/// walks the whole `n × n` iteration space (about 5 s at n = 4096).
const ORACLE_MAX_N: usize = 1024;

/// `a(i) = Σ_j B(i,j)·x(j)` with `B` in format `fmt` (`nnz` entries) and
/// `x`, `a` dense. Column-major `B` iterates columns outermost, so its loops
/// are reordered to match the storage order. The reference is the dense
/// oracle evaluated on the operands as stored; above [`ORACLE_MAX_N`] it is
/// the tensor crate's own walk over the stored entries of `B`.
pub fn spmv(n: usize, nnz: usize, fmt: &str, seed: u64) -> Case {
    let format = spmv_format(fmt);
    let b = sparse(n, nnz, Pattern::Uniform, derive_seed(seed, 1))
        .to_tensor()
        .convert(format.clone())
        .expect("generated matrix converts to every SpMV format");
    let xs = random_dense(1, n, derive_seed(seed, 2)).into_data();
    let x = Tensor::from_dense(&DenseTensor::from_data(vec![n], xs.clone()), Format::dvec())
        .expect("dense vector packs");
    let (ta, tb, tx) = (
        TensorVar::new("a", vec![n], Format::dvec()),
        TensorVar::new("B", vec![n, n], format.clone()),
        TensorVar::new("x", vec![n], Format::dvec()),
    );
    let (i, j) = (iv("i"), iv("j"));
    let source = IndexAssignment::assign(
        ta.access([i.clone()]),
        sum(
            j.clone(),
            tb.access([i.clone(), j.clone()]) * tx.access([j.clone()]),
        ),
    );
    let mut stmt = IndexStmt::new(source.clone()).expect("SpMV concretizes");
    if !format.is_identity_order() {
        stmt.reorder(&i, &j).expect("SpMV loops reorder");
    }
    let want = if n <= ORACLE_MAX_N {
        eval_dense(&source, &[("B", &b), ("x", &x)])
            .expect("dense oracle evaluates SpMV")
            .into_data()
    } else {
        let mut a = vec![0.0; n];
        for (coord, v) in b.entries() {
            a[coord[0]] += v * xs[coord[1]];
        }
        a
    };
    Case {
        family: format!("spmv/{fmt}"),
        stmt,
        opts: LowerOptions::compute("spmv"),
        madds: b.nnz() as u64,
        operands: vec![("B".into(), Arc::new(b)), ("x".into(), Arc::new(x))],
        reference: Reference::Dense(vec![n], want),
        hand: Hand::None,
    }
}

fn dense_pair(rows: usize, cols: usize, seed: u64) -> (Tensor, DenseMat) {
    let d = random_dense(rows, cols, seed);
    let mat = DenseMat {
        nrows: rows,
        ncols: cols,
        data: d.data().to_vec(),
    };
    (
        Tensor::from_dense(&d, Format::dense(2)).expect("dense matrix packs"),
        mat,
    )
}

/// `A(i,j) = Σ_{k,l} B(i,k,l)·C(l,j)·D(k,j)` with `B` a CSF 3-tensor of
/// shape `dims` and `nnz` entries, `C`, `D` and `A` dense with `rank`
/// columns. `scheduled` applies the paper's Figure 9 workspace schedule.
pub fn mttkrp(dims: [usize; 3], nnz: usize, rank: usize, seed: u64, scheduled: bool) -> Case {
    let b = random_csf3(dims, nnz, derive_seed(seed, 1));
    let (ct, cm) = dense_pair(dims[2], rank, derive_seed(seed, 2));
    let (dt, dm) = dense_pair(dims[1], rank, derive_seed(seed, 3));
    let ta = TensorVar::new("A", vec![dims[0], rank], Format::dense(2));
    let tb = TensorVar::new("B", dims.to_vec(), Format::csf3());
    let tc = TensorVar::new("C", vec![dims[2], rank], Format::dense(2));
    let td = TensorVar::new("D", vec![dims[1], rank], Format::dense(2));
    let (i, j, k, l) = (iv("i"), iv("j"), iv("k"), iv("l"));
    let bc = tb.access([i.clone(), k.clone(), l.clone()]) * tc.access([l.clone(), j.clone()]);
    let source = IndexAssignment::assign(
        ta.access([i.clone(), j.clone()]),
        sum(
            k.clone(),
            sum(l.clone(), bc.clone() * td.access([k.clone(), j.clone()])),
        ),
    );
    let mut stmt = IndexStmt::new(source).expect("MTTKRP concretizes");
    if scheduled {
        stmt.reorder(&j, &k).expect("MTTKRP loops reorder");
        stmt.reorder(&j, &l).expect("MTTKRP loops reorder");
        let w = TensorVar::new("w", vec![rank], Format::dvec());
        stmt.precompute(&bc, &[(j.clone(), j.clone(), j)], &w)
            .expect("row workspace applies");
    }
    let want = mttkrp_dense_reference(&b, &cm, &dm);
    Case {
        family: "mttkrp".to_string(),
        stmt,
        opts: LowerOptions::compute("mttkrp"),
        operands: vec![
            ("B".into(), Arc::new(b.to_tensor())),
            ("C".into(), Arc::new(ct)),
            ("D".into(), Arc::new(dt)),
        ],
        reference: Reference::Dense(vec![dims[0], rank], want.data),
        madds: (b.nnz() * rank) as u64,
        hand: Hand::Mttkrp(b, cm, dm),
    }
}
