//! Integration tests for result assembly (paper Section VI, Figure 8):
//! structural invariants of assembled indices, agreement between symbolic,
//! fused and pre-assembled-compute kernels, and unsorted assembly.

use proptest::prelude::*;
use taco_core::IndexStmt;
use taco_ir::expr::{sum, IndexExpr, IndexVar, TensorVar};
use taco_ir::notation::IndexAssignment;
use taco_lower::LowerOptions;
use taco_tensor::gen::random_csr;
use taco_tensor::{Format, ModeStorage, Tensor};

fn iv(n: &str) -> IndexVar {
    IndexVar::new(n)
}

/// Builds the scheduled workspace SpGEMM statement.
fn spgemm(n: usize) -> IndexStmt {
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

/// Checks CSR structural invariants of an assembled tensor.
fn assert_csr_invariants(t: &Tensor, sorted: bool) {
    let pos = t.pos(1).unwrap();
    let crd = t.crd(1).unwrap();
    assert_eq!(pos.len(), t.dim(0) + 1);
    assert_eq!(*pos.last().unwrap(), crd.len());
    assert!(pos.windows(2).all(|w| w[0] <= w[1]), "pos must be monotone");
    assert!(crd.iter().all(|c| *c < t.dim(1)), "crd within bounds");
    if sorted {
        for r in 0..t.dim(0) {
            let row = &crd[pos[r]..pos[r + 1]];
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {r} sorted and duplicate-free");
        }
    }
}

#[test]
fn assembled_structure_satisfies_csr_invariants() {
    let n = 24;
    let stmt = spgemm(n);
    let assemble = stmt.compile(LowerOptions::assemble("asm")).unwrap();
    let bt = random_csr(n, n, 0.15, 1).to_tensor();
    let ct = random_csr(n, n, 0.15, 2).to_tensor();
    let structure = assemble.run(&[("B", &bt), ("C", &ct)]).unwrap();
    assert_csr_invariants(&structure, true);
    // Symbolic kernels produce zero values.
    assert!(structure.vals().iter().all(|v| *v == 0.0));
}

#[test]
fn assembly_structure_equals_fused_structure() {
    let n = 20;
    let stmt = spgemm(n);
    let assemble = stmt.compile(LowerOptions::assemble("asm")).unwrap();
    let fused = stmt.compile(LowerOptions::fused("fused")).unwrap();
    let bt = random_csr(n, n, 0.2, 3).to_tensor();
    let ct = random_csr(n, n, 0.2, 4).to_tensor();
    let s = assemble.run(&[("B", &bt), ("C", &ct)]).unwrap();
    let f = fused.run(&[("B", &bt), ("C", &ct)]).unwrap();
    assert_eq!(s.pos(1).unwrap(), f.pos(1).unwrap());
    assert_eq!(s.crd(1).unwrap(), f.crd(1).unwrap());
}

/// The assembled structure is exactly the structural product pattern:
/// row i of A = union of C-row patterns over B's row i.
#[test]
fn assembled_pattern_is_structural_product() {
    let n = 16;
    let stmt = spgemm(n);
    let assemble = stmt.compile(LowerOptions::assemble("asm")).unwrap();
    let bm = random_csr(n, n, 0.25, 5);
    let cm = random_csr(n, n, 0.25, 6);
    let structure = assemble.run(&[("B", &bm.to_tensor()), ("C", &cm.to_tensor())]).unwrap();

    for i in 0..n {
        let mut expect: Vec<usize> = Vec::new();
        for (k, _) in bm.row(i).0.iter().zip(bm.row(i).1) {
            for j in cm.row(*k).0 {
                if !expect.contains(j) {
                    expect.push(*j);
                }
            }
        }
        expect.sort_unstable();
        let pos = structure.pos(1).unwrap();
        let crd = structure.crd(1).unwrap();
        assert_eq!(&crd[pos[i]..pos[i + 1]], &expect[..], "row {i} pattern");
    }
}

#[test]
fn unsorted_assembly_has_same_rows_modulo_order() {
    let n = 18;
    let stmt = spgemm(n);
    let sorted = stmt.compile(LowerOptions::fused("s")).unwrap();
    let unsorted = stmt.compile(LowerOptions::fused("u").unsorted()).unwrap();
    let bt = random_csr(n, n, 0.2, 7).to_tensor();
    let ct = random_csr(n, n, 0.2, 8).to_tensor();
    let s = sorted.run(&[("B", &bt), ("C", &ct)]).unwrap();
    let u = unsorted.run(&[("B", &bt), ("C", &ct)]).unwrap();
    // Extraction re-sorts entries, so the tensors must be equal; the
    // unsorted kernel must not drop or duplicate entries.
    assert_eq!(s.nnz(), u.nnz());
    assert!(s.approx_eq(&u, 1e-12));
    assert_eq!(s, u);
}

/// The workspace guard array prevents duplicate coordinates even when many
/// products hit the same output entry.
#[test]
fn no_duplicate_coordinates_with_heavy_collisions() {
    let n = 12;
    let stmt = spgemm(n);
    let fused = stmt.compile(LowerOptions::fused("f")).unwrap();
    // Dense-ish operands: every output entry is hit n times.
    let bt = random_csr(n, n, 0.9, 9).to_tensor();
    let ct = random_csr(n, n, 0.9, 10).to_tensor();
    let out = fused.run(&[("B", &bt), ("C", &ct)]).unwrap();
    assert_csr_invariants(&out, true);
    match out.mode_storage(1) {
        ModeStorage::Compressed { crd, .. } => {
            assert!(crd.len() <= n * n, "no duplicates possible");
        }
        ModeStorage::Dense { .. } | ModeStorage::Singleton { .. } => {
            panic!("result level 1 must be compressed")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Assembly invariants hold across random shapes and densities.
    #[test]
    fn assembly_invariants_hold(
        n in 2usize..20,
        density in 0.0f64..0.6,
        seed in 0u64..500,
    ) {
        let stmt = spgemm(n);
        let fused = stmt.compile(LowerOptions::fused("f")).unwrap();
        let bt = random_csr(n, n, density, seed).to_tensor();
        let ct = random_csr(n, n, density, seed + 1).to_tensor();
        let out = fused.run(&[("B", &bt), ("C", &ct)]).unwrap();
        assert_csr_invariants(&out, true);
    }

    /// Matrix addition assembly produces exactly the union pattern.
    #[test]
    fn addition_assembles_union_pattern(
        n in 2usize..16,
        db in 0.0f64..0.5,
        dc in 0.0f64..0.5,
        seed in 0u64..500,
    ) {
        let a = TensorVar::new("A", vec![n, n], Format::csr());
        let b = TensorVar::new("B", vec![n, n], Format::csr());
        let c = TensorVar::new("C", vec![n, n], Format::csr());
        let (i, j) = (iv("i"), iv("j"));
        let bij: IndexExpr = b.access([i.clone(), j.clone()]).into();
        let cij: IndexExpr = c.access([i.clone(), j.clone()]).into();
        let mut stmt = IndexStmt::new(IndexAssignment::assign(
            a.access([i.clone(), j.clone()]),
            bij.clone() + cij.clone(),
        )).unwrap();
        let w = TensorVar::new("w", vec![n], Format::dvec());
        let sum_expr = bij + cij;
        stmt.precompute(&sum_expr, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();

        let bm = random_csr(n, n, db, seed + 10);
        let cm = random_csr(n, n, dc, seed + 11);
        let assembled = stmt.compile(LowerOptions::assemble("a")).unwrap()
            .run(&[("B", &bm.to_tensor()), ("C", &cm.to_tensor())]).unwrap();

        for r in 0..n {
            let mut expect: Vec<usize> =
                bm.row(r).0.iter().chain(cm.row(r).0).copied().collect();
            expect.sort_unstable();
            expect.dedup();
            let pos = assembled.pos(1).unwrap();
            let crd = assembled.crd(1).unwrap();
            prop_assert_eq!(&crd[pos[r]..pos[r + 1]], &expect[..]);
        }
    }
}
