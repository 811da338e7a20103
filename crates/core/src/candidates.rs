//! Candidate-schedule enumeration for the autotuner.
//!
//! The Section V-C heuristics ([`IndexStmt::suggestions`]) say *where* a
//! workspace is likely to pay off, but the paper is explicit that the best
//! placement depends on formats and sparsity, and that the transformation
//! "should therefore be applied judiciously" (Section VII). This module
//! turns the heuristics into a concrete search space: the direct-merge
//! baseline, every loop reorder of the outer forall chain, and every legal
//! workspace placement the heuristics propose on each of those loop orders.
//! The runtime engine's autotuner times the candidates on real operands and
//! picks the winner.

use crate::fingerprint::{fingerprint_kernel, fingerprint_stmt};
use crate::IndexStmt;
use std::collections::HashSet;
use taco_ir::concrete::ConcreteStmt;
use taco_ir::expr::{IndexVar, TensorVar};
use crate::cost::stmt_workspaces;
use taco_ir::transform;
use taco_llir::WorkspaceKind;
use taco_lower::{lower, LowerOptions};
use taco_tensor::Format;

/// One point in the schedule search space: a named, fully transformed
/// statement ready to compile.
#[derive(Debug, Clone)]
pub struct ScheduleCandidate {
    /// Human-readable schedule description, e.g.
    /// `"reorder(k,j) + precompute(j)"`. Stable across runs for a given
    /// statement, so autotune decisions can be keyed and logged by name.
    pub name: String,
    /// The scheduled statement.
    pub stmt: IndexStmt,
    /// The workspace storage backend this candidate is compiled with
    /// (`workspace(hash)` / `workspace(coord-list)` variants of a schedule
    /// compete against its dense original).
    pub workspace_kind: WorkspaceKind,
    /// Operand format conversions this candidate requires at run time:
    /// `(operand name, target format)`. The statement is already rewritten
    /// to the target format; the runtime converts the bound tensors to match
    /// before executing. The conversion happens outside the timed region, so
    /// the tuner demands a decisive (not noise-level) win before a
    /// conversion candidate displaces one that runs the operands as-is.
    pub conversions: Vec<(String, Format)>,
}

/// Name of the candidate that applies no transformation at all.
pub const DIRECT_MERGE: &str = "direct-merge";

/// Enumerates candidate schedules for a statement.
///
/// The search space, deduplicated by the code each candidate *generates*:
/// every candidate is lowered once under canonical options and keyed by the
/// structural hash of its verified LLIR ([`fingerprint_kernel`]), so two
/// schedules that are spelled differently but lower to identical kernels —
/// e.g. a reorder of loops that co-iterate anyway — occupy one slot.
/// Candidates that do not lower under the canonical options are kept,
/// deduplicated by concrete-statement fingerprint (they may still lower
/// under the caller's options); candidates whose lowering the static
/// verifier *denies* are dropped outright, since they could never compile
/// under the default deny policy. The space itself:
///
/// 1. the statement **as currently scheduled** (so a user schedule always
///    competes);
/// 2. the **direct-merge baseline** — the source statement with every
///    transformation dropped;
/// 3. each **pairwise loop reorder** of the direct baseline's outer forall
///    chain;
/// 4. for each loop order from (2)–(3), every **workspace placement** the
///    Section V-C heuristics suggest for it, applied with a fresh dense
///    workspace sized from the precomputed variables' ranges;
/// 5. for every candidate that materializes a workspace, a **hash-map** and
///    a **coordinate-list** storage-backend variant
///    ([`WorkspaceKind`]) — the graceful-degradation rungs of the budget
///    ladder, raced here on merit rather than necessity.
///
/// Candidates are *syntactically* legal schedules; some may still fail to
/// lower (e.g. a loop order that requires random access into compressed
/// storage). The autotuner treats a failed compile as an infinitely slow
/// candidate, which also means the direct baseline of an intrinsically
/// workspace-requiring kernel (sparse scatter, as in SpGEMM with a
/// compressed result) simply drops out of the race.
pub fn enumerate_candidates(stmt: &IndexStmt) -> Vec<ScheduleCandidate> {
    let mut out: Vec<ScheduleCandidate> = Vec::new();
    let mut seen: HashSet<(u8, u64)> = HashSet::new();
    fn push(
        out: &mut Vec<ScheduleCandidate>,
        seen: &mut HashSet<(u8, u64)>,
        name: String,
        s: IndexStmt,
        kind: WorkspaceKind,
        conversions: Vec<(String, Format)>,
    ) {
        // Key each candidate by the code it generates, not how its schedule
        // is spelled: lower once under canonical options (plus the
        // candidate's workspace backend) and hash the LLIR. Unlowerable
        // dense candidates fall back to the concrete fingerprint (the
        // caller's options may still lower them); an unlowerable sparse
        // backend means the schedule is ineligible for that backend and the
        // variant is dropped. Candidates whose lowering the verifier denies
        // can never compile under the default policy and are dropped from
        // the race.
        let opts = LowerOptions::fused("candidate").with_workspace_kind(kind);
        let key = match lower(s.concrete(), &opts) {
            Ok(lk) => {
                if !taco_verify::verify_lowered(&lk).accepted() {
                    return;
                }
                (0u8, fingerprint_kernel(&lk.kernel))
            }
            Err(_) if kind == WorkspaceKind::Dense => (1u8, fingerprint_stmt(s.concrete())),
            Err(_) => return,
        };
        if seen.insert(key) {
            out.push(ScheduleCandidate { name, stmt: s, workspace_kind: kind, conversions });
        }
    }

    // Base loop orders: the direct concretization plus every pairwise
    // reorder of its outer forall chain.
    let Ok(direct) = IndexStmt::new(stmt.source().clone()) else {
        push(&mut out, &mut seen, "as-scheduled".to_string(), stmt.clone(), WorkspaceKind::Dense, Vec::new());
        return out;
    };
    // An unscheduled statement *is* the direct baseline; only list
    // "as-scheduled" separately when a schedule has actually been applied.
    if fingerprint_stmt(stmt.concrete()) != fingerprint_stmt(direct.concrete()) {
        push(&mut out, &mut seen, "as-scheduled".to_string(), stmt.clone(), WorkspaceKind::Dense, Vec::new());
    }
    let chain = forall_chain(direct.concrete());
    let mut bases: Vec<(String, IndexStmt)> = vec![(DIRECT_MERGE.to_string(), direct.clone())];
    for a in 0..chain.len() {
        for b in (a + 1)..chain.len() {
            if let Ok(r) = transform::reorder(direct.concrete(), &chain[a], &chain[b]) {
                bases.push((
                    format!("reorder({},{})", chain[a], chain[b]),
                    IndexStmt::from_parts(stmt.source().clone(), r),
                ));
            }
        }
    }

    // Workspace placements on every base loop order.
    for (base_name, base) in &bases {
        push(&mut out, &mut seen, base_name.clone(), base.clone(), WorkspaceKind::Dense, Vec::new());
        for (n, sugg) in base.suggestions().into_iter().enumerate() {
            let Some(ws) = workspace_for(base.concrete(), &sugg.over, n) else {
                continue;
            };
            let splits: Vec<(IndexVar, IndexVar, IndexVar)> =
                sugg.over.iter().map(|v| (v.clone(), v.clone(), v.clone())).collect();
            if let Ok(t) = transform::precompute(base.concrete(), &sugg.expr, &splits, &ws) {
                let over: Vec<String> = sugg.over.iter().map(|v| v.to_string()).collect();
                let name = if *base_name == DIRECT_MERGE {
                    format!("precompute({})", over.join(","))
                } else {
                    format!("{} + precompute({})", base_name, over.join(","))
                };
                push(&mut out, &mut seen, name, IndexStmt::from_parts(stmt.source().clone(), t), WorkspaceKind::Dense, Vec::new());
            }
        }
    }

    // Format-conversion candidates: every sparse rank-2 operand competes in
    // the standard rank-2 formats on every base loop order. The statement is
    // rewritten to the target format with `transform::with_format`; the
    // runtime converts the operand before executing, so the candidate's
    // timing includes the conversion it requires. Unlowerable combinations
    // (e.g. COO feeding a fused sparse append) stay in the space and lose as
    // uncompilable, exactly like unlowerable loop orders.
    for (base_name, base) in &bases {
        for (op_name, op_var) in operand_tensors(base.concrete()) {
            if op_var.rank() != 2 || op_var.format().is_all_dense() {
                continue;
            }
            for alt in
                [Format::csr(), Format::dcsr(), Format::csc(), Format::dcsc(), Format::coo(2)]
            {
                if *op_var.format() == alt {
                    continue;
                }
                let Ok(t) = transform::with_format(base.concrete(), &op_name, &alt) else {
                    continue;
                };
                let conv = format!("convert({op_name}:{alt})");
                let name = if *base_name == DIRECT_MERGE {
                    conv
                } else {
                    format!("{base_name} + {conv}")
                };
                push(
                    &mut out,
                    &mut seen,
                    name,
                    IndexStmt::from_parts(stmt.source().clone(), t),
                    WorkspaceKind::Dense,
                    vec![(op_name.clone(), alt)],
                );
            }
        }
    }

    // Parallel variants: every candidate whose outermost loop passes the
    // privatization legality check (`transform::parallelize`) also competes
    // with that loop parallelized. Some may still fail to lower (the
    // parallel executor only chunks dense loops); the autotuner treats those
    // as infinitely slow, as with any other uncompilable candidate.
    let serial: Vec<ScheduleCandidate> = out.clone();
    for c in serial {
        let chain = forall_chain(c.stmt.concrete());
        let Some(v) = chain.first() else { continue };
        if let Ok(p) = transform::parallelize(c.stmt.concrete(), v) {
            push(
                &mut out,
                &mut seen,
                format!("{} + parallelize({v})", c.name),
                IndexStmt::from_parts(stmt.source().clone(), p),
                WorkspaceKind::Dense,
                c.conversions.clone(),
            );
        }
    }

    // Workspace-backend variants: every candidate that materializes a
    // workspace also competes with its hash-map and coordinate-list
    // storage backends (the graceful-degradation rungs, raced here on
    // merit). Ineligible schedules — a backend the lowerer rejects — are
    // dropped inside `push`.
    let dense: Vec<ScheduleCandidate> = out.clone();
    for c in dense {
        if stmt_workspaces(c.stmt.concrete()).is_empty() {
            continue;
        }
        for kind in [WorkspaceKind::Hash, WorkspaceKind::CoordList] {
            push(
                &mut out,
                &mut seen,
                format!("{} + workspace({kind})", c.name),
                c.stmt.clone(),
                kind,
                c.conversions.clone(),
            );
        }
    }
    out
}

/// A fresh dense workspace tensor over the suggestion's index set, sized
/// from the variables' inferred ranges. Returns `None` when a range cannot
/// be inferred (the suggestion is then skipped).
fn workspace_for(stmt: &ConcreteStmt, over: &[IndexVar], n: usize) -> Option<TensorVar> {
    let dims: Option<Vec<usize>> = over.iter().map(|v| stmt.var_dimension(v)).collect();
    let dims = dims?;
    if dims.is_empty() {
        return None;
    }
    Some(TensorVar::new(format!("w_tune{n}"), dims.clone(), Format::dense(dims.len())))
}

/// Tensors the statement reads but never writes (the kernel's operands),
/// in first-access order.
fn operand_tensors(stmt: &ConcreteStmt) -> Vec<(String, TensorVar)> {
    let written = stmt.written_tensors();
    let mut out: Vec<(String, TensorVar)> = Vec::new();
    stmt.visit(&mut |s| {
        if let ConcreteStmt::Assign { rhs, .. } = s {
            for a in rhs.accesses() {
                let name = a.tensor().name();
                if !written.iter().any(|w| w == name)
                    && !out.iter().any(|(n, _)| n == name)
                {
                    out.push((name.to_string(), a.tensor().clone()));
                }
            }
        }
    });
    out
}

/// The index variables of the outermost forall chain, outermost first.
fn forall_chain(stmt: &ConcreteStmt) -> Vec<IndexVar> {
    let mut vars = Vec::new();
    let mut cur = stmt;
    while let ConcreteStmt::Forall { var, body, .. } = cur {
        vars.push(var.clone());
        cur = body;
    }
    vars
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_ir::expr::{sum, IndexVar, TensorVar};
    use taco_ir::notation::IndexAssignment;
    use taco_lower::LowerOptions;

    fn spgemm_unscheduled() -> IndexStmt {
        let n = 16;
        let a = TensorVar::new("A", vec![n, n], Format::csr());
        let b = TensorVar::new("B", vec![n, n], Format::csr());
        let c = TensorVar::new("C", vec![n, n], Format::csr());
        let (i, j, k) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
        IndexStmt::new(IndexAssignment::assign(
            a.access([i.clone(), j.clone()]),
            sum(k.clone(), b.access([i, k.clone()]) * c.access([k, j])),
        ))
        .unwrap()
    }

    #[test]
    fn spgemm_space_contains_figure2_schedule() {
        let cands = enumerate_candidates(&spgemm_unscheduled());
        let names: Vec<&str> = cands.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&DIRECT_MERGE), "baseline present: {names:?}");
        assert!(
            names.iter().any(|n| n.contains("reorder(j,k)") && n.contains("precompute(j)")),
            "the paper's Figure 2 schedule (Gustavson) must be in the space: {names:?}"
        );
        // At least one workspace candidate must actually compile: SpGEMM
        // into CSR is unrealizable without one.
        assert!(
            cands
                .iter()
                .filter(|c| c.name.contains("precompute"))
                .any(|c| c.stmt.compile(LowerOptions::fused("t")).is_ok()),
            "no workspace candidate compiles"
        );
    }

    #[test]
    fn spgemm_space_contains_sparse_workspace_backends() {
        let cands = enumerate_candidates(&spgemm_unscheduled());
        for kind in [WorkspaceKind::Hash, WorkspaceKind::CoordList] {
            let variant = cands
                .iter()
                .find(|c| c.workspace_kind == kind)
                .unwrap_or_else(|| panic!("no workspace({kind}) candidate in the space"));
            assert!(
                variant.name.contains(&format!("workspace({kind})")),
                "backend variant named after its kind: {}",
                variant.name
            );
            // Backend variants only enter the space if they lower (push
            // drops ineligible ones), so this must compile.
            variant
                .stmt
                .compile(LowerOptions::fused("t").with_workspace_kind(kind))
                .unwrap_or_else(|e| panic!("workspace({kind}) candidate does not compile: {e}"));
        }
    }

    #[test]
    fn candidates_are_deduplicated() {
        let cands = enumerate_candidates(&spgemm_unscheduled());
        // A schedule may appear once per workspace backend (same concrete
        // statement, different generated code), but never twice with the
        // same backend.
        let mut fps: Vec<(u64, WorkspaceKind)> = cands
            .iter()
            .map(|c| (fingerprint_stmt(c.stmt.concrete()), c.workspace_kind))
            .collect();
        fps.sort_unstable_by_key(|(fp, k)| (*fp, *k as u8));
        fps.dedup();
        assert_eq!(fps.len(), cands.len(), "duplicate schedules in candidate set");
    }

    #[test]
    fn as_scheduled_statement_is_first_candidate() {
        let mut s = spgemm_unscheduled();
        let (j, k) = (IndexVar::new("j"), IndexVar::new("k"));
        s.reorder(&k, &j).unwrap();
        let cands = enumerate_candidates(&s);
        assert_eq!(cands[0].name, "as-scheduled");
        assert_eq!(cands[0].stmt.concrete(), s.concrete());
    }
}
