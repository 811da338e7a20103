//! Autotune bookkeeping: decision keys, cached decisions, and the counters
//! that prove tuning happens exactly once per key.
//!
//! The search itself (enumerate → compile → time → pick) lives in
//! [`Engine::run_tuned`](crate::Engine::run_tuned); this module owns the
//! *memory* of it. Decisions are keyed by what actually changes the best
//! schedule — the expression being computed, the operand formats, and how
//! sparse the operands are — so a decision made for one SpGEMM carries over
//! to every later SpGEMM on same-shaped data of similar density, but not to
//! a dense matmul or to operands three orders of magnitude denser.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use taco_core::fingerprint::{fingerprint_stmt, Fnv64};
use taco_core::IndexStmt;
use taco_llir::WorkspaceKind;
use taco_tensor::{Format, LevelType, Tensor};

/// The identity of one autotune decision: *which* computation, on *what
/// kind* of data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TuneKey {
    /// Structural fingerprint of the **unscheduled** statement (the direct
    /// concretization of the source assignment), so every scheduling of the
    /// same expression shares one decision. Includes operand formats, ranks
    /// and dimensions.
    pub expr: u64,
    /// Hash of the runtime operands' formats and shapes, in binding order.
    pub formats: u64,
    /// Order-of-magnitude sparsity class of the operands:
    /// `round(-log10(geometric mean density))`, clamped to `0..=15`.
    /// Dense data is bucket 0; ~0.1% dense data is bucket 3.
    pub sparsity_bucket: u8,
}

impl TuneKey {
    /// Builds the key for a statement and the operands it will run on.
    ///
    /// Falls back to fingerprinting the statement as scheduled if the
    /// source fails to re-concretize (it was concretized once already, so
    /// this effectively cannot happen).
    pub fn new(stmt: &IndexStmt, inputs: &[(&str, &Tensor)]) -> TuneKey {
        let expr = match IndexStmt::new(stmt.source().clone()) {
            Ok(direct) => fingerprint_stmt(direct.concrete()),
            Err(_) => fingerprint_stmt(stmt.concrete()),
        };
        TuneKey {
            expr,
            formats: format_signature(inputs),
            sparsity_bucket: sparsity_bucket(inputs),
        }
    }
}

impl std::fmt::Display for TuneKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "expr {:016x} / formats {:016x} / sparsity 1e-{}",
            self.expr, self.formats, self.sparsity_bucket
        )
    }
}

/// FNV-1a over the operand names, shapes and per-mode formats.
fn format_signature(inputs: &[(&str, &Tensor)]) -> u64 {
    let mut h = Fnv64::new();
    for (name, t) in inputs {
        h.write(name.as_bytes()).write_tag(0xff);
        for &d in t.shape() {
            h.write_u64(d as u64);
        }
        for m in t.format().modes() {
            h.write_tag(match m {
                LevelType::Dense => 1,
                LevelType::Compressed => 2,
                LevelType::Singleton => 3,
                LevelType::Hashed => 4,
            });
        }
        // Mode order distinguishes CSR from CSC (same level chain).
        for &m in t.format().mode_order() {
            h.write_u64(m as u64);
        }
        h.write_tag(0xfe);
    }
    h.finish()
}

/// `round(-log10(geometric mean density))` over all operands, clamped to
/// `0..=15`. Empty operands count as maximally sparse.
fn sparsity_bucket(inputs: &[(&str, &Tensor)]) -> u8 {
    if inputs.is_empty() {
        return 0;
    }
    let mut log_sum = 0.0f64;
    for (_, t) in inputs {
        let size: f64 = t.shape().iter().map(|&d| d as f64).product();
        let density = if size > 0.0 { t.nnz() as f64 / size } else { 0.0 };
        // Floor the density so log10 stays finite for empty tensors.
        log_sum += density.max(1e-15).log10();
    }
    let mean_log = log_sum / inputs.len() as f64;
    (-mean_log).round().clamp(0.0, 15.0) as u8
}

/// A remembered winner for one [`TuneKey`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneDecision {
    /// Name of the winning candidate (see
    /// [`taco_core::candidates::ScheduleCandidate::name`]); stable across
    /// runs, so the engine re-derives the schedule from the candidate set.
    pub schedule: String,
    /// Measured wall-clock nanoseconds of the winner during tuning.
    pub best_nanos: u64,
    /// Pinned worker-thread count of the winner, when the winning schedule
    /// was a parallel candidate timed at an explicit thread count. `None`
    /// means the winner was serial (or parallel with automatic thread
    /// resolution); reuse then runs the schedule unpinned.
    pub threads: Option<usize>,
    /// The workspace storage backend the winning candidate was compiled
    /// with (dense for every candidate without a `workspace(...)` variant
    /// suffix).
    pub workspace_kind: WorkspaceKind,
    /// Operand format conversions the winning candidate requires:
    /// `(operand name, chosen format)`. Empty when the winner runs the
    /// operands in their declared formats.
    pub conversions: Vec<(String, Format)>,
    /// How many candidates were enumerated for this key.
    pub candidates: usize,
    /// How many of them compiled and ran to completion.
    pub viable: usize,
}

/// Thread-safe store of autotune decisions.
#[derive(Debug, Default)]
pub struct Autotuner {
    decisions: Mutex<HashMap<TuneKey, TuneDecision>>,
    tunings: AtomicU64,
}

impl Autotuner {
    /// An empty decision store.
    pub fn new() -> Autotuner {
        Autotuner::default()
    }

    /// The remembered decision for `key`, if one exists.
    pub fn decision(&self, key: &TuneKey) -> Option<TuneDecision> {
        self.decisions.lock().unwrap_or_else(|p| p.into_inner()).get(key).cloned()
    }

    /// Records a tuning outcome. Counts as one tuning run even if it
    /// overwrites an earlier decision for the same key.
    pub fn record(&self, key: TuneKey, decision: TuneDecision) {
        self.tunings.fetch_add(1, Ordering::Relaxed);
        self.decisions.lock().unwrap_or_else(|p| p.into_inner()).insert(key, decision);
    }

    /// Number of tuning searches actually executed (decision-cache misses).
    pub fn tunings(&self) -> u64 {
        self.tunings.load(Ordering::Relaxed)
    }

    /// Number of distinct keys with a remembered decision.
    pub fn decisions_len(&self) -> usize {
        self.decisions.lock().unwrap_or_else(|p| p.into_inner()).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_ir::expr::{sum, IndexVar, TensorVar};
    use taco_ir::notation::IndexAssignment;
    use taco_tensor::Csr;

    /// Remembered decisions are keyed by this value: the signature hash
    /// must stay bit-identical across refactors of how it is computed.
    #[test]
    fn tune_key_is_pinned_for_a_fixed_csr_pair() {
        let n = 4;
        let (a, b, c) = (
            TensorVar::new("A", vec![n, n], Format::csr()),
            TensorVar::new("B", vec![n, n], Format::csr()),
            TensorVar::new("C", vec![n, n], Format::csr()),
        );
        let (i, j, k) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
        let stmt = IndexStmt::new(IndexAssignment::assign(
            a.access([i.clone(), j.clone()]),
            sum(k.clone(), b.access([i, k.clone()]) * c.access([k, j])),
        ))
        .unwrap();
        let bt = Csr::from_triplets(n, n, &[(0, 1, 1.0), (2, 3, 2.0)]).to_tensor();
        let ct = Csr::from_triplets(n, n, &[(1, 0, 3.0), (3, 3, 4.0)]).to_tensor();
        let key = TuneKey::new(&stmt, &[("B", &bt), ("C", &ct)]);
        assert_eq!(
            (key.expr, key.formats, key.sparsity_bucket),
            (0x037d_2316_93d5_831e, 0xfe03_d681_6003_8d44, 1)
        );
    }
}
