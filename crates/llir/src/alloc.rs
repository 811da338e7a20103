//! Unified allocation accounting for every execution backend.
//!
//! The interpreter ([`Executable::run`](crate::Executable::run)) and the
//! native backend (`taco-native`) both allocate output and workspace arrays
//! while a kernel runs, and both must abort with *identical* typed
//! [`RunError::BudgetExceeded`] payloads when a [`ResourceBudget`] limit is
//! crossed — a serving tier keys retry/degrade decisions off those payloads,
//! so backends may not disagree about when or how a budget trips.
//!
//! [`AllocSink`] is the charging contract; [`BudgetMeter`] is the single
//! canonical implementation, shared verbatim by both backends:
//!
//! * the interpreter's machine threads each `Alloc`/`Realloc`/map-growth
//!   through its meter, and
//! * the native host's `extern "C"` allocation callbacks charge the same
//!   meter before touching any buffer.
//!
//! The meter also carries the loop-iteration fuse so the native poll
//! callback can consume iterations in supervision-stride batches and still
//! abort on exactly the same iteration count as the interpreter.

use crate::budget::{BudgetResource, ResourceBudget};
use crate::error::RunError;
use crate::ArrayTy;

/// Bytes charged per element of an array of type `ty`. Both backends size
/// allocations from this table so their byte charges agree exactly.
pub fn elem_bytes(ty: ArrayTy) -> u64 {
    match ty {
        ArrayTy::Int => 8,
        ArrayTy::F64 => 8,
        ArrayTy::F32 => 4,
        ArrayTy::Bool => 1,
    }
}

/// The allocation-accounting contract every execution backend charges
/// through. One implementation — [`BudgetMeter`] — serves both the
/// interpreter and the native backend, which is what guarantees the two
/// report byte-identical budget aborts.
pub trait AllocSink {
    /// Charges `new_bytes` of fresh allocation for the array `name` against
    /// the single-allocation and cumulative byte limits.
    fn charge_array_bytes(&mut self, name: &str, new_bytes: u64) -> Result<(), RunError>;

    /// Charges map-workspace growth: the map's whole `footprint` must fit
    /// the single-workspace limit, and the growth `delta` counts toward the
    /// cumulative total.
    fn charge_map_bytes(&mut self, name: &str, footprint: u64, delta: u64)
        -> Result<(), RunError>;

    /// Counts one `Realloc` growth of the array in `slot` (named `name`)
    /// against the per-array doubling cap.
    fn charge_realloc_doubling(&mut self, slot: usize, name: &str) -> Result<(), RunError>;
}

/// Mutable budget accounting for one run. Limits of `u64::MAX`/`u32::MAX`
/// mean "unbounded" so the hot-path checks stay branch-cheap.
///
/// Constructed from a [`ResourceBudget`] at run start; consumed by exactly
/// one run (counters are cumulative within the run, never refunded).
#[derive(Debug, Clone)]
pub struct BudgetMeter {
    pub(crate) iterations_left: u64,
    pub(crate) max_iterations: u64,
    pub(crate) max_single_bytes: u64,
    pub(crate) max_total_bytes: u64,
    pub(crate) total_bytes: u64,
    pub(crate) peak_single_bytes: u64,
    pub(crate) peak_map_bytes: u64,
    pub(crate) max_doublings: u32,
    pub(crate) realloc_counts: Vec<u32>,
}

impl BudgetMeter {
    /// Creates a meter for one run over `n_arrays` array slots.
    pub fn new(budget: &ResourceBudget, n_arrays: usize) -> BudgetMeter {
        let max_iterations = budget.max_loop_iterations.unwrap_or(u64::MAX);
        BudgetMeter {
            iterations_left: max_iterations,
            max_iterations,
            max_single_bytes: budget.max_workspace_bytes.unwrap_or(u64::MAX),
            max_total_bytes: budget.max_total_bytes.unwrap_or(u64::MAX),
            total_bytes: 0,
            peak_single_bytes: 0,
            peak_map_bytes: 0,
            max_doublings: budget.max_realloc_doublings.unwrap_or(u32::MAX),
            realloc_counts: vec![0; n_arrays],
        }
    }

    /// Cumulative bytes charged so far this run.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// High-water mark of the largest single array allocation charged this
    /// run (the observable the static cost analysis bounds per allocation).
    pub fn peak_single_bytes(&self) -> u64 {
        self.peak_single_bytes
    }

    /// High-water mark of the largest map-workspace footprint (capacity ×
    /// entry bytes, doubling included) charged this run.
    pub fn peak_map_bytes(&self) -> u64 {
        self.peak_map_bytes
    }

    /// Loop iterations consumed so far, recovered from the fuse.
    pub fn iterations_done(&self) -> u64 {
        self.max_iterations - self.iterations_left
    }

    /// Grants a batch of up to `want` loop iterations for coarse-grained
    /// (native) supervision. Returns `min(want, fuse + 1)`: when the fuse
    /// has fewer than `want` iterations left, the grant still includes the
    /// first over-budget iteration so the *charge* of the batch trips the
    /// fuse on exactly the same iteration count as the interpreter's
    /// one-at-a-time accounting.
    pub fn grant_iterations(&self, want: u64) -> u64 {
        want.min(self.iterations_left.saturating_add(1))
    }

    /// Consumes `n` loop iterations from the fuse; the error payload is
    /// identical to the interpreter's per-iteration consumption. A batch
    /// that overruns exhausts the fuse, so [`BudgetMeter::iterations_done`]
    /// then reports the limit, as the interpreter's does.
    pub fn consume_iterations(&mut self, n: u64) -> Result<(), RunError> {
        match self.iterations_left.checked_sub(n) {
            Some(left) => {
                self.iterations_left = left;
                Ok(())
            }
            None => {
                self.iterations_left = 0;
                Err(RunError::BudgetExceeded {
                    resource: BudgetResource::LoopIterations,
                    limit: self.max_iterations,
                    requested: self.max_iterations.saturating_add(1),
                    array: None,
                })
            }
        }
    }
}

impl AllocSink for BudgetMeter {
    fn charge_array_bytes(&mut self, name: &str, new_bytes: u64) -> Result<(), RunError> {
        if new_bytes > self.max_single_bytes {
            return Err(RunError::BudgetExceeded {
                resource: BudgetResource::WorkspaceBytes,
                limit: self.max_single_bytes,
                requested: new_bytes,
                array: Some(name.to_string()),
            });
        }
        let total = self.total_bytes.saturating_add(new_bytes);
        if total > self.max_total_bytes {
            return Err(RunError::BudgetExceeded {
                resource: BudgetResource::TotalBytes,
                limit: self.max_total_bytes,
                requested: total,
                array: Some(name.to_string()),
            });
        }
        self.total_bytes = total;
        self.peak_single_bytes = self.peak_single_bytes.max(new_bytes);
        Ok(())
    }

    fn charge_map_bytes(
        &mut self,
        name: &str,
        footprint: u64,
        delta: u64,
    ) -> Result<(), RunError> {
        if footprint > self.max_single_bytes {
            return Err(RunError::BudgetExceeded {
                resource: BudgetResource::WorkspaceBytes,
                limit: self.max_single_bytes,
                requested: footprint,
                array: Some(name.to_string()),
            });
        }
        let total = self.total_bytes.saturating_add(delta);
        if total > self.max_total_bytes {
            return Err(RunError::BudgetExceeded {
                resource: BudgetResource::TotalBytes,
                limit: self.max_total_bytes,
                requested: total,
                array: Some(name.to_string()),
            });
        }
        self.total_bytes = total;
        self.peak_map_bytes = self.peak_map_bytes.max(footprint);
        Ok(())
    }

    fn charge_realloc_doubling(&mut self, slot: usize, name: &str) -> Result<(), RunError> {
        let count = self.realloc_counts[slot].saturating_add(1);
        if count > self.max_doublings {
            return Err(RunError::BudgetExceeded {
                resource: BudgetResource::ReallocDoublings,
                limit: self.max_doublings as u64,
                requested: count as u64,
                array: Some(name.to_string()),
            });
        }
        self.realloc_counts[slot] = count;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_allocation_limit_trips_with_array_name() {
        let budget = ResourceBudget::unlimited().with_max_workspace_bytes(100);
        let mut m = BudgetMeter::new(&budget, 2);
        assert!(m.charge_array_bytes("w", 100).is_ok());
        let err = m.charge_array_bytes("w", 101).unwrap_err();
        match err {
            RunError::BudgetExceeded { resource, limit, requested, array } => {
                assert_eq!(resource, BudgetResource::WorkspaceBytes);
                assert_eq!(limit, 100);
                assert_eq!(requested, 101);
                assert_eq!(array.as_deref(), Some("w"));
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn cumulative_limit_counts_across_arrays() {
        let budget = ResourceBudget::unlimited().with_max_total_bytes(150);
        let mut m = BudgetMeter::new(&budget, 2);
        assert!(m.charge_array_bytes("a", 100).is_ok());
        let err = m.charge_array_bytes("b", 100).unwrap_err();
        match err {
            RunError::BudgetExceeded { resource, requested, .. } => {
                assert_eq!(resource, BudgetResource::TotalBytes);
                assert_eq!(requested, 200);
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn batched_iteration_fuse_matches_per_iteration_payload() {
        let budget = ResourceBudget::unlimited().with_max_loop_iterations(500);
        let mut m = BudgetMeter::new(&budget, 0);
        let g = m.grant_iterations(1024);
        assert_eq!(g, 501, "grant includes the first over-budget iteration");
        let err = m.consume_iterations(g).unwrap_err();
        match err {
            RunError::BudgetExceeded { resource, limit, requested, array } => {
                assert_eq!(resource, BudgetResource::LoopIterations);
                assert_eq!(limit, 500);
                assert_eq!(requested, 501);
                assert_eq!(array, None);
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn peak_high_water_marks_track_largest_charges() {
        let budget = ResourceBudget::unlimited();
        let mut m = BudgetMeter::new(&budget, 2);
        m.charge_array_bytes("a", 100).unwrap();
        m.charge_array_bytes("b", 40).unwrap();
        assert_eq!(m.peak_single_bytes(), 100);
        m.charge_map_bytes("w", 64, 64).unwrap();
        m.charge_map_bytes("w", 256, 192).unwrap();
        m.charge_map_bytes("w2", 32, 32).unwrap();
        assert_eq!(m.peak_map_bytes(), 256);
        assert_eq!(m.total_bytes(), 100 + 40 + 64 + 192 + 32);
    }

    #[test]
    fn realloc_doubling_cap() {
        let budget = ResourceBudget::unlimited().with_max_realloc_doublings(2);
        let mut m = BudgetMeter::new(&budget, 1);
        assert!(m.charge_realloc_doubling(0, "crd").is_ok());
        assert!(m.charge_realloc_doubling(0, "crd").is_ok());
        let err = m.charge_realloc_doubling(0, "crd").unwrap_err();
        match err {
            RunError::BudgetExceeded { resource, array, .. } => {
                assert_eq!(resource, BudgetResource::ReallocDoublings);
                assert_eq!(array.as_deref(), Some("crd"));
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }
}
