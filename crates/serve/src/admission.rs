//! Static cost-model admission checks.
//!
//! Both checks run the symbolic cost analyzer
//! ([`taco_core::analyze_cost`]) over a lowering of the request *before*
//! the request is queued or compiled:
//!
//! * [`budget_infeasible`] proves a request can never run under its
//!   tenant's workspace-byte budget — it runs the budget plan
//!   `compile_with_budget` runs and sheds exactly when that plan ends in a
//!   `BudgetExceeded` error, so the doomed request sheds at the front door
//!   instead of occupying queue and compile capacity;
//! * [`service_prior_nanos`] turns the analyzer's iteration bound into a
//!   service-time prior that seeds the queue-wait estimate before any
//!   completion has been observed (the EMA cold start).

use crate::server::Request;
use taco_core::{analyze_cost, CoreError, CostEnv, ResourceBudget};
use taco_lower::{lower, LoweredKernel};

/// Nanoseconds charged per bounded loop iteration in the cold-start prior.
/// Interpreter dispatch costs tens of nanoseconds per statement; one
/// iteration executes a handful. The estimate only needs the right order
/// of magnitude — shedding decisions compare it against deadlines that are
/// milliseconds and up.
const NANOS_PER_ITERATION: u64 = 10;

/// Clamp range of the prior: never below one microsecond (a degenerate
/// bound must not read as "instant"), never above one second (a loose
/// polynomial over big dimensions must not shed everything).
const PRIOR_MIN_NANOS: u64 = 1_000;
const PRIOR_MAX_NANOS: u64 = 1_000_000_000;

/// Proves a request infeasible under `budget`, or returns `None` when it
/// might run. `Some((workspace, bound_bytes, limit))` means compiling this
/// request is guaranteed to fail with a budget error: the compile-time
/// budget plan ([`taco_core::IndexStmt::plan_budget`]) finds no dense,
/// sparse or direct-merge kernel that fits — decided without compiling,
/// verifying, or queuing anything.
pub(crate) fn budget_infeasible(
    req: &Request,
    budget: &ResourceBudget,
) -> Option<(String, u64, u64)> {
    match req.stmt.plan_budget(req.opts.clone(), budget) {
        Err(CoreError::BudgetExceeded { context, requested, limit, .. }) => {
            Some((context.unwrap_or_default(), requested, limit))
        }
        _ => None,
    }
}

/// A service-time prior for the request, from the analyzer's iteration
/// bound: `iterations × NANOS_PER_ITERATION`, clamped to a sane range.
/// `None` when the statement does not lower or the bound cannot be
/// evaluated even pessimistically.
pub(crate) fn service_prior_nanos(req: &Request) -> Option<u64> {
    let lk = lower(req.stmt.concrete(), &req.opts).ok()?;
    let cost = analyze_cost(&lk);
    let env = pessimistic_env(&lk, req);
    let iterations = cost.iterations.concrete(&env)?;
    Some(
        iterations
            .saturating_mul(NANOS_PER_ITERATION)
            .clamp(PRIOR_MIN_NANOS, PRIOR_MAX_NANOS),
    )
}

/// The shape-derived environment, with `len(...)` atoms valued
/// pessimistically from the *dense* size of the tensor each array belongs
/// to (a sparse array is never longer than its dense dimension product,
/// plus one for `pos`). Good enough for a prior; the sound bind-time
/// environment uses real array lengths instead.
fn pessimistic_env(lk: &LoweredKernel, req: &Request) -> CostEnv {
    let mut env = CostEnv::from_shapes(lk);
    let mut tensors: Vec<(&str, u64)> = vec![(lk.result.name(), dense_size(lk.result.shape()))];
    for op in &lk.operands {
        tensors.push((op.name(), dense_size(op.shape())));
    }
    for (name, t) in &req.operands {
        tensors.push((name.as_str(), dense_size(t.shape())));
    }
    for param in &lk.kernel.array_params {
        // Longest-prefix match: tensor `B` owns `B2_pos`, not tensor `B2`'s
        // arrays.
        let owner = tensors
            .iter()
            .filter(|(t, _)| param.name.starts_with(t))
            .max_by_key(|(t, _)| t.len());
        if let Some((_, size)) = owner {
            env.lens.insert(param.name.clone(), size.saturating_add(1));
        }
    }
    env
}

fn dense_size(shape: &[usize]) -> u64 {
    shape.iter().try_fold(1u64, |acc, &d| acc.checked_mul(d as u64)).unwrap_or(u64::MAX)
}
