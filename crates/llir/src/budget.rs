//! Resource budgets for kernel execution.
//!
//! The workspace transformation (paper §IV) trades memory for speed: a dense
//! workspace allocates a full dimension regardless of how sparse the data is,
//! and assembly kernels grow result arrays by repeated doubling. When the
//! compiler runs untrusted expressions over untrusted tensors, both are
//! unbounded resource sinks, and corrupted `pos` arrays can additionally drive
//! merge loops effectively forever. A [`ResourceBudget`] bounds all of these
//! at the executor level, turning would-be OOMs and hangs into structured
//! [`RunError::BudgetExceeded`](crate::RunError::BudgetExceeded) errors.

/// A budget environment variable that was set but did not parse.
///
/// Returned by [`ResourceBudget::try_from_env`]; the lenient
/// [`ResourceBudget::from_env`] logs this error to stderr instead of
/// silently defaulting, so a fat-fingered `TACO_BUDGET_BYTES=12kb` leaves a
/// trace rather than an unlimited budget nobody asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetEnvError {
    /// The environment variable that was malformed.
    pub var: &'static str,
    /// Its raw value.
    pub value: String,
    /// Why it did not parse (rendered from the integer parser).
    pub reason: String,
}

impl std::fmt::Display for BudgetEnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "malformed {}={:?}: {} (expected a byte count, e.g. `12000`); \
             running with an unlimited budget",
            self.var, self.value, self.reason
        )
    }
}

impl std::error::Error for BudgetEnvError {}

/// The environment variable [`ResourceBudget::try_from_env`] reads.
const BUDGET_ENV_VAR: &str = "TACO_BUDGET_BYTES";

/// Which budgeted resource a violation refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetResource {
    /// A single allocation (workspace or result buffer) was too large.
    WorkspaceBytes,
    /// Cumulative bytes allocated across the whole run.
    TotalBytes,
    /// Total loop iterations executed (the iteration fuse).
    LoopIterations,
    /// Times a single array was grown by `Realloc`.
    ReallocDoublings,
}

impl std::fmt::Display for BudgetResource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetResource::WorkspaceBytes => write!(f, "workspace bytes"),
            BudgetResource::TotalBytes => write!(f, "total allocated bytes"),
            BudgetResource::LoopIterations => write!(f, "loop iterations"),
            BudgetResource::ReallocDoublings => write!(f, "realloc doublings"),
        }
    }
}

/// Execution resource limits enforced by
/// [`Executable::run_with_budget`](crate::Executable::run_with_budget).
///
/// Every limit is optional; `None` means unbounded, and
/// [`ResourceBudget::unlimited`] (also the `Default`) disables everything so
/// existing callers keep their behavior.
///
/// # Example
///
/// ```
/// use taco_llir::ResourceBudget;
///
/// let budget = ResourceBudget::unlimited()
///     .with_max_workspace_bytes(1 << 20)
///     .with_max_loop_iterations(10_000_000);
/// assert_eq!(budget.max_workspace_bytes, Some(1 << 20));
/// assert_eq!(budget.max_total_bytes, None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceBudget {
    /// Largest single allocation, in bytes. This is what a dense workspace
    /// must fit into.
    pub max_workspace_bytes: Option<u64>,
    /// Cumulative allocation ceiling for one run, in bytes. `Realloc` growth
    /// counts the delta.
    pub max_total_bytes: Option<u64>,
    /// Loop-iteration fuse: total `For`/`While` body executions before the
    /// run is aborted. Guards against hangs from corrupted `pos` arrays.
    pub max_loop_iterations: Option<u64>,
    /// How many times any single array may be grown by `Realloc`. Lowered
    /// assembly kernels double capacity each time, so `k` doublings bound an
    /// array at `initial * 2^k` elements.
    pub max_realloc_doublings: Option<u32>,
}

impl ResourceBudget {
    /// No limits — execution behaves exactly as without a budget.
    pub fn unlimited() -> Self {
        ResourceBudget::default()
    }

    /// The budget the `TACO_BUDGET_BYTES` environment variable asks for:
    /// its value (bytes) becomes the single-allocation / dense-workspace
    /// ceiling, which is what CI's low-budget matrix tightens to force the
    /// sparse-workspace fallback rungs. Unset means unlimited; a set but
    /// malformed value is a typed [`BudgetEnvError`].
    pub fn try_from_env() -> Result<Self, BudgetEnvError> {
        ResourceBudget::parse_env(std::env::var(BUDGET_ENV_VAR).ok())
    }

    /// The pure half of [`ResourceBudget::try_from_env`]: the budget a raw
    /// `TACO_BUDGET_BYTES` value (`None` when unset) asks for.
    fn parse_env(raw: Option<String>) -> Result<Self, BudgetEnvError> {
        match raw {
            Some(raw) => match raw.trim().parse::<u64>() {
                Ok(bytes) => Ok(ResourceBudget::unlimited().with_max_workspace_bytes(bytes)),
                Err(e) => Err(BudgetEnvError {
                    var: BUDGET_ENV_VAR,
                    value: raw,
                    reason: e.to_string(),
                }),
            },
            None => Ok(ResourceBudget::unlimited()),
        }
    }

    /// Lenient form of [`ResourceBudget::try_from_env`] for binaries that
    /// must start regardless: a malformed `TACO_BUDGET_BYTES` is logged to
    /// stderr (with the offending value and parse reason) and the budget
    /// defaults to unlimited instead of failing silently.
    pub fn from_env() -> Self {
        ResourceBudget::or_unlimited(ResourceBudget::try_from_env())
    }

    /// Logs a malformed-budget error and falls back to unlimited.
    fn or_unlimited(parsed: Result<Self, BudgetEnvError>) -> Self {
        parsed.unwrap_or_else(|e| {
            eprintln!("warning: {e}");
            ResourceBudget::unlimited()
        })
    }

    /// Sets the single-allocation (dense workspace) ceiling.
    pub fn with_max_workspace_bytes(mut self, bytes: u64) -> Self {
        self.max_workspace_bytes = Some(bytes);
        self
    }

    /// Sets the cumulative allocation ceiling.
    pub fn with_max_total_bytes(mut self, bytes: u64) -> Self {
        self.max_total_bytes = Some(bytes);
        self
    }

    /// Sets the loop-iteration fuse.
    pub fn with_max_loop_iterations(mut self, iterations: u64) -> Self {
        self.max_loop_iterations = Some(iterations);
        self
    }

    /// Sets the per-array realloc-doubling cap.
    pub fn with_max_realloc_doublings(mut self, doublings: u32) -> Self {
        self.max_realloc_doublings = Some(doublings);
        self
    }

    /// Combines two budgets, taking the tighter limit for each resource.
    /// Used when a kernel's compile-time budget and a supervisor's run-time
    /// budget both apply to one run.
    pub fn min_with(&self, other: &ResourceBudget) -> ResourceBudget {
        fn tighter<T: Ord + Copy>(a: Option<T>, b: Option<T>) -> Option<T> {
            match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, y) => x.or(y),
            }
        }
        ResourceBudget {
            max_workspace_bytes: tighter(self.max_workspace_bytes, other.max_workspace_bytes),
            max_total_bytes: tighter(self.max_total_bytes, other.max_total_bytes),
            max_loop_iterations: tighter(self.max_loop_iterations, other.max_loop_iterations),
            max_realloc_doublings: tighter(
                self.max_realloc_doublings,
                other.max_realloc_doublings,
            ),
        }
    }

    /// True if no limit is set on any resource.
    pub fn is_unlimited(&self) -> bool {
        self.max_workspace_bytes.is_none()
            && self.max_total_bytes.is_none()
            && self.max_loop_iterations.is_none()
            && self.max_realloc_doublings.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unlimited() {
        assert!(ResourceBudget::default().is_unlimited());
        assert!(ResourceBudget::unlimited().is_unlimited());
    }

    #[test]
    fn min_with_takes_tighter_limits() {
        let a = ResourceBudget::unlimited().with_max_workspace_bytes(100).with_max_total_bytes(500);
        let b = ResourceBudget::unlimited().with_max_workspace_bytes(50).with_max_loop_iterations(9);
        let m = a.min_with(&b);
        assert_eq!(m.max_workspace_bytes, Some(50));
        assert_eq!(m.max_total_bytes, Some(500));
        assert_eq!(m.max_loop_iterations, Some(9));
        assert_eq!(m.max_realloc_doublings, None);
        assert_eq!(ResourceBudget::unlimited().min_with(&ResourceBudget::unlimited()), ResourceBudget::unlimited());
    }

    #[test]
    fn env_budget_parses_or_fails_typed() {
        // The parse is tested on raw values: mutating the process
        // environment would race other test threads reading it.
        assert!(ResourceBudget::parse_env(None).unwrap().is_unlimited());

        assert_eq!(
            ResourceBudget::parse_env(Some(" 12000 ".into())).unwrap().max_workspace_bytes,
            Some(12_000),
            "whitespace-padded value must parse"
        );

        let err = ResourceBudget::parse_env(Some("12kb".into())).unwrap_err();
        assert_eq!(err.var, "TACO_BUDGET_BYTES");
        assert_eq!(err.value, "12kb");
        let msg = err.to_string();
        assert!(msg.contains("TACO_BUDGET_BYTES") && msg.contains("12kb"), "{msg}");
        // The lenient form still starts (unlimited), but only after the
        // typed error existed to be logged.
        let parsed = ResourceBudget::parse_env(Some("12kb".into()));
        assert!(ResourceBudget::or_unlimited(parsed).is_unlimited());
    }

    #[test]
    fn builders_set_fields() {
        let b = ResourceBudget::unlimited()
            .with_max_workspace_bytes(100)
            .with_max_total_bytes(200)
            .with_max_loop_iterations(300)
            .with_max_realloc_doublings(4);
        assert!(!b.is_unlimited());
        assert_eq!(b.max_workspace_bytes, Some(100));
        assert_eq!(b.max_total_bytes, Some(200));
        assert_eq!(b.max_loop_iterations, Some(300));
        assert_eq!(b.max_realloc_doublings, Some(4));
    }
}
