//! The scheduling API (paper Section III), compiled-kernel execution, and
//! supervised degrade-and-retry execution.

use crate::bind::{bind_operand, bind_result, extract_result};
use crate::cost::stmt_workspaces;
use crate::Result;
use std::borrow::{Borrow, Cow};
use std::collections::VecDeque;
use taco_ir::concrete::ConcreteStmt;
use taco_ir::concretize::concretize;
use taco_ir::expr::{IndexExpr, IndexVar, TensorVar};
use taco_ir::heuristics::{suggest, Suggestion};
use taco_ir::notation::IndexAssignment;
use taco_ir::transform;
use taco_llir::{
    AbortReason, Binding, BudgetResource, Executable, ExecReport, ResourceBudget, RunBody,
    Supervisor, WorkspaceKind,
};
use taco_lower::{lower, KernelKind, LowerOptions, LoweredKernel};
use taco_tensor::Tensor;
use taco_verify::{analyze_cost, CostEnv, CostReport, VerifyMode, VerifyReport};

/// The default enforcement mode for the static verifier on the compile
/// path: debug builds fail compilation on any proven violation
/// ([`VerifyMode::Deny`]), release builds record the report without
/// failing ([`VerifyMode::Warn`]). Pass an explicit mode to
/// [`IndexStmt::compile_checked`] to override.
#[must_use]
pub fn default_verify_mode() -> VerifyMode {
    if cfg!(debug_assertions) {
        VerifyMode::Deny
    } else {
        VerifyMode::Warn
    }
}

/// Runs the static verifier over a lowered kernel under the given mode,
/// stamping the concrete statement it was lowered from into every
/// diagnostic. `Deny` turns a rejected report into [`CoreError::Verify`].
fn check_lowered(
    lowered: &LoweredKernel,
    origin: &ConcreteStmt,
    mode: VerifyMode,
) -> Result<Option<VerifyReport>> {
    match mode {
        VerifyMode::Off => Ok(None),
        VerifyMode::Warn | VerifyMode::Deny => {
            let report =
                taco_verify::verify_lowered(lowered).with_origin(&origin.to_string());
            if mode == VerifyMode::Deny && !report.accepted() {
                return Err(crate::CoreError::Verify(report));
            }
            Ok(Some(report))
        }
    }
}

/// An index notation statement under scheduling — the `IndexStmt` of the
/// paper's C++ API (Figure 2), with `reorder` and `precompute` methods.
#[derive(Debug, Clone)]
pub struct IndexStmt {
    source: IndexAssignment,
    concrete: ConcreteStmt,
}

impl IndexStmt {
    /// Concretizes an index notation assignment (paper Section VI).
    ///
    /// # Errors
    ///
    /// Returns an error if the statement is not valid index notation.
    pub fn new(source: IndexAssignment) -> Result<IndexStmt> {
        let concrete = concretize(&source)?;
        Ok(IndexStmt { source, concrete })
    }

    /// Rebuilds a statement from a source assignment and an
    /// already-transformed concrete statement (used by the candidate
    /// enumerator to materialize alternative schedules).
    pub(crate) fn from_parts(source: IndexAssignment, concrete: ConcreteStmt) -> IndexStmt {
        IndexStmt { source, concrete }
    }

    /// The current concrete index notation.
    pub fn concrete(&self) -> &ConcreteStmt {
        &self.concrete
    }

    /// The original index notation statement.
    pub fn source(&self) -> &IndexAssignment {
        &self.source
    }

    /// Exchanges two index variables in their forall chain
    /// (paper Sections III and IV-B).
    ///
    /// # Errors
    ///
    /// Returns an error if the exchange is not defined (different chains or
    /// sequences in the body).
    pub fn reorder(&mut self, a: &IndexVar, b: &IndexVar) -> Result<&mut IndexStmt> {
        self.concrete = transform::reorder(&self.concrete, a, b)?;
        Ok(self)
    }

    /// Marks the forall over `var` parallel: its iterations are distributed
    /// over worker threads, each with private clones of the workspaces
    /// allocated inside the loop, and merged back deterministically
    /// (byte-identical to the serial schedule).
    ///
    /// Apply this **last**: other transformations (`reorder`, `precompute`)
    /// rebuild foralls and drop the parallel flag.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::ReductionNotPrivatized`](taco_ir::IrError) when
    /// iterations of `var` reduce into a tensor no workspace inside the loop
    /// privatizes — precompute it into a workspace first (Section V of the
    /// paper) — and an error if `var` is not a forall variable.
    pub fn parallelize(&mut self, var: &IndexVar) -> Result<&mut IndexStmt> {
        self.concrete = transform::parallelize(&self.concrete, var)?;
        Ok(self)
    }

    /// Applies the workspace transformation (paper Sections III and V):
    /// precomputes `expr` into `workspace` over the `splits` variables.
    ///
    /// # Errors
    ///
    /// Returns an error if the expression is not found or the transformation
    /// preconditions fail.
    pub fn precompute(
        &mut self,
        expr: &IndexExpr,
        splits: &[(IndexVar, IndexVar, IndexVar)],
        workspace: &TensorVar,
    ) -> Result<&mut IndexStmt> {
        self.concrete = transform::precompute(&self.concrete, expr, splits, workspace)?;
        Ok(self)
    }

    /// Runs the Section V-C policy heuristics on the current statement.
    pub fn suggestions(&self) -> Vec<Suggestion> {
        suggest(&self.concrete)
    }

    /// Lowers and compiles the statement into a runnable kernel with no
    /// resource limits.
    ///
    /// # Errors
    ///
    /// Returns a lowering error if the schedule is not realizable — e.g.
    /// scattering into a sparse result without a workspace.
    pub fn compile(&self, opts: LowerOptions) -> Result<CompiledKernel> {
        self.compile_with_budget(opts, ResourceBudget::unlimited())
    }

    /// Lowers and compiles the statement under a [`ResourceBudget`].
    ///
    /// The budget applies at both ends of the pipeline. At compile time the
    /// dense-workspace footprint of every `where` statement is *proven* by
    /// the symbolic cost analyzer ([`taco_verify::analyze_cost`]) over the
    /// lowered kernel and evaluated against the declared dimensions; if the
    /// total exceeds `max_workspace_bytes`, the cheapest sparse workspace
    /// backend whose proven initial footprint fits — hash map first, then
    /// coordinate list — is
    /// compiled instead, keeping the schedule and recording one
    /// [`FallbackEvent::WorkspaceDowngraded`] per workspace. Only when no
    /// sparse backend is lowerable either are the schedule's transformations
    /// dropped and the original statement lowered directly — the slower
    /// merge kernel — with one [`FallbackEvent::WorkspaceOverBudget`]
    /// recorded per skipped workspace. At run time the compiled kernel
    /// enforces the budget's allocation and iteration limits on every
    /// [`CompiledKernel::run`].
    ///
    /// # Errors
    ///
    /// Returns a lowering error if the schedule is not realizable, or
    /// [`CoreError::BudgetExceeded`](crate::CoreError::BudgetExceeded) if the
    /// workspaces are over budget *and* the untransformed statement cannot be
    /// lowered either (e.g. it scatters into a sparse result, which is only
    /// realizable through a workspace).
    pub fn compile_with_budget(
        &self,
        opts: LowerOptions,
        budget: ResourceBudget,
    ) -> Result<CompiledKernel> {
        self.compile_checked(opts, budget, default_verify_mode())
    }

    /// Lowers, statically verifies, and compiles the statement.
    ///
    /// This is [`IndexStmt::compile_with_budget`] with an explicit
    /// [`VerifyMode`]: the lowered kernel is run through the
    /// `taco-verify` abstract interpreter (definite initialization,
    /// symbolic bounds, parallel write-set disjointness) before it is
    /// compiled. Under [`VerifyMode::Warn`] the report is recorded on the
    /// kernel ([`CompiledKernel::verify_report`]); under
    /// [`VerifyMode::Deny`] a report with any deny-severity finding fails
    /// the compile; [`VerifyMode::Off`] skips the pass. The verdict never
    /// changes the generated code, so it does not participate in the
    /// kernel [fingerprint](CompiledKernel::fingerprint).
    ///
    /// # Errors
    ///
    /// Everything [`IndexStmt::compile_with_budget`] returns, plus
    /// [`CoreError::Verify`](crate::CoreError::Verify) under `Deny`.
    pub fn compile_checked(
        &self,
        opts: LowerOptions,
        budget: ResourceBudget,
        verify: VerifyMode,
    ) -> Result<CompiledKernel> {
        let BudgetPlan { concrete, opts, fallbacks, lowered } = self.plan_budget(opts, &budget)?;
        let lowered = match lowered {
            Some(lowered) => lowered,
            None => lower(&concrete, &opts)?,
        };
        let verify = check_lowered(&lowered, &concrete, verify)?;
        let cost = analyze_cost(&lowered);
        let exe = Executable::compile(&lowered.kernel)?;
        let fingerprint = crate::fingerprint::fingerprint(&self.concrete, &opts, &budget);
        Ok(CompiledKernel { lowered, exe, budget, fallbacks, fingerprint, verify, cost })
    }

    /// The compile-time workspace budget decision
    /// ([`IndexStmt::compile_with_budget`]), made without compiling: keep
    /// the dense workspaces if their proven footprint fits
    /// `max_workspace_bytes`, else downgrade to the first sparse backend
    /// (hash map, then coordinate list) whose proven initial footprint
    /// fits, else drop the workspaces for the direct merge kernel.
    ///
    /// The analyzer's dense bounds close over declared dimensions alone, so
    /// they are concrete at compile time; a bound it cannot derive or
    /// evaluate trips the budget (`u64::MAX`). Sparse backends are judged
    /// on their *initial* footprint because their growth is charged against
    /// the budget at run time. Only requests for dense workspaces with a
    /// workspace-byte limit are arbitrated; anything else is planned as
    /// given.
    ///
    /// # Errors
    ///
    /// [`CoreError::BudgetExceeded`](crate::CoreError::BudgetExceeded) —
    /// naming the first workspace and its proven bound — when no backend
    /// fits and the direct kernel cannot be lowered (e.g. it scatters into
    /// a sparse result, which is only realizable through a workspace); a
    /// lowering error when the statement is not realizable as scheduled.
    pub fn plan_budget(
        &self,
        opts: LowerOptions,
        budget: &ResourceBudget,
    ) -> Result<BudgetPlan<'_>> {
        let mut plan = BudgetPlan {
            concrete: Cow::Borrowed(&self.concrete),
            opts,
            fallbacks: Vec::new(),
            lowered: None,
        };
        let Some(limit) = budget.max_workspace_bytes else { return Ok(plan) };
        if plan.opts.workspace_kind != WorkspaceKind::Dense {
            return Ok(plan);
        }
        let ws_vars = stmt_workspaces(&self.concrete);
        if ws_vars.is_empty() {
            return Ok(plan);
        }
        let dense = lower(&self.concrete, &plan.opts)?;
        let cost = analyze_cost(&dense);
        let env = CostEnv::from_shapes(&dense);
        let bounds: Vec<(TensorVar, u64)> = ws_vars
            .into_iter()
            .map(|ws| {
                let b = cost
                    .workspaces
                    .iter()
                    .find(|w| w.name == ws.name())
                    .and_then(|w| w.bytes.concrete(&env))
                    .unwrap_or(u64::MAX);
                (ws, b)
            })
            .collect();
        let total: u64 = bounds.iter().map(|(_, b)| *b).fold(0, u64::saturating_add);
        if total <= limit {
            plan.lowered = Some(dense);
            return Ok(plan);
        }
        let sparse = [WorkspaceKind::Hash, WorkspaceKind::CoordList].into_iter().find_map(|kind| {
            let lk = lower(&self.concrete, &plan.opts.clone().with_workspace_kind(kind)).ok()?;
            let cost = analyze_cost(&lk);
            let env = CostEnv::from_shapes(&lk);
            let per_ws = bounds
                .iter()
                .map(|(ws, _)| {
                    cost.workspaces
                        .iter()
                        .find(|w| w.name == ws.name())
                        .and_then(|w| w.init_bytes.concrete(&env))
                })
                .collect::<Option<Vec<u64>>>()?;
            let init_total = per_ws.iter().copied().fold(0, u64::saturating_add);
            (init_total <= limit).then_some((kind, per_ws, lk))
        });
        if let Some((kind, per_ws, lk)) = sparse {
            for ((ws, bound), init) in bounds.iter().zip(per_ws) {
                plan.fallbacks.push(FallbackEvent::WorkspaceDowngraded {
                    workspace: ws.name().to_string(),
                    from: WorkspaceKind::Dense,
                    to: kind,
                    estimated_bytes: *bound,
                    downgraded_bytes: init,
                    budget_bytes: limit,
                });
            }
            plan.opts = plan.opts.with_workspace_kind(kind);
            plan.lowered = Some(lk);
            return Ok(plan);
        }
        for (ws, bound) in &bounds {
            plan.fallbacks.push(FallbackEvent::WorkspaceOverBudget {
                workspace: ws.name().to_string(),
                dims: ws.shape().to_vec(),
                estimated_bytes: *bound,
                budget_bytes: limit,
                fallback: DegradeRung::DirectMerge,
            });
        }
        let direct = concretize(&self.source)?;
        // The direct kernel can be unrealizable where the workspace kernel
        // was not (a workspace is what makes sparse scatter lowerable);
        // that is a budget failure, not a lowering bug.
        let Ok(lk) = lower(&direct, &plan.opts) else {
            let (ws, bound) = &bounds[0];
            return Err(crate::CoreError::BudgetExceeded {
                resource: BudgetResource::WorkspaceBytes,
                limit,
                requested: *bound,
                context: Some(ws.name().to_string()),
            });
        };
        plan.concrete = Cow::Owned(direct);
        plan.lowered = Some(lk);
        Ok(plan)
    }

    /// Runs the statement under a [`Supervisor`], descending the degradation
    /// ladder on retryable aborts.
    ///
    /// The first rung compiles the statement as scheduled (under the
    /// supervisor's budget, so an over-budget workspace already falls back
    /// at compile time). If the run aborts with a *retryable* reason — a
    /// missed deadline or an exhausted resource budget — the next rung of
    /// [`IndexStmt::degrade_ladder`] is compiled and retried with a fresh
    /// deadline. Every abandoned rung is recorded as a
    /// [`FallbackEvent::DegradedRetry`] in the returned
    /// [`SupervisedOutcome`], so callers can query *why* a result was
    /// slower than scheduled. Cancellation and genuine runtime failures are
    /// not retried. This is [`IndexStmt::descend`] with an uncached
    /// [`IndexStmt::compile_with_budget`] and an interpreter run.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Aborted`](crate::CoreError::Aborted) when every
    /// viable rung aborted (carrying the last abort), or the usual
    /// compile/bind errors for problems no rung can fix.
    pub fn run_supervised(
        &self,
        opts: LowerOptions,
        supervisor: &Supervisor,
        inputs: &[(&str, &Tensor)],
        output_structure: Option<&Tensor>,
    ) -> Result<SupervisedOutcome> {
        let budget = supervisor.budget();
        let mut fallbacks = Vec::new();
        let ((result, report), rung) = self.descend(
            &opts,
            &mut fallbacks,
            |stmt, opts| stmt.compile_with_budget(opts, budget),
            |kernel| kernel.run_supervised(inputs, output_structure, supervisor),
        )?;
        Ok(SupervisedOutcome { result, report, rung, fallbacks })
    }

    /// The rungs below [`DegradeRung::AsScheduled`], in descent order, each
    /// with the statement and options to compile for it:
    ///
    /// 1. [`DegradeRung::HashWorkspace`] — the schedule kept but every
    ///    workspace stored as a hash map (unordered accumulate, sorted
    ///    drain) whose footprint scales with the entries touched;
    /// 2. [`DegradeRung::CoordListWorkspace`] — likewise, with the
    ///    coordinate-list backend (ordered append with dedup);
    /// 3. [`DegradeRung::UnsortedAssembly`] — the schedule kept but the
    ///    output-sort pass dropped (paper §VI, unsorted kernels);
    /// 4. [`DegradeRung::DirectMerge`] — every transformation dropped and
    ///    the original statement lowered to the direct merge kernel (the
    ///    reverse of the Section V-C heuristics).
    ///
    /// A rung is left out when it would not produce a different kernel:
    /// the schedule has no workspaces or `opts` already asks for that
    /// backend; the kernel is a compute kernel or already unsorted; the
    /// direct statement is the schedule itself. `planned` is the fallback
    /// trail of the as-scheduled compile: a backend or the direct merge
    /// kernel its [budget plan](IndexStmt::plan_budget) already chose is
    /// left out too.
    pub fn degrade_ladder(
        &self,
        opts: &LowerOptions,
        planned: &[FallbackEvent],
    ) -> Vec<LadderRung> {
        let mut ladder = Vec::new();
        let has_workspaces = !stmt_workspaces(&self.concrete).is_empty();
        for (rung, kind) in [
            (DegradeRung::HashWorkspace, WorkspaceKind::Hash),
            (DegradeRung::CoordListWorkspace, WorkspaceKind::CoordList),
        ] {
            let planned_kind = planned
                .iter()
                .any(|f| matches!(f, FallbackEvent::WorkspaceDowngraded { to, .. } if *to == kind));
            if has_workspaces && opts.workspace_kind != kind && !planned_kind {
                let opts = opts.clone().with_workspace_kind(kind);
                ladder.push(LadderRung { rung, stmt: self.clone(), opts });
            }
        }
        // The sort pass only exists in kernels that assemble; a compute
        // kernel is unchanged by `unsorted()`.
        if opts.sort_output && opts.kind != KernelKind::Compute {
            let (rung, opts) = (DegradeRung::UnsortedAssembly, opts.clone().unsorted());
            ladder.push(LadderRung { rung, stmt: self.clone(), opts });
        }
        let planned_direct =
            planned.iter().any(|f| matches!(f, FallbackEvent::WorkspaceOverBudget { .. }));
        if !planned_direct {
            if let Ok(direct) = IndexStmt::new(self.source.clone()) {
                if direct.concrete != self.concrete {
                    let opts = opts.clone();
                    ladder.push(LadderRung { rung: DegradeRung::DirectMerge, stmt: direct, opts });
                }
            }
        }
        ladder
    }

    /// The degrade-and-retry loop: compiles and runs the as-scheduled rung,
    /// then each rung of [`IndexStmt::degrade_ladder`] in turn while runs
    /// abort with a retryable reason, and returns the first committed run
    /// with its rung.
    ///
    /// `compile` turns a rung's statement and options into a kernel (the
    /// engine goes through its kernel cache; [`IndexStmt::run_supervised`]
    /// compiles directly); a rung it refuses is skipped. `run` executes a
    /// kernel. `trail` receives the as-scheduled kernel's compile-time
    /// fallbacks and one [`FallbackEvent::DegradedRetry`] per abandoned
    /// rung, whether or not a rung commits.
    ///
    /// # Errors
    ///
    /// The first non-retryable run error; otherwise, when no rung commits,
    /// the last retryable abort or else the first compile error.
    pub fn descend<K, T, E>(
        &self,
        opts: &LowerOptions,
        trail: &mut Vec<FallbackEvent>,
        mut compile: impl FnMut(&IndexStmt, LowerOptions) -> std::result::Result<K, E>,
        mut run: impl FnMut(&CompiledKernel) -> Result<T>,
    ) -> std::result::Result<(T, DegradeRung), E>
    where
        K: Borrow<CompiledKernel>,
        E: From<crate::CoreError>,
    {
        let mut last_err: Option<E> = None;
        // The rungs below depend on what the as-scheduled compile's budget
        // plan chose, so they are built once it has run (and not at all
        // when it commits).
        let mut ladder = VecDeque::from([LadderRung {
            rung: DegradeRung::AsScheduled,
            stmt: self.clone(),
            opts: opts.clone(),
        }]);
        while let Some(LadderRung { rung, stmt, opts: rung_opts }) = ladder.pop_front() {
            match compile(&stmt, rung_opts) {
                Ok(kernel) => {
                    let kernel = kernel.borrow();
                    if rung == DegradeRung::AsScheduled {
                        trail.extend_from_slice(kernel.fallback_events());
                    }
                    match run(kernel) {
                        Ok(committed) => return Ok((committed, rung)),
                        Err(crate::CoreError::Aborted(aborted))
                            if aborted.reason.is_retryable() =>
                        {
                            trail.push(FallbackEvent::DegradedRetry {
                                rung,
                                reason: aborted.reason.clone(),
                            });
                            last_err = Some(crate::CoreError::Aborted(aborted).into());
                        }
                        // Cancellation, runtime failures, and bind errors
                        // are not fixed by a degraded schedule.
                        Err(other) => return Err(other.into()),
                    }
                }
                // Rung not realizable (e.g. direct sparse scatter): try the
                // next one, but remember why in case nothing works.
                Err(e) => {
                    last_err.get_or_insert(e);
                }
            }
            if rung == DegradeRung::AsScheduled {
                ladder.extend(self.degrade_ladder(opts, trail));
            }
        }
        Err(last_err.expect("the as-scheduled rung is always attempted"))
    }
}

/// What [`IndexStmt::plan_budget`] chose: the statement and options to
/// lower, the fallbacks that explain the choice, and the lowering when the
/// plan already did it.
#[derive(Debug)]
pub struct BudgetPlan<'a> {
    concrete: Cow<'a, ConcreteStmt>,
    opts: LowerOptions,
    fallbacks: Vec<FallbackEvent>,
    lowered: Option<LoweredKernel>,
}

/// One rung of the degradation ladder: which rung it is and what to
/// compile for it. Built by [`IndexStmt::degrade_ladder`].
#[derive(Debug, Clone)]
pub struct LadderRung {
    /// Which rung this is.
    pub rung: DegradeRung,
    /// The statement to compile: the schedule, or the direct statement for
    /// [`DegradeRung::DirectMerge`].
    pub stmt: IndexStmt,
    /// The lowering options to compile it with.
    pub opts: LowerOptions,
}

/// One rung of the degradation ladder
/// [`IndexStmt::run_supervised`] descends on retryable aborts: faster
/// schedules first, the plain merge kernel last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradeRung {
    /// The statement exactly as scheduled.
    AsScheduled,
    /// The schedule with every workspace stored as a hash map.
    HashWorkspace,
    /// The schedule with every workspace stored as a coordinate list.
    CoordListWorkspace,
    /// The schedule with the output-sort pass dropped.
    UnsortedAssembly,
    /// All transformations dropped: the direct merge kernel.
    DirectMerge,
}

impl DegradeRung {
    /// The full ladder, fastest schedule first — the descent order of
    /// [`IndexStmt::run_supervised`].
    pub const LADDER: [DegradeRung; 5] = [
        DegradeRung::AsScheduled,
        DegradeRung::HashWorkspace,
        DegradeRung::CoordListWorkspace,
        DegradeRung::UnsortedAssembly,
        DegradeRung::DirectMerge,
    ];
}

impl std::fmt::Display for DegradeRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeRung::AsScheduled => write!(f, "as scheduled"),
            DegradeRung::HashWorkspace => write!(f, "hash workspace"),
            DegradeRung::CoordListWorkspace => write!(f, "coord-list workspace"),
            DegradeRung::UnsortedAssembly => write!(f, "unsorted assembly"),
            DegradeRung::DirectMerge => write!(f, "direct merge"),
        }
    }
}

/// Why a kernel was compiled or retried in a degraded form. Queryable via
/// [`CompiledKernel::fallback_events`] and
/// [`SupervisedOutcome::fallbacks`], and printable for operator-facing
/// output.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FallbackEvent {
    /// A workspace was skipped at compile time because its estimated
    /// footprint exceeded the budget and no sparse backend fit either (see
    /// [`IndexStmt::compile_with_budget`]).
    WorkspaceOverBudget {
        /// Name of the workspace tensor that was not materialized.
        workspace: String,
        /// Dense dimensions the workspace would have had.
        dims: Vec<usize>,
        /// Estimated bytes the workspace would have allocated.
        estimated_bytes: u64,
        /// The `max_workspace_bytes` limit in force.
        budget_bytes: u64,
        /// The ladder rung the compile fell back to instead.
        fallback: DegradeRung,
    },
    /// A dense workspace was over budget but a sparse backend fit, so the
    /// schedule was kept and only the workspace storage was downgraded (see
    /// [`IndexStmt::compile_with_budget`]).
    WorkspaceDowngraded {
        /// Name of the workspace tensor whose storage was downgraded.
        workspace: String,
        /// The storage backend the schedule asked for.
        from: WorkspaceKind,
        /// The sparse backend that was compiled instead.
        to: WorkspaceKind,
        /// Estimated bytes the `from` backend would have allocated.
        estimated_bytes: u64,
        /// Initial footprint of the `to` backend (growth is budget-charged
        /// at run time).
        downgraded_bytes: u64,
        /// The `max_workspace_bytes` limit in force.
        budget_bytes: u64,
    },
    /// A supervised run of one degradation-ladder rung aborted and the next
    /// rung was tried (see [`IndexStmt::run_supervised`]).
    DegradedRetry {
        /// The rung that aborted.
        rung: DegradeRung,
        /// Why it was abandoned.
        reason: AbortReason,
    },
    /// The native codegen backend could not serve this kernel — no working
    /// C toolchain, a compile failure, or a shared-object load failure —
    /// and the run proceeded on the interpreter with identical semantics.
    /// This is a degradation, never an error: the interpreter is the
    /// portable fallback for every kernel.
    NativeUnavailable {
        /// Why the native backend was unavailable.
        reason: String,
    },
}

impl std::fmt::Display for FallbackEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FallbackEvent::WorkspaceOverBudget {
                workspace,
                dims,
                estimated_bytes,
                budget_bytes,
                fallback,
            } => write!(
                f,
                "workspace `{workspace}` (dims {dims:?}, ~{estimated_bytes} bytes) exceeds the \
                 {budget_bytes}-byte workspace budget; compiled the {fallback} kernel instead",
            ),
            FallbackEvent::WorkspaceDowngraded {
                workspace,
                from,
                to,
                estimated_bytes,
                downgraded_bytes,
                budget_bytes,
            } => write!(
                f,
                "workspace `{workspace}` downgraded {from} -> {to}: ~{estimated_bytes} bytes \
                 exceeds the {budget_bytes}-byte workspace budget, {to} starts at \
                 {downgraded_bytes} bytes",
            ),
            FallbackEvent::DegradedRetry { rung, reason } => {
                write!(f, "{rung} kernel aborted ({reason}); retried one rung down the ladder")
            }
            FallbackEvent::NativeUnavailable { reason } => {
                write!(f, "native backend unavailable ({reason}); ran on the interpreter")
            }
        }
    }
}

/// The committed result of [`IndexStmt::run_supervised`]: the tensor, the
/// run report of the rung that committed, which rung that was, and the
/// fallback trail explaining any degradation.
#[derive(Debug, Clone)]
pub struct SupervisedOutcome {
    /// The computed tensor.
    pub result: Tensor,
    /// Wall-clock, progress counters and heartbeat samples of the
    /// committing run.
    pub report: ExecReport,
    /// The degradation-ladder rung that produced the result.
    pub rung: DegradeRung,
    /// Compile-time workspace skips and aborted rungs, in order.
    pub fallbacks: Vec<FallbackEvent>,
}

impl SupervisedOutcome {
    /// A human-readable account of the run: how it committed and why it was
    /// degraded, if it was.
    pub fn summary(&self) -> String {
        let mut s = format!("{} kernel {}", self.rung, self.report.summary());
        for event in &self.fallbacks {
            s.push_str("\n  - ");
            s.push_str(&event.to_string());
        }
        s
    }
}

impl std::fmt::Display for IndexStmt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.concrete)
    }
}

/// A fully compiled kernel, ready to run against tensors.
///
/// `CompiledKernel` is `Send + Sync` and cheap to share behind an `Arc`
/// (the runtime engine's kernel cache does exactly that): the executable's
/// statement tree is reference-counted and a run only borrows it.
#[derive(Debug)]
pub struct CompiledKernel {
    lowered: LoweredKernel,
    exe: Executable,
    budget: ResourceBudget,
    fallbacks: Vec<FallbackEvent>,
    fingerprint: u64,
    verify: Option<VerifyReport>,
    cost: CostReport,
}

impl CompiledKernel {
    /// The generated C source (paper-style listing).
    pub fn to_c(&self) -> String {
        self.lowered.kernel.to_c()
    }

    /// The canonical structural fingerprint of the compilation request this
    /// kernel answers: concrete statement (applied schedule + operand
    /// format/dimension signature) × lowering options × budget class. See
    /// [`crate::fingerprint::fingerprint`]. Equal fingerprints mean the
    /// compile pipeline would regenerate identical code, so the runtime
    /// kernel cache keys on this value.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The lowered kernel and binding metadata.
    pub fn lowered(&self) -> &LoweredKernel {
        &self.lowered
    }

    /// The compiled imperative program. Alternate execution backends feed
    /// this to [`taco_llir::emit_native`] to generate the ABI-wrapped C
    /// translation unit for the same kernel the interpreter runs.
    pub fn executable(&self) -> &Executable {
        &self.exe
    }

    /// Extracts the result tensor from a binding this kernel has already
    /// executed on — the extraction step of
    /// [`CompiledKernel::run_supervised_on`], exposed so callers that run
    /// [`CompiledKernel::bind`]-produced bindings themselves can commit
    /// results identically.
    ///
    /// # Errors
    ///
    /// Returns an error if the binding's result buffers are missing or
    /// malformed (e.g. the kernel was never run on it).
    pub fn extract(
        &self,
        binding: &Binding,
        output_structure: Option<&Tensor>,
    ) -> Result<Tensor> {
        extract_result(
            binding,
            &self.lowered.result,
            self.lowered.kind,
            output_structure,
            self.lowered.nnz_output.as_deref(),
        )
    }

    /// The resource budget every run of this kernel is held to.
    pub fn budget(&self) -> ResourceBudget {
        self.budget
    }

    /// Workspaces that were skipped at compile time because their estimated
    /// footprint exceeded the budget. Empty when the kernel was compiled as
    /// scheduled.
    pub fn fallback_events(&self) -> &[FallbackEvent] {
        &self.fallbacks
    }

    /// The static-verification report recorded when this kernel was
    /// compiled, or `None` when it was compiled under [`VerifyMode::Off`].
    /// A kernel compiled under [`VerifyMode::Deny`] always carries an
    /// accepted report — rejected kernels never compile.
    pub fn verify_report(&self) -> Option<&VerifyReport> {
        self.verify.as_ref()
    }

    /// The symbolic cost report derived when this kernel was compiled:
    /// provable upper bounds on every metered charge, the workspace
    /// footprints, iteration count and drain work, as polynomials over
    /// dimension and operand-length atoms. Evaluate them with
    /// [`taco_verify::CostEnv::from_shapes`] at compile time or
    /// [`crate::cost::binding_env`] once operands are bound.
    pub fn cost_report(&self) -> &CostReport {
        &self.cost
    }

    /// The proven ceiling on the largest single allocation charge a run of
    /// this kernel can put through the budget meter, evaluated against a
    /// concrete binding — the static counterpart of the meter's observed
    /// peak. `None` when some charge site could not be bounded (the bound
    /// degrades conservatively, it is never silently wrong).
    pub fn static_peak_bytes(&self, binding: &Binding) -> Option<u64> {
        self.cost.peak_bytes(&crate::cost::binding_env(binding))
    }

    /// Runs the kernel on named operand tensors and returns the result.
    ///
    /// Operands are matched to tensor variables by name; every operand of
    /// the kernel must be supplied (order does not matter).
    ///
    /// # Errors
    ///
    /// Returns an error for missing/mismatched operands, or if a compute
    /// kernel with a sparse result is run without a pre-assembled structure
    /// (use [`CompiledKernel::run_with`]).
    pub fn run(&self, inputs: &[(&str, &Tensor)]) -> Result<Tensor> {
        self.run_with(inputs, None)
    }

    /// Runs the kernel, supplying a pre-assembled output structure for
    /// compute kernels with sparse results (the paper's pre-assembled
    /// `A_pos`/`A_crd`, Figure 1d).
    ///
    /// # Errors
    ///
    /// See [`CompiledKernel::run`]. Run failures arrive as
    /// [`CoreError::BudgetExceeded`](crate::CoreError::BudgetExceeded) or
    /// [`CoreError::Run`](crate::CoreError::Run), not as aborts.
    pub fn run_with(
        &self,
        inputs: &[(&str, &Tensor)],
        output_structure: Option<&Tensor>,
    ) -> Result<Tensor> {
        match self.run_supervised_on(&self.exe, inputs, output_structure, &Supervisor::new()) {
            Ok((result, _)) => Ok(result),
            Err(crate::CoreError::Aborted(a)) => Err(a.reason.into_run_error().into()),
            Err(e) => Err(e),
        }
    }

    /// Builds the binding without running — used by benchmarks that want to
    /// time [`CompiledKernel::run_bound`] alone.
    ///
    /// # Errors
    ///
    /// Returns an error for missing or mismatched operands.
    pub fn bind(
        &self,
        inputs: &[(&str, &Tensor)],
        output_structure: Option<&Tensor>,
    ) -> Result<Binding> {
        let mut binding = Binding::new();
        let with_vals = self.lowered.kind != KernelKind::Assemble;
        for var in &self.lowered.operands {
            let t = inputs
                .iter()
                .find(|(n, _)| *n == var.name())
                .map(|(_, t)| *t)
                .ok_or_else(|| crate::CoreError::UnknownOperand(var.name().to_string()))?;
            bind_operand(&mut binding, var, t, with_vals)?;
        }
        bind_result(&mut binding, &self.lowered.result, self.lowered.kind, output_structure)?;
        Ok(binding)
    }

    /// Runs against an existing binding (for benchmarking). The caller must
    /// re-bind result buffers between runs of fused kernels.
    ///
    /// # Errors
    ///
    /// Propagates kernel runtime errors.
    pub fn run_bound(&self, binding: &mut Binding) -> Result<()> {
        self.exe.run_with_budget(binding, &self.budget)?;
        Ok(())
    }

    /// Runs the kernel once on the interpreter under a [`Supervisor`]; see
    /// [`CompiledKernel::run_supervised_on`]. No degrade-and-retry — see
    /// [`IndexStmt::run_supervised`] for the ladder.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Aborted`](crate::CoreError::Aborted) on
    /// deadline, cancellation, budget exhaustion or runtime failure, plus
    /// the usual bind errors.
    pub fn run_supervised(
        &self,
        inputs: &[(&str, &Tensor)],
        output_structure: Option<&Tensor>,
        supervisor: &Supervisor,
    ) -> Result<(Tensor, ExecReport)> {
        self.run_supervised_on(&self.exe, inputs, output_structure, supervisor)
    }

    /// Bind → run → extract on any execution backend: the interpreter
    /// ([`CompiledKernel::executable`]) or this kernel's native form. The
    /// run is one [`Supervisor::run`] of `body`: transactional outputs,
    /// deadline and cancellation checked at loop back-edges, and the
    /// tighter of the supervisor's and this kernel's budgets enforced.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Aborted`](crate::CoreError::Aborted) on
    /// deadline, cancellation, budget exhaustion or runtime failure, plus
    /// the usual bind and extract errors.
    pub fn run_supervised_on<B: RunBody>(
        &self,
        body: &B,
        inputs: &[(&str, &Tensor)],
        output_structure: Option<&Tensor>,
        supervisor: &Supervisor,
    ) -> Result<(Tensor, ExecReport)> {
        let mut binding = self.bind(inputs, output_structure)?;
        let report = self.run_bound_on(body, &mut binding, supervisor)?;
        Ok((self.extract(&binding, output_structure)?, report))
    }

    /// Runs against an existing binding on the interpreter under a
    /// [`Supervisor`]. On abort the binding is byte-identical to its
    /// pre-run state (the transactional guarantee of [`Supervisor::run`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Aborted`](crate::CoreError::Aborted) on any
    /// abort.
    pub fn run_bound_supervised(
        &self,
        binding: &mut Binding,
        supervisor: &Supervisor,
    ) -> Result<ExecReport> {
        self.run_bound_on(&self.exe, binding, supervisor)
    }

    /// The run step of [`CompiledKernel::run_supervised_on`]: `body` under
    /// `supervisor` with the tighter of the two budgets.
    fn run_bound_on<B: RunBody>(
        &self,
        body: &B,
        binding: &mut Binding,
        supervisor: &Supervisor,
    ) -> Result<ExecReport> {
        let combined = supervisor.budget().min_with(&self.budget);
        Ok(supervisor.clone().with_budget(combined).run(body, binding)?)
    }
}
