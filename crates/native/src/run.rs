//! Marshalling a [`Binding`] across the `taco_ctx` table ABI.
//!
//! The host owns every buffer: the kernel reads and writes binding arrays
//! in place and obtains fresh or grown storage only through the
//! `extern "C"` callbacks below, each of which charges the same
//! [`BudgetMeter`] the interpreter uses before touching memory. Faults
//! (division by zero, bounds violations, negative lengths) are recorded
//! host-side as the interpreter's typed [`RunError`]s, so the two
//! backends are observationally identical on both success and failure.
//!
//! The runner is a [`RunBody`], not a second supervisor: parameter
//! validation happens before any array is moved out of the binding, scalar
//! outputs commit only on success, and the meter's counters are published
//! into the run's progress sink at each poll and at exit. Snapshot and
//! rollback are llir's one [`run_transaction`], which [`NativeKernel::run`]
//! and every supervised run go through.

use crate::dl::DynLib;
use std::ffi::c_void;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use taco_llir::{
    elem_bytes, run_transaction, AbiPlan, AllocSink, ArrayTy, ArrayVal, Binding, BudgetMeter,
    ParamKind, Progress, ResourceBudget, RunBody, RunControls, RunError, SharedProgress,
    SUPERVISION_STRIDE,
};

// Status and element-type codes; must match taco_kernel.h.
const TACO_OK: i32 = 0;
const TACO_ERR_HOST: i32 = 1;
const TACO_ERR_DIV0: i32 = 2;
const TACO_ERR_OOB: i32 = 3;
const TACO_ERR_MAP_NEG_LEN: i32 = 4;

/// Mirror of `taco_map_state` in taco_kernel.h.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct TacoMapState {
    len: i64,
    charged: i64,
    kind: i32,
    pad_: i32,
}

/// Mirror of `struct taco_ctx` in taco_kernel.h; field order is the ABI.
#[repr(C)]
struct TacoCtx {
    host: *mut c_void,
    arr: *mut *mut c_void,
    arr_size: *mut i64,
    scalars: *const i64,
    scalar_out: *mut i64,
    maps: *mut TacoMapState,
    ticks_left: i64,
    status: i32,
    pad_: i32,
    alloc: unsafe extern "C" fn(*mut TacoCtx, i64, i32, i64) -> i32,
    grow: unsafe extern "C" fn(*mut TacoCtx, i64, i64) -> i32,
    poll: unsafe extern "C" fn(*mut TacoCtx) -> i32,
    map_charge: unsafe extern "C" fn(*mut TacoCtx, i64, i64, i64) -> i32,
    fault: unsafe extern "C" fn(*mut TacoCtx, i32, i64, i64, i64),
}

type EntryFn = unsafe extern "C" fn(*mut TacoCtx, i64, i64) -> i32;

/// Supervision hooks for one native run; the all-`None` default runs
/// unsupervised. Both hooks are observed at poll boundaries, i.e. within
/// one [`SUPERVISION_STRIDE`] of loop back-edges, matching the
/// interpreter's supervision latency.
#[derive(Default, Clone, Copy)]
pub struct NativeRunOptions<'a> {
    /// Cooperative cancellation flag.
    pub cancel: Option<&'a AtomicBool>,
    /// Wall-clock deadline as (run start, allowed duration).
    pub deadline: Option<(Instant, Duration)>,
}

/// A loaded, callable native kernel: the dlopen'd shared object, its
/// resolved entry point, and the [`AbiPlan`] describing how bindings map
/// onto the context tables.
#[derive(Debug)]
pub struct NativeKernel {
    // Field order matters: `entry` points into `lib`'s mapped pages, and
    // the library must stay open for as long as the pointer can be called.
    entry: EntryFn,
    #[allow(dead_code)] // keep-alive: dropping it would unmap `entry`
    lib: DynLib,
    plan: AbiPlan,
    so_path: PathBuf,
    /// Nanoseconds the C compiler took to build the shared object; `0`
    /// when the content-addressed cache already held the artifact.
    pub compile_nanos: u64,
}

// `entry` is a pure function of the context it is passed and `DynLib` is
// Send + Sync, so a kernel can be shared across engine threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<NativeKernel>();
};

impl NativeKernel {
    pub(crate) fn new(
        lib: DynLib,
        entry: *mut c_void,
        plan: AbiPlan,
        so_path: PathBuf,
        compile_nanos: u64,
    ) -> NativeKernel {
        // SAFETY: `entry` was resolved from ENTRY_SYMBOL in a shared object
        // whose exported ABI version matched ours, so it has the EntryFn
        // signature by the ABI contract.
        let entry: EntryFn = unsafe { std::mem::transmute(entry) };
        NativeKernel { entry, lib, plan, so_path, compile_nanos }
    }

    /// The kernel name from the originating [`taco_llir::Executable`].
    pub fn name(&self) -> &str {
        &self.plan.name
    }

    /// Where the shared object lives in the on-disk cache.
    pub fn so_path(&self) -> &Path {
        &self.so_path
    }

    /// Runs the kernel against `binding`, like
    /// [`Executable::run_with_budget`](taco_llir::Executable::run_with_budget)
    /// plus the supervision hooks in `opts`, as one [`run_transaction`].
    ///
    /// # Errors
    ///
    /// The same typed [`RunError`]s the interpreter produces, with
    /// identical payloads: binding errors before anything runs, then
    /// faults, budget trips, cancellation, or deadline expiry during the
    /// run — all of which leave the binding's arrays as they were bound.
    pub fn run(
        &self,
        binding: &mut Binding,
        budget: &ResourceBudget,
        opts: NativeRunOptions<'_>,
    ) -> Result<Progress, RunError> {
        let progress = SharedProgress::default();
        let ctl =
            RunControls { cancel: opts.cancel, deadline: opts.deadline, shared: Some(&progress) };
        run_transaction(self, binding, budget, ctl)?;
        Ok(progress.snapshot())
    }
}

impl RunBody for NativeKernel {
    fn writable_arrays(&self) -> impl Iterator<Item = &str> {
        self.plan
            .arrays
            .iter()
            .filter(|a| matches!(a.kind, Some(ParamKind::Output | ParamKind::InOut)))
            .map(|a| a.name.as_str())
    }

    fn run_controlled(
        &self,
        binding: &mut Binding,
        budget: &ResourceBudget,
        ctl: RunControls<'_>,
    ) -> Result<(), RunError> {
        let plan = &self.plan;

        // Validate every parameter before moving anything, so binding
        // errors leave the binding fully intact (interpreter contract).
        let mut scalars: Vec<i64> = Vec::with_capacity(plan.scalar_params.len());
        for (name, _) in &plan.scalar_params {
            scalars
                .push(binding.scalar(name).ok_or_else(|| RunError::MissingScalar(name.clone()))?);
        }
        for a in &plan.arrays {
            if a.kind.is_none() {
                continue;
            }
            match binding.array(&a.name) {
                None => return Err(RunError::MissingArray(a.name.clone())),
                Some(v) if val_ty(v) != a.ty => {
                    return Err(RunError::WrongArrayType { name: a.name.clone(), expected: a.ty })
                }
                Some(_) => {}
            }
        }

        // Move parameter arrays out of the binding into the slot table;
        // non-parameter slots (kernel locals, hidden map backing) start
        // empty and are populated through the alloc/grow callbacks.
        let arrays: Vec<ArrayVal> = plan
            .arrays
            .iter()
            .map(|a| {
                if a.kind.is_some() {
                    binding.take(&a.name).expect("validated above")
                } else {
                    empty_of(a.ty)
                }
            })
            .collect();

        let meter = BudgetMeter::new(budget, plan.arrays.len());
        let grant = meter.grant_iterations(u64::from(SUPERVISION_STRIDE));
        let mut host = Host { plan, arrays, meter, error: None, grant, ctl };

        let mut ptrs: Vec<*mut c_void> = Vec::with_capacity(plan.arrays.len());
        let mut sizes: Vec<i64> = Vec::with_capacity(plan.arrays.len());
        for v in host.arrays.iter_mut() {
            let (p, n) = raw_parts(v);
            ptrs.push(p);
            sizes.push(n);
        }
        let mut scalar_out = vec![0i64; plan.scalar_outputs.len()];
        let mut maps = vec![TacoMapState::default(); plan.maps.len()];

        let mut ctx = TacoCtx {
            host: (&mut host as *mut Host<'_>).cast(),
            arr: ptrs.as_mut_ptr(),
            arr_size: sizes.as_mut_ptr(),
            scalars: scalars.as_ptr(),
            scalar_out: scalar_out.as_mut_ptr(),
            maps: maps.as_mut_ptr(),
            ticks_left: grant as i64 - 1,
            status: TACO_OK,
            pad_: 0,
            alloc: alloc_cb,
            grow: grow_cb,
            poll: poll_cb,
            map_charge: map_charge_cb,
            fault: fault_cb,
        };

        // SAFETY: the context tables point at live, correctly-typed host
        // buffers for the whole call; the entry function honours the ABI
        // (checked at load) and only touches memory through those tables
        // and the callbacks.
        let rc = unsafe { (self.entry)(&mut ctx, 0, i64::MAX) };

        // Charge the back-edges of the final, partially-used grant. The
        // residual never exceeds what the fuse has left (the grant was
        // clamped to it), so this cannot fail on a healthy run.
        if ctx.ticks_left >= 0 {
            let residual = (host.grant - 1).saturating_sub(ctx.ticks_left as u64);
            if let Err(e) = host.meter.consume_iterations(residual) {
                host.error.get_or_insert(e);
            }
        }
        if let Some(shared) = ctl.shared {
            shared.publish(&host.meter);
        }

        // Return parameter arrays to the binding even on error, as the
        // interpreter does; the transaction restores writable ones.
        for (v, a) in host.arrays.into_iter().zip(&plan.arrays) {
            if a.kind.is_some() {
                binding.set_array(a.name.clone(), v);
            }
        }

        if rc != TACO_OK || host.error.is_some() {
            return Err(host.error.take().unwrap_or_else(|| match rc {
                TACO_ERR_DIV0 => RunError::DivisionByZero,
                rc => RunError::Backend(format!("native kernel exited with status {rc}")),
            }));
        }
        for (pos, (name, _)) in plan.scalar_outputs.iter().enumerate() {
            binding.set_scalar_output(name.clone(), scalar_out[pos]);
        }
        Ok(())
    }
}

/// Host-side state the callbacks operate on, reached through `ctx->host`.
struct Host<'a> {
    plan: &'a AbiPlan,
    arrays: Vec<ArrayVal>,
    meter: BudgetMeter,
    /// First error recorded; sticky, later faults are ignored.
    error: Option<RunError>,
    /// Iterations granted in the current supervision batch.
    grant: u64,
    ctl: RunControls<'a>,
}

impl Host<'_> {
    fn record(&mut self, e: RunError) {
        self.error.get_or_insert(e);
    }
}

fn val_ty(v: &ArrayVal) -> ArrayTy {
    match v {
        ArrayVal::Int(_) => ArrayTy::Int,
        ArrayVal::F64(_) => ArrayTy::F64,
        ArrayVal::F32(_) => ArrayTy::F32,
        ArrayVal::Bool(_) => ArrayTy::Bool,
    }
}

fn empty_of(ty: ArrayTy) -> ArrayVal {
    match ty {
        ArrayTy::Int => ArrayVal::Int(Vec::new()),
        ArrayTy::F64 => ArrayVal::F64(Vec::new()),
        ArrayTy::F32 => ArrayVal::F32(Vec::new()),
        ArrayTy::Bool => ArrayVal::Bool(Vec::new()),
    }
}

fn zeroed(ty: ArrayTy, len: usize) -> ArrayVal {
    match ty {
        ArrayTy::Int => ArrayVal::Int(vec![0; len]),
        ArrayTy::F64 => ArrayVal::F64(vec![0.0; len]),
        ArrayTy::F32 => ArrayVal::F32(vec![0.0; len]),
        ArrayTy::Bool => ArrayVal::Bool(vec![false; len]),
    }
}

fn raw_parts(v: &mut ArrayVal) -> (*mut c_void, i64) {
    match v {
        ArrayVal::Int(a) => (a.as_mut_ptr().cast(), a.len() as i64),
        ArrayVal::F64(a) => (a.as_mut_ptr().cast(), a.len() as i64),
        ArrayVal::F32(a) => (a.as_mut_ptr().cast(), a.len() as i64),
        ArrayVal::Bool(a) => (a.as_mut_ptr().cast(), a.len() as i64),
    }
}

/// Zero-filled in-place growth matching the interpreter's `Realloc`.
fn resize_zero(v: &mut ArrayVal, len: usize) {
    match v {
        ArrayVal::Int(a) if len > a.len() => a.resize(len, 0),
        ArrayVal::F64(a) if len > a.len() => a.resize(len, 0.0),
        ArrayVal::F32(a) if len > a.len() => a.resize(len, 0.0),
        ArrayVal::Bool(a) if len > a.len() => a.resize(len, false),
        _ => {}
    }
}

unsafe fn host_of<'a>(ctx: *mut TacoCtx) -> &'a mut Host<'a> {
    &mut *(*ctx).host.cast::<Host<'a>>()
}

/// Records a host-side error and tells the kernel to abort.
unsafe fn fail(ctx: *mut TacoCtx, e: RunError) -> i32 {
    host_of(ctx).record(e);
    if (*ctx).status == TACO_OK {
        (*ctx).status = TACO_ERR_HOST;
    }
    0
}

unsafe fn refresh_tables(ctx: *mut TacoCtx, slot: usize) {
    let host = host_of(ctx);
    let (p, n) = raw_parts(&mut host.arrays[slot]);
    *(*ctx).arr.add(slot) = p;
    *(*ctx).arr_size.add(slot) = n;
}

/// `ctx->alloc`: fresh zeroed storage for an array slot (`Alloc`).
unsafe extern "C" fn alloc_cb(ctx: *mut TacoCtx, slot: i64, ty: i32, len: i64) -> i32 {
    let host = host_of(ctx);
    let slot = slot as usize;
    let name = &host.plan.arrays[slot].name;
    if len < 0 {
        return fail(ctx, RunError::NegativeLength { name: name.clone(), len });
    }
    let ty = match ty {
        0 => ArrayTy::Int,
        1 => ArrayTy::F64,
        2 => ArrayTy::F32,
        _ => ArrayTy::Bool,
    };
    if !host.plan.arrays[slot].map_backing {
        let name = name.clone();
        if let Err(e) = host.meter.charge_array_bytes(&name, len as u64 * elem_bytes(ty)) {
            return fail(ctx, e);
        }
    }
    host.arrays[slot] = zeroed(ty, len as usize);
    refresh_tables(ctx, slot);
    1
}

/// `ctx->grow`: zero-filled growth of an array slot (`Realloc` and the
/// physical backing of map workspaces). Shrinking is a no-op, and map
/// backing charges nothing here — its budget model is `map_charge`.
unsafe extern "C" fn grow_cb(ctx: *mut TacoCtx, slot: i64, len: i64) -> i32 {
    let host = host_of(ctx);
    let slot = slot as usize;
    let name = host.plan.arrays[slot].name.clone();
    if len < 0 {
        return fail(ctx, RunError::NegativeLength { name, len });
    }
    let len = len as usize;
    let old = host.arrays[slot].len();
    if len <= old {
        return 1;
    }
    if !host.plan.arrays[slot].map_backing {
        let ty = val_ty(&host.arrays[slot]);
        if let Err(e) = host.meter.charge_array_bytes(&name, (len - old) as u64 * elem_bytes(ty)) {
            return fail(ctx, e);
        }
        if let Err(e) = host.meter.charge_realloc_doubling(slot, &name) {
            return fail(ctx, e);
        }
    }
    resize_zero(&mut host.arrays[slot], len);
    refresh_tables(ctx, slot);
    1
}

/// `ctx->poll`: the batched supervision check. Charges the grant that
/// just elapsed against the iteration fuse (tripping on exactly the same
/// iteration count as the interpreter's one-at-a-time accounting),
/// publishes progress, observes cancellation and the deadline, then issues
/// the next grant.
unsafe extern "C" fn poll_cb(ctx: *mut TacoCtx) -> i32 {
    let host = host_of(ctx);
    if let Err(e) = host.meter.consume_iterations(host.grant) {
        host.record(e);
        return 1;
    }
    if let Some(shared) = host.ctl.shared {
        shared.publish(&host.meter);
    }
    if let Some(flag) = host.ctl.cancel {
        if flag.load(Ordering::Relaxed) {
            host.record(RunError::Cancelled);
            return 1;
        }
    }
    if let Some((start, limit)) = host.ctl.deadline {
        let elapsed = start.elapsed();
        if elapsed >= limit {
            host.record(RunError::DeadlineExceeded {
                deadline_ms: limit.as_millis() as u64,
                elapsed_ms: elapsed.as_millis() as u64,
            });
            return 1;
        }
    }
    host.grant = host.meter.grant_iterations(u64::from(SUPERVISION_STRIDE));
    (*ctx).ticks_left = host.grant as i64 - 1;
    0
}

/// `ctx->map_charge`: budget accounting for map-workspace capacity.
unsafe extern "C" fn map_charge_cb(
    ctx: *mut TacoCtx,
    map_slot: i64,
    footprint: i64,
    delta: i64,
) -> i32 {
    let host = host_of(ctx);
    let name = host.plan.maps[map_slot as usize].name.clone();
    match host.meter.charge_map_bytes(&name, footprint as u64, delta as u64) {
        Ok(()) => 1,
        Err(e) => fail(ctx, e),
    }
}

/// `ctx->fault`: a typed kernel-side fault (the kernel aborts right
/// after). Payloads match the interpreter's errors field-for-field.
unsafe extern "C" fn fault_cb(ctx: *mut TacoCtx, code: i32, slot: i64, a: i64, b: i64) {
    let host = host_of(ctx);
    let e = match code {
        TACO_ERR_DIV0 => RunError::DivisionByZero,
        TACO_ERR_OOB => RunError::OutOfBounds {
            name: host.plan.arrays[slot as usize].name.clone(),
            idx: a,
            len: b as usize,
        },
        TACO_ERR_MAP_NEG_LEN => RunError::NegativeLength {
            name: host.plan.maps[slot as usize].name.clone(),
            len: a,
        },
        other => RunError::Backend(format!("unknown native fault code {other}")),
    };
    host.record(e);
    if (*ctx).status == TACO_OK {
        (*ctx).status = code;
    }
}
