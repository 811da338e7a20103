//! Native codegen backend dispatch: compile-and-dlopen the emitted C for a
//! cached kernel, with the interpreter as the portable fallback and the
//! correctness oracle.
//!
//! The engine owns one `NativeStore`: a lazily built system C compiler
//! (built once per engine from a probe verdict remembered per process — a
//! broken `$CC` costs one failed probe, not one per kernel) and a
//! per-fingerprint trust ledger. A kernel's native form moves through three
//! states:
//!
//! ```text
//! (no entry) ──compile──▶ Untrusted ──differential check──▶ Trusted
//!      │                      │                                │
//!      └──verify gate /       └── mismatch / native error ──▶ Rejected
//!          emit / toolchain
//!          failure ─▶ Rejected
//! ```
//!
//! * **Untrusted**: the shared object compiled and loaded, but has never
//!   produced a result. The first run is *differential*: the interpreter
//!   runs on the actual operands first, then the native kernel on a fresh
//!   binding, and the results are compared byte-for-byte. The caller always
//!   receives the interpreter's result on this run.
//! * **Trusted**: the differential check passed; later runs go straight to
//!   the native kernel, under the same budget/deadline/cancel supervision.
//! * **Rejected**: the verify gate, the emitter, the toolchain, or the
//!   differential check refused the kernel. Recorded once per fingerprint
//!   so the refusal costs nothing on later runs.
//!
//! Only statically *verified* kernels (an accepted [`VerifyReport`] with
//! zero deny-severity findings recorded at compile time) are eligible: the
//! emitted C elides the bounds checks the interpreter performs, so the
//! verifier's proof is what stands in for them.
//!
//! [`VerifyReport`]: taco_core::VerifyReport

use crate::engine::EngineEvent;
use crate::Engine;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use taco_core::{CompiledKernel, CoreError, FallbackEvent, Supervisor};
use taco_llir::{emit_native, ExecReport};
use taco_native::{NativeCompiler, NativeKernel};
use taco_tensor::Tensor;

/// Which execution backend the engine dispatches kernel runs to.
///
/// The interpreter is always the fallback: `Native` and `Auto` *attempt*
/// the native path and degrade to the interpreter — recording a
/// [`FallbackEvent::NativeUnavailable`] — whenever the toolchain, the
/// emitter, or the trust protocol refuses a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Let the engine decide: native when a working C toolchain is present
    /// and the kernel passes the trust protocol, interpreter otherwise.
    /// In [`crate::EngineConfig`] this currently behaves like `Native`; as
    /// a per-tenant policy it defers to the engine-wide setting.
    #[default]
    Auto,
    /// Interpreter only; the native backend is never consulted.
    Interp,
    /// Prefer compiled native kernels, interpreter fallback on any failure.
    Native,
}

impl Backend {
    /// Reads `TACO_BACKEND` (`auto` | `interp` | `native`); unset, empty,
    /// or unrecognized values mean [`Backend::Auto`].
    pub fn from_env() -> Backend {
        match std::env::var("TACO_BACKEND").as_deref() {
            Ok("interp") => Backend::Interp,
            Ok("native") => Backend::Native,
            _ => Backend::Auto,
        }
    }

    pub(crate) fn allows_native(self) -> bool {
        !matches!(self, Backend::Interp)
    }

    /// Resolves a per-call (e.g. per-tenant) preference against the
    /// engine-wide default: `Auto` defers, anything else wins.
    pub(crate) fn resolve_with(self, engine_default: Backend) -> Backend {
        match self {
            Backend::Auto => engine_default,
            other => other,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Auto => write!(f, "auto"),
            Backend::Interp => write!(f, "interp"),
            Backend::Native => write!(f, "native"),
        }
    }
}

/// Per-fingerprint trust state of a kernel's native form.
#[derive(Debug, Clone)]
pub(crate) enum NativeState {
    /// Compiled and loaded, but not yet differentially validated.
    Untrusted(Arc<NativeKernel>),
    /// Differential check passed; runs go straight to the native kernel.
    Trusted(Arc<NativeKernel>),
    /// Refused (verify gate, emitter, toolchain, or differential mismatch).
    Rejected,
}

/// Counters describing what the native backend has done so far; see
/// [`Engine::native_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct NativeStats {
    /// Shared objects compiled (or re-loaded from the on-disk cache).
    pub compiled: u64,
    /// Kernels promoted to trusted by a passing differential check.
    pub trusted: u64,
    /// Kernels refused by the verify gate, the emitter, or a failed
    /// differential check.
    pub rejected: u64,
    /// Kernels that fell back to the interpreter because the toolchain was
    /// missing or the compile/load failed.
    pub unavailable: u64,
    /// Runs served by a trusted native kernel.
    pub native_runs: u64,
}

/// The engine's native-backend state: one lazily probed compiler and the
/// per-fingerprint trust ledger.
#[derive(Debug, Default)]
pub(crate) struct NativeStore {
    /// `None` = not probed yet; `Some(Err)` = probe failed (rendered
    /// reason), remembered so a broken toolchain is reported once and never
    /// re-probed.
    compiler: Mutex<Option<Result<NativeCompiler, String>>>,
    entries: Mutex<HashMap<u64, NativeState>>,
    compiled: AtomicU64,
    trusted: AtomicU64,
    rejected: AtomicU64,
    unavailable: AtomicU64,
    native_runs: AtomicU64,
}

impl NativeStore {
    fn compiler(&self) -> Result<NativeCompiler, String> {
        let mut slot = self.compiler.lock().unwrap_or_else(|p| p.into_inner());
        slot.get_or_insert_with(|| NativeCompiler::from_env().map_err(|e| e.to_string()))
            .clone()
    }

    fn get(&self, fingerprint: u64) -> Option<NativeState> {
        self.entries.lock().unwrap_or_else(|p| p.into_inner()).get(&fingerprint).cloned()
    }

    fn set(&self, fingerprint: u64, state: NativeState) {
        self.entries.lock().unwrap_or_else(|p| p.into_inner()).insert(fingerprint, state);
    }

    pub(crate) fn stats(&self) -> NativeStats {
        NativeStats {
            compiled: self.compiled.load(Ordering::Relaxed),
            trusted: self.trusted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            unavailable: self.unavailable.load(Ordering::Relaxed),
            native_runs: self.native_runs.load(Ordering::Relaxed),
        }
    }
}

/// The outcome of one [`Engine::dispatch`]: the committed result (or typed
/// error) plus whether the native kernel itself produced it (`false` on the
/// interpreter and on the differential run, which returns the
/// interpreter's result).
pub(crate) struct Dispatched {
    pub(crate) result: std::result::Result<(Tensor, ExecReport), CoreError>,
    pub(crate) native: bool,
}

impl Engine {
    /// Counters for the native backend: compiles, trust promotions,
    /// rejections, toolchain fallbacks, and runs served natively.
    pub fn native_stats(&self) -> NativeStats {
        self.native.stats()
    }

    /// Runs a kernel on `backend` under `supervisor`: the trusted native
    /// kernel when there is one, the differential trust check when its
    /// native form is new, and the interpreter when the backend is off or
    /// the kernel was refused. Every leg is one
    /// [`CompiledKernel::run_supervised_on`], so errors arrive as
    /// [`CoreError::Aborted`] on either backend and the degrade-and-retry
    /// ladder treats both identically.
    pub(crate) fn dispatch(
        &self,
        kernel: &CompiledKernel,
        inputs: &[(&str, &Tensor)],
        output_structure: Option<&Tensor>,
        supervisor: &Supervisor,
        backend: Backend,
    ) -> Dispatched {
        let fingerprint = kernel.fingerprint();
        let native_form = if backend.allows_native() {
            match self.native.get(fingerprint) {
                Some(NativeState::Trusted(nk)) => Some((nk, true)),
                Some(NativeState::Untrusted(nk)) => Some((nk, false)),
                Some(NativeState::Rejected) => None,
                None => self.acquire_native(kernel).map(|nk| (nk, false)),
            }
        } else {
            None
        };
        let interp = || {
            kernel.run_supervised_on(kernel.executable(), inputs, output_structure, supervisor)
        };
        let Some((nk, trusted)) = native_form else {
            return Dispatched { result: interp(), native: false };
        };
        let native = || kernel.run_supervised_on(&*nk, inputs, output_structure, supervisor);

        if trusted {
            self.native.native_runs.fetch_add(1, Ordering::Relaxed);
            return Dispatched { result: native(), native: true };
        }

        // Differential trust check: interpreter first (its result is what
        // the caller gets), then the native kernel on a fresh binding.
        let reference = interp();
        let Ok((ref_result, _)) = &reference else {
            // The interpreter itself failed (deadline, budget, bad
            // operands): the check is inconclusive. Propagate the error and
            // leave the kernel untrusted for the next attempt.
            return Dispatched { result: reference, native: false };
        };
        match native() {
            Ok((native_result, _)) if native_result == *ref_result => {
                self.native.set(fingerprint, NativeState::Trusted(Arc::clone(&nk)));
                self.native.trusted.fetch_add(1, Ordering::Relaxed);
            }
            Ok(_) => self.reject_native(
                fingerprint,
                "differential check failed: native result differs from the interpreter"
                    .to_string(),
            ),
            Err(e) => self.reject_native(
                fingerprint,
                format!("native run failed where the interpreter succeeded: {e}"),
            ),
        }
        Dispatched { result: reference, native: false }
    }

    /// Verify-gates, emits, and compiles the native form of a kernel,
    /// recording the outcome in the trust ledger and the event log. `None`
    /// means the interpreter serves this kernel from now on.
    fn acquire_native(&self, kernel: &CompiledKernel) -> Option<Arc<NativeKernel>> {
        let fingerprint = kernel.fingerprint();
        // Trust gate: the emitted C elides the interpreter's bounds checks,
        // so only kernels the static verifier accepted may go native.
        match kernel.verify_report() {
            Some(report) if report.denies() == 0 => {}
            Some(report) => {
                self.reject_native(
                    fingerprint,
                    format!(
                        "{} deny-severity findings on the kernel's verification report",
                        report.denies()
                    ),
                );
                return None;
            }
            None => {
                self.reject_native(
                    fingerprint,
                    "kernel was compiled without static verification".to_string(),
                );
                return None;
            }
        }
        let source = match emit_native(kernel.executable()) {
            Ok(source) => source,
            Err(e) => {
                self.reject_native(fingerprint, e.to_string());
                return None;
            }
        };
        let compiler = match self.native.compiler() {
            Ok(c) => c,
            Err(reason) => {
                self.native_unavailable(fingerprint, reason);
                return None;
            }
        };
        match compiler.compile(&source, fingerprint) {
            Ok(nk) => {
                let nk = Arc::new(nk);
                self.native.compiled.fetch_add(1, Ordering::Relaxed);
                self.push_event(EngineEvent::NativeCompiled {
                    fingerprint,
                    compile_nanos: nk.compile_nanos,
                });
                self.native.set(fingerprint, NativeState::Untrusted(Arc::clone(&nk)));
                Some(nk)
            }
            Err(e) => {
                self.native_unavailable(fingerprint, e.to_string());
                None
            }
        }
    }

    /// Records a per-kernel rejection (verify gate, emitter, differential).
    fn reject_native(&self, fingerprint: u64, reason: String) {
        self.native.set(fingerprint, NativeState::Rejected);
        self.native.rejected.fetch_add(1, Ordering::Relaxed);
        self.push_event(EngineEvent::NativeRejected { fingerprint, reason });
    }

    /// Records a toolchain/compile/load failure: the kernel runs on the
    /// interpreter, and the degradation is visible as a fallback event.
    fn native_unavailable(&self, fingerprint: u64, reason: String) {
        // `NativeError::Unavailable` renders with the same preamble the
        // fallback event adds; strip it so the log line reads once.
        let reason = match reason.strip_prefix("native backend unavailable: ") {
            Some(trimmed) => trimmed.to_string(),
            None => reason,
        };
        self.native.set(fingerprint, NativeState::Rejected);
        self.native.unavailable.fetch_add(1, Ordering::Relaxed);
        self.push_event(EngineEvent::Fallback(FallbackEvent::NativeUnavailable { reason }));
    }
}
