//! Compilation of kernels to a slot-resolved executable form, and execution.
//!
//! [`Executable::compile`] walks a [`Kernel`], checks types, and resolves
//! every scalar variable and array name to a dense slot index. The resulting
//! typed statement tree is then interpreted by [`Executable::run`] with no
//! name lookups in any inner loop — this plays the role of the paper's
//! "target code" stage (Figure 6) in a pure-Rust setting.

use crate::alloc::{elem_bytes, AllocSink, BudgetMeter};
use crate::supervise::{RunBody, SharedProgress};
use crate::{
    ArrayTy, BinOp, BudgetResource, CompileError, Expr, Kernel, ParamKind, ResourceBudget,
    RunError, Stmt, UnOp, WorkspaceKind,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A buffer bound to (or allocated by) a kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayVal {
    /// 64-bit integer buffer.
    Int(Vec<i64>),
    /// Double-precision buffer.
    F64(Vec<f64>),
    /// Single-precision buffer.
    F32(Vec<f32>),
    /// Boolean buffer.
    Bool(Vec<bool>),
}

impl ArrayVal {
    fn ty(&self) -> ArrayTy {
        match self {
            ArrayVal::Int(_) => ArrayTy::Int,
            ArrayVal::F64(_) => ArrayTy::F64,
            ArrayVal::F32(_) => ArrayTy::F32,
            ArrayVal::Bool(_) => ArrayTy::Bool,
        }
    }

    fn empty(ty: ArrayTy) -> ArrayVal {
        match ty {
            ArrayTy::Int => ArrayVal::Int(Vec::new()),
            ArrayTy::F64 => ArrayVal::F64(Vec::new()),
            ArrayTy::F32 => ArrayVal::F32(Vec::new()),
            ArrayTy::Bool => ArrayVal::Bool(Vec::new()),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            ArrayVal::Int(v) => v.len(),
            ArrayVal::F64(v) => v.len(),
            ArrayVal::F32(v) => v.len(),
            ArrayVal::Bool(v) => v.len(),
        }
    }

    /// True if the buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Resolved (typed, slot-addressed) IR
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub(crate) enum IExpr {
    Lit(i64),
    Var(usize),
    Load(usize, Box<IExpr>),
    Len(usize),
    Bin(BinOp, Box<IExpr>, Box<IExpr>),
    Neg(Box<IExpr>),
}

#[derive(Debug, Clone)]
pub(crate) enum FExpr {
    Lit(f64),
    Var(usize),
    LoadF64(usize, Box<IExpr>),
    LoadF32(usize, Box<IExpr>),
    Bin(BinOp, Box<FExpr>, Box<FExpr>),
    Neg(Box<FExpr>),
    FromInt(Box<IExpr>),
}

#[derive(Debug, Clone)]
pub(crate) enum BExpr {
    Lit(bool),
    Var(usize),
    Load(usize, Box<IExpr>),
    CmpI(BinOp, Box<IExpr>, Box<IExpr>),
    CmpF(BinOp, Box<FExpr>, Box<FExpr>),
    Bin(BinOp, Box<BExpr>, Box<BExpr>),
    Not(Box<BExpr>),
}

#[derive(Debug, Clone)]
pub(crate) enum RStmt {
    AssignI(usize, IExpr),
    AssignF(usize, FExpr),
    AssignB(usize, BExpr),
    StoreI(usize, IExpr, IExpr),
    StoreF64(usize, IExpr, FExpr),
    StoreF32(usize, IExpr, FExpr),
    StoreB(usize, IExpr, BExpr),
    StoreAddI(usize, IExpr, IExpr),
    StoreAddF64(usize, IExpr, FExpr),
    StoreAddF32(usize, IExpr, FExpr),
    For(usize, IExpr, IExpr, Vec<RStmt>),
    ParallelFor(Box<RParFor>),
    While(BExpr, Vec<RStmt>),
    If(BExpr, Vec<RStmt>, Vec<RStmt>),
    MemsetI(usize, IExpr),
    MemsetF64(usize, FExpr),
    MemsetF32(usize, FExpr),
    MemsetB(usize, BExpr),
    Alloc(usize, ArrayTy, IExpr),
    Realloc(usize, IExpr),
    Sort(usize, IExpr, IExpr),
    MapInit(usize, WorkspaceKind, IExpr),
    MapScatter(usize, IExpr, FExpr, bool),
    MapDrainSorted(usize, usize, usize, Vec<RStmt>),
}

/// A slot-resolved [`Stmt::ParallelFor`]: a counting loop whose iterations
/// are distributed over worker threads in contiguous chunks and whose
/// per-worker state is merged back deterministically (boxed to keep the
/// common `RStmt` variants small).
#[derive(Debug, Clone)]
pub(crate) struct RParFor {
    /// Loop-variable int slot.
    pub(crate) var: usize,
    pub(crate) lo: IExpr,
    pub(crate) hi: IExpr,
    /// Worker count baked in at lowering; 0 resolves at run time.
    pub(crate) threads: usize,
    /// Array slots private to each worker (per-thread workspaces): workers
    /// run on clones, and the parent's pristine copies survive the loop.
    pub(crate) private: Vec<usize>,
    pub(crate) append: Option<RAppend>,
    pub(crate) body: Vec<RStmt>,
}

/// Slot-resolved [`AppendMerge`](crate::AppendMerge).
#[derive(Debug, Clone)]
pub(crate) struct RAppend {
    /// Int slot of the append counter scalar.
    pub(crate) counter: usize,
    /// Array slots appended to at counter positions.
    pub(crate) data: Vec<usize>,
    /// Slot of the result `pos` array whose per-row entries need rebasing.
    pub(crate) pos: Option<usize>,
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScalarTy {
    Int,
    Float,
    Bool,
}

enum Typed {
    I(IExpr),
    F(FExpr),
    B(BExpr),
}

struct Compiler {
    scopes: Vec<HashMap<String, (ScalarTy, usize)>>,
    arrays: HashMap<String, (usize, ArrayTy)>,
    array_names: Vec<String>,
    maps: HashMap<String, usize>,
    map_names: Vec<String>,
    n_int: usize,
    n_float: usize,
    n_bool: usize,
}

impl Compiler {
    fn lookup_var(&self, name: &str) -> Option<(ScalarTy, usize)> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn declare(&mut self, name: &str, ty: ScalarTy) -> Result<usize, CompileError> {
        if self.scopes.last().expect("scope stack nonempty").contains_key(name) {
            return Err(CompileError::Duplicate(name.to_string()));
        }
        let slot = match ty {
            ScalarTy::Int => {
                self.n_int += 1;
                self.n_int - 1
            }
            ScalarTy::Float => {
                self.n_float += 1;
                self.n_float - 1
            }
            ScalarTy::Bool => {
                self.n_bool += 1;
                self.n_bool - 1
            }
        };
        self.scopes.last_mut().unwrap().insert(name.to_string(), (ty, slot));
        Ok(slot)
    }

    fn array(&mut self, name: &str) -> Result<(usize, ArrayTy), CompileError> {
        self.arrays
            .get(name)
            .copied()
            .ok_or_else(|| CompileError::UnknownArray(name.to_string()))
    }

    fn map(&mut self, name: &str) -> Result<usize, CompileError> {
        self.maps.get(name).copied().ok_or_else(|| CompileError::UnknownArray(name.to_string()))
    }

    fn declare_map(&mut self, name: &str) -> Result<usize, CompileError> {
        if let Some(&slot) = self.maps.get(name) {
            return Ok(slot);
        }
        if self.arrays.contains_key(name) {
            return Err(CompileError::Duplicate(name.to_string()));
        }
        let slot = self.map_names.len();
        self.map_names.push(name.to_string());
        self.maps.insert(name.to_string(), slot);
        Ok(slot)
    }

    fn declare_array(&mut self, name: &str, ty: ArrayTy) -> Result<usize, CompileError> {
        if let Some(&(slot, prev)) = self.arrays.get(name) {
            if prev != ty {
                return Err(CompileError::TypeMismatch {
                    context: format!("array `{name}` reallocated with a different type"),
                });
            }
            return Ok(slot);
        }
        let slot = self.array_names.len();
        self.array_names.push(name.to_string());
        self.arrays.insert(name.to_string(), (slot, ty));
        Ok(slot)
    }

    fn expr(&mut self, e: &Expr) -> Result<Typed, CompileError> {
        Ok(match e {
            Expr::Int(v) => Typed::I(IExpr::Lit(*v)),
            Expr::Float(v) => Typed::F(FExpr::Lit(*v)),
            Expr::Bool(v) => Typed::B(BExpr::Lit(*v)),
            Expr::Var(name) => {
                let (ty, slot) =
                    self.lookup_var(name).ok_or_else(|| CompileError::UnknownVar(name.clone()))?;
                match ty {
                    ScalarTy::Int => Typed::I(IExpr::Var(slot)),
                    ScalarTy::Float => Typed::F(FExpr::Var(slot)),
                    ScalarTy::Bool => Typed::B(BExpr::Var(slot)),
                }
            }
            Expr::Load(arr, idx) => {
                let (slot, ty) = self.array(arr)?;
                let idx = self.int_expr(idx)?;
                match ty {
                    ArrayTy::Int => Typed::I(IExpr::Load(slot, Box::new(idx))),
                    ArrayTy::F64 => Typed::F(FExpr::LoadF64(slot, Box::new(idx))),
                    ArrayTy::F32 => Typed::F(FExpr::LoadF32(slot, Box::new(idx))),
                    ArrayTy::Bool => Typed::B(BExpr::Load(slot, Box::new(idx))),
                }
            }
            Expr::Len(arr) => {
                let (slot, _) = self.array(arr)?;
                Typed::I(IExpr::Len(slot))
            }
            Expr::Un(UnOp::Neg, inner) => match self.expr(inner)? {
                Typed::I(i) => Typed::I(IExpr::Neg(Box::new(i))),
                Typed::F(f) => Typed::F(FExpr::Neg(Box::new(f))),
                Typed::B(_) => {
                    return Err(CompileError::TypeMismatch {
                        context: "arithmetic negation of a boolean".into(),
                    })
                }
            },
            Expr::Un(UnOp::Not, inner) => {
                let b = self.bool_expr(inner)?;
                Typed::B(BExpr::Not(Box::new(b)))
            }
            Expr::Bin(op, a, b) => self.bin(*op, a, b)?,
        })
    }

    fn bin(&mut self, op: BinOp, a: &Expr, b: &Expr) -> Result<Typed, CompileError> {
        use BinOp::*;
        let ta = self.expr(a)?;
        let tb = self.expr(b)?;
        let arithmetic = matches!(op, Add | Sub | Mul | Div | Rem | Min | Max);
        let comparison = matches!(op, Eq | Ne | Lt | Le | Gt | Ge);
        let logical = matches!(op, And | Or);
        match (ta, tb) {
            (Typed::I(x), Typed::I(y)) if arithmetic => {
                Ok(Typed::I(IExpr::Bin(op, Box::new(x), Box::new(y))))
            }
            (Typed::I(x), Typed::I(y)) if comparison => {
                Ok(Typed::B(BExpr::CmpI(op, Box::new(x), Box::new(y))))
            }
            (Typed::B(x), Typed::B(y)) if logical => {
                Ok(Typed::B(BExpr::Bin(op, Box::new(x), Box::new(y))))
            }
            (x @ (Typed::I(_) | Typed::F(_)), y @ (Typed::I(_) | Typed::F(_)))
                if arithmetic || comparison =>
            {
                let fx = Self::promote(x);
                let fy = Self::promote(y);
                if arithmetic {
                    Ok(Typed::F(FExpr::Bin(op, Box::new(fx), Box::new(fy))))
                } else {
                    Ok(Typed::B(BExpr::CmpF(op, Box::new(fx), Box::new(fy))))
                }
            }
            _ => Err(CompileError::TypeMismatch { context: format!("operator {op:?}") }),
        }
    }

    fn promote(t: Typed) -> FExpr {
        match t {
            Typed::F(f) => f,
            Typed::I(i) => FExpr::FromInt(Box::new(i)),
            Typed::B(_) => unreachable!("bool operands rejected before promotion"),
        }
    }

    fn int_expr(&mut self, e: &Expr) -> Result<IExpr, CompileError> {
        match self.expr(e)? {
            Typed::I(i) => Ok(i),
            _ => Err(CompileError::TypeMismatch { context: format!("expected integer: {e:?}") }),
        }
    }

    fn float_expr(&mut self, e: &Expr) -> Result<FExpr, CompileError> {
        match self.expr(e)? {
            Typed::F(f) => Ok(f),
            Typed::I(i) => Ok(FExpr::FromInt(Box::new(i))),
            _ => Err(CompileError::TypeMismatch { context: format!("expected float: {e:?}") }),
        }
    }

    fn bool_expr(&mut self, e: &Expr) -> Result<BExpr, CompileError> {
        match self.expr(e)? {
            Typed::B(b) => Ok(b),
            _ => Err(CompileError::TypeMismatch { context: format!("expected boolean: {e:?}") }),
        }
    }

    fn block(&mut self, stmts: &[Stmt]) -> Result<Vec<RStmt>, CompileError> {
        self.scopes.push(HashMap::new());
        let out = self.block_in_current_scope(stmts);
        self.scopes.pop();
        out
    }

    fn block_in_current_scope(&mut self, stmts: &[Stmt]) -> Result<Vec<RStmt>, CompileError> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            if let Some(r) = self.stmt(s)? {
                out.push(r);
            }
        }
        Ok(out)
    }

    fn stmt(&mut self, s: &Stmt) -> Result<Option<RStmt>, CompileError> {
        Ok(Some(match s {
            Stmt::DeclInt(name, init) => {
                let e = self.int_expr(init)?;
                let slot = self.declare(name, ScalarTy::Int)?;
                RStmt::AssignI(slot, e)
            }
            Stmt::DeclFloat(name, init) => {
                let e = self.float_expr(init)?;
                let slot = self.declare(name, ScalarTy::Float)?;
                RStmt::AssignF(slot, e)
            }
            Stmt::DeclBool(name, init) => {
                let e = self.bool_expr(init)?;
                let slot = self.declare(name, ScalarTy::Bool)?;
                RStmt::AssignB(slot, e)
            }
            Stmt::Assign(name, val) => {
                let (ty, slot) =
                    self.lookup_var(name).ok_or_else(|| CompileError::UnknownVar(name.clone()))?;
                match ty {
                    ScalarTy::Int => RStmt::AssignI(slot, self.int_expr(val)?),
                    ScalarTy::Float => RStmt::AssignF(slot, self.float_expr(val)?),
                    ScalarTy::Bool => RStmt::AssignB(slot, self.bool_expr(val)?),
                }
            }
            Stmt::Store { arr, idx, val } => {
                let (slot, ty) = self.array(arr)?;
                let idx = self.int_expr(idx)?;
                match ty {
                    ArrayTy::Int => RStmt::StoreI(slot, idx, self.int_expr(val)?),
                    ArrayTy::F64 => RStmt::StoreF64(slot, idx, self.float_expr(val)?),
                    ArrayTy::F32 => RStmt::StoreF32(slot, idx, self.float_expr(val)?),
                    ArrayTy::Bool => RStmt::StoreB(slot, idx, self.bool_expr(val)?),
                }
            }
            Stmt::StoreAdd { arr, idx, val } => {
                let (slot, ty) = self.array(arr)?;
                let idx = self.int_expr(idx)?;
                match ty {
                    ArrayTy::Int => RStmt::StoreAddI(slot, idx, self.int_expr(val)?),
                    ArrayTy::F64 => RStmt::StoreAddF64(slot, idx, self.float_expr(val)?),
                    ArrayTy::F32 => RStmt::StoreAddF32(slot, idx, self.float_expr(val)?),
                    ArrayTy::Bool => {
                        return Err(CompileError::TypeMismatch {
                            context: format!("accumulating store into boolean array `{arr}`"),
                        })
                    }
                }
            }
            Stmt::For { var, lo, hi, body } => {
                let lo = self.int_expr(lo)?;
                let hi = self.int_expr(hi)?;
                self.scopes.push(HashMap::new());
                let slot = self.declare(var, ScalarTy::Int)?;
                let body = self.block_in_current_scope(body)?;
                self.scopes.pop();
                RStmt::For(slot, lo, hi, body)
            }
            Stmt::ParallelFor { var, lo, hi, threads, private, append, body } => {
                let lo = self.int_expr(lo)?;
                let hi = self.int_expr(hi)?;
                let private = private
                    .iter()
                    .map(|n| self.array(n).map(|(slot, _)| slot))
                    .collect::<Result<Vec<_>, _>>()?;
                let append = match append {
                    Some(a) => {
                        let counter = match self.lookup_var(&a.counter) {
                            Some((ScalarTy::Int, slot)) => slot,
                            _ => return Err(CompileError::UnknownVar(a.counter.clone())),
                        };
                        let data = a
                            .data
                            .iter()
                            .map(|n| self.array(n).map(|(slot, _)| slot))
                            .collect::<Result<Vec<_>, _>>()?;
                        let pos = match &a.pos {
                            Some(p) => Some(self.array(p)?.0),
                            None => None,
                        };
                        Some(RAppend { counter, data, pos })
                    }
                    None => None,
                };
                self.scopes.push(HashMap::new());
                let slot = self.declare(var, ScalarTy::Int)?;
                let body = self.block_in_current_scope(body)?;
                self.scopes.pop();
                RStmt::ParallelFor(Box::new(RParFor {
                    var: slot,
                    lo,
                    hi,
                    threads: *threads,
                    private,
                    append,
                    body,
                }))
            }
            Stmt::While { cond, body } => {
                let cond = self.bool_expr(cond)?;
                let body = self.block(body)?;
                RStmt::While(cond, body)
            }
            Stmt::If { cond, then, els } => {
                let cond = self.bool_expr(cond)?;
                let then = self.block(then)?;
                let els = self.block(els)?;
                RStmt::If(cond, then, els)
            }
            Stmt::Memset { arr, val } => {
                let (slot, ty) = self.array(arr)?;
                match ty {
                    ArrayTy::Int => RStmt::MemsetI(slot, self.int_expr(val)?),
                    ArrayTy::F64 => RStmt::MemsetF64(slot, self.float_expr(val)?),
                    ArrayTy::F32 => RStmt::MemsetF32(slot, self.float_expr(val)?),
                    ArrayTy::Bool => RStmt::MemsetB(slot, self.bool_expr(val)?),
                }
            }
            Stmt::Alloc { arr, ty, len } => {
                let len = self.int_expr(len)?;
                let slot = self.declare_array(arr, *ty)?;
                RStmt::Alloc(slot, *ty, len)
            }
            Stmt::Realloc { arr, len } => {
                let (slot, _) = self.array(arr)?;
                let len = self.int_expr(len)?;
                RStmt::Realloc(slot, len)
            }
            Stmt::Sort { arr, lo, hi } => {
                let (slot, ty) = self.array(arr)?;
                if ty != ArrayTy::Int {
                    return Err(CompileError::SortNonInt(arr.clone()));
                }
                RStmt::Sort(slot, self.int_expr(lo)?, self.int_expr(hi)?)
            }
            Stmt::MapInit { map, kind, capacity } => {
                if *kind == WorkspaceKind::Dense {
                    return Err(CompileError::TypeMismatch {
                        context: format!("map workspace `{map}` initialized with dense kind"),
                    });
                }
                let cap = self.int_expr(capacity)?;
                let slot = self.declare_map(map)?;
                RStmt::MapInit(slot, *kind, cap)
            }
            Stmt::MapScatter { map, key, val, add } => {
                let slot = self.map(map)?;
                let key = self.int_expr(key)?;
                let val = self.float_expr(val)?;
                RStmt::MapScatter(slot, key, val, *add)
            }
            Stmt::MapDrainSorted { map, key, val, body } => {
                let slot = self.map(map)?;
                self.scopes.push(HashMap::new());
                let key_slot = self.declare(key, ScalarTy::Int)?;
                let val_slot = self.declare(val, ScalarTy::Float)?;
                let body = self.block_in_current_scope(body)?;
                self.scopes.pop();
                RStmt::MapDrainSorted(slot, key_slot, val_slot, body)
            }
            Stmt::Comment(_) => return Ok(None),
        }))
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

// Per-run budget accounting lives in [`crate::alloc::BudgetMeter`], shared
// with the native backend so both report byte-identical budget aborts.

/// How often (in loop iterations) the interpreter performs the expensive
/// supervision checks: reading the clock, the cancel flag, and publishing
/// progress counters. Back-edges between checks cost one countdown decrement.
///
/// Public so supervision consumers (the serving daemon, soak tests) can
/// bound how late a deadline or cancellation can be observed: at most one
/// stride of loop iterations after the event.
pub const SUPERVISION_STRIDE: u32 = 1024;

/// Supervision hooks threaded into one [`RunBody::run_controlled`] by
/// [`Supervisor::run`](crate::Supervisor::run). Every backend observes them
/// once per [`SUPERVISION_STRIDE`] loop back-edges. All-`None` (the
/// `Default`) runs unsupervised with zero overhead beyond the stride
/// countdown.
#[derive(Debug, Default, Clone, Copy)]
pub struct RunControls<'a> {
    /// Cooperative cancellation flag.
    pub cancel: Option<&'a AtomicBool>,
    /// Wall-clock deadline as (run start, allowed duration).
    pub deadline: Option<(Instant, Duration)>,
    /// Progress sink the run publishes its meter into, for the watchdog
    /// thread and the final report.
    pub shared: Option<&'a SharedProgress>,
}

/// Bytes charged per map-workspace entry: key and value, plus slot overhead
/// for the open-addressing hash variant.
pub(crate) fn map_entry_bytes(kind: WorkspaceKind) -> u64 {
    kind.entry_bytes()
}

/// A sparse map workspace: kernel-local machine state keyed by integer
/// coordinates. Never part of a [`Binding`], so supervised snapshot/rollback
/// is unaffected by map contents.
#[derive(Debug, Clone)]
enum MapStore {
    /// Hash-map backing: unordered accumulate, sorted on drain.
    Hash(HashMap<i64, f64>),
    /// Coordinate-list backing: ordered insert with dedup, drained in place.
    Sorted(Vec<(i64, f64)>),
}

#[derive(Debug, Clone)]
struct MapWs {
    store: MapStore,
    /// Entry capacity already charged against the byte budget; grows by
    /// doubling as entries are inserted, like `Realloc`.
    charged_entries: u64,
}

impl Default for MapWs {
    fn default() -> MapWs {
        MapWs { store: MapStore::Hash(HashMap::new()), charged_entries: 0 }
    }
}

impl MapWs {
    fn kind(&self) -> WorkspaceKind {
        match self.store {
            MapStore::Hash(_) => WorkspaceKind::Hash,
            MapStore::Sorted(_) => WorkspaceKind::CoordList,
        }
    }

    fn len(&self) -> usize {
        match &self.store {
            MapStore::Hash(m) => m.len(),
            MapStore::Sorted(v) => v.len(),
        }
    }

    /// Removes all entries in ascending key order.
    fn drain_sorted(&mut self) -> Vec<(i64, f64)> {
        match &mut self.store {
            MapStore::Hash(m) => {
                let mut entries: Vec<(i64, f64)> = m.drain().collect();
                entries.sort_unstable_by_key(|&(k, _)| k);
                entries
            }
            MapStore::Sorted(v) => std::mem::take(v),
        }
    }
}

struct Mach<'a> {
    ints: Vec<i64>,
    floats: Vec<f64>,
    bools: Vec<bool>,
    arrays: Vec<ArrayVal>,
    array_names: Arc<Vec<String>>,
    maps: Vec<MapWs>,
    map_names: Arc<Vec<String>>,
    budget: BudgetMeter,
    ctl: RunControls<'a>,
    /// Iterations until the next supervision check.
    check_countdown: u32,
    /// True inside a worker thread of a parallel loop: nested
    /// `ParallelFor`s then run serially instead of spawning again.
    in_parallel: bool,
}

impl Mach<'_> {
    #[inline]
    fn oob(&self, arr: usize, idx: i64, len: usize) -> RunError {
        RunError::OutOfBounds { name: self.array_names[arr].clone(), idx, len }
    }

    #[inline]
    fn check(&self, arr: usize, idx: i64, len: usize) -> Result<usize, RunError> {
        if idx < 0 || idx as usize >= len {
            Err(self.oob(arr, idx, len))
        } else {
            Ok(idx as usize)
        }
    }

    /// Burns one unit of the loop-iteration fuse and, every
    /// [`SUPERVISION_STRIDE`] back-edges, performs the supervision checks
    /// (deadline, cancellation, progress publication).
    #[inline]
    fn consume_iteration(&mut self) -> Result<(), RunError> {
        match self.budget.iterations_left.checked_sub(1) {
            Some(left) => {
                self.budget.iterations_left = left;
                if self.check_countdown == 0 {
                    self.check_countdown = SUPERVISION_STRIDE;
                    self.supervision_check()
                } else {
                    self.check_countdown -= 1;
                    Ok(())
                }
            }
            None => Err(RunError::BudgetExceeded {
                resource: BudgetResource::LoopIterations,
                limit: self.budget.max_iterations,
                requested: self.budget.max_iterations.saturating_add(1),
                array: None,
            }),
        }
    }

    /// Iterations executed so far, recovered from the fuse without an extra
    /// hot-path counter.
    fn iterations_done(&self) -> u64 {
        self.budget.max_iterations - self.budget.iterations_left
    }

    /// The expensive periodic checks: publish progress, observe the cancel
    /// flag, compare the clock against the deadline.
    #[cold]
    #[inline(never)]
    fn supervision_check(&mut self) -> Result<(), RunError> {
        if let Some(shared) = self.ctl.shared {
            shared.publish(&self.budget);
        }
        if let Some(flag) = self.ctl.cancel {
            if flag.load(Ordering::Relaxed) {
                return Err(RunError::Cancelled);
            }
        }
        if let Some((start, limit)) = self.ctl.deadline {
            let elapsed = start.elapsed();
            if elapsed >= limit {
                return Err(RunError::DeadlineExceeded {
                    deadline_ms: limit.as_millis() as u64,
                    elapsed_ms: elapsed.as_millis() as u64,
                });
            }
        }
        Ok(())
    }

    /// Charges `new_bytes` of growth for `arr` against the single-allocation
    /// and cumulative byte limits.
    fn charge_bytes(&mut self, arr: usize, new_bytes: u64) -> Result<(), RunError> {
        self.budget.charge_array_bytes(&self.array_names[arr], new_bytes)
    }

    /// Charges map-workspace growth: the map's whole footprint must fit the
    /// single-workspace limit (so a hash workspace that outgrows
    /// `max_workspace_bytes` aborts retryably, like an oversized `Alloc`),
    /// and the growth delta counts toward the cumulative total.
    fn charge_map_bytes(
        &mut self,
        map: usize,
        footprint: u64,
        delta: u64,
    ) -> Result<(), RunError> {
        self.budget.charge_map_bytes(&self.map_names[map], footprint, delta)
    }

    /// Grows the charged capacity of a map (by doubling) when an insert
    /// pushes its entry count past what has been paid for.
    fn charge_map_growth(&mut self, map: usize) -> Result<(), RunError> {
        let ws = &self.maps[map];
        let needed = ws.len() as u64 + 1;
        if needed <= ws.charged_entries {
            return Ok(());
        }
        let per = map_entry_bytes(ws.kind());
        let new_cap = (ws.charged_entries * 2).max(needed).max(8);
        let delta = (new_cap - ws.charged_entries).saturating_mul(per);
        self.charge_map_bytes(map, new_cap.saturating_mul(per), delta)?;
        self.maps[map].charged_entries = new_cap;
        Ok(())
    }

    /// Counts one `Realloc` growth of `arr` against the doubling cap.
    fn charge_realloc(&mut self, arr: usize) -> Result<(), RunError> {
        self.budget.charge_realloc_doubling(arr, &self.array_names[arr])
    }

    fn eval_i(&self, e: &IExpr) -> Result<i64, RunError> {
        Ok(match e {
            IExpr::Lit(v) => *v,
            IExpr::Var(s) => self.ints[*s],
            IExpr::Load(arr, idx) => {
                let i = self.eval_i(idx)?;
                match &self.arrays[*arr] {
                    ArrayVal::Int(v) => v[self.check(*arr, i, v.len())?],
                    _ => unreachable!("typed at compile time"),
                }
            }
            IExpr::Len(arr) => self.arrays[*arr].len() as i64,
            IExpr::Bin(op, a, b) => {
                let x = self.eval_i(a)?;
                let y = self.eval_i(b)?;
                // Wrapping semantics match C integer arithmetic and keep
                // hostile index expressions from aborting the process in
                // debug builds; division errors out instead of trapping.
                match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Div => {
                        if y == 0 {
                            return Err(RunError::DivisionByZero);
                        }
                        x.wrapping_div(y)
                    }
                    BinOp::Rem => {
                        if y == 0 {
                            return Err(RunError::DivisionByZero);
                        }
                        x.wrapping_rem(y)
                    }
                    BinOp::Min => x.min(y),
                    BinOp::Max => x.max(y),
                    // Invariant: `Compiler::bin` only builds `IExpr::Bin` for
                    // the arithmetic operators matched above.
                    _ => unreachable!("non-arithmetic op in integer expression"),
                }
            }
            IExpr::Neg(a) => self.eval_i(a)?.wrapping_neg(),
        })
    }

    fn eval_f(&self, e: &FExpr) -> Result<f64, RunError> {
        Ok(match e {
            FExpr::Lit(v) => *v,
            FExpr::Var(s) => self.floats[*s],
            FExpr::LoadF64(arr, idx) => {
                let i = self.eval_i(idx)?;
                match &self.arrays[*arr] {
                    ArrayVal::F64(v) => v[self.check(*arr, i, v.len())?],
                    _ => unreachable!("typed at compile time"),
                }
            }
            FExpr::LoadF32(arr, idx) => {
                let i = self.eval_i(idx)?;
                match &self.arrays[*arr] {
                    ArrayVal::F32(v) => v[self.check(*arr, i, v.len())?] as f64,
                    _ => unreachable!("typed at compile time"),
                }
            }
            FExpr::Bin(op, a, b) => {
                let x = self.eval_f(a)?;
                let y = self.eval_f(b)?;
                match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                    BinOp::Rem => x % y,
                    BinOp::Min => x.min(y),
                    BinOp::Max => x.max(y),
                    _ => unreachable!("non-arithmetic op in float expression"),
                }
            }
            FExpr::Neg(a) => -self.eval_f(a)?,
            FExpr::FromInt(a) => self.eval_i(a)? as f64,
        })
    }

    fn eval_b(&self, e: &BExpr) -> Result<bool, RunError> {
        Ok(match e {
            BExpr::Lit(v) => *v,
            BExpr::Var(s) => self.bools[*s],
            BExpr::Load(arr, idx) => {
                let i = self.eval_i(idx)?;
                match &self.arrays[*arr] {
                    ArrayVal::Bool(v) => v[self.check(*arr, i, v.len())?],
                    _ => unreachable!("typed at compile time"),
                }
            }
            BExpr::CmpI(op, a, b) => {
                let x = self.eval_i(a)?;
                let y = self.eval_i(b)?;
                cmp(*op, &x, &y)
            }
            BExpr::CmpF(op, a, b) => {
                let x = self.eval_f(a)?;
                let y = self.eval_f(b)?;
                cmp(*op, &x, &y)
            }
            BExpr::Bin(BinOp::And, a, b) => self.eval_b(a)? && self.eval_b(b)?,
            BExpr::Bin(BinOp::Or, a, b) => self.eval_b(a)? || self.eval_b(b)?,
            BExpr::Bin(op, ..) => unreachable!("non-logical op {op:?} in boolean expression"),
            BExpr::Not(a) => !self.eval_b(a)?,
        })
    }

    fn exec_block(&mut self, stmts: &[RStmt]) -> Result<(), RunError> {
        for s in stmts {
            self.exec(s)?;
        }
        Ok(())
    }

    fn exec(&mut self, s: &RStmt) -> Result<(), RunError> {
        match s {
            RStmt::AssignI(slot, e) => {
                self.ints[*slot] = self.eval_i(e)?;
            }
            RStmt::AssignF(slot, e) => {
                self.floats[*slot] = self.eval_f(e)?;
            }
            RStmt::AssignB(slot, e) => {
                self.bools[*slot] = self.eval_b(e)?;
            }
            RStmt::StoreI(arr, idx, val) => {
                let i = self.eval_i(idx)?;
                let v = self.eval_i(val)?;
                let len = self.arrays[*arr].len();
                if i < 0 || i as usize >= len {
                    return Err(self.oob(*arr, i, len));
                }
                if let ArrayVal::Int(a) = &mut self.arrays[*arr] {
                    a[i as usize] = v;
                }
            }
            RStmt::StoreF64(arr, idx, val) => {
                let i = self.eval_i(idx)?;
                let v = self.eval_f(val)?;
                self.store_f64(*arr, i, v, false)?;
            }
            RStmt::StoreF32(arr, idx, val) => {
                let i = self.eval_i(idx)?;
                let v = self.eval_f(val)?;
                self.store_f32(*arr, i, v, false)?;
            }
            RStmt::StoreB(arr, idx, val) => {
                let i = self.eval_i(idx)?;
                let v = self.eval_b(val)?;
                let len = self.arrays[*arr].len();
                if i < 0 || i as usize >= len {
                    return Err(self.oob(*arr, i, len));
                }
                if let ArrayVal::Bool(a) = &mut self.arrays[*arr] {
                    a[i as usize] = v;
                }
            }
            RStmt::StoreAddI(arr, idx, val) => {
                let i = self.eval_i(idx)?;
                let v = self.eval_i(val)?;
                let len = self.arrays[*arr].len();
                if i < 0 || i as usize >= len {
                    return Err(self.oob(*arr, i, len));
                }
                if let ArrayVal::Int(a) = &mut self.arrays[*arr] {
                    a[i as usize] += v;
                }
            }
            RStmt::StoreAddF64(arr, idx, val) => {
                let i = self.eval_i(idx)?;
                let v = self.eval_f(val)?;
                self.store_f64(*arr, i, v, true)?;
            }
            RStmt::StoreAddF32(arr, idx, val) => {
                let i = self.eval_i(idx)?;
                let v = self.eval_f(val)?;
                self.store_f32(*arr, i, v, true)?;
            }
            RStmt::For(slot, lo, hi, body) => {
                let lo = self.eval_i(lo)?;
                let hi = self.eval_i(hi)?;
                let mut iv = lo;
                while iv < hi {
                    self.consume_iteration()?;
                    self.ints[*slot] = iv;
                    self.exec_block(body)?;
                    iv += 1;
                }
            }
            RStmt::ParallelFor(pf) => {
                self.exec_parallel_for(pf)?;
            }
            RStmt::While(cond, body) => {
                while self.eval_b(cond)? {
                    self.consume_iteration()?;
                    self.exec_block(body)?;
                }
            }
            RStmt::If(cond, then, els) => {
                if self.eval_b(cond)? {
                    self.exec_block(then)?;
                } else {
                    self.exec_block(els)?;
                }
            }
            RStmt::MemsetI(arr, val) => {
                let v = self.eval_i(val)?;
                if let ArrayVal::Int(a) = &mut self.arrays[*arr] {
                    a.fill(v);
                }
            }
            RStmt::MemsetF64(arr, val) => {
                let v = self.eval_f(val)?;
                if let ArrayVal::F64(a) = &mut self.arrays[*arr] {
                    a.fill(v);
                }
            }
            RStmt::MemsetF32(arr, val) => {
                let v = self.eval_f(val)?;
                if let ArrayVal::F32(a) = &mut self.arrays[*arr] {
                    a.fill(v as f32);
                }
            }
            RStmt::MemsetB(arr, val) => {
                let v = self.eval_b(val)?;
                if let ArrayVal::Bool(a) = &mut self.arrays[*arr] {
                    a.fill(v);
                }
            }
            RStmt::Alloc(arr, ty, len) => {
                let len = self.eval_i(len)?;
                if len < 0 {
                    return Err(RunError::NegativeLength {
                        name: self.array_names[*arr].clone(),
                        len,
                    });
                }
                self.charge_bytes(*arr, len as u64 * elem_bytes(*ty))?;
                self.arrays[*arr] = match ty {
                    ArrayTy::Int => ArrayVal::Int(vec![0; len as usize]),
                    ArrayTy::F64 => ArrayVal::F64(vec![0.0; len as usize]),
                    ArrayTy::F32 => ArrayVal::F32(vec![0.0; len as usize]),
                    ArrayTy::Bool => ArrayVal::Bool(vec![false; len as usize]),
                };
            }
            RStmt::Realloc(arr, len) => {
                let len = self.eval_i(len)?;
                if len < 0 {
                    return Err(RunError::NegativeLength {
                        name: self.array_names[*arr].clone(),
                        len,
                    });
                }
                let len = len as usize;
                let old_len = self.arrays[*arr].len();
                if len > old_len {
                    let ty = self.arrays[*arr].ty();
                    self.charge_bytes(*arr, (len - old_len) as u64 * elem_bytes(ty))?;
                    self.charge_realloc(*arr)?;
                }
                match &mut self.arrays[*arr] {
                    ArrayVal::Int(a) if len > a.len() => a.resize(len, 0),
                    ArrayVal::F64(a) if len > a.len() => a.resize(len, 0.0),
                    ArrayVal::F32(a) if len > a.len() => a.resize(len, 0.0),
                    ArrayVal::Bool(a) if len > a.len() => a.resize(len, false),
                    _ => {}
                }
            }
            RStmt::Sort(arr, lo, hi) => {
                let lo = self.eval_i(lo)?;
                let hi = self.eval_i(hi)?;
                let len = self.arrays[*arr].len();
                if lo < 0 || hi < lo || hi as usize > len {
                    return Err(self.oob(*arr, hi, len));
                }
                if let ArrayVal::Int(a) = &mut self.arrays[*arr] {
                    a[lo as usize..hi as usize].sort_unstable();
                }
            }
            RStmt::MapInit(map, kind, cap) => {
                let cap = self.eval_i(cap)?;
                if cap < 0 {
                    return Err(RunError::NegativeLength {
                        name: self.map_names[*map].clone(),
                        len: cap,
                    });
                }
                let per = map_entry_bytes(*kind);
                self.charge_map_bytes(*map, cap as u64 * per, cap as u64 * per)?;
                let store = match kind {
                    WorkspaceKind::Hash => {
                        MapStore::Hash(HashMap::with_capacity(cap as usize))
                    }
                    _ => MapStore::Sorted(Vec::with_capacity(cap as usize)),
                };
                self.maps[*map] = MapWs { store, charged_entries: cap as u64 };
            }
            RStmt::MapScatter(map, key, val, add) => {
                let k = self.eval_i(key)?;
                let v = self.eval_f(val)?;
                match &self.maps[*map].store {
                    MapStore::Hash(m) if !m.contains_key(&k) => self.charge_map_growth(*map)?,
                    MapStore::Sorted(s) if s.binary_search_by_key(&k, |e| e.0).is_err() => {
                        self.charge_map_growth(*map)?
                    }
                    _ => {}
                }
                match &mut self.maps[*map].store {
                    MapStore::Hash(m) => {
                        let slot = m.entry(k).or_insert(0.0);
                        if *add {
                            *slot += v;
                        } else {
                            *slot = v;
                        }
                    }
                    MapStore::Sorted(s) => match s.binary_search_by_key(&k, |e| e.0) {
                        Ok(i) => {
                            if *add {
                                s[i].1 += v;
                            } else {
                                s[i].1 = v;
                            }
                        }
                        Err(i) => s.insert(i, (k, v)),
                    },
                }
            }
            RStmt::MapDrainSorted(map, key_slot, val_slot, body) => {
                let entries = self.maps[*map].drain_sorted();
                for (k, v) in entries {
                    self.consume_iteration()?;
                    self.ints[*key_slot] = k;
                    self.floats[*val_slot] = v;
                    self.exec_block(body)?;
                }
            }
        }
        Ok(())
    }

    #[inline]
    fn store_f64(&mut self, arr: usize, i: i64, v: f64, accumulate: bool) -> Result<(), RunError> {
        let len = self.arrays[arr].len();
        if i < 0 || i as usize >= len {
            return Err(self.oob(arr, i, len));
        }
        if let ArrayVal::F64(a) = &mut self.arrays[arr] {
            if accumulate {
                a[i as usize] += v;
            } else {
                a[i as usize] = v;
            }
        }
        Ok(())
    }

    #[inline]
    fn store_f32(&mut self, arr: usize, i: i64, v: f64, accumulate: bool) -> Result<(), RunError> {
        let len = self.arrays[arr].len();
        if i < 0 || i as usize >= len {
            return Err(self.oob(arr, i, len));
        }
        if let ArrayVal::F32(a) = &mut self.arrays[arr] {
            if accumulate {
                a[i as usize] += v as f32;
            } else {
                a[i as usize] = v as f32;
            }
        }
        Ok(())
    }

    /// Executes `[clo, chi)` of a parallel loop body serially — the chunk a
    /// worker runs, and also the whole-range fallback when only one thread
    /// is available.
    fn exec_chunk(&mut self, pf: &RParFor, clo: i64, chi: i64) -> Result<(), RunError> {
        let mut iv = clo;
        while iv < chi {
            self.consume_iteration()?;
            self.ints[pf.var] = iv;
            self.exec_block(&pf.body)?;
            iv += 1;
        }
        Ok(())
    }

    fn exec_parallel_for(&mut self, pf: &RParFor) -> Result<(), RunError> {
        let lo = self.eval_i(&pf.lo)?;
        let hi = self.eval_i(&pf.hi)?;
        if hi <= lo {
            return Ok(());
        }
        let trip = (hi - lo) as usize;
        let threads = if self.in_parallel { 1 } else { resolved_threads(pf.threads).min(trip) };
        if let Some(shared) = self.ctl.shared {
            shared.note_workers(threads.max(1) as u64);
        }
        if threads <= 1 {
            return self.exec_chunk(pf, lo, hi);
        }
        self.run_workers(pf, lo, hi, threads)
    }

    /// The multi-threaded path: iterations are split into `threads`
    /// contiguous chunks (OpenMP `schedule(static)`), each worker interprets
    /// its chunk on a full private clone of the machine state, and the
    /// per-worker states are merged back in chunk order so the parent ends
    /// byte-identical to a serial run. Shared arrays merge by bitwise diff
    /// against the pre-loop state (legal schedules write disjoint regions);
    /// private (workspace) arrays are discarded; append-style output (sparse
    /// coordinate lists) is stitched by explicit segment rebasing.
    #[cold]
    #[inline(never)]
    fn run_workers(&mut self, pf: &RParFor, lo: i64, hi: i64, threads: usize) -> Result<(), RunError> {
        let trip = (hi - lo) as usize;
        let per = trip / threads;
        let extra = trip % threads;
        let mut chunks: Vec<(i64, i64)> = Vec::with_capacity(threads);
        let mut start = lo;
        for w in 0..threads {
            let len = (per + usize::from(w < extra)) as i64;
            chunks.push((start, start + len));
            start += len;
        }

        let cancel = self.ctl.cancel;
        let deadline = self.ctl.deadline;
        let parent_bytes = self.budget.total_bytes;

        let results: Vec<Result<WorkerOut, RunError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|&(clo, chi)| {
                    let mut m = Mach {
                        ints: self.ints.clone(),
                        floats: self.floats.clone(),
                        bools: self.bools.clone(),
                        arrays: self.arrays.clone(),
                        array_names: self.array_names.clone(),
                        // Map workspaces are per-thread by construction: each
                        // worker scatters into and drains its own clone, and
                        // worker maps are discarded at the join (the verifier
                        // denies parallel bodies that scatter without
                        // draining in the same iteration).
                        maps: self.maps.clone(),
                        map_names: self.map_names.clone(),
                        budget: BudgetMeter {
                            iterations_left: self.budget.iterations_left,
                            // Start the fuse at the parent's remaining count
                            // so `iterations_done()` reports exactly what
                            // this worker consumed.
                            max_iterations: self.budget.iterations_left,
                            max_single_bytes: self.budget.max_single_bytes,
                            max_total_bytes: self.budget.max_total_bytes,
                            total_bytes: self.budget.total_bytes,
                            peak_single_bytes: self.budget.peak_single_bytes,
                            peak_map_bytes: self.budget.peak_map_bytes,
                            max_doublings: self.budget.max_doublings,
                            realloc_counts: self.budget.realloc_counts.clone(),
                        },
                        ctl: RunControls { cancel, deadline, shared: None },
                        check_countdown: 0,
                        in_parallel: true,
                    };
                    scope.spawn(move || -> Result<WorkerOut, RunError> {
                        m.exec_chunk(pf, clo, chi)?;
                        Ok(WorkerOut {
                            iterations: m.iterations_done(),
                            grown_bytes: m.budget.total_bytes - parent_bytes,
                            peak_single_bytes: m.budget.peak_single_bytes,
                            peak_map_bytes: m.budget.peak_map_bytes,
                            realloc_counts: m.budget.realloc_counts,
                            ints: m.ints,
                            floats: m.floats,
                            bools: m.bools,
                            arrays: m.arrays,
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
        });

        // The first error in chunk order wins, matching the serial run's
        // error for deterministic failures; the parent state is untouched
        // (workers ran on clones), so supervised rollback works unchanged.
        let mut outs: Vec<WorkerOut> = Vec::with_capacity(results.len());
        for r in results {
            outs.push(r?);
        }

        // Charge the combined budget use before mutating any parent state.
        let consumed: u64 = outs.iter().map(|o| o.iterations).sum();
        match self.budget.iterations_left.checked_sub(consumed) {
            Some(left) => self.budget.iterations_left = left,
            None => {
                return Err(RunError::BudgetExceeded {
                    resource: BudgetResource::LoopIterations,
                    limit: self.budget.max_iterations,
                    requested: self.iterations_done().saturating_add(consumed),
                    array: None,
                })
            }
        }
        let grown: u64 = outs.iter().map(|o| o.grown_bytes).sum();
        let total = self.budget.total_bytes.saturating_add(grown);
        if total > self.budget.max_total_bytes {
            return Err(RunError::BudgetExceeded {
                resource: BudgetResource::TotalBytes,
                limit: self.budget.max_total_bytes,
                requested: total,
                array: None,
            });
        }
        self.budget.total_bytes = total;
        for o in &outs {
            self.budget.peak_single_bytes = self.budget.peak_single_bytes.max(o.peak_single_bytes);
            self.budget.peak_map_bytes = self.budget.peak_map_bytes.max(o.peak_map_bytes);
        }
        for o in &outs {
            for (i, &c) in o.realloc_counts.iter().enumerate() {
                let delta = c.saturating_sub(self.budget.realloc_counts[i]);
                // Deltas accumulate without a post-hoc cap check: each
                // worker already enforced the doubling limit individually.
                self.budget.realloc_counts[i] =
                    self.budget.realloc_counts[i].saturating_add(delta);
            }
        }
        self.supervision_check()?;

        // Scalar merge in chunk order: later chunks overwrite, matching the
        // serial run where the last iteration's writes survive. The append
        // counter is excluded — it accumulates across chunks and is rebased
        // below.
        let counter_slot = pf.append.as_ref().map(|a| a.counter);
        let c0 = counter_slot.map(|s| self.ints[s]).unwrap_or(0);
        let int_snap = self.ints.clone();
        let float_snap = self.floats.clone();
        let bool_snap = self.bools.clone();
        for o in &outs {
            for (i, &v) in o.ints.iter().enumerate() {
                if Some(i) != counter_slot && int_snap[i] != v {
                    self.ints[i] = v;
                }
            }
            for (i, &v) in o.floats.iter().enumerate() {
                if float_snap[i].to_bits() != v.to_bits() {
                    self.floats[i] = v;
                }
            }
            for (i, &v) in o.bools.iter().enumerate() {
                if bool_snap[i] != v {
                    self.bools[i] = v;
                }
            }
        }

        // Shared-array merge: bitwise diff against the pre-loop snapshot,
        // applied in chunk order. Private workspaces keep the parent's
        // pristine copies; append arrays are handled by rebasing below.
        let mut skip: Vec<bool> = vec![false; self.arrays.len()];
        for &s in &pf.private {
            skip[s] = true;
        }
        if let Some(a) = &pf.append {
            for &s in &a.data {
                skip[s] = true;
            }
            if let Some(p) = a.pos {
                skip[p] = true;
            }
        }
        let snapshot: Vec<Option<ArrayVal>> = self
            .arrays
            .iter()
            .enumerate()
            .map(|(i, a)| if skip[i] { None } else { Some(a.clone()) })
            .collect();
        for o in &outs {
            for (i, worker) in o.arrays.iter().enumerate() {
                if let Some(snap) = &snapshot[i] {
                    merge_shared(&mut self.arrays[i], snap, worker);
                }
            }
        }

        // Append merge (sparse result rows): worker `w`'s segment
        // `[c0, counter_w)` lands after the segments of workers `0..w`, its
        // `pos` entries shift by the same offset, and the parent counter
        // ends at the total — exactly the serial values.
        if let Some(ap) = &pf.append {
            let mut base = c0;
            for (w, o) in outs.iter().enumerate() {
                let wc = o.ints[ap.counter];
                if wc > c0 {
                    let (src_lo, src_hi) = (c0 as usize, wc as usize);
                    let dst = base as usize;
                    for &slot in &ap.data {
                        append_copy(&mut self.arrays[slot], &o.arrays[slot], src_lo, src_hi, dst);
                    }
                }
                // Rebase the worker's `pos` entries even when it appended
                // nothing: its rows still closed at (its view of) the
                // counter, which maps to `base` in the stitched output.
                if let Some(pos_slot) = ap.pos {
                    let shift = base - c0;
                    let (clo, chi) = chunks[w];
                    if let (ArrayVal::Int(p), ArrayVal::Int(wv)) =
                        (&mut self.arrays[pos_slot], &o.arrays[pos_slot])
                    {
                        for j in (clo + 1)..=chi {
                            let j = j as usize;
                            if j < p.len() && j < wv.len() {
                                p[j] = wv[j] + shift;
                            }
                        }
                    }
                }
                base += (wc - c0).max(0);
            }
            self.ints[ap.counter] = base;
        }
        Ok(())
    }
}

/// What one parallel-loop worker hands back for the merge.
struct WorkerOut {
    iterations: u64,
    grown_bytes: u64,
    peak_single_bytes: u64,
    peak_map_bytes: u64,
    realloc_counts: Vec<u32>,
    ints: Vec<i64>,
    floats: Vec<f64>,
    bools: Vec<bool>,
    arrays: Vec<ArrayVal>,
}

/// Resolves the worker-thread count for a parallel loop: an explicit
/// schedule choice wins, then the `TACO_THREADS` environment variable, then
/// the machine's available parallelism.
fn resolved_threads(explicit: usize) -> usize {
    if explicit > 0 {
        return explicit;
    }
    if let Ok(s) = std::env::var("TACO_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Applies one worker's writes to a shared array: every element whose bits
/// differ from the pre-loop snapshot was written by that worker and
/// overwrites the parent's. Arrays a worker grew extend the parent first.
fn merge_shared(parent: &mut ArrayVal, snap: &ArrayVal, worker: &ArrayVal) {
    match (parent, snap, worker) {
        (ArrayVal::Int(p), ArrayVal::Int(s), ArrayVal::Int(w)) => {
            if w.len() > p.len() {
                p.resize(w.len(), 0);
            }
            for (i, &wv) in w.iter().enumerate() {
                if s.get(i).copied().unwrap_or(0) != wv {
                    p[i] = wv;
                }
            }
        }
        (ArrayVal::F64(p), ArrayVal::F64(s), ArrayVal::F64(w)) => {
            if w.len() > p.len() {
                p.resize(w.len(), 0.0);
            }
            for (i, &wv) in w.iter().enumerate() {
                if s.get(i).copied().unwrap_or(0.0).to_bits() != wv.to_bits() {
                    p[i] = wv;
                }
            }
        }
        (ArrayVal::F32(p), ArrayVal::F32(s), ArrayVal::F32(w)) => {
            if w.len() > p.len() {
                p.resize(w.len(), 0.0);
            }
            for (i, &wv) in w.iter().enumerate() {
                if s.get(i).copied().unwrap_or(0.0).to_bits() != wv.to_bits() {
                    p[i] = wv;
                }
            }
        }
        (ArrayVal::Bool(p), ArrayVal::Bool(s), ArrayVal::Bool(w)) => {
            if w.len() > p.len() {
                p.resize(w.len(), false);
            }
            for (i, &wv) in w.iter().enumerate() {
                if s.get(i).copied().unwrap_or(false) != wv {
                    p[i] = wv;
                }
            }
        }
        _ => {}
    }
}

/// Copies `worker[src_lo..src_hi]` to `parent[dst..]`, growing the parent as
/// needed — one worker's appended segment of a coordinate or value array.
fn append_copy(parent: &mut ArrayVal, worker: &ArrayVal, src_lo: usize, src_hi: usize, dst: usize) {
    let src_hi = src_hi.min(worker.len());
    if src_hi <= src_lo {
        return;
    }
    let n = src_hi - src_lo;
    match (parent, worker) {
        (ArrayVal::Int(p), ArrayVal::Int(w)) => {
            if p.len() < dst + n {
                p.resize(dst + n, 0);
            }
            p[dst..dst + n].copy_from_slice(&w[src_lo..src_hi]);
        }
        (ArrayVal::F64(p), ArrayVal::F64(w)) => {
            if p.len() < dst + n {
                p.resize(dst + n, 0.0);
            }
            p[dst..dst + n].copy_from_slice(&w[src_lo..src_hi]);
        }
        (ArrayVal::F32(p), ArrayVal::F32(w)) => {
            if p.len() < dst + n {
                p.resize(dst + n, 0.0);
            }
            p[dst..dst + n].copy_from_slice(&w[src_lo..src_hi]);
        }
        (ArrayVal::Bool(p), ArrayVal::Bool(w)) => {
            if p.len() < dst + n {
                p.resize(dst + n, false);
            }
            p[dst..dst + n].copy_from_slice(&w[src_lo..src_hi]);
        }
        _ => {}
    }
}

fn cmp<T: PartialOrd>(op: BinOp, x: &T, y: &T) -> bool {
    match op {
        BinOp::Eq => x == y,
        BinOp::Ne => x != y,
        BinOp::Lt => x < y,
        BinOp::Le => x <= y,
        BinOp::Gt => x > y,
        BinOp::Ge => x >= y,
        _ => unreachable!("non-comparison op in cmp"),
    }
}

// ---------------------------------------------------------------------------
// Public interface
// ---------------------------------------------------------------------------

/// Buffers and scalar inputs bound to a kernel before [`Executable::run`],
/// and outputs read back afterwards.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Binding {
    arrays: HashMap<String, ArrayVal>,
    scalars: HashMap<String, i64>,
    scalar_outputs: HashMap<String, i64>,
}

impl Binding {
    /// Creates an empty binding.
    pub fn new() -> Binding {
        Binding::default()
    }

    /// Binds an integer scalar parameter.
    pub fn set_scalar(&mut self, name: impl Into<String>, v: i64) -> &mut Self {
        self.scalars.insert(name.into(), v);
        self
    }

    /// Binds a double-precision array.
    pub fn set_f64(&mut self, name: impl Into<String>, v: Vec<f64>) -> &mut Self {
        self.arrays.insert(name.into(), ArrayVal::F64(v));
        self
    }

    /// Binds a single-precision array.
    pub fn set_f32(&mut self, name: impl Into<String>, v: Vec<f32>) -> &mut Self {
        self.arrays.insert(name.into(), ArrayVal::F32(v));
        self
    }

    /// Binds an integer array.
    pub fn set_int(&mut self, name: impl Into<String>, v: Vec<i64>) -> &mut Self {
        self.arrays.insert(name.into(), ArrayVal::Int(v));
        self
    }

    /// Binds an integer array from `usize` values (tensor `pos`/`crd`).
    pub fn set_usize(&mut self, name: impl Into<String>, v: &[usize]) -> &mut Self {
        self.arrays.insert(name.into(), ArrayVal::Int(v.iter().map(|x| *x as i64).collect()));
        self
    }

    /// Binds a boolean array.
    pub fn set_bool(&mut self, name: impl Into<String>, v: Vec<bool>) -> &mut Self {
        self.arrays.insert(name.into(), ArrayVal::Bool(v));
        self
    }

    /// Reads back a double-precision array.
    pub fn f64_array(&self, name: &str) -> Option<&[f64]> {
        match self.arrays.get(name) {
            Some(ArrayVal::F64(v)) => Some(v),
            _ => None,
        }
    }

    /// Reads back a single-precision array.
    pub fn f32_array(&self, name: &str) -> Option<&[f32]> {
        match self.arrays.get(name) {
            Some(ArrayVal::F32(v)) => Some(v),
            _ => None,
        }
    }

    /// Reads back an integer array.
    pub fn int_array(&self, name: &str) -> Option<&[i64]> {
        match self.arrays.get(name) {
            Some(ArrayVal::Int(v)) => Some(v),
            _ => None,
        }
    }

    /// Reads back an integer array as `usize` values.
    ///
    /// Returns `None` if the array is missing, has the wrong type, or holds a
    /// negative value (a malformed kernel output, never a valid `pos`/`crd`).
    ///
    /// Unlike the other accessors this returns an owned `Vec`: integer
    /// buffers are stored as `i64` and a `usize` view cannot be borrowed
    /// from them. Hot paths should use [`Binding::int_array`] and convert
    /// elements as they are consumed instead of materializing a copy.
    pub fn usize_array(&self, name: &str) -> Option<Vec<usize>> {
        self.int_array(name)?.iter().map(|x| usize::try_from(*x).ok()).collect()
    }

    /// Reads the final value of a kernel scalar output.
    pub fn scalar_output(&self, name: &str) -> Option<i64> {
        self.scalar_outputs.get(name).copied()
    }

    /// Removes and returns a bound array.
    pub fn take(&mut self, name: &str) -> Option<ArrayVal> {
        self.arrays.remove(name)
    }

    /// Borrows a bound array of any element type. Execution backends
    /// outside this crate (the native backend's marshalling layer) use
    /// this to move buffers without committing to an element type.
    pub fn array(&self, name: &str) -> Option<&ArrayVal> {
        self.arrays.get(name)
    }

    /// Binds (or replaces) an array of any element type.
    pub fn set_array(&mut self, name: impl Into<String>, v: ArrayVal) -> &mut Self {
        self.arrays.insert(name.into(), v);
        self
    }

    /// Reads a bound scalar parameter.
    pub fn scalar(&self, name: &str) -> Option<i64> {
        self.scalars.get(name).copied()
    }

    /// Iterates every bound scalar parameter as `(name, value)` pairs.
    /// Cost-model consumers use this to build a concrete evaluation
    /// environment for symbolic bounds at bind time.
    pub fn scalar_entries(&self) -> impl Iterator<Item = (&str, i64)> {
        self.scalars.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates every bound array as `(name, length)` pairs, regardless of
    /// element type. Pairs with [`Binding::scalar_entries`] for bind-time
    /// evaluation of symbolic cost bounds that mention `len(array)` atoms.
    pub fn array_len_entries(&self) -> impl Iterator<Item = (&str, usize)> {
        self.arrays.iter().map(|(k, v)| (k.as_str(), v.len()))
    }

    /// Commits a kernel scalar output, as a successful run does. External
    /// execution backends publish their scalar results through this.
    pub fn set_scalar_output(&mut self, name: impl Into<String>, v: i64) -> &mut Self {
        self.scalar_outputs.insert(name.into(), v);
        self
    }

    /// Records the pre-run state of the named arrays (present or absent)
    /// for transactional rollback.
    pub(crate) fn snapshot<'a>(
        &self,
        names: impl Iterator<Item = &'a str>,
    ) -> Vec<(String, Option<ArrayVal>)> {
        names.map(|n| (n.to_string(), self.arrays.get(n).cloned())).collect()
    }

    /// Restores a snapshot taken by [`Binding::snapshot`], byte-identically.
    pub(crate) fn restore(&mut self, snapshot: Vec<(String, Option<ArrayVal>)>) {
        for (name, val) in snapshot {
            match val {
                Some(v) => {
                    self.arrays.insert(name, v);
                }
                None => {
                    self.arrays.remove(&name);
                }
            }
        }
    }
}

/// A compiled kernel ready to run against a [`Binding`].
///
/// The compiled statement tree and metadata tables are reference-counted
/// (`Arc`), so cloning an `Executable` is cheap and the same compiled kernel
/// can be shared across threads — `Executable` is `Send + Sync`, and a run
/// borrows it immutably.
#[derive(Debug, Clone)]
pub struct Executable {
    pub(crate) name: String,
    pub(crate) scalar_params: Arc<Vec<(String, usize)>>,
    pub(crate) array_params: Arc<Vec<(String, usize, ArrayTy, ParamKind)>>,
    pub(crate) scalar_outputs: Arc<Vec<(String, usize)>>,
    pub(crate) array_names: Arc<Vec<String>>,
    pub(crate) map_names: Arc<Vec<String>>,
    pub(crate) n_int: usize,
    pub(crate) n_float: usize,
    pub(crate) n_bool: usize,
    pub(crate) body: Arc<Vec<RStmt>>,
}

impl Executable {
    /// Type-checks and slot-resolves a kernel.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] for unknown names, duplicate declarations,
    /// or type mismatches.
    pub fn compile(kernel: &Kernel) -> Result<Executable, CompileError> {
        let mut c = Compiler {
            scopes: vec![HashMap::new()],
            arrays: HashMap::new(),
            array_names: Vec::new(),
            maps: HashMap::new(),
            map_names: Vec::new(),
            n_int: 0,
            n_float: 0,
            n_bool: 0,
        };

        let mut scalar_params = Vec::new();
        for p in &kernel.scalar_params {
            let slot = c.declare(p, ScalarTy::Int)?;
            scalar_params.push((p.clone(), slot));
        }
        let mut array_params = Vec::new();
        for p in &kernel.array_params {
            if c.arrays.contains_key(&p.name) {
                return Err(CompileError::Duplicate(p.name.clone()));
            }
            let slot = c.declare_array(&p.name, p.ty)?;
            array_params.push((p.name.clone(), slot, p.ty, p.kind));
        }

        // The kernel body shares the top-level scope so that scalar outputs
        // declared there remain visible to the caller.
        let body = c.block_in_current_scope(&kernel.body)?;

        let mut scalar_outputs = Vec::new();
        for name in &kernel.scalar_outputs {
            match c.scopes[0].get(name) {
                Some((ScalarTy::Int, slot)) => scalar_outputs.push((name.clone(), *slot)),
                _ => return Err(CompileError::BadScalarOutput(name.clone())),
            }
        }

        Ok(Executable {
            name: kernel.name.clone(),
            scalar_params: Arc::new(scalar_params),
            array_params: Arc::new(array_params),
            scalar_outputs: Arc::new(scalar_outputs),
            array_names: Arc::new(c.array_names),
            map_names: Arc::new(c.map_names),
            n_int: c.n_int,
            n_float: c.n_float,
            n_bool: c.n_bool,
            body: Arc::new(body),
        })
    }

    /// The kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Runs the kernel against bound buffers. Parameter arrays are moved
    /// into the machine and moved back afterwards, so repeated runs against
    /// the same binding do not reallocate. Scalar outputs become readable
    /// via [`Binding::scalar_output`].
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] for missing/mistyped bindings, out-of-bounds
    /// accesses or negative allocation lengths.
    pub fn run(&self, binding: &mut Binding) -> Result<(), RunError> {
        self.run_with_budget(binding, &ResourceBudget::unlimited())
    }

    /// Runs the kernel like [`Executable::run`], but enforces `budget`:
    /// allocations, realloc growth and loop iterations are metered, and the
    /// first violation aborts the run with [`RunError::BudgetExceeded`].
    pub fn run_with_budget(
        &self,
        binding: &mut Binding,
        budget: &ResourceBudget,
    ) -> Result<(), RunError> {
        self.run_controlled(binding, budget, RunControls::default())
    }
}

/// The interpreter: budget metering plus the supervision hooks (cancel
/// flag, deadline, progress publication at the supervision stride).
impl RunBody for Executable {
    fn writable_arrays(&self) -> impl Iterator<Item = &str> {
        self.array_params
            .iter()
            .filter(|(_, _, _, kind)| *kind != ParamKind::Input)
            .map(|(name, ..)| name.as_str())
    }

    fn run_controlled(
        &self,
        binding: &mut Binding,
        budget: &ResourceBudget,
        ctl: RunControls<'_>,
    ) -> Result<(), RunError> {
        let mut mach = Mach {
            ints: vec![0; self.n_int],
            floats: vec![0.0; self.n_float],
            bools: vec![false; self.n_bool],
            arrays: self.array_names.iter().map(|_| ArrayVal::empty(ArrayTy::Int)).collect(),
            array_names: self.array_names.clone(),
            maps: self.map_names.iter().map(|_| MapWs::default()).collect(),
            map_names: self.map_names.clone(),
            budget: BudgetMeter::new(budget, self.array_names.len()),
            ctl,
            check_countdown: 0,
            in_parallel: false,
        };
        for (name, slot) in self.scalar_params.iter() {
            let v = *binding
                .scalars
                .get(name)
                .ok_or_else(|| RunError::MissingScalar(name.clone()))?;
            mach.ints[*slot] = v;
        }
        // Validate every array parameter before moving any of them, so a
        // missing or mistyped binding fails with the binding fully intact.
        for (name, _, ty, _) in self.array_params.iter() {
            match binding.arrays.get(name) {
                None => return Err(RunError::MissingArray(name.clone())),
                Some(v) if v.ty() != *ty => {
                    return Err(RunError::WrongArrayType { name: name.clone(), expected: *ty })
                }
                Some(_) => {}
            }
        }
        for (name, slot, _, _) in self.array_params.iter() {
            let v = binding.arrays.remove(name).expect("validated above");
            mach.arrays[*slot] = v;
        }

        let result = mach.exec_block(&self.body);

        // Return parameter arrays to the binding even on error so callers
        // can inspect partial state (supervised runs roll writable arrays
        // back from a snapshot on top of this).
        for (name, slot, _, _) in self.array_params.iter() {
            let v = std::mem::replace(&mut mach.arrays[*slot], ArrayVal::empty(ArrayTy::Int));
            binding.arrays.insert(name.clone(), v);
        }
        // Publish final counters so reports reflect the whole run.
        if let Some(shared) = mach.ctl.shared {
            shared.publish(&mach.budget);
        }
        result?;

        for (name, slot) in self.scalar_outputs.iter() {
            binding.scalar_outputs.insert(name.clone(), mach.ints[*slot]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Param;

    fn run_kernel(k: &Kernel, b: &mut Binding) {
        let exe = Executable::compile(k).expect("compiles");
        exe.run(b).expect("runs");
    }

    #[test]
    fn dot_product() {
        let k = Kernel::new("dot")
            .scalar_param("n")
            .array_param(Param::input("x", ArrayTy::F64))
            .array_param(Param::input("y", ArrayTy::F64))
            .array_param(Param::output("out", ArrayTy::F64))
            .body(vec![
                Stmt::store("out", Expr::int(0), Expr::float(0.0)),
                Stmt::for_(
                    "i",
                    Expr::int(0),
                    Expr::var("n"),
                    vec![Stmt::store_add(
                        "out",
                        Expr::int(0),
                        Expr::load("x", Expr::var("i")) * Expr::load("y", Expr::var("i")),
                    )],
                ),
            ]);
        let mut b = Binding::new();
        b.set_scalar("n", 3);
        b.set_f64("x", vec![1.0, 2.0, 3.0]);
        b.set_f64("y", vec![4.0, 5.0, 6.0]);
        b.set_f64("out", vec![0.0]);
        run_kernel(&k, &mut b);
        assert_eq!(b.f64_array("out").unwrap(), &[32.0]);
    }

    #[test]
    fn while_and_if_merge_two_sorted_lists() {
        // Count common elements of two sorted int arrays — the shape of a
        // coiteration merge loop.
        let k = Kernel::new("merge")
            .scalar_param("na")
            .scalar_param("nb")
            .array_param(Param::input("a", ArrayTy::Int))
            .array_param(Param::input("b", ArrayTy::Int))
            .array_param(Param::output("count", ArrayTy::Int))
            .body(vec![
                Stmt::DeclInt("pa".into(), Expr::int(0)),
                Stmt::DeclInt("pb".into(), Expr::int(0)),
                Stmt::store("count", Expr::int(0), Expr::int(0)),
                Stmt::while_(
                    Expr::var("pa").lt(Expr::var("na")).and(Expr::var("pb").lt(Expr::var("nb"))),
                    vec![
                        Stmt::DeclInt("va".into(), Expr::load("a", Expr::var("pa"))),
                        Stmt::DeclInt("vb".into(), Expr::load("b", Expr::var("pb"))),
                        Stmt::DeclInt("v".into(), Expr::var("va").min(Expr::var("vb"))),
                        Stmt::if_(
                            Expr::var("va").eq(Expr::var("v")).and(Expr::var("vb").eq(Expr::var("v"))),
                            vec![Stmt::store_add("count", Expr::int(0), Expr::int(1))],
                        ),
                        Stmt::if_(
                            Expr::var("va").eq(Expr::var("v")),
                            vec![Stmt::incr("pa")],
                        ),
                        Stmt::if_(
                            Expr::var("vb").eq(Expr::var("v")),
                            vec![Stmt::incr("pb")],
                        ),
                    ],
                ),
            ]);
        let mut b = Binding::new();
        b.set_scalar("na", 4).set_scalar("nb", 3);
        b.set_int("a", vec![1, 3, 5, 7]);
        b.set_int("b", vec![3, 4, 7]);
        b.set_int("count", vec![0]);
        run_kernel(&k, &mut b);
        assert_eq!(b.int_array("count").unwrap(), &[2]);
    }

    #[test]
    fn alloc_realloc_sort_and_scalar_output() {
        let k = Kernel::new("assemble")
            .array_param(Param::input("src", ArrayTy::Int))
            .array_param(Param::inout("dst", ArrayTy::Int))
            .scalar_param("n")
            .scalar_output("size")
            .body(vec![
                Stmt::DeclInt("size".into(), Expr::int(0)),
                Stmt::Alloc { arr: "tmp".into(), ty: ArrayTy::Int, len: Expr::int(2) },
                Stmt::for_(
                    "i",
                    Expr::int(0),
                    Expr::var("n"),
                    vec![
                        Stmt::if_(
                            Expr::len("tmp").le(Expr::var("size")),
                            vec![Stmt::Realloc {
                                arr: "tmp".into(),
                                len: Expr::var("size") * Expr::int(2),
                            }],
                        ),
                        Stmt::store("tmp", Expr::var("size"), Expr::load("src", Expr::var("i"))),
                        Stmt::incr("size"),
                    ],
                ),
                Stmt::Sort { arr: "tmp".into(), lo: Expr::int(0), hi: Expr::var("size") },
                Stmt::for_(
                    "i",
                    Expr::int(0),
                    Expr::var("size"),
                    vec![Stmt::store("dst", Expr::var("i"), Expr::load("tmp", Expr::var("i")))],
                ),
            ]);
        let mut b = Binding::new();
        b.set_scalar("n", 5);
        b.set_int("src", vec![5, 1, 4, 2, 3]);
        b.set_int("dst", vec![0; 5]);
        run_kernel(&k, &mut b);
        assert_eq!(b.int_array("dst").unwrap(), &[1, 2, 3, 4, 5]);
        assert_eq!(b.scalar_output("size"), Some(5));
    }

    #[test]
    fn f32_workspace_mixed_precision() {
        let k = Kernel::new("mixed")
            .array_param(Param::input("x", ArrayTy::F64))
            .array_param(Param::inout("w", ArrayTy::F32))
            .array_param(Param::output("y", ArrayTy::F64))
            .scalar_param("n")
            .body(vec![
                Stmt::Memset { arr: "w".into(), val: Expr::float(0.0) },
                Stmt::for_(
                    "i",
                    Expr::int(0),
                    Expr::var("n"),
                    vec![Stmt::store_add("w", Expr::var("i"), Expr::load("x", Expr::var("i")))],
                ),
                Stmt::for_(
                    "i",
                    Expr::int(0),
                    Expr::var("n"),
                    vec![Stmt::store("y", Expr::var("i"), Expr::load("w", Expr::var("i")))],
                ),
            ]);
        let mut b = Binding::new();
        b.set_scalar("n", 2);
        b.set_f64("x", vec![1.5, 2.5]);
        b.set_f32("w", vec![9.0, 9.0]);
        b.set_f64("y", vec![0.0, 0.0]);
        run_kernel(&k, &mut b);
        assert_eq!(b.f64_array("y").unwrap(), &[1.5, 2.5]);
    }

    #[test]
    fn shadowing_in_sibling_scopes() {
        // Two sibling loops both declare `j`.
        let k = Kernel::new("shadow")
            .array_param(Param::output("out", ArrayTy::Int))
            .body(vec![
                Stmt::for_("j", Expr::int(0), Expr::int(3), vec![Stmt::store(
                    "out",
                    Expr::int(0),
                    Expr::var("j"),
                )]),
                Stmt::for_("j", Expr::int(5), Expr::int(7), vec![Stmt::store(
                    "out",
                    Expr::int(1),
                    Expr::var("j"),
                )]),
            ]);
        let mut b = Binding::new();
        b.set_int("out", vec![0, 0]);
        run_kernel(&k, &mut b);
        assert_eq!(b.int_array("out").unwrap(), &[2, 6]);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let k = Kernel::new("oob")
            .array_param(Param::output("x", ArrayTy::F64))
            .body(vec![Stmt::store("x", Expr::int(7), Expr::float(1.0))]);
        let exe = Executable::compile(&k).unwrap();
        let mut b = Binding::new();
        b.set_f64("x", vec![0.0; 3]);
        let err = exe.run(&mut b).unwrap_err();
        assert_eq!(err, RunError::OutOfBounds { name: "x".into(), idx: 7, len: 3 });
    }

    #[test]
    fn type_errors_are_reported() {
        // float + bool is a type error
        let k = Kernel::new("bad").body(vec![Stmt::DeclFloat(
            "x".into(),
            Expr::float(1.0) + Expr::bool(true),
        )]);
        assert!(matches!(
            Executable::compile(&k),
            Err(CompileError::TypeMismatch { .. })
        ));

        // unknown variable
        let k2 = Kernel::new("bad2").body(vec![Stmt::assign("nope", Expr::int(0))]);
        assert_eq!(Executable::compile(&k2).unwrap_err(), CompileError::UnknownVar("nope".into()));

        // unknown array
        let k3 = Kernel::new("bad3").body(vec![Stmt::store("m", Expr::int(0), Expr::int(0))]);
        assert_eq!(Executable::compile(&k3).unwrap_err(), CompileError::UnknownArray("m".into()));
    }

    #[test]
    fn missing_binding_is_reported() {
        let k = Kernel::new("k")
            .scalar_param("n")
            .array_param(Param::input("x", ArrayTy::F64));
        let exe = Executable::compile(&k).unwrap();
        let mut b = Binding::new();
        assert_eq!(exe.run(&mut b).unwrap_err(), RunError::MissingScalar("n".into()));
        b.set_scalar("n", 0);
        assert_eq!(exe.run(&mut b).unwrap_err(), RunError::MissingArray("x".into()));
        b.set_int("x", vec![]);
        assert_eq!(
            exe.run(&mut b).unwrap_err(),
            RunError::WrongArrayType { name: "x".into(), expected: ArrayTy::F64 }
        );
    }

    #[test]
    fn iteration_fuse_stops_infinite_loop() {
        let k = Kernel::new("spin").body(vec![
            Stmt::DeclInt("i".into(), Expr::int(0)),
            Stmt::while_(Expr::var("i").ge(Expr::int(0)), vec![Stmt::incr("i")]),
        ]);
        let exe = Executable::compile(&k).unwrap();
        let mut b = Binding::new();
        let budget = ResourceBudget::unlimited().with_max_loop_iterations(1000);
        let err = exe.run_with_budget(&mut b, &budget).unwrap_err();
        assert_eq!(
            err,
            RunError::BudgetExceeded {
                resource: BudgetResource::LoopIterations,
                limit: 1000,
                requested: 1001,
                array: None,
            }
        );
    }

    #[test]
    fn fuse_counts_nested_for_iterations() {
        let k = Kernel::new("nest").body(vec![Stmt::for_(
            "i",
            Expr::int(0),
            Expr::int(10),
            vec![Stmt::for_("j", Expr::int(0), Expr::int(10), vec![])],
        )]);
        let exe = Executable::compile(&k).unwrap();
        // 10 outer + 100 inner iterations: a fuse of 110 just fits.
        let mut b = Binding::new();
        exe.run_with_budget(&mut b, &ResourceBudget::unlimited().with_max_loop_iterations(110))
            .expect("exactly at the fuse");
        let err = exe
            .run_with_budget(&mut b, &ResourceBudget::unlimited().with_max_loop_iterations(109))
            .unwrap_err();
        assert!(matches!(
            err,
            RunError::BudgetExceeded { resource: BudgetResource::LoopIterations, .. }
        ));
    }

    #[test]
    fn workspace_byte_limit_blocks_large_alloc() {
        let k = Kernel::new("big").body(vec![Stmt::Alloc {
            arr: "w".into(),
            ty: ArrayTy::F64,
            len: Expr::int(1000),
        }]);
        let exe = Executable::compile(&k).unwrap();
        let mut b = Binding::new();
        exe.run_with_budget(&mut b, &ResourceBudget::unlimited().with_max_workspace_bytes(8000))
            .expect("8000 bytes fit exactly");
        let err = exe
            .run_with_budget(&mut b, &ResourceBudget::unlimited().with_max_workspace_bytes(7999))
            .unwrap_err();
        assert_eq!(
            err,
            RunError::BudgetExceeded {
                resource: BudgetResource::WorkspaceBytes,
                limit: 7999,
                requested: 8000,
                array: Some("w".into()),
            }
        );
    }

    #[test]
    fn total_byte_limit_sums_allocations() {
        let k = Kernel::new("two").body(vec![
            Stmt::Alloc { arr: "a".into(), ty: ArrayTy::Int, len: Expr::int(100) },
            Stmt::Alloc { arr: "b".into(), ty: ArrayTy::Int, len: Expr::int(100) },
        ]);
        let exe = Executable::compile(&k).unwrap();
        let mut b = Binding::new();
        exe.run_with_budget(&mut b, &ResourceBudget::unlimited().with_max_total_bytes(1600))
            .expect("both allocations fit");
        let err = exe
            .run_with_budget(&mut b, &ResourceBudget::unlimited().with_max_total_bytes(1200))
            .unwrap_err();
        assert_eq!(
            err,
            RunError::BudgetExceeded {
                resource: BudgetResource::TotalBytes,
                limit: 1200,
                requested: 1600,
                array: Some("b".into()),
            }
        );
    }

    #[test]
    fn realloc_doubling_cap() {
        // Doubles `w` from 1 element 5 times: reallocs to 2, 4, 8, 16, 32.
        let k = Kernel::new("grow").body(vec![
            Stmt::Alloc { arr: "w".into(), ty: ArrayTy::Int, len: Expr::int(1) },
            Stmt::for_(
                "i",
                Expr::int(0),
                Expr::int(5),
                vec![Stmt::Realloc { arr: "w".into(), len: Expr::len("w") * Expr::int(2) }],
            ),
        ]);
        let exe = Executable::compile(&k).unwrap();
        let mut b = Binding::new();
        exe.run_with_budget(&mut b, &ResourceBudget::unlimited().with_max_realloc_doublings(5))
            .expect("five doublings allowed");
        let err = exe
            .run_with_budget(&mut b, &ResourceBudget::unlimited().with_max_realloc_doublings(4))
            .unwrap_err();
        assert_eq!(
            err,
            RunError::BudgetExceeded {
                resource: BudgetResource::ReallocDoublings,
                limit: 4,
                requested: 5,
                array: Some("w".into()),
            }
        );
    }

    #[test]
    fn unlimited_budget_matches_run() {
        let k = Kernel::new("sum")
            .scalar_param("n")
            .array_param(Param::output("out", ArrayTy::Int))
            .body(vec![
                Stmt::store("out", Expr::int(0), Expr::int(0)),
                Stmt::for_(
                    "i",
                    Expr::int(0),
                    Expr::var("n"),
                    vec![Stmt::store_add("out", Expr::int(0), Expr::var("i"))],
                ),
            ]);
        let exe = Executable::compile(&k).unwrap();
        let mut b1 = Binding::new();
        b1.set_scalar("n", 100).set_int("out", vec![0]);
        exe.run(&mut b1).unwrap();
        let mut b2 = Binding::new();
        b2.set_scalar("n", 100).set_int("out", vec![0]);
        exe.run_with_budget(&mut b2, &ResourceBudget::unlimited()).unwrap();
        assert_eq!(b1.int_array("out"), b2.int_array("out"));
    }

    #[test]
    fn division_by_zero_is_an_error_not_a_panic() {
        let k = Kernel::new("div")
            .scalar_param("d")
            .array_param(Param::output("out", ArrayTy::Int))
            .body(vec![Stmt::store("out", Expr::int(0), Expr::int(1) / Expr::var("d"))]);
        let exe = Executable::compile(&k).unwrap();
        let mut b = Binding::new();
        b.set_scalar("d", 0).set_int("out", vec![0]);
        assert_eq!(exe.run(&mut b).unwrap_err(), RunError::DivisionByZero);
    }

    #[test]
    fn integer_overflow_wraps_instead_of_panicking() {
        let k = Kernel::new("wrap")
            .scalar_param("x")
            .array_param(Param::output("out", ArrayTy::Int))
            .body(vec![Stmt::store("out", Expr::int(0), Expr::var("x") + Expr::var("x"))]);
        let exe = Executable::compile(&k).unwrap();
        let mut b = Binding::new();
        b.set_scalar("x", i64::MAX).set_int("out", vec![0]);
        exe.run(&mut b).unwrap();
        assert_eq!(b.int_array("out").unwrap(), &[i64::MAX.wrapping_add(i64::MAX)]);
    }

    #[test]
    fn negative_usize_array_returns_none() {
        let mut b = Binding::new();
        b.set_int("p", vec![0, 3, -1]);
        assert_eq!(b.usize_array("p"), None);
        b.set_int("q", vec![0, 3, 7]);
        assert_eq!(b.usize_array("q"), Some(vec![0, 3, 7]));
    }

    #[test]
    fn int_float_promotion() {
        let k = Kernel::new("promote")
            .array_param(Param::output("y", ArrayTy::F64))
            .body(vec![Stmt::store(
                "y",
                Expr::int(0),
                Expr::int(3) * Expr::float(1.5),
            )]);
        let mut b = Binding::new();
        b.set_f64("y", vec![0.0]);
        run_kernel(&k, &mut b);
        assert_eq!(b.f64_array("y").unwrap(), &[4.5]);
    }
}
