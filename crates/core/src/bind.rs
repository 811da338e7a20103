//! Binding tensors to kernel parameters and extracting results, following
//! the lowerer's naming convention (`X1_pos`, `X1_crd`, `X1_dim`, `X`).

use crate::{CoreError, Result};
use taco_ir::expr::TensorVar;
use taco_llir::Binding;
use taco_lower::KernelKind;
use taco_tensor::{Format, ModeStorage, Tensor, TensorError};

pub(crate) fn dim_name(tensor: &str, level: usize) -> String {
    format!("{tensor}{}_dim", level + 1)
}
pub(crate) fn pos_name(tensor: &str, level: usize) -> String {
    format!("{tensor}{}_pos", level + 1)
}
pub(crate) fn crd_name(tensor: &str, level: usize) -> String {
    format!("{tensor}{}_crd", level + 1)
}

/// Binds one operand tensor's dims, index arrays and values.
pub(crate) fn bind_operand(
    b: &mut Binding,
    var: &TensorVar,
    t: &Tensor,
    with_vals: bool,
) -> Result<()> {
    if t.rank() != var.rank() || t.format() != var.format() || t.shape() != var.shape() {
        return Err(CoreError::OperandMismatch {
            name: var.name().to_string(),
            expected: format!("shape {:?} format {}", var.shape(), var.format()),
        });
    }
    // Reject corrupted storage before the executor can index with it: the
    // generated kernels trust pos/crd invariants the way the paper's C code
    // does.
    t.validate().map_err(|e| CoreError::OperandMismatch {
        name: var.name().to_string(),
        expected: format!("valid {} storage: {e}", var.format()),
    })?;
    for l in 0..t.rank() {
        // Dim parameters are per *storage level*: for mode-reordered formats
        // (CSC/DCSC) level `l` spans `shape[mode_of_level(l)]`.
        b.set_scalar(dim_name(var.name(), l), t.dim_of_level(l) as i64);
        let lt = var.format().level(l)?;
        if lt.has_pos_array() {
            b.set_usize(pos_name(var.name(), l), t.pos(l)?);
        }
        if lt.has_crd_array() {
            b.set_usize(crd_name(var.name(), l), t.crd(l)?);
        }
    }
    if with_vals {
        b.set_f64(var.name(), t.vals().to_vec());
    }
    Ok(())
}

/// The result's append (compressed) level, if any. Uses the checked
/// [`Format::level`] accessor so a malformed result format surfaces as a
/// typed error at bind time rather than a panic.
fn result_append_level(var: &TensorVar) -> Result<Option<usize>> {
    for l in 0..var.rank() {
        if var.format().level(l)?.has_append() {
            return Ok(Some(l));
        }
    }
    Ok(None)
}

/// Binds the result tensor's buffers according to the kernel kind.
/// `structure` supplies the pre-assembled index arrays for compute kernels
/// with sparse results.
pub(crate) fn bind_result(
    b: &mut Binding,
    var: &TensorVar,
    kind: KernelKind,
    structure: Option<&Tensor>,
) -> Result<()> {
    let name = var.name();
    for l in 0..var.rank() {
        let m = var.format().mode_of_level(l);
        b.set_scalar(dim_name(name, l), var.shape()[m] as i64);
    }
    let sparse_level = result_append_level(var)?;
    match sparse_level {
        None => {
            let len: usize = var.shape().iter().product();
            b.set_f64(name, vec![0.0; len]);
        }
        Some(l) => {
            let parents: usize = var.shape()[..l].iter().product();
            match kind {
                KernelKind::Compute => {
                    let s = structure.ok_or(CoreError::MissingOutputStructure)?;
                    if s.shape() != var.shape() || s.format() != var.format() {
                        return Err(CoreError::OperandMismatch {
                            name: name.to_string(),
                            expected: format!(
                                "output structure with shape {:?} format {}",
                                var.shape(),
                                var.format()
                            ),
                        });
                    }
                    s.validate().map_err(|e| CoreError::OperandMismatch {
                        name: name.to_string(),
                        expected: format!("valid output structure: {e}"),
                    })?;
                    b.set_usize(pos_name(name, l), s.pos(l)?);
                    b.set_usize(crd_name(name, l), s.crd(l)?);
                    b.set_f64(name, vec![0.0; s.nnz()]);
                }
                KernelKind::Fused => {
                    b.set_int(pos_name(name, l), vec![0; parents + 1]);
                    b.set_int(crd_name(name, l), Vec::new());
                    b.set_f64(name, Vec::new());
                }
                KernelKind::Assemble => {
                    b.set_int(pos_name(name, l), vec![0; parents + 1]);
                    b.set_int(crd_name(name, l), Vec::new());
                }
            }
        }
    }
    Ok(())
}

/// Extracts the result tensor after a run by adopting the kernel's result
/// buffers: values are copied once, index arrays converted once, and
/// [`Tensor::try_from_parts`] checks the structure, so a malformed buffer is
/// a typed [`TensorError::InvalidStorage`] error rather than a panic.
pub(crate) fn extract_result(
    b: &Binding,
    var: &TensorVar,
    kind: KernelKind,
    structure: Option<&Tensor>,
    nnz_output: Option<&str>,
) -> Result<Tensor> {
    let name = var.name();
    let missing = || CoreError::UnknownOperand(name.to_string());
    let shape = var.shape().to_vec();
    let dense_levels = |dims: &[usize]| -> Vec<ModeStorage> {
        dims.iter().map(|&dim| ModeStorage::Dense { dim }).collect()
    };
    let Some(l) = result_append_level(var)? else {
        let vals = b.f64_array(name).ok_or_else(missing)?;
        let modes = dense_levels(&shape);
        return Ok(Tensor::try_from_parts(shape, Format::dense(var.rank()), modes, vals.to_vec())?);
    };
    if kind == KernelKind::Compute {
        // The kernel computed values into the output structure's levels.
        let s = structure.ok_or(CoreError::MissingOutputStructure)?;
        let vals = b.f64_array(name).ok_or_else(missing)?;
        let modes = (0..s.rank()).map(|k| s.mode_storage(k).clone()).collect();
        return Ok(Tensor::try_from_parts(shape, var.format().clone(), modes, vals.to_vec())?);
    }

    // Fused and assembly kernels append the result: dense levels above one
    // compressed level whose `pos`/`crd`/`vals` the kernel wrote. The
    // kernel owns these arrays during the run, so their signs and relative
    // sizes are untrusted.
    let pos = b.int_array(&pos_name(name, l)).ok_or_else(missing)?;
    let crd = b.int_array(&crd_name(name, l)).ok_or_else(missing)?;
    let invalid = |detail: String| {
        CoreError::Tensor(TensorError::InvalidStorage { level: l, detail })
    };
    let index = |what: &str, v: i64| {
        usize::try_from(v)
            .map_err(|_| invalid(format!("negative {what} value {v} in kernel output")))
    };
    let nnz = match nnz_output.and_then(|n| b.scalar_output(n)) {
        Some(v) => index("nnz", v)?,
        None => index("pos", pos.last().copied().unwrap_or(0))?,
    };
    let reported = |what: &str, len: usize| {
        invalid(format!("kernel reported {nnz} result entries but {what} has {len}"))
    };
    let crd = crd.get(..nnz).ok_or_else(|| reported("crd", crd.len()))?;
    let mut vals = if kind == KernelKind::Fused {
        let all = b.f64_array(name).ok_or_else(missing)?;
        all.get(..nnz).ok_or_else(|| reported("vals", all.len()))?.to_vec()
    } else {
        vec![0.0; nnz]
    };
    let pos = pos.iter().map(|&v| index("pos", v)).collect::<Result<Vec<_>>>()?;
    let mut crd = crd.iter().map(|&v| index("crd", v)).collect::<Result<Vec<_>>>()?;
    sort_segments(&pos, &mut crd, &mut vals);
    let mut modes = dense_levels(&shape[..l]);
    modes.push(ModeStorage::Compressed { pos, crd });
    Ok(Tensor::try_from_parts(shape, var.format().clone(), modes, vals)?)
}

/// Sorts each `pos` segment of `crd` that is out of order, moving its
/// values with it (unsorted-assembly kernels append in workspace order).
/// Segments whose bounds are malformed are left for the structural check
/// to report.
fn sort_segments(pos: &[usize], crd: &mut [usize], vals: &mut [f64]) {
    for w in pos.windows(2) {
        let Some(seg) = crd.get_mut(w[0]..w[1]) else { continue };
        if seg.is_sorted() {
            continue;
        }
        let vals = &mut vals[w[0]..w[1]];
        let mut pairs: Vec<(usize, f64)> = seg.iter().copied().zip(vals.iter().copied()).collect();
        pairs.sort_unstable_by_key(|&(c, _)| c);
        for ((c, v), (sc, sv)) in pairs.into_iter().zip(seg.iter_mut().zip(vals.iter_mut())) {
            *sc = c;
            *sv = v;
        }
    }
}
