use crate::{Format, Result, Tensor, TensorError};

/// A 3-order tensor in compressed sparse fiber (CSF) layout — three levels of
/// `pos`/`crd` arrays over a value array, as used by the MTTKRP kernels in
/// Section VII of the paper (arrays `B1_pos/B1_crd`, `B2_pos/B2_crd`,
/// `B3_pos/B3_crd`, `B`).
///
/// # Example
///
/// ```
/// use taco_tensor::{Csf3, Format, Tensor};
///
/// let t = Tensor::from_entries(
///     vec![2, 2, 2],
///     Format::csf3(),
///     vec![(vec![0, 1, 0], 1.0), (vec![1, 0, 1], 2.0)],
/// )?;
/// let b = Csf3::from_tensor(&t)?;
/// assert_eq!(b.nnz(), 2);
/// # Ok::<(), taco_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csf3 {
    dims: [usize; 3],
    pos1: Vec<usize>,
    crd1: Vec<usize>,
    pos2: Vec<usize>,
    crd2: Vec<usize>,
    pos3: Vec<usize>,
    crd3: Vec<usize>,
    vals: Vec<f64>,
}

impl Csf3 {
    /// Builds a CSF tensor from `(i, k, l, value)` quadruples (mode order as
    /// in the paper's MTTKRP: `B_ikl`). Duplicates are summed.
    pub fn from_quads(dims: [usize; 3], quads: &[(usize, usize, usize, f64)]) -> Self {
        let entries = quads
            .iter()
            .map(|&(i, k, l, v)| (vec![i, k, l], v))
            .collect();
        let t = Tensor::from_entries(dims.to_vec(), Format::csf3(), entries)
            .expect("coordinates validated by Tensor::from_entries");
        Csf3::from_tensor(&t).expect("format is csf3 by construction")
    }

    /// Converts a `{Compressed, Compressed, Compressed}` rank-3 [`Tensor`].
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor is not rank-3 CSF.
    pub fn from_tensor(t: &Tensor) -> Result<Self> {
        if t.rank() != 3 || *t.format() != Format::csf3() {
            return Err(TensorError::FormatMismatch { expected: "rank-3 (s,s,s) CSF tensor" });
        }
        Ok(Csf3 {
            dims: [t.dim(0), t.dim(1), t.dim(2)],
            pos1: t.pos(0)?.to_vec(),
            crd1: t.crd(0)?.to_vec(),
            pos2: t.pos(1)?.to_vec(),
            crd2: t.crd(1)?.to_vec(),
            pos3: t.pos(2)?.to_vec(),
            crd3: t.crd(2)?.to_vec(),
            vals: t.vals().to_vec(),
        })
    }

    /// Creates a CSF tensor from raw arrays with **no** invariant checks.
    ///
    /// This exists for fault-injection testing: it can represent corrupted
    /// storage that [`Csf3::validate`] rejects. Any other use is a bug —
    /// [`Csf3::to_tensor`] may panic on tensors built this way.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_unchecked(
        dims: [usize; 3],
        pos1: Vec<usize>,
        crd1: Vec<usize>,
        pos2: Vec<usize>,
        crd2: Vec<usize>,
        pos3: Vec<usize>,
        crd3: Vec<usize>,
        vals: Vec<f64>,
    ) -> Self {
        Csf3 { dims, pos1, crd1, pos2, crd2, pos3, crd3, vals }
    }

    /// Checks the CSF storage invariants at all three levels: each `pos`
    /// array starts at 0, is monotone, has one entry per parent position
    /// plus one, and ends at its `crd` length; each `crd` segment is strictly
    /// increasing and in bounds; `vals` has one entry per innermost position;
    /// and every value is finite.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidStorage`] describing the first violated
    /// invariant.
    pub fn validate(&self) -> Result<()> {
        let levels: [(&[usize], &[usize], usize); 3] = [
            (&self.pos1, &self.crd1, self.dims[0]),
            (&self.pos2, &self.crd2, self.dims[1]),
            (&self.pos3, &self.crd3, self.dims[2]),
        ];
        let mut parent_positions = 1usize;
        for (level, (pos, crd, dim)) in levels.into_iter().enumerate() {
            crate::storage::check_pos_level(pos, crd.len(), parent_positions, level)?;
            // CSF levels are ordered and unique: strictly increasing
            // segments, coordinates in bounds.
            crate::storage::check_crd_level(pos, crd, parent_positions, dim, true, true, level)?;
            parent_positions = crd.len();
        }
        crate::storage::check_vals_level(&self.vals, parent_positions, 2, true)?;
        Ok(())
    }

    /// Converts back into a rank-3 CSF [`Tensor`].
    pub fn to_tensor(&self) -> Tensor {
        let mut entries = Vec::with_capacity(self.vals.len());
        for p1 in self.pos1[0]..self.pos1[1] {
            let i = self.crd1[p1];
            for p2 in self.pos2[p1]..self.pos2[p1 + 1] {
                let k = self.crd2[p2];
                for p3 in self.pos3[p2]..self.pos3[p2 + 1] {
                    entries.push((vec![i, k, self.crd3[p3]], self.vals[p3]));
                }
            }
        }
        Tensor::from_entries(self.dims.to_vec(), Format::csf3(), entries)
            .expect("entries validated by construction")
    }

    /// The three dimensions.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Level-1 position array.
    pub fn pos1(&self) -> &[usize] {
        &self.pos1
    }
    /// Level-1 coordinate array.
    pub fn crd1(&self) -> &[usize] {
        &self.crd1
    }
    /// Level-2 position array.
    pub fn pos2(&self) -> &[usize] {
        &self.pos2
    }
    /// Level-2 coordinate array.
    pub fn crd2(&self) -> &[usize] {
        &self.crd2
    }
    /// Level-3 position array.
    pub fn pos3(&self) -> &[usize] {
        &self.pos3
    }
    /// Level-3 coordinate array.
    pub fn crd3(&self) -> &[usize] {
        &self.crd3
    }
    /// Value array.
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quads_round_trip() {
        let b = Csf3::from_quads(
            [3, 4, 5],
            &[(0, 1, 2, 1.0), (0, 1, 4, 2.0), (2, 0, 0, 3.0), (2, 3, 1, 4.0)],
        );
        assert_eq!(b.nnz(), 4);
        assert_eq!(b.crd1(), &[0, 2]);
        let t = b.to_tensor();
        let b2 = Csf3::from_tensor(&t).unwrap();
        assert_eq!(b, b2);
    }

    #[test]
    fn duplicates_summed() {
        let b = Csf3::from_quads([2, 2, 2], &[(1, 1, 1, 1.0), (1, 1, 1, 2.5)]);
        assert_eq!(b.nnz(), 1);
        assert_eq!(b.vals(), &[3.5]);
    }

    #[test]
    fn wrong_format_rejected() {
        let t = Tensor::from_entries(vec![2, 2], Format::csr(), vec![(vec![0, 0], 1.0)]).unwrap();
        assert!(Csf3::from_tensor(&t).is_err());
    }
}
