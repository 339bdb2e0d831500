//! The matrix engine: vector-matrix multiplication and VMM-assisted sorting.
//!
//! §IV-A1: the engine holds 2 matrix registers (32x512-bit), 32 vector
//! registers (512-bit), and 1024 accumulation registers (512-bit), and
//! computes VMM as a series of outer-product steps, accumulating into an
//! accumulation register (Fig. 3). It also implements the Fig. 4 sorting
//! facility: a relationship matrix compares all vector elements pairwise,
//! column sums give the rank of each element, the ranks define a
//! permutation (transformation) matrix, and one VMM against that matrix
//! yields the sorted vector.

use dtu_isa::{find_pattern, DataType, MatrixShape};
use dtu_tensor::{Shape, Tensor};
use std::error::Error;
use std::fmt;

/// Errors from matrix-engine operations.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixEngineError {
    /// The requested (shape, dtype) combination is not in the VMM catalog.
    UnsupportedPattern {
        /// Requested shape.
        shape: MatrixShape,
        /// Requested data type.
        dtype: DataType,
    },
    /// Operand dimensions disagree with the requested pattern.
    OperandMismatch {
        /// What went wrong.
        reason: String,
    },
    /// The sorting facility only handles vectors up to the engine's
    /// maximum matrix rows.
    VectorTooLong {
        /// Requested length.
        len: usize,
        /// Hardware maximum.
        max: usize,
    },
    /// The fine-grained VMM feature is disabled (DTU 1.0 ablation) and the
    /// requested pattern is not one of the coarse GEMM tiles.
    FeatureDisabled {
        /// Description of the disabled path.
        what: String,
    },
}

impl fmt::Display for MatrixEngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixEngineError::UnsupportedPattern { shape, dtype } => {
                write!(f, "unsupported VMM pattern {shape} {dtype}")
            }
            MatrixEngineError::OperandMismatch { reason } => {
                write!(f, "operand mismatch: {reason}")
            }
            MatrixEngineError::VectorTooLong { len, max } => {
                write!(f, "sort vector length {len} exceeds engine maximum {max}")
            }
            MatrixEngineError::FeatureDisabled { what } => write!(f, "feature disabled: {what}"),
        }
    }
}

impl Error for MatrixEngineError {}

/// Intermediate artefacts of the Fig. 4 sorting flow, exposed so tests and
/// examples can inspect each hardware step.
#[derive(Debug, Clone, PartialEq)]
pub struct SortArtifacts {
    /// Step 1: pairwise relationship matrix (`n x n`, entries 0/1).
    pub relationship: Tensor,
    /// Step 2: per-element rank ("order vector") — column sums.
    pub order: Vec<usize>,
    /// Step 3: the permutation (transformation) matrix.
    pub transformation: Tensor,
    /// Step 4: the sorted vector (ascending).
    pub sorted: Tensor,
}

/// The functional model of one compute core's matrix engine.
#[derive(Debug, Clone)]
pub struct MatrixEngine {
    fine_grained: bool,
    /// Cycle counter accumulated across macro-ops (timing layer hook).
    cycles: u64,
}

impl MatrixEngine {
    /// Maximum rows a sort vector may have (one matrix register's rows).
    pub const MAX_SORT_LEN: usize = 32;

    /// Creates a matrix engine. `fine_grained` selects the DTU 2.0 VMM
    /// catalog; when false only the DTU 1.0 coarse 16x16 GEMM tile exists.
    pub fn new(fine_grained: bool) -> Self {
        MatrixEngine {
            fine_grained,
            cycles: 0,
        }
    }

    /// Total matrix-pipeline cycles charged so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Validates a (shape, dtype) pattern against the hardware catalog.
    ///
    /// # Errors
    ///
    /// [`MatrixEngineError::FeatureDisabled`] when fine-grained VMM is off
    /// and the shape is not the square GEMM tile;
    /// [`MatrixEngineError::UnsupportedPattern`] when the catalog lacks it.
    pub fn check_pattern(
        &self,
        shape: MatrixShape,
        dtype: DataType,
    ) -> Result<(), MatrixEngineError> {
        if !self.fine_grained && shape.rows != shape.cols {
            return Err(MatrixEngineError::FeatureDisabled {
                what: format!("fine-grained VMM (requested {shape})"),
            });
        }
        if find_pattern(shape, dtype).is_none() {
            return Err(MatrixEngineError::UnsupportedPattern { shape, dtype });
        }
        Ok(())
    }

    /// Computes `vector × matrix + acc`, quantising through `dtype`.
    ///
    /// `vector` must be `[rows]`, `matrix` `[rows, cols]`, and `acc`
    /// `[cols]`; the result replaces the accumulator, mirroring the
    /// accumulate-in-place semantics of the accumulation registers.
    ///
    /// # Errors
    ///
    /// Pattern errors as in [`MatrixEngine::check_pattern`], plus
    /// [`MatrixEngineError::OperandMismatch`] for dimension disagreements.
    pub fn vmm(
        &mut self,
        vector: &Tensor,
        matrix: &Tensor,
        acc: &Tensor,
        dtype: DataType,
    ) -> Result<Tensor, MatrixEngineError> {
        let vdims = vector.shape().dims();
        let mdims = matrix.shape().dims();
        if vdims.len() != 1 || mdims.len() != 2 {
            return Err(MatrixEngineError::OperandMismatch {
                reason: format!(
                    "expected vector [n] and matrix [n,m], got {} and {}",
                    vector.shape(),
                    matrix.shape()
                ),
            });
        }
        let shape = MatrixShape::new(mdims[0], mdims[1]);
        self.check_pattern(shape, dtype)?;
        if vdims[0] != mdims[0] {
            return Err(MatrixEngineError::OperandMismatch {
                reason: format!("vector length {} != matrix rows {}", vdims[0], mdims[0]),
            });
        }
        if acc.shape().dims() != [mdims[1]] {
            return Err(MatrixEngineError::OperandMismatch {
                reason: format!(
                    "accumulator {} does not match matrix cols {}",
                    acc.shape(),
                    mdims[1]
                ),
            });
        }
        let pattern = find_pattern(shape, dtype).expect("checked");
        self.cycles += pattern.cycles();

        // Outer-product accumulation, element values quantised through the
        // machine type on load and the accumulator kept at the wider
        // accumulate precision (f32 here), as on hardware.
        let mut out = acc.clone();
        for r in 0..shape.rows {
            let vq = dtype.quantize(vector.data()[r]);
            for c in 0..shape.cols {
                let mq = dtype.quantize(matrix.data()[r * shape.cols + c]);
                out.data_mut()[c] += vq * mq;
            }
        }
        Ok(out)
    }

    /// Multiplies an arbitrary `[m, k] x [k, n]` matrix pair by tiling it
    /// over VMM macro-ops — the software-visible GEMM built from VMM.
    ///
    /// # Errors
    ///
    /// Propagates pattern and operand errors from [`MatrixEngine::vmm`].
    pub fn gemm(
        &mut self,
        a: &Tensor,
        b: &Tensor,
        dtype: DataType,
    ) -> Result<Tensor, MatrixEngineError> {
        let (ad, bd) = (a.shape().dims(), b.shape().dims());
        if ad.len() != 2 || bd.len() != 2 || ad[1] != bd[0] {
            return Err(MatrixEngineError::OperandMismatch {
                reason: format!("gemm {} x {}", a.shape(), b.shape()),
            });
        }
        let (m, k, n) = (ad[0], ad[1], bd[1]);
        // Tile sizes: the largest catalog row count <= k remainder, fixed
        // 16-wide columns.
        let col_tile = 16usize;
        let mut out = Tensor::zeros(Shape::new(vec![m, n]));
        for row in 0..m {
            for c0 in (0..n).step_by(col_tile) {
                let cols = col_tile.min(n - c0);
                // Pad the column tile to 16 (hardware tile is fixed).
                let mut acc = Tensor::zeros(Shape::new(vec![col_tile]));
                let mut k0 = 0usize;
                while k0 < k {
                    let rows = Self::pick_row_tile(k - k0, dtype, self.fine_grained);
                    // Gather the operands for this tile (zero-padded).
                    let vec_tile = Tensor::from_fn(Shape::new(vec![rows]), |i| {
                        let kk = k0 + i[0];
                        if kk < k {
                            a.data()[row * k + kk]
                        } else {
                            0.0
                        }
                    });
                    let mat_tile = Tensor::from_fn(Shape::new(vec![rows, col_tile]), |i| {
                        let (kk, cc) = (k0 + i[0], c0 + i[1]);
                        if kk < k && cc < n {
                            b.data()[kk * n + cc]
                        } else {
                            0.0
                        }
                    });
                    acc = self.vmm(&vec_tile, &mat_tile, &acc, dtype)?;
                    k0 += rows;
                }
                for cc in 0..cols {
                    out.data_mut()[row * n + c0 + cc] = acc.data()[cc];
                }
            }
        }
        Ok(out)
    }

    /// Chooses the largest catalog row tile that fits the remaining `k`.
    fn pick_row_tile(remaining: usize, dtype: DataType, fine: bool) -> usize {
        if !fine {
            return 16;
        }
        let mut best = 4usize;
        for rows in [4usize, 8, 16, 32, 64, 128] {
            if find_pattern(MatrixShape::new(rows, 16), dtype).is_some() && rows <= remaining.max(4)
            {
                best = rows;
            }
        }
        best
    }

    /// Runs the full Fig. 4 sorting flow on a vector, ascending.
    ///
    /// Identical elements are ordered by original index (stable), exactly
    /// as the paper describes ("identical elements in the input vector are
    /// appropriately handled according to their original indices").
    ///
    /// # Errors
    ///
    /// [`MatrixEngineError::VectorTooLong`] beyond
    /// [`MatrixEngine::MAX_SORT_LEN`] elements.
    pub fn sort(&mut self, input: &Tensor) -> Result<SortArtifacts, MatrixEngineError> {
        let n = input.len();
        if n > Self::MAX_SORT_LEN {
            return Err(MatrixEngineError::VectorTooLong {
                len: n,
                max: Self::MAX_SORT_LEN,
            });
        }
        let v = input.data();

        // Step 1: relationship matrix. R[i][j] = 1 if element j must come
        // before element i (strictly smaller, or equal with lower index).
        let relationship = Tensor::from_fn(Shape::new(vec![n, n]), |idx| {
            let (i, j) = (idx[0], idx[1]);
            if i == j {
                0.0
            } else if v[j] < v[i] || (v[j] == v[i] && j < i) {
                1.0
            } else {
                0.0
            }
        });

        // Step 2: order vector = row sums = how many elements precede i =
        // i's rank in the sorted output.
        let mut order = vec![0usize; n];
        for (i, slot) in order.iter_mut().enumerate() {
            let mut s = 0usize;
            for j in 0..n {
                s += relationship.get(&[i, j]).expect("in range") as usize;
            }
            *slot = s;
        }

        // Step 3: transformation (permutation) matrix T with
        // T[src][rank(src)] = 1, so that v × T lands each element at its
        // rank position.
        let transformation = Tensor::from_fn(Shape::new(vec![n, n]), |idx| {
            let (row, col) = (idx[0], idx[1]);
            if order[row] == col {
                1.0
            } else {
                0.0
            }
        });

        // Step 4: one VMM against the transformation matrix. Use the plain
        // matmul path (sort vectors are small); charge matrix cycles.
        let row_vec = input.reshape(Shape::new(vec![1, n])).expect("same len");
        let sorted2d = row_vec
            .matmul(&transformation)
            .expect("shapes agree by construction");
        let sorted = sorted2d.reshape(Shape::new(vec![n])).expect("same len");
        self.cycles += (n as u64).div_ceil(16).max(1) * 3;

        Ok(SortArtifacts {
            relationship,
            order,
            transformation,
            sorted,
        })
    }

    /// Top-K selection via the sorting facility: returns the `k` largest
    /// values, descending.
    ///
    /// # Errors
    ///
    /// As for [`MatrixEngine::sort`].
    pub fn top_k(&mut self, input: &Tensor, k: usize) -> Result<Vec<f32>, MatrixEngineError> {
        let art = self.sort(input)?;
        let data = art.sorted.data();
        Ok(data.iter().rev().take(k).copied().collect())
    }
}

impl Default for MatrixEngine {
    fn default() -> Self {
        MatrixEngine::new(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec())
    }

    #[test]
    fn vmm_matches_reference_matmul_fp32() {
        let mut eng = MatrixEngine::default();
        let v = Tensor::from_fn(Shape::new(vec![16]), |i| i[0] as f32 * 0.5 - 3.0);
        let m = Tensor::from_fn(Shape::new(vec![16, 16]), |i| {
            ((i[0] * 16 + i[1]) % 7) as f32 - 3.0
        });
        let acc = Tensor::zeros(Shape::new(vec![16]));
        let got = eng.vmm(&v, &m, &acc, DataType::Fp32).unwrap();
        let reference = v
            .reshape(Shape::new(vec![1, 16]))
            .unwrap()
            .matmul(&m)
            .unwrap();
        assert!(
            got.max_abs_diff(&reference.reshape(Shape::new(vec![16])).unwrap())
                .unwrap()
                < 1e-4
        );
        assert!(eng.cycles() >= 1);
    }

    #[test]
    fn vmm_accumulates_into_acc() {
        let mut eng = MatrixEngine::default();
        let v = vec_t(&[1.0; 4]);
        let m = Tensor::full(Shape::new(vec![4, 16]), 1.0);
        let acc = Tensor::full(Shape::new(vec![16]), 10.0);
        let out = eng.vmm(&v, &m, &acc, DataType::Fp32).unwrap();
        assert!(out.data().iter().all(|&x| x == 14.0));
    }

    #[test]
    fn vmm_rejects_mismatched_operands() {
        let mut eng = MatrixEngine::default();
        let v = vec_t(&[1.0; 8]);
        let m = Tensor::zeros(Shape::new(vec![4, 16]));
        let acc = Tensor::zeros(Shape::new(vec![16]));
        assert!(matches!(
            eng.vmm(&v, &m, &acc, DataType::Fp32),
            Err(MatrixEngineError::OperandMismatch { .. })
        ));
        let bad_acc = Tensor::zeros(Shape::new(vec![8]));
        let v4 = vec_t(&[1.0; 4]);
        assert!(eng.vmm(&v4, &m, &bad_acc, DataType::Fp32).is_err());
    }

    #[test]
    fn vmm_rejects_uncataloged_pattern() {
        let mut eng = MatrixEngine::default();
        let v = vec_t(&[1.0; 5]);
        let m = Tensor::zeros(Shape::new(vec![5, 16]));
        let acc = Tensor::zeros(Shape::new(vec![16]));
        assert!(matches!(
            eng.vmm(&v, &m, &acc, DataType::Fp32),
            Err(MatrixEngineError::UnsupportedPattern { .. })
        ));
    }

    #[test]
    fn coarse_engine_rejects_tall_skinny() {
        let eng = MatrixEngine::new(false);
        assert!(matches!(
            eng.check_pattern(MatrixShape::new(4, 16), DataType::Fp32),
            Err(MatrixEngineError::FeatureDisabled { .. })
        ));
        eng.check_pattern(MatrixShape::new(16, 16), DataType::Fp32)
            .unwrap();
    }

    #[test]
    fn vmm_quantises_through_dtype() {
        let mut eng = MatrixEngine::default();
        // A value below BF16 resolution near 1.0 vanishes.
        let v = vec_t(&[1.0 + 1.0 / 512.0, 0.0, 0.0, 0.0]);
        let mut m = Tensor::zeros(Shape::new(vec![4, 16]));
        m.set(&[0, 0], 1.0).unwrap();
        let acc = Tensor::zeros(Shape::new(vec![16]));
        let out = eng.vmm(&v, &m, &acc, DataType::Bf16).unwrap();
        assert_eq!(out.data()[0], 1.0);
        let out32 = eng.vmm(&v, &m, &acc, DataType::Fp32).unwrap();
        assert!(out32.data()[0] > 1.0);
    }

    #[test]
    fn gemm_matches_reference_for_odd_shapes() {
        let mut eng = MatrixEngine::default();
        // Tall-and-skinny: 3 x 21 times 21 x 5.
        let a = Tensor::from_fn(Shape::new(vec![3, 21]), |i| {
            ((i[0] * 21 + i[1]) % 11) as f32 * 0.25 - 1.0
        });
        let b = Tensor::from_fn(Shape::new(vec![21, 5]), |i| {
            ((i[0] * 5 + i[1]) % 13) as f32 * 0.125 - 0.5
        });
        let got = eng.gemm(&a, &b, DataType::Fp32).unwrap();
        let want = a.matmul(&b).unwrap();
        assert!(got.max_abs_diff(&want).unwrap() < 1e-3);
    }

    #[test]
    fn gemm_rejects_mismatch() {
        let mut eng = MatrixEngine::default();
        let a = Tensor::zeros(Shape::new(vec![2, 3]));
        let b = Tensor::zeros(Shape::new(vec![4, 2]));
        assert!(eng.gemm(&a, &b, DataType::Fp32).is_err());
    }

    #[test]
    fn sort_produces_ascending_order() {
        let mut eng = MatrixEngine::default();
        let input = vec_t(&[3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5]);
        let art = eng.sort(&input).unwrap();
        let mut want = input.data().to_vec();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(art.sorted.data(), want.as_slice());
    }

    #[test]
    fn sort_handles_duplicates_stably() {
        let mut eng = MatrixEngine::default();
        let input = vec_t(&[2.0, 2.0, 1.0, 2.0]);
        let art = eng.sort(&input).unwrap();
        assert_eq!(art.sorted.data(), &[1.0, 2.0, 2.0, 2.0]);
        // Ranks of the three 2.0s follow original indices: 1, 2, 3.
        assert_eq!(art.order, vec![1, 2, 0, 3]);
    }

    #[test]
    fn sort_artifacts_are_consistent() {
        let mut eng = MatrixEngine::default();
        let input = vec_t(&[0.5, -1.0, 2.0]);
        let art = eng.sort(&input).unwrap();
        // Transformation is a permutation matrix: one 1 per row and column.
        for r in 0..3 {
            let row_sum: f32 = (0..3)
                .map(|c| art.transformation.get(&[r, c]).unwrap())
                .sum();
            assert_eq!(row_sum, 1.0);
            let col_sum: f32 = (0..3)
                .map(|c| art.transformation.get(&[c, r]).unwrap())
                .sum();
            assert_eq!(col_sum, 1.0);
        }
        // Relationship matrix diag is zero.
        for i in 0..3 {
            assert_eq!(art.relationship.get(&[i, i]).unwrap(), 0.0);
        }
    }

    #[test]
    fn sort_rejects_oversized_vector() {
        let mut eng = MatrixEngine::default();
        let input = Tensor::zeros(Shape::new(vec![33]));
        assert!(matches!(
            eng.sort(&input),
            Err(MatrixEngineError::VectorTooLong { len: 33, max: 32 })
        ));
    }

    #[test]
    fn top_k_returns_largest_descending() {
        let mut eng = MatrixEngine::default();
        let input = vec_t(&[0.3, 0.9, 0.1, 0.7, 0.5]);
        let top = eng.top_k(&input, 3).unwrap();
        assert_eq!(top, vec![0.9, 0.7, 0.5]);
        // k larger than n clamps.
        let all = eng.top_k(&input, 10).unwrap();
        assert_eq!(all.len(), 5);
    }
}
