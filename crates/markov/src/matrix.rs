use std::ops::{Index, IndexMut};

use crate::{Error, Result};

/// A dense, row-major matrix of `f64` values: the generator `Q` of
/// [`crate::Ctmc::generator`] and the uniformized `P` of
/// [`crate::uniformized`].
///
/// # Example
///
/// ```
/// use nsr_markov::Matrix;
/// let mut q = Matrix::zeros(2, 2);
/// q[(0, 1)] = 1.0;
/// q[(0, 0)] = -1.0;
/// assert_eq!(q.shape(), (2, 2));
/// assert_eq!(q.row(0), &[-1.0, 1.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.shape().0`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(
            r < self.rows,
            "row index {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns a copy scaled by `s`.
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut m = self.clone();
        for v in &mut m.data {
            *v *= s;
        }
        m
    }

    /// Multiplies a row vector by the matrix into a caller-provided
    /// buffer (`out = xᵗ·A`), overwriting it. Allocation-free: batched
    /// iterations (uniformization power steps, repeated transient
    /// queries) can ping-pong two buffers instead of allocating one
    /// vector per step.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] if `x` does not have one entry
    /// per row or `out` one per column.
    pub fn vec_mul_into(&self, x: &[f64], out: &mut [f64]) -> Result<()> {
        if x.len() != self.rows || out.len() != self.cols {
            return Err(Error::InvalidArgument {
                what: "vec_mul_into needs one x entry per row and one out entry per column",
            });
        }
        out.fill(0.0);
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            for (c, v) in self.row(r).iter().enumerate() {
                out[c] += xr * v;
            }
        }
        Ok(())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_vector_products() {
        let mut a = Matrix::zeros(2, 3);
        for (i, v) in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0].into_iter().enumerate() {
            a[(i / 3, i % 3)] = v;
        }
        let mut out = [f64::NAN; 3];
        a.vec_mul_into(&[1.0, 10.0], &mut out).unwrap();
        assert_eq!(out, [41.0, 52.0, 63.0]);
        assert_eq!(a.scaled(0.5).row(1), &[2.0, 2.5, 3.0]);
        assert!(a.vec_mul_into(&[1.0], &mut out).is_err());
        assert!(a.vec_mul_into(&[1.0, 2.0], &mut [0.0; 2]).is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let a = Matrix::zeros(2, 2);
        let _ = a[(2, 0)];
    }
}
