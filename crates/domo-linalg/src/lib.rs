//! Dense and sparse linear algebra for the Domo solver stack.
//!
//! The Domo paper's PC-side program needs three numerical capabilities,
//! none of which had a mature pure-Rust, dependency-free implementation
//! we could vendor (the *repro* gate for this paper is precisely the thin
//! SDP ecosystem), so this crate provides them from scratch:
//!
//! 1. **Factor-and-solve** for the fixed KKT systems ADMM iterates
//!    against: a sparse LDLᵀ ([`LdlSymbolic`] / [`SparseLdlt`] over a
//!    [`SymSparse`] matrix) with a minimum-degree ordering whose
//!    symbolic step is shared by every re-factor of one pattern. The
//!    dense [`Cholesky`] (SPD) and [`Ldlt`] (quasi-definite) are the
//!    references its tests compare against.
//! 2. **Symmetric eigendecomposition** ([`symmetric_eigen`], cyclic
//!    Jacobi) powering the PSD-cone projection ([`project_psd`]) at the
//!    heart of the semidefinite-relaxation solver.
//! 3. **Sparse kernels** ([`CsrMatrix`]: `A x`, `Aᵀ y`, into
//!    caller-owned buffers) for the large, extremely sparse constraint
//!    systems Domo builds from packet traces.
//!
//! # Examples
//!
//! ```
//! use domo_linalg::{Matrix, Cholesky};
//!
//! let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
//! let x = Cholesky::factor(&a)?.solve(&[8.0, 7.0]);
//! assert!((a.matvec(&x)[0] - 8.0).abs() < 1e-12);
//! # Ok::<(), domo_linalg::FactorError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod eigen;
pub mod factor;
pub mod ldl;
pub mod sparse;

pub use dense::{add_vec, axpy, dot, norm2, norm_inf, scale_vec, sub_vec, Matrix};
pub use eigen::{min_eigenvalue, project_psd, symmetric_eigen, SymmetricEigen};
pub use factor::{Cholesky, FactorError, Ldlt};
pub use ldl::{LdlSymbolic, Pivots, SparseLdlt, SymSparse};
pub use sparse::CsrMatrix;
