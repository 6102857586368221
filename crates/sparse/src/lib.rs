//! Sparse linear algebra substrate.
//!
//! Provides everything the AMG solver and the communication experiments
//! need: CSR matrices with SpMV/SpGEMM/transpose, contiguous row
//! partitions, the Hypre-style distributed matrix view
//! ([`ParCsr`]: local `diag` block + `offd` block with a global column map,
//! each a [`ChunkedBlock`] of 4-row chunks that multiplies a chunk at a
//! time, bit for bit the CSR product),
//! the communication package derived from a partitioned matrix
//! ([`CommPkg`] — who needs which vector entries, mirroring
//! `hypre_ParCSRCommPkg`), and the problem generators used in the paper's
//! evaluation (rotated anisotropic diffusion).

pub mod commpkg;
pub mod coo;
pub mod csr;
pub mod gen;
pub mod parcsr;
pub mod partition;
pub mod spgemm;
pub mod vector;

pub use commpkg::{build_comm_pkgs, CommPkg};
pub use coo::Coo;
pub use csr::Csr;
pub use parcsr::{ChunkedBlock, ParCsr};
pub use partition::Partition;
pub use spgemm::spgemm;

#[cfg(test)]
mod proptests;
