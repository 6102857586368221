//! Communication packages: the irregular communication pattern of a
//! distributed SpMV, mirroring `hypre_ParCSRCommPkg`.
//!
//! For a matrix partitioned over ranks, each rank must *receive* the vector
//! entries for its ghost columns (grouped by owner) and *send* the entries
//! other ranks need from its owned range. This is exactly the communication
//! the paper replaces with persistent neighborhood collectives.

use crate::csr::Csr;
use crate::parcsr::ParCsr;
use crate::partition::Partition;
use serde::{Deserialize, Serialize};

/// One rank's send/recv lists for a SpMV halo exchange.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommPkg {
    pub rank: usize,
    /// `(source rank, global indices received from it)`, sources ascending,
    /// indices ascending within each source.
    pub recvs: Vec<(usize, Vec<usize>)>,
    /// `(destination rank, global indices sent to it)`, destinations
    /// ascending, indices ascending within each destination.
    pub sends: Vec<(usize, Vec<usize>)>,
}

impl CommPkg {
    /// Total number of vector values received.
    pub fn recv_size(&self) -> usize {
        self.recvs.iter().map(|(_, v)| v.len()).sum()
    }

    /// Total number of vector values sent.
    pub fn send_size(&self) -> usize {
        self.sends.iter().map(|(_, v)| v.len()).sum()
    }

    /// Number of distinct communication partners (union of send/recv).
    pub fn n_partners(&self) -> usize {
        let mut p: Vec<usize> = self
            .sends
            .iter()
            .map(|&(r, _)| r)
            .chain(self.recvs.iter().map(|&(r, _)| r))
            .collect();
        p.sort_unstable();
        p.dedup();
        p.len()
    }
}

/// Build the communication packages of **all** ranks for the global matrix
/// `a` under `part`.
///
/// The recv side of rank `r` comes from its ghost columns grouped by owner;
/// the send side is the transpose of everyone's recv side. (In a real MPI
/// setting each rank derives its send side through communication — see
/// `mpisim::topology`; building them centrally here is equivalent and lets
/// the analytic harness evaluate paper-scale patterns quickly.)
pub fn build_comm_pkgs(a: &Csr, part: &Partition) -> Vec<CommPkg> {
    assert_eq!(a.n_rows(), part.n_rows(), "partition must cover all rows");
    assert_eq!(
        a.n_rows(),
        a.n_cols(),
        "comm packages expect a square matrix"
    );
    // only the ghost columns are read: derive them from each rank's rows
    // rather than split the matrix to look at `col_map_offd`
    pkgs_from_ghosts(
        part,
        (0..part.n_parts()).map(|rank| ParCsr::ghost_cols(a, part, rank)),
    )
}

/// Build communication packages from per-rank `ParCsr` views, for callers
/// that already hold the split.
pub fn build_comm_pkgs_from_parts(pars: &[ParCsr], p: usize) -> Vec<CommPkg> {
    assert_eq!(pars.len(), p, "one ParCsr per rank");
    match pars.first() {
        Some(par) => pkgs_from_ghosts(&par.part, pars.iter().map(|par| &par.col_map_offd)),
        None => Vec::new(),
    }
}

/// The packages of every rank of `part`, given each rank's ghost columns
/// in rank order (ascending within a rank).
fn pkgs_from_ghosts(
    part: &Partition,
    ghosts: impl Iterator<Item = impl AsRef<[usize]>>,
) -> Vec<CommPkg> {
    let p = part.n_parts();
    let mut pkgs: Vec<CommPkg> = (0..p)
        .map(|rank| CommPkg {
            rank,
            ..Default::default()
        })
        .collect();

    // sends[dst][src] accumulated while walking receives
    let mut send_accum: Vec<Vec<(usize, Vec<usize>)>> = vec![Vec::new(); p];

    for (rank, ghost) in ghosts.enumerate() {
        let mut cur_owner = usize::MAX;
        let mut cur_list: Vec<usize> = Vec::new();
        let flush = |owner: usize,
                     list: &mut Vec<usize>,
                     pkgs: &mut Vec<CommPkg>,
                     send_accum: &mut Vec<Vec<(usize, Vec<usize>)>>| {
            if !list.is_empty() {
                pkgs[rank].recvs.push((owner, list.clone()));
                send_accum[owner].push((rank, std::mem::take(list)));
            }
        };
        // ghost columns ascending ⇒ owners appear in ascending runs
        for &gc in ghost.as_ref() {
            let owner = part.owner(gc);
            debug_assert_ne!(owner, rank, "ghost column owned locally");
            if owner != cur_owner {
                flush(cur_owner, &mut cur_list, &mut pkgs, &mut send_accum);
                cur_owner = owner;
            }
            cur_list.push(gc);
        }
        flush(cur_owner, &mut cur_list, &mut pkgs, &mut send_accum);
    }

    for (owner, sends) in send_accum.into_iter().enumerate() {
        let mut sends = sends;
        sends.sort_by_key(|&(dst, _)| dst);
        pkgs[owner].sends = sends;
    }
    pkgs
}

/// Check global consistency: every send matches the corresponding recv
/// (test/diagnostic helper).
pub fn validate_comm_pkgs(pkgs: &[CommPkg]) {
    for pkg in pkgs {
        for (dst, idx) in &pkg.sends {
            let peer = &pkgs[*dst];
            let (_, recv_idx) = peer
                .recvs
                .iter()
                .find(|(src, _)| *src == pkg.rank)
                .unwrap_or_else(|| {
                    panic!("rank {} sends to {dst} but {dst} has no recv", pkg.rank)
                });
            assert_eq!(
                idx, recv_idx,
                "send/recv index mismatch {} -> {dst}",
                pkg.rank
            );
        }
        for (src, _) in &pkg.recvs {
            assert!(
                pkgs[*src].sends.iter().any(|(d, _)| *d == pkg.rank),
                "rank {} expects recv from {src} but {src} does not send",
                pkg.rank
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn tridiag(n: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
            }
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn tridiag_neighbors_only() {
        let a = tridiag(12);
        let part = Partition::block(12, 4);
        let pkgs = build_comm_pkgs(&a, &part);
        validate_comm_pkgs(&pkgs);
        // middle rank talks to both neighbors
        assert_eq!(pkgs[1].recvs.len(), 2);
        assert_eq!(pkgs[1].sends.len(), 2);
        assert_eq!(pkgs[1].recvs[0], (0, vec![2]));
        assert_eq!(pkgs[1].recvs[1], (2, vec![6]));
        // end ranks talk to one neighbor
        assert_eq!(pkgs[0].n_partners(), 1);
        assert_eq!(pkgs[3].n_partners(), 1);
    }

    #[test]
    fn direct_and_from_parts_agree_on_the_generators() {
        use crate::gen::diffusion::paper_problem;
        use crate::gen::laplace::{laplace_2d_9pt, laplace_3d_27pt};
        for (a, p) in [
            (paper_problem(32, 16), 12),
            (laplace_2d_9pt(17, 9), 5),
            (laplace_3d_27pt(6, 5, 4), 7),
            (tridiag(3), 6), // ranks without rows
        ] {
            let part = Partition::block(a.n_rows(), p);
            let pkgs = build_comm_pkgs(&a, &part);
            validate_comm_pkgs(&pkgs);
            let pars = ParCsr::split_all(&a, &part);
            assert_eq!(pkgs, build_comm_pkgs_from_parts(&pars, p));
        }
    }

    #[test]
    fn send_recv_sizes_balance_globally() {
        let a = tridiag(30);
        let part = Partition::block(30, 7);
        let pkgs = build_comm_pkgs(&a, &part);
        let total_sent: usize = pkgs.iter().map(CommPkg::send_size).sum();
        let total_recvd: usize = pkgs.iter().map(CommPkg::recv_size).sum();
        assert_eq!(total_sent, total_recvd);
        assert!(total_sent > 0);
    }

    #[test]
    fn sends_contain_only_owned_indices() {
        let a = tridiag(20);
        let part = Partition::block(20, 5);
        let pkgs = build_comm_pkgs(&a, &part);
        for pkg in &pkgs {
            let range = part.range(pkg.rank);
            for (_, idx) in &pkg.sends {
                assert!(idx.iter().all(|i| range.contains(i)));
            }
        }
    }

    #[test]
    fn empty_ranks_have_empty_pkgs() {
        let a = tridiag(3);
        let part = Partition::block(3, 6);
        let pkgs = build_comm_pkgs(&a, &part);
        validate_comm_pkgs(&pkgs);
        for pkg in &pkgs[3..] {
            assert_eq!(pkg.recv_size() + pkg.send_size(), 0);
        }
    }
}
