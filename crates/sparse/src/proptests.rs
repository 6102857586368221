//! Property-based tests for the sparse substrate.

use crate::coo::Coo;
use crate::csr::Csr;
use crate::gen::{
    apply_stencil_2d, apply_stencil_3d, diffusion::paper_problem, diffusion_stencil_7pt,
    laplace_2d_5pt, laplace_2d_9pt, laplace_3d_27pt, Stencil2d,
};
use crate::partition::Partition;
use crate::spgemm::spgemm;
use crate::vector::random_vec;
use crate::{build_comm_pkgs, commpkg::validate_comm_pkgs, ChunkedBlock, ParCsr};
use proptest::prelude::*;

/// Strategy: a random COO matrix with bounded shape.
fn arb_coo(max_n: usize, max_nnz: usize) -> impl Strategy<Value = Coo> {
    (1..max_n, 1..max_n).prop_flat_map(move |(r, c)| {
        prop::collection::vec((0..r, 0..c, -10.0f64..10.0), 0..max_nnz).prop_map(move |entries| {
            let mut coo = Coo::new(r, c);
            for (i, j, v) in entries {
                coo.push(i, j, v);
            }
            coo
        })
    })
}

/// The triplet assembly the stencil generators replaced: every in-grid
/// entry of every row as a COO triplet, in entry order, then
/// `Csr::from_coo` sorts and merges each row.
fn triplet_stencil(entries: &[(i32, i32, i32, f64)], nx: usize, ny: usize, nz: usize) -> Csr {
    let n = nx * ny * nz;
    let mut coo = Coo::new(n, n);
    for z in 0..nz as i64 {
        for y in 0..ny as i64 {
            for x in 0..nx as i64 {
                let row = ((z * ny as i64 + y) * nx as i64 + x) as usize;
                for &(dx, dy, dz, c) in entries {
                    let (xx, yy, zz) = (x + dx as i64, y + dy as i64, z + dz as i64);
                    if (0..nx as i64).contains(&xx)
                        && (0..ny as i64).contains(&yy)
                        && (0..nz as i64).contains(&zz)
                    {
                        coo.push(row, ((zz * ny as i64 + yy) * nx as i64 + xx) as usize, c);
                    }
                }
            }
        }
    }
    Csr::from_coo(&coo)
}

/// `a` and `b` have the same shape, structure and value bits.
fn assert_bit_identical(a: &Csr, b: &Csr) {
    assert_eq!((a.n_rows(), a.n_cols()), (b.n_rows(), b.n_cols()));
    assert_eq!(a.rowptr(), b.rowptr());
    assert_eq!(a.colind(), b.colind());
    let bits = |m: &Csr| m.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(a), bits(b));
}

/// Strategy: a stencil with offsets in −3..=3 on x and y and in `dz` on
/// z, so some reach past the 1–4 wide grids below, and at most one offset
/// repeated (with a coefficient of its own, at a random position): past two
/// entries at one position `from_coo`'s summation order is unspecified.
fn arb_stencil(dz: std::ops::Range<i32>) -> impl Strategy<Value = Vec<(i32, i32, i32, f64)>> {
    let entry = (-3i32..4, -3i32..4, dz, -10.0f64..10.0);
    (
        prop::collection::vec(entry, 1..12),
        any::<bool>(),
        0usize..16,
        -10.0f64..10.0,
    )
        .prop_map(|(raw, repeat, pick, c)| {
            let mut entries: Vec<(i32, i32, i32, f64)> = Vec::new();
            for e in raw {
                if !entries.iter().any(|f| (f.0, f.1, f.2) == (e.0, e.1, e.2)) {
                    entries.push(e);
                }
            }
            if repeat {
                let (dx, dy, dz, _) = entries[pick % entries.len()];
                entries.insert(pick % (entries.len() + 1), (dx, dy, dz, c));
            }
            entries
        })
}

/// The paper problem and the Laplacians at their unit-test sizes are
/// bit-identical to the triplet assembly of their stencils.
#[test]
fn generators_match_triplet_assembly() {
    let pt7 = diffusion_stencil_7pt(0.001, std::f64::consts::FRAC_PI_4);
    let pt7: Vec<_> = pt7
        .entries
        .iter()
        .map(|&(dx, dy, c)| (dx, dy, 0, c))
        .collect();
    for (nx, ny) in [(64, 32), (16, 12)] {
        assert_bit_identical(&paper_problem(nx, ny), &triplet_stencil(&pt7, nx, ny, 1));
    }
    let cube = |r: i32, centre: f64| {
        let mut entries = Vec::new();
        for dz in -r..=r {
            for dy in -1..=1 {
                for dx in -1..=1 {
                    let c = if (dx, dy, dz) == (0, 0, 0) {
                        centre
                    } else {
                        -1.0
                    };
                    entries.push((dx, dy, dz, c));
                }
            }
        }
        entries
    };
    let mut pt5 = vec![(0, 0, 0, 4.0), (-1, 0, 0, -1.0), (1, 0, 0, -1.0)];
    pt5.extend([(0, -1, 0, -1.0), (0, 1, 0, -1.0)]);
    for (nx, ny) in [(4, 4), (6, 5)] {
        assert_bit_identical(&laplace_2d_5pt(nx, ny), &triplet_stencil(&pt5, nx, ny, 1));
    }
    for (nx, ny) in [(5, 5), (6, 5)] {
        assert_bit_identical(
            &laplace_2d_9pt(nx, ny),
            &triplet_stencil(&cube(0, 8.0), nx, ny, 1),
        );
    }
    for (nx, ny, nz) in [(3, 3, 3), (3, 4, 2)] {
        let a = laplace_3d_27pt(nx, ny, nz);
        assert_bit_identical(&a, &triplet_stencil(&cube(1, 26.0), nx, ny, nz));
    }
}

/// A value, often a signed zero.
fn arb_val() -> impl Strategy<Value = f64> {
    (0usize..8, -10.0f64..10.0).prop_map(|(k, v)| match k {
        0 => -0.0,
        1 => 0.0,
        _ => v,
    })
}

/// An operand value: often a signed zero, sometimes ±inf or NaN.
fn arb_x() -> impl Strategy<Value = f64> {
    (0usize..10, -10.0f64..10.0).prop_map(|(k, v)| match k {
        0 => -0.0,
        1 => 0.0,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => f64::NAN,
        _ => v,
    })
}

/// A random split of one rank's rows as CSR: a `rows × rows` diag block
/// and a `rows × ghosts` offd block (`ghosts` may be 0), `rows` often not
/// a multiple of 4, any row of either possibly empty and one row of each
/// possibly full, so longer than the other rows of its chunk, with
/// operands for both.
fn arb_split() -> impl Strategy<Value = (Csr, Csr, Vec<f64>, Vec<f64>)> {
    (1usize..12, 0usize..5).prop_flat_map(|(rows, ghosts)| {
        let block = move |cols: usize| {
            let entries = prop::collection::vec((0..rows, 0..cols.max(1), arb_val()), 0..3 * rows);
            let full = (any::<bool>(), 0..rows, arb_val());
            (entries, full).prop_map(move |(entries, (fill, row, v))| {
                let mut coo = Coo::new(rows, cols);
                for (r, c, v) in entries.into_iter().filter(|_| cols > 0) {
                    coo.push(r, c, v);
                }
                for c in (0..cols).filter(|_| fill) {
                    coo.push(row, c, v);
                }
                Csr::from_coo(&coo)
            })
        };
        let x = |n: usize| prop::collection::vec(arb_x(), n);
        (block(rows), block(ghosts), x(rows), x(ghosts))
    })
}

/// The split of `arb_split` as a `ParCsr`.
fn par_of(diag: &Csr, offd: &Csr) -> ParCsr {
    let rows = diag.n_rows();
    ParCsr {
        part: Partition::block(rows, 1),
        rank: 0,
        diag: ChunkedBlock::from_csr(diag),
        offd: ChunkedBlock::from_csr(offd),
        col_map_offd: (rows..rows + offd.n_cols()).collect(),
        global_cols: rows + offd.n_cols(),
    }
}

/// The product as two CSR passes: `diag` into `y`, then `offd` added on.
fn two_pass(par: &ParCsr, xl: &[f64], xg: &[f64]) -> Vec<f64> {
    let mut y = par.diag.to_csr().spmv(xl);
    par.offd.to_csr().spmv_add_into(xg, &mut y);
    y
}

/// The values' bits, every NaN as `f64::NAN`'s. Which NaN a sum of two
/// NaNs returns is not the source's to fix: IEEE 754 leaves it open, x86
/// returns the first operand, and the compiler may commute an addition
/// (here `y += acc` comes out as `acc + y`). So a NaN must meet a NaN,
/// and every other value its exact bits.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter()
        .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
        .collect()
}

proptest! {
    /// Direct stencil assembly is bit-identical to the triplet assembly,
    /// in 3-D and in 2-D.
    #[test]
    fn stencil_assembly_matches_triplets(
        e3 in arb_stencil(-3..4),
        e2 in arb_stencil(0..1),
        (nx, ny, nz) in (1usize..5, 1usize..5, 1usize..5),
    ) {
        let a = apply_stencil_3d(&e3, nx, ny, nz);
        assert_bit_identical(&a, &triplet_stencil(&e3, nx, ny, nz));
        let st = Stencil2d::new(e2.iter().map(|&(dx, dy, _, c)| (dx, dy, c)).collect());
        assert_bit_identical(&apply_stencil_2d(&st, nx, ny), &triplet_stencil(&e2, nx, ny, 1));
    }

    /// CSR from COO agrees with a dense accumulation.
    #[test]
    fn from_coo_matches_dense(coo in arb_coo(12, 60)) {
        let m = Csr::from_coo(&coo);
        let mut dense = vec![vec![0.0f64; coo.n_cols]; coo.n_rows];
        for &(r, c, v) in &coo.entries {
            dense[r][c] += v;
        }
        let md = m.to_dense();
        for r in 0..coo.n_rows {
            for c in 0..coo.n_cols {
                prop_assert!((md[r][c] - dense[r][c]).abs() < 1e-10);
            }
        }
    }

    /// Double transpose is the identity.
    #[test]
    fn transpose_involution(coo in arb_coo(15, 80)) {
        let m = Csr::from_coo(&coo);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    /// Adjoint identity: ⟨A x, y⟩ = ⟨x, Aᵀ y⟩, with Aᵀy computed both ways.
    #[test]
    fn spmv_transpose_adjoint(coo in arb_coo(12, 60), sx in 0u64..100, sy in 0u64..100) {
        let m = Csr::from_coo(&coo);
        let x = random_vec(m.n_cols(), sx);
        let y = random_vec(m.n_rows(), sy);
        let ax_y: f64 = m.spmv(&x).iter().zip(&y).map(|(a, b)| a * b).sum();
        let aty = m.spmv_transpose(&y);
        let x_aty: f64 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();
        prop_assert!((ax_y - x_aty).abs() < 1e-9 * (1.0 + ax_y.abs()));
        // and agrees with materialized transpose
        let aty2 = m.transpose().spmv(&y);
        for (a, b) in aty.iter().zip(&aty2) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    /// SpMV agrees with the dense product.
    #[test]
    fn spmv_matches_dense(coo in arb_coo(10, 50), seed in 0u64..1000) {
        let m = Csr::from_coo(&coo);
        let x = random_vec(m.n_cols(), seed);
        let y = m.spmv(&x);
        let d = m.to_dense();
        for r in 0..m.n_rows() {
            let expect: f64 = d[r].iter().zip(&x).map(|(a, b)| a * b).sum();
            prop_assert!((y[r] - expect).abs() < 1e-9);
        }
    }

    /// SpGEMM agrees with the dense product.
    #[test]
    fn spgemm_matches_dense(a in arb_coo(8, 40), b_entries in prop::collection::vec((0usize..8, 0usize..8, -5.0f64..5.0), 0..40)) {
        let ma = Csr::from_coo(&a);
        let mut bcoo = Coo::new(ma.n_cols(), 8);
        for (i, j, v) in b_entries {
            if i < ma.n_cols() {
                bcoo.push(i, j, v);
            }
        }
        let mb = Csr::from_coo(&bcoo);
        let mc = spgemm(&ma, &mb);
        let da = ma.to_dense();
        let db = mb.to_dense();
        let dc = mc.to_dense();
        for r in 0..ma.n_rows() {
            for c in 0..mb.n_cols() {
                let expect: f64 = (0..ma.n_cols()).map(|k| da[r][k] * db[k][c]).sum();
                prop_assert!((dc[r][c] - expect).abs() < 1e-9, "mismatch at ({r},{c})");
            }
        }
    }

    /// Partition owner is consistent and blocks tile the row space.
    #[test]
    fn partition_tiles(n in 1usize..200, p in 1usize..40) {
        let part = Partition::block(n, p);
        prop_assert_eq!(part.n_rows(), n);
        let total: usize = (0..p).map(|r| part.local_size(r)).sum();
        prop_assert_eq!(total, n);
        for row in 0..n {
            prop_assert!(part.range(part.owner(row)).contains(&row));
        }
    }

    /// Distributed SpMV over ParCsr pieces equals the serial SpMV, and the
    /// comm packages are globally consistent, for random square matrices.
    #[test]
    fn parcsr_spmv_and_pkgs_consistent(coo in arb_coo(16, 100), p in 1usize..7, seed in 0u64..100) {
        // square-ify
        let n = coo.n_rows.max(coo.n_cols);
        let mut sq = Coo::new(n, n);
        for &(r, c, v) in &coo.entries {
            sq.push(r, c, v);
        }
        // ensure nonzero diagonal so every row exists
        for i in 0..n {
            sq.push(i, i, 1.0);
        }
        let a = Csr::from_coo(&sq);
        let part = Partition::block(n, p);
        let pkgs = build_comm_pkgs(&a, &part);
        validate_comm_pkgs(&pkgs);
        let x = random_vec(n, seed);
        let serial = a.spmv(&x);
        for rank in 0..p {
            let par = ParCsr::from_global(&a, &part, rank);
            let xl = &x[part.range(rank)];
            let xg: Vec<f64> = par.col_map_offd.iter().map(|&c| x[c]).collect();
            let y = par.spmv(xl, &xg);
            let expect = &serial[part.range(rank)];
            for (a, b) in y.iter().zip(expect) {
                prop_assert!((a - b).abs() < 1e-9);
            }
            // ghost columns of the ParCsr are exactly the union of recv idx
            let mut recv_all: Vec<usize> =
                pkgs[rank].recvs.iter().flat_map(|(_, v)| v.iter().copied()).collect();
            recv_all.sort_unstable();
            prop_assert_eq!(recv_all, par.col_map_offd.clone());
        }
    }

    /// `ParCsr::spmv` and `spmv_into` run a chunk at a time, bit for bit
    /// the two-pass CSR product on random splits: empty rows, rows longer
    /// than the rest of their chunk, a last chunk short of 4 rows, no
    /// ghosts, signed zeros in the matrix and in both operands, and ±inf
    /// and NaN in the operands (bits compared, a NaN against a NaN). The
    /// chunks hold exactly the CSR they came from, and `nnz` counts its
    /// entries.
    #[test]
    fn one_pass_spmv_matches_two_pass_bit_for_bit((diag, offd, xl, xg) in arb_split()) {
        let par = par_of(&diag, &offd);
        let mut want = diag.spmv(&xl);
        offd.spmv_add_into(&xg, &mut want);
        prop_assert_eq!(bits(&par.spmv(&xl, &xg)), bits(&want));
        // no row sums to f64::MAX, so a row left unwritten shows
        let mut y = vec![f64::MAX; par.local_rows()];
        par.spmv_into(&xl, &xg, &mut y);
        prop_assert_eq!(bits(&y), bits(&want));
        assert_bit_identical(&par.diag.to_csr(), &diag);
        assert_bit_identical(&par.offd.to_csr(), &offd);
        prop_assert_eq!((par.diag.nnz(), par.offd.nnz()), (diag.nnz(), offd.nnz()));
    }

    /// The same on whole matrices split by `from_global`: balanced blocks,
    /// one rank (no ghosts) and ranks with no rows. Each rank's blocks hold
    /// its rows of the matrix entry for entry.
    #[test]
    fn one_pass_spmv_matches_two_pass_after_from_global(
        entries in prop::collection::vec((0usize..14, 0usize..14, arb_val()), 0..60),
        n in 1usize..14,
        p in 1usize..8,
        x in prop::collection::vec(arb_x(), 14),
    ) {
        let mut coo = Coo::new(n, n);
        for (r, c, v) in entries.into_iter().filter(|&(r, c, _)| r < n && c < n) {
            coo.push(r, c, v);
        }
        let a = Csr::from_coo(&coo);
        let part = Partition::block(n, p);
        for rank in 0..p {
            let par = ParCsr::from_global(&a, &part, rank);
            let range = part.range(rank);
            let (diag, offd) = (par.diag.to_csr(), par.offd.to_csr());
            prop_assert_eq!(par.diag.nnz() + par.offd.nnz(), a.row_slice(range.clone()).nnz());
            for (i, r) in range.clone().enumerate() {
                let mut row: Vec<(usize, u64)> = diag.row(i).0.iter().map(|&c| c + range.start)
                    .chain(offd.row(i).0.iter().map(|&c| par.col_map_offd[c]))
                    .zip(diag.row(i).1.iter().chain(offd.row(i).1).map(|v| v.to_bits()))
                    .collect();
                row.sort_unstable();
                let (cols, vals) = a.row(r);
                prop_assert_eq!(row, cols.iter().copied().zip(bits(vals)).collect::<Vec<_>>());
            }
            let xl = &x[range];
            let xg: Vec<f64> = par.col_map_offd.iter().map(|&c| x[c]).collect();
            prop_assert_eq!(bits(&par.spmv(xl, &xg)), bits(&two_pass(&par, xl, &xg)));
        }
    }
}
