//! Differential tests for the fused FDTD step kernel.
//!
//! The reference below is a frozen copy of the original per-cell time
//! loop: a bounds-checked stencil with a runtime coefficient loop, an
//! explicit free-surface zeroing pass and a full-grid Cerjan damping pass
//! over both time levels. The fused row kernel must reproduce it bit for
//! bit — gathers and snapshots compared through `to_bits` — on the
//! dispatched row body (AVX2 where the CPU has it) and on the portable
//! one, for every stencil order, sponge, model and acquisition geometry.

use proptest::prelude::*;
use qugeo_tensor::{Array2, Array3};
use qugeo_wavesim::{
    model_shots, Grid, RickerWavelet, Solver, SpaceOrder, SpongeBoundary, Survey, WavefieldSnapshot,
};

/// One shot: the model, its discretisation and the acquisition.
struct Shot {
    velocity: Array2,
    grid: Grid,
    order: SpaceOrder,
    sponge: SpongeBoundary,
    source: (usize, usize),
    receivers: Vec<(usize, usize)>,
    wavelet: RickerWavelet,
    snapshot_every: usize,
}

/// The original solver: padded set-up as in `Solver::new`, then three
/// passes per step.
fn reference_shot(shot: &Shot) -> (Array2, Vec<WavefieldSnapshot>) {
    let Shot {
        velocity,
        grid,
        order,
        sponge,
        source,
        receivers,
        wavelet,
        snapshot_every,
    } = shot;
    let (source, snapshot_every) = (*source, *snapshot_every);
    let halo = order.half_width();
    let side = sponge.width() + halo;
    let (off_x, off_z) = (side, halo);
    let nx_pad = grid.nx() + 2 * side;
    let nz_pad = grid.nz() + halo + side;

    let dt2 = grid.dt() * grid.dt();
    let mut vel2dt2 = vec![0.0; nx_pad * nz_pad];
    for iz in 0..nz_pad {
        let src_z = iz.saturating_sub(off_z).min(grid.nz() - 1);
        for ix in 0..nx_pad {
            let src_x = ix.saturating_sub(off_x).min(grid.nx() - 1);
            let c = velocity[(src_z, src_x)];
            vel2dt2[iz * nx_pad + ix] = c * c * dt2;
        }
    }
    let mut damping = vec![1.0; nx_pad * nz_pad];
    let sponge_nx = nx_pad - 2 * halo;
    let sponge_nz = nz_pad - 2 * halo;
    for iz in 0..nz_pad {
        let sz = iz.saturating_sub(halo).min(sponge_nz - 1);
        for ix in 0..nx_pad {
            let sx = ix.saturating_sub(halo).min(sponge_nx - 1);
            damping[iz * nx_pad + ix] = sponge.factor(sx, sz, sponge_nx, sponge_nz);
        }
    }

    let n = nx_pad * nz_pad;
    let mut p_prev = vec![0.0; n];
    let mut p_cur = vec![0.0; n];
    let mut p_next = vec![0.0; n];
    let src_idx = (source.1 + off_z) * nx_pad + (source.0 + off_x);
    let rec_idx: Vec<usize> = receivers
        .iter()
        .map(|&(ix, iz)| (iz + off_z) * nx_pad + (ix + off_x))
        .collect();
    let coeffs = order.coefficients();
    let inv_dx2 = 1.0 / (grid.dx() * grid.dx());

    let nt = grid.nt();
    let mut gather = Array2::zeros(nt, receivers.len());
    let mut snapshots = Vec::new();
    for step in 0..nt {
        for iz in halo..nz_pad - halo {
            let row = iz * nx_pad;
            for ix in halo..nx_pad - halo {
                let idx = row + ix;
                let centre = p_cur[idx];
                let mut lap = 2.0 * coeffs[0] * centre;
                for (k, &a) in coeffs.iter().enumerate().skip(1) {
                    lap += a
                        * (p_cur[idx - k]
                            + p_cur[idx + k]
                            + p_cur[idx - k * nx_pad]
                            + p_cur[idx + k * nx_pad]);
                }
                lap *= inv_dx2;
                p_next[idx] = 2.0 * centre - p_prev[idx] + vel2dt2[idx] * lap;
            }
        }
        p_next[src_idx] += wavelet.sample(step) * vel2dt2[src_idx] * inv_dx2;
        for iz in 0..halo {
            let row = iz * nx_pad;
            for ix in 0..nx_pad {
                p_next[row + ix] = 0.0;
            }
        }
        for idx in 0..n {
            let d = damping[idx];
            if d != 1.0 {
                p_next[idx] *= d;
                p_cur[idx] *= d;
            }
        }
        for (r, &idx) in rec_idx.iter().enumerate() {
            gather[(step, r)] = p_next[idx];
        }
        if snapshot_every != usize::MAX && snapshot_every > 0 && step % snapshot_every == 0 {
            snapshots.push(WavefieldSnapshot {
                step,
                pressure: Array2::from_fn(grid.nz(), grid.nx(), |iz, ix| {
                    p_next[(iz + off_z) * nx_pad + (ix + off_x)]
                }),
            });
        }
        std::mem::swap(&mut p_prev, &mut p_cur);
        std::mem::swap(&mut p_cur, &mut p_next);
    }
    (gather, snapshots)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn assert_bit_identical(
    what: &str,
    got: &(Array2, Vec<WavefieldSnapshot>),
    want: &(Array2, Vec<WavefieldSnapshot>),
) {
    assert_eq!(got.0.shape(), want.0.shape(), "{what}: gather shape");
    assert!(
        bits(got.0.as_slice()) == bits(want.0.as_slice()),
        "{what}: gather differs from the reference"
    );
    assert_eq!(got.1.len(), want.1.len(), "{what}: snapshot count");
    for (g, w) in got.1.iter().zip(&want.1) {
        assert_eq!(g.step, w.step, "{what}: snapshot step");
        assert!(
            bits(g.pressure.as_slice()) == bits(w.pressure.as_slice()),
            "{what}: snapshot at step {} differs from the reference",
            g.step
        );
    }
}

/// A layered model: `boundaries` are depth fractions, velocities grow
/// with depth from `v_top` in FlatVelA's 1500–4500 m/s range.
fn layered(nx: usize, nz: usize, boundaries: &[f64], v_top: f64, step: f64) -> Array2 {
    Array2::from_fn(nz, nx, |z, _| {
        let depth = z as f64 / nz as f64;
        let layer = boundaries.iter().filter(|&&b| depth >= b).count();
        (v_top + step * layer as f64).min(4500.0)
    })
}

const ORDERS: [SpaceOrder; 3] = [SpaceOrder::Order2, SpaceOrder::Order4, SpaceOrder::Order8];
const SPONGE_WIDTHS: [usize; 3] = [0, 1, 20];
const SPONGE_STRENGTHS: [f64; 2] = [0.0, 3.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_kernel_matches_reference_bitwise(
        (order_i, width_i, strength_i) in (0usize..3, 0usize..3, 0usize..2),
        (nx, nz, nt) in (7usize..42, 5usize..30, 1usize..90),
        (boundaries, v_top, v_step) in (
            prop::collection::vec(0.05f64..0.95, 0..4),
            1500.0f64..3000.0,
            0.0f64..800.0,
        ),
        (src, recs) in (
            (0.0f64..1.0, 0.0f64..1.0),
            prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..6),
        ),
        snapshot_every in (0usize..4).prop_map(|s| [usize::MAX, 0, 1, 7][s]),
    ) {
        let order = ORDERS[order_i];
        let sponge = SpongeBoundary::new(SPONGE_WIDTHS[width_i], SPONGE_STRENGTHS[strength_i]);
        // 1 ms steps keep 4500 m/s on 10 m cells inside every order's CFL limit.
        let grid = Grid::new(nx, nz, 10.0, 0.001, nt).expect("grid");
        let cell = |(fx, fz): (f64, f64)| {
            ((fx * nx as f64) as usize, (fz * nz as f64) as usize)
        };
        let shot = Shot {
            velocity: layered(nx, nz, &boundaries, v_top, v_step),
            grid,
            order,
            sponge,
            source: cell(src),
            receivers: recs.into_iter().map(cell).collect(),
            wavelet: RickerWavelet::new(25.0, grid.dt()).expect("wavelet"),
            snapshot_every,
        };
        let case = format!(
            "{order:?} {nx}x{nz}x{nt} sponge {:?} src {:?}", shot.sponge, shot.source
        );
        let solver = Solver::new(&shot.velocity, &grid, order, shot.sponge.clone())
            .expect("solver");
        let want = reference_shot(&shot);
        let dispatched = solver
            .run_shot_with_snapshots(shot.source, &shot.wavelet, &shot.receivers, snapshot_every)
            .expect("dispatched shot");
        let portable = solver
            .run_shot_with_snapshots_portable(
                shot.source, &shot.wavelet, &shot.receivers, snapshot_every,
            )
            .expect("portable shot");
        assert_bit_identical(&format!("dispatched, {case}"), &dispatched, &want);
        assert_bit_identical(&format!("portable, {case}"), &portable, &want);
    }
}

/// The OpenFWI geometry the experiments synthesise: 70 × 70 cells, 1000
/// steps, 5 surface sources, 70 receivers, 4th-order stencil, default
/// sponge — the `model_shots` cube, shot by shot against the reference.
#[test]
fn paper_geometry_cube_matches_reference_bitwise() {
    let grid = Grid::openfwi_default();
    let survey = Survey::openfwi_default();
    let wavelet = RickerWavelet::new(15.0, grid.dt()).expect("wavelet");
    let velocity = layered(70, 70, &[0.18, 0.41, 0.63, 0.85], 1900.0, 550.0);
    let cube: Array3 =
        model_shots(&velocity, &grid, &survey, &wavelet, SpaceOrder::Order4).expect("cube");
    assert_eq!(cube.shape(), (5, 1000, 70));
    for (s, &source) in survey.sources().iter().enumerate() {
        let (want, _) = reference_shot(&Shot {
            velocity: velocity.clone(),
            grid,
            order: SpaceOrder::Order4,
            sponge: SpongeBoundary::default(),
            source,
            receivers: survey.receivers().to_vec(),
            wavelet,
            snapshot_every: usize::MAX,
        });
        assert!(
            bits(cube.slice(s).as_slice()) == bits(want.as_slice()),
            "shot {s} of the paper-geometry cube differs from the reference"
        );
    }
}
