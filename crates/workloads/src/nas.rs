//! NAS Parallel Benchmark communication skeletons.
//!
//! The paper evaluates HydEE on six class-D NAS benchmarks over 256
//! processes (Table I, Figure 6). We reproduce each benchmark's
//! *communication skeleton*: the per-iteration point-to-point/collective
//! pattern of the kernel, with message sizes calibrated so that at
//! `size_scale = 1.0` the total bytes moved match the paper's Table I
//! totals (BT 791 GB, CG 2318 GB, FT 860 GB, LU 337 GB, MG 66 GB,
//! SP 1446 GB). Experiments default to a smaller `size_scale` — byte
//! *ratios* (Table I) are scale-invariant, and `EXPERIMENTS.md` records
//! the scale used.
//!
//! Pattern sources (communication structure only):
//!
//! * **BT/SP** — square process grid, directional sweeps exchanging faces
//!   with torus neighbours (BT adds the two diagonal partners of its
//!   multipartition scheme).
//! * **CG** — rows of a square grid perform recursive-halving exchanges
//!   (`log2(cols)` stages) plus one transpose-partner exchange: exactly
//!   the structure that makes row-clusters log ~19 % (Table I).
//! * **FT** — a global all-to-all transpose each iteration: any
//!   bipartition logs ~50 %, which is why the paper's tool stops at two
//!   clusters.
//! * **LU** — pipelined wavefront sweeps with *small* messages (the
//!   benchmark that stresses per-message overhead) plus per-iteration
//!   halo exchanges.
//! * **MG** — V-cycles on a 3D grid with face exchanges shrinking by
//!   level.

use crate::grid::{Grid2D, Grid3D};
use det_sim::SimDuration;
use mps_sim::collectives;
use mps_sim::{Application, Rank, Tag};
use serde::Serialize;

/// Which NAS benchmark skeleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum NasBench {
    BT,
    CG,
    FT,
    LU,
    MG,
    SP,
}

impl NasBench {
    pub fn all() -> [NasBench; 6] {
        [
            NasBench::BT,
            NasBench::CG,
            NasBench::FT,
            NasBench::LU,
            NasBench::MG,
            NasBench::SP,
        ]
    }

    pub fn name(&self) -> &'static str {
        match self {
            NasBench::BT => "BT",
            NasBench::CG => "CG",
            NasBench::FT => "FT",
            NasBench::LU => "LU",
            NasBench::MG => "MG",
            NasBench::SP => "SP",
        }
    }

    /// Inverse of [`NasBench::name`] (case-insensitive).
    pub fn from_name(name: &str) -> Option<NasBench> {
        NasBench::all()
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(name))
    }

    /// Cluster count the paper's tool chose on 256 processes (Table I).
    pub fn paper_clusters(&self) -> usize {
        match self {
            NasBench::BT => 5,
            NasBench::CG => 16,
            NasBench::FT => 2,
            NasBench::LU => 8,
            NasBench::MG => 4,
            NasBench::SP => 6,
        }
    }

    /// Paper's Table I: % of processes rolled back on a single failure.
    pub fn paper_rollback_pct(&self) -> f64 {
        match self {
            NasBench::BT => 21.78,
            NasBench::CG => 6.25,
            NasBench::FT => 50.0,
            NasBench::LU => 12.5,
            NasBench::MG => 25.0,
            NasBench::SP => 18.56,
        }
    }

    /// Paper's Table I: % of bytes logged under its clustering.
    pub fn paper_logged_pct(&self) -> f64 {
        match self {
            NasBench::BT => 18.09,
            NasBench::CG => 18.98,
            NasBench::FT => 50.19,
            NasBench::LU => 13.26,
            NasBench::MG => 19.63,
            NasBench::SP => 20.04,
        }
    }

    /// Paper's Table I: total data moved in GB (class D, 256 ranks).
    pub fn paper_total_gb(&self) -> f64 {
        match self {
            NasBench::BT => 791.0,
            NasBench::CG => 2318.0,
            NasBench::FT => 860.0,
            NasBench::LU => 337.0,
            NasBench::MG => 66.0,
            NasBench::SP => 1446.0,
        }
    }

    /// Calibrated configuration for `n_ranks = 256`; `size_scale` shrinks
    /// large-message sizes (and compute) for tractable simulation while
    /// preserving byte ratios and message counts.
    pub fn paper_config(&self, size_scale: f64) -> NasConfig {
        let (iterations, compute_ms) = match self {
            NasBench::BT => (40, 250.0),
            NasBench::CG => (75, 150.0),
            NasBench::FT => (25, 300.0),
            NasBench::LU => (50, 260.0),
            NasBench::MG => (20, 60.0),
            NasBench::SP => (100, 110.0),
        };
        NasConfig {
            n_ranks: 256,
            iterations,
            size_scale,
            compute_per_iter: SimDuration::from_us_f64(compute_ms * 1000.0 * size_scale),
        }
    }

    /// Build the skeleton application: one iteration built op by op,
    /// then repeated lazily `cfg.iterations` times. Every NAS skeleton's
    /// iterations are op-identical, so its program is one iteration's
    /// ops plus a repeat count — memory O(pattern), not
    /// O(pattern × iterations).
    pub fn build(&self, cfg: &NasConfig) -> Application {
        let iter = match self {
            NasBench::BT => bt_iter,
            NasBench::CG => cg_iter,
            NasBench::FT => ft_iter,
            NasBench::LU => lu_iter,
            NasBench::MG => mg_iter,
            NasBench::SP => sp_iter,
        };
        let mut app = Application::new(cfg.n_ranks);
        iter(cfg, &mut app);
        app.repeated(cfg.iterations)
    }
}

/// Skeleton generation parameters.
#[derive(Debug, Clone)]
pub struct NasConfig {
    pub n_ranks: usize,
    pub iterations: usize,
    /// Multiplies the calibrated (paper-volume) large-message sizes.
    pub size_scale: f64,
    /// Local computation inserted once per iteration per rank.
    pub compute_per_iter: SimDuration,
}

impl NasConfig {
    /// Small configuration for tests.
    pub fn test(n_ranks: usize, iterations: usize) -> Self {
        NasConfig {
            n_ranks,
            iterations,
            size_scale: 1e-4,
            compute_per_iter: SimDuration::from_us(10),
        }
    }
}

fn scaled(base: f64, scale: f64) -> u64 {
    (base * scale).max(1.0).round() as u64
}

/// BT: square torus grid, per iteration three "sweeps" — E/W faces, N/S
/// faces, and the two diagonal multipartition partners. 6 sends per rank
/// per iteration. Calibration: 256 ranks x 6 x 40 iters x 12.87 MB
/// ~ 791 GB.
fn bt_iter(cfg: &NasConfig, app: &mut Application) {
    let g = Grid2D::squarest(cfg.n_ranks);
    let face = scaled(12.87e6, cfg.size_scale);
    for i in 0..cfg.n_ranks {
        app.rank_mut(Rank(i as u32)).compute(cfg.compute_per_iter);
    }
    for dir in 0..6usize {
        let (dr, dc) = [(0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (-1, -1)][dir];
        let tag = Tag(dir as u32);
        for i in 0..cfg.n_ranks {
            let me = Rank(i as u32);
            let to = g.torus_neighbor(me, dr, dc);
            if to != me {
                app.rank_mut(me).send(to, face, tag);
            }
        }
        for i in 0..cfg.n_ranks {
            let me = Rank(i as u32);
            let from = g.torus_neighbor(me, -dr, -dc);
            if from != me {
                app.rank_mut(me).recv(from, tag);
            }
        }
    }
}

/// SP: like BT but only the four axis neighbours and more, smaller
/// exchanges. Calibration: 256 x 4 x 100 x 14.12 MB ~ 1446 GB.
fn sp_iter(cfg: &NasConfig, app: &mut Application) {
    let g = Grid2D::squarest(cfg.n_ranks);
    let face = scaled(14.12e6, cfg.size_scale);
    for i in 0..cfg.n_ranks {
        app.rank_mut(Rank(i as u32)).compute(cfg.compute_per_iter);
    }
    for dir in 0..4usize {
        let (dr, dc) = [(0, 1), (0, -1), (1, 0), (-1, 0)][dir];
        let tag = Tag(dir as u32);
        for i in 0..cfg.n_ranks {
            let me = Rank(i as u32);
            let to = g.torus_neighbor(me, dr, dc);
            if to != me {
                app.rank_mut(me).send(to, face, tag);
            }
        }
        for i in 0..cfg.n_ranks {
            let me = Rank(i as u32);
            let from = g.torus_neighbor(me, -dr, -dc);
            if from != me {
                app.rank_mut(me).recv(from, tag);
            }
        }
    }
}

/// CG: rows of a square grid run `log2(cols)` recursive-halving exchange
/// stages plus one transpose-partner exchange per iteration. With
/// one-cluster-per-row partitioning only the transpose traffic crosses
/// clusters (~19 %, Table I). Calibration: 75 iters x 1264 msgs x
/// 24.45 MB ~ 2318 GB.
fn cg_iter(cfg: &NasConfig, app: &mut Application) {
    let g = Grid2D::squarest(cfg.n_ranks);
    let bytes = scaled(24.45e6, cfg.size_scale);
    let stages = (usize::BITS - 1 - g.cols.leading_zeros()) as usize;
    for i in 0..cfg.n_ranks {
        app.rank_mut(Rank(i as u32)).compute(cfg.compute_per_iter);
    }
    // Row-internal recursive halving (reduction of q = A.p slices).
    for stage in 0..stages {
        let tag = Tag(10 + stage as u32);
        for row in 0..g.rows {
            for col in 0..g.cols {
                let partner_col = col ^ (1 << stage);
                if partner_col < g.cols {
                    let me = g.rank(row, col);
                    let to = g.rank(row, partner_col);
                    app.rank_mut(me).send(to, bytes, tag);
                }
            }
        }
        for row in 0..g.rows {
            for col in 0..g.cols {
                let partner_col = col ^ (1 << stage);
                if partner_col < g.cols {
                    let me = g.rank(row, col);
                    let from = g.rank(row, partner_col);
                    app.rank_mut(me).recv(from, tag);
                }
            }
        }
    }
    // Transpose-partner exchange (inter-row).
    // Only index-transposable positions pair up; the pairing is an
    // involution so sends and receives balance.
    let tag = Tag(20);
    for row in 0..g.rows {
        for col in 0..g.cols {
            if row < g.cols && col < g.rows {
                let me = g.rank(row, col);
                let partner = g.rank(col, row);
                if partner != me {
                    app.rank_mut(me).send(partner, bytes, tag);
                }
            }
        }
    }
    for row in 0..g.rows {
        for col in 0..g.cols {
            if row < g.cols && col < g.rows {
                let me = g.rank(row, col);
                let partner = g.rank(col, row);
                if partner != me {
                    app.rank_mut(me).recv(partner, tag);
                }
            }
        }
    }
}

/// FT: one global all-to-all transpose per iteration — the pattern that
/// defeats clustering (any bipartition cuts half the traffic, hence the
/// paper's 2 clusters / 50 %). Calibration: 25 iters x 256x255 msgs x
/// 512 KiB ~ 860 GB (class D FT's transpose chunk on 256 ranks is
/// exactly 512 KiB).
fn ft_iter(cfg: &NasConfig, app: &mut Application) {
    let bytes = scaled(524_288.0, cfg.size_scale);
    let ranks: Vec<Rank> = (0..cfg.n_ranks as u32).map(Rank).collect();
    for i in 0..cfg.n_ranks {
        app.rank_mut(Rank(i as u32)).compute(cfg.compute_per_iter);
    }
    collectives::alltoall(app, &ranks, bytes, Tag(0));
}

/// LU: pipelined wavefront (SSOR) — the small-message benchmark. Each
/// iteration: `sweeps` lower-triangular waves (recv N,W / send S,E with
/// ~2 KiB pencils, *not* scaled: their smallness is the point) and the
/// mirrored upper waves, plus four larger halo exchanges. Calibration:
/// halo ~6.5 MB x 4 x 50 iters x 256 + small traffic ~ 337 GB.
fn lu_iter(cfg: &NasConfig, app: &mut Application) {
    let g = Grid2D::squarest(cfg.n_ranks);
    let pencil = 2048u64; // fixed: LU's wavefront messages are small
    let halo = scaled(6.5e6, cfg.size_scale);
    let sweeps = 4usize;
    for i in 0..cfg.n_ranks {
        app.rank_mut(Rank(i as u32)).compute(cfg.compute_per_iter);
    }
    for s in 0..sweeps {
        // Lower-triangular wave: flows from (0,0) to (R,C).
        let tag = Tag(30 + s as u32);
        for i in 0..cfg.n_ranks {
            let me = Rank(i as u32);
            if let Some(w) = g.neighbor(me, 0, -1) {
                app.rank_mut(me).recv(w, tag);
            }
            if let Some(n) = g.neighbor(me, -1, 0) {
                app.rank_mut(me).recv(n, tag);
            }
            if let Some(e) = g.neighbor(me, 0, 1) {
                app.rank_mut(me).send(e, pencil, tag);
            }
            if let Some(s2) = g.neighbor(me, 1, 0) {
                app.rank_mut(me).send(s2, pencil, tag);
            }
        }
        // Upper-triangular wave: flows back from (R,C) to (0,0).
        let tag = Tag(40 + s as u32);
        for i in (0..cfg.n_ranks).rev() {
            let me = Rank(i as u32);
            if let Some(e) = g.neighbor(me, 0, 1) {
                app.rank_mut(me).recv(e, tag);
            }
            if let Some(s2) = g.neighbor(me, 1, 0) {
                app.rank_mut(me).recv(s2, tag);
            }
            if let Some(w) = g.neighbor(me, 0, -1) {
                app.rank_mut(me).send(w, pencil, tag);
            }
            if let Some(n) = g.neighbor(me, -1, 0) {
                app.rank_mut(me).send(n, pencil, tag);
            }
        }
    }
    // Halo exchange of the four faces.
    let tag = Tag(50);
    for i in 0..cfg.n_ranks {
        let me = Rank(i as u32);
        for (dr, dc) in [(0, 1), (0, -1), (1, 0), (-1, 0)] {
            if let Some(nb) = g.neighbor(me, dr, dc) {
                app.rank_mut(me).send(nb, halo, tag);
            }
        }
    }
    for i in 0..cfg.n_ranks {
        let me = Rank(i as u32);
        for (dr, dc) in [(0, 1), (0, -1), (1, 0), (-1, 0)] {
            if let Some(nb) = g.neighbor(me, dr, dc) {
                app.rank_mut(me).recv(nb, tag);
            }
        }
    }
}

/// MG: V-cycles on a 3D grid; each level exchanges the six faces with
/// sizes shrinking 4x per level (areas), down then up. Calibration:
/// 20 iters x ~12 exchanges x 256 x geometric(808 KB) ~ 66 GB.
fn mg_iter(cfg: &NasConfig, app: &mut Application) {
    let g = pick_grid3d(cfg.n_ranks);
    let base = scaled(970e3, cfg.size_scale);
    let levels = 4usize;
    let dirs: [(isize, isize, isize); 6] = [
        (1, 0, 0),
        (-1, 0, 0),
        (0, 1, 0),
        (0, -1, 0),
        (0, 0, 1),
        (0, 0, -1),
    ];
    for i in 0..cfg.n_ranks {
        app.rank_mut(Rank(i as u32)).compute(cfg.compute_per_iter);
    }
    // Down the V then back up: level sizes base/4^l.
    let schedule: Vec<usize> = (0..levels).chain((0..levels).rev()).collect();
    for (step, &level) in schedule.iter().enumerate() {
        let bytes = (base >> (2 * level)).max(1);
        let tag = Tag(60 + step as u32);
        for i in 0..cfg.n_ranks {
            let me = Rank(i as u32);
            for &(dx, dy, dz) in &dirs {
                if let Some(nb) = g.neighbor(me, dx, dy, dz) {
                    app.rank_mut(me).send(nb, bytes, tag);
                }
            }
        }
        for i in 0..cfg.n_ranks {
            let me = Rank(i as u32);
            for &(dx, dy, dz) in &dirs {
                if let Some(nb) = g.neighbor(me, dx, dy, dz) {
                    app.rank_mut(me).recv(nb, tag);
                }
            }
        }
    }
}

/// Factor `n` into the most cubic 3D grid.
fn pick_grid3d(n: usize) -> Grid3D {
    let mut best = (1, 1, n);
    let mut best_score = usize::MAX;
    let mut x = 1;
    while x * x * x <= n {
        if n.is_multiple_of(x) {
            let rest = n / x;
            let mut y = x;
            while y * y <= rest {
                if rest.is_multiple_of(y) {
                    let z = rest / y;
                    let score = z - x; // minimise spread
                    if score < best_score {
                        best_score = score;
                        best = (x, y, z);
                    }
                }
                y += 1;
            }
        }
        x += 1;
    }
    Grid3D::new(best.0, best.1, best.2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sim::{NullProtocol, Sim, SimConfig};

    fn run_ok(app: Application) -> mps_sim::RunReport {
        assert!(app.check_balance().is_ok());
        let report = Sim::new(app, SimConfig::default(), NullProtocol).run();
        assert!(report.completed(), "{:?}", report.status);
        assert!(report.trace.is_consistent());
        report
    }

    #[test]
    fn all_skeletons_run_small() {
        for bench in NasBench::all() {
            let cfg = NasConfig::test(16, 2);
            let app = bench.build(&cfg);
            assert!(
                app.check_balance().is_ok(),
                "{}: {:?}",
                bench.name(),
                app.check_balance()
            );
            let report = Sim::new(app, SimConfig::default(), NullProtocol).run();
            assert!(report.completed(), "{}: {:?}", bench.name(), report.status);
        }
    }

    #[test]
    fn paper_volumes_match_table1() {
        // At size_scale = 1.0 each skeleton must move the paper's total
        // within 10%.
        for bench in NasBench::all() {
            let cfg = bench.paper_config(1.0);
            let app = bench.build(&cfg);
            let total_gb = app.total_bytes() as f64 / 1e9;
            let target = bench.paper_total_gb();
            let err = (total_gb - target).abs() / target;
            assert!(
                err < 0.10,
                "{}: built {total_gb:.0} GB, paper {target:.0} GB",
                bench.name()
            );
        }
    }

    #[test]
    fn ft_is_all_to_all() {
        let cfg = NasConfig::test(8, 1);
        let app = NasBench::FT.build(&cfg);
        // 8 ranks, 1 iteration: 8*7 messages.
        assert_eq!(app.total_messages(), 56);
    }

    #[test]
    fn lu_wavefront_pencils_stay_small() {
        let cfg = NasBench::LU.paper_config(0.01);
        let app = NasBench::LU.build(&cfg);
        // Wavefront messages must remain 2 KiB regardless of scale: their
        // smallness drives LU's piggyback overhead in Figure 6.
        let has_pencil = (0..app.n_ranks()).any(|r| {
            app.ops(Rank(r as u32))
                .any(|op| matches!(op, mps_sim::Op::Send { bytes, .. } if bytes == 2048))
        });
        assert!(has_pencil);
    }

    #[test]
    fn cg_transpose_crosses_rows() {
        let cfg = NasConfig::test(16, 1);
        let app = NasBench::CG.build(&cfg);
        run_ok(app);
    }

    #[test]
    fn skeletons_deterministic() {
        let cfg = NasConfig::test(16, 2);
        let a = run_ok(NasBench::BT.build(&cfg));
        let b = run_ok(NasBench::BT.build(&cfg));
        assert_eq!(a.digests, b.digests);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn grid3d_factorisation() {
        let g = pick_grid3d(256);
        assert_eq!(g.len(), 256);
        assert!(g.nx >= 4 && g.nz <= 8, "{}x{}x{}", g.nx, g.ny, g.nz);
        let g = pick_grid3d(8);
        assert_eq!((g.nx, g.ny, g.nz), (2, 2, 2));
    }

    #[test]
    fn paper_cluster_metadata() {
        assert_eq!(NasBench::CG.paper_clusters(), 16);
        assert_eq!(NasBench::FT.paper_logged_pct(), 50.19);
        assert_eq!(NasBench::all().len(), 6);
    }
}
