//! Process-grid helpers shared by the NAS skeletons.

use mps_sim::Rank;

/// A 2D logical process grid (row-major).
#[derive(Debug, Clone, Copy)]
pub struct Grid2D {
    pub rows: usize,
    pub cols: usize,
}

impl Grid2D {
    pub fn new(rows: usize, cols: usize) -> Self {
        Grid2D { rows, cols }
    }

    /// Squarest factorisation of `n` (rows <= cols).
    pub fn squarest(n: usize) -> Self {
        let mut best = (1, n);
        let mut r = 1;
        while r * r <= n {
            if n.is_multiple_of(r) {
                best = (r, n / r);
            }
            r += 1;
        }
        Grid2D {
            rows: best.0,
            cols: best.1,
        }
    }

    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn rank(&self, row: usize, col: usize) -> Rank {
        debug_assert!(row < self.rows && col < self.cols);
        Rank((row * self.cols + col) as u32)
    }

    pub fn coords(&self, r: Rank) -> (usize, usize) {
        let i = r.idx();
        (i / self.cols, i % self.cols)
    }

    /// Torus neighbour in `(drow, dcol)` direction.
    pub fn torus_neighbor(&self, r: Rank, drow: isize, dcol: isize) -> Rank {
        let (row, col) = self.coords(r);
        let nr = (row as isize + drow).rem_euclid(self.rows as isize) as usize;
        let nc = (col as isize + dcol).rem_euclid(self.cols as isize) as usize;
        self.rank(nr, nc)
    }

    /// Non-periodic neighbour, `None` at the boundary.
    pub fn neighbor(&self, r: Rank, drow: isize, dcol: isize) -> Option<Rank> {
        let (row, col) = self.coords(r);
        let nr = row as isize + drow;
        let nc = col as isize + dcol;
        if nr < 0 || nc < 0 || nr >= self.rows as isize || nc >= self.cols as isize {
            None
        } else {
            Some(self.rank(nr as usize, nc as usize))
        }
    }
}

/// A 3D logical process grid (x fastest).
#[derive(Debug, Clone, Copy)]
pub struct Grid3D {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
}

impl Grid3D {
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Grid3D { nx, ny, nz }
    }

    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn rank(&self, x: usize, y: usize, z: usize) -> Rank {
        Rank((z * self.ny * self.nx + y * self.nx + x) as u32)
    }

    pub fn coords(&self, r: Rank) -> (usize, usize, usize) {
        let i = r.idx();
        let x = i % self.nx;
        let y = (i / self.nx) % self.ny;
        let z = i / (self.nx * self.ny);
        (x, y, z)
    }

    /// Non-periodic neighbour along one axis.
    pub fn neighbor(&self, r: Rank, dx: isize, dy: isize, dz: isize) -> Option<Rank> {
        let (x, y, z) = self.coords(r);
        let nx = x as isize + dx;
        let ny = y as isize + dy;
        let nz = z as isize + dz;
        if nx < 0
            || ny < 0
            || nz < 0
            || nx >= self.nx as isize
            || ny >= self.ny as isize
            || nz >= self.nz as isize
        {
            None
        } else {
            Some(self.rank(nx as usize, ny as usize, nz as usize))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squarest_factorisations() {
        let g = Grid2D::squarest(256);
        assert_eq!((g.rows, g.cols), (16, 16));
        let g = Grid2D::squarest(12);
        assert_eq!((g.rows, g.cols), (3, 4));
        let g = Grid2D::squarest(7);
        assert_eq!((g.rows, g.cols), (1, 7));
    }

    #[test]
    fn coords_roundtrip_2d() {
        let g = Grid2D::new(4, 8);
        for i in 0..32u32 {
            let (r, c) = g.coords(Rank(i));
            assert_eq!(g.rank(r, c), Rank(i));
        }
    }

    #[test]
    fn torus_wraps() {
        let g = Grid2D::new(4, 4);
        assert_eq!(g.torus_neighbor(Rank(0), -1, 0), g.rank(3, 0));
        assert_eq!(g.torus_neighbor(Rank(3), 0, 1), g.rank(0, 0));
    }

    #[test]
    fn boundary_is_none() {
        let g = Grid2D::new(4, 4);
        assert_eq!(g.neighbor(Rank(0), -1, 0), None);
        assert_eq!(g.neighbor(Rank(0), 1, 0), Some(g.rank(1, 0)));
    }

    #[test]
    fn coords_roundtrip_3d() {
        let g = Grid3D::new(4, 8, 8);
        assert_eq!(g.len(), 256);
        for i in (0..256u32).step_by(7) {
            let (x, y, z) = g.coords(Rank(i));
            assert_eq!(g.rank(x, y, z), Rank(i));
        }
    }
}
