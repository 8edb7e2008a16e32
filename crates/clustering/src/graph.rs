//! Weighted communication graphs.
//!
//! The paper's clustering tool (Ropars et al. \[28\]) consumes "a graph
//! defining the amount of data sent in each application channel",
//! collected by instrumenting MPICH2. We build the same graph one way:
//! statically, from an [`mps_sim::Application`]'s declared traffic
//! ([`CommGraph::from_application`]). Our programs state every send up
//! front, so no instrumented run is needed; that summary stands in for
//! the paper's MPICH2 instrumentation.

use mps_sim::{Application, Rank};

/// Undirected weighted communication graph over ranks.
#[derive(Debug, Clone)]
pub struct CommGraph {
    /// Symmetric sparse adjacency: `rows[i]` holds `(j, bytes exchanged
    /// between i and j in both directions)` for every neighbour `j` with
    /// nonzero traffic, ascending by `j`.
    rows: Vec<Vec<(u32, u64)>>,
}

impl CommGraph {
    pub fn new(n: usize) -> Self {
        CommGraph {
            rows: vec![Vec::new(); n],
        }
    }

    pub fn n_ranks(&self) -> usize {
        self.rows.len()
    }

    /// Add `bytes` of traffic between `a` and `b` (order irrelevant).
    pub fn add(&mut self, a: Rank, b: Rank, bytes: u64) {
        if a == b || bytes == 0 {
            return;
        }
        for (row, other) in [(a, b), (b, a)] {
            let row = &mut self.rows[row.idx()];
            match row.binary_search_by_key(&other.0, |e| e.0) {
                Ok(i) => row[i].1 += bytes,
                Err(i) => row.insert(i, (other.0, bytes)),
            }
        }
    }

    #[inline]
    pub fn weight(&self, a: Rank, b: Rank) -> u64 {
        let row = &self.rows[a.idx()];
        match row.binary_search_by_key(&b.0, |e| e.0) {
            Ok(i) => row[i].1,
            Err(_) => 0,
        }
    }

    /// Total traffic (each undirected pair counted once).
    pub fn total(&self) -> u64 {
        self.rows.iter().flatten().map(|e| e.1).sum::<u64>() / 2
    }

    /// Build statically from an application's programs, streaming each
    /// rank's aggregated send totals — closed form over each program's
    /// body, so graph extraction is O(ranks × pattern), not
    /// O(ranks × pattern × iterations). The `(src, dst, bytes)` triples
    /// are appended unsorted, then each row is sorted and merged once (a
    /// sorted insert per triple is quadratic in the degree on dense
    /// graphs).
    pub fn from_application(app: &Application) -> Self {
        let mut rows = vec![Vec::new(); app.n_ranks()];
        app.send_summary(|a, b, bytes, _msgs| {
            if a != b && bytes > 0 {
                rows[a.idx()].push((b.0, bytes));
                rows[b.idx()].push((a.0, bytes));
            }
        });
        rows.iter_mut().for_each(sort_and_merge);
        CommGraph { rows }
    }

    /// Neighbours of `r` with nonzero weight, ascending by rank.
    pub fn neighbors(&self, r: Rank) -> impl Iterator<Item = (Rank, u64)> + '_ {
        self.row(r.idx()).iter().map(|&(j, w)| (Rank(j), w))
    }

    /// Row `r` of the adjacency: `(neighbour, weight)`, ascending.
    pub(crate) fn row(&self, r: usize) -> &[(u32, u64)] {
        &self.rows[r]
    }
}

/// Sort a row by neighbour and merge repeated neighbours, summing their
/// weights. The sort is stable because rows usually arrive as a few
/// ascending runs (the peers sending to a rank, its own sends), which a
/// stable sort merges in linear time.
pub(crate) fn sort_and_merge(row: &mut Vec<(u32, u64)>) {
    row.sort_by_key(|e| e.0);
    row.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sim::Tag;

    #[test]
    fn add_is_symmetric_and_ignores_self() {
        let mut g = CommGraph::new(3);
        g.add(Rank(0), Rank(1), 10);
        g.add(Rank(1), Rank(0), 5);
        g.add(Rank(2), Rank(2), 100);
        assert_eq!(g.weight(Rank(0), Rank(1)), 15);
        assert_eq!(g.weight(Rank(1), Rank(0)), 15);
        assert_eq!(g.weight(Rank(2), Rank(2)), 0);
        assert_eq!(g.total(), 15);
    }

    #[test]
    fn from_application_counts_sends() {
        let mut app = Application::new(3);
        app.rank_mut(Rank(0)).send(Rank(1), 100, Tag(0));
        app.rank_mut(Rank(1)).recv(Rank(0), Tag(0));
        app.rank_mut(Rank(1)).send(Rank(2), 50, Tag(0));
        app.rank_mut(Rank(2)).recv(Rank(1), Tag(0));
        let g = CommGraph::from_application(&app);
        assert_eq!(g.weight(Rank(0), Rank(1)), 100);
        assert_eq!(g.weight(Rank(1), Rank(2)), 50);
        assert_eq!(g.weight(Rank(0), Rank(2)), 0);
        assert_eq!(g.total(), 150);
    }

    #[test]
    fn collected_rows_match_incremental_adds() {
        // Unsorted, repeated and reversed triples, a self-loop and a
        // zero-byte send: the sort-and-merge build must agree with `add`
        // one triple at a time.
        let triples = [
            (3, 1, 5),
            (1, 3, 2),
            (0, 2, 7),
            (2, 2, 9),
            (0, 1, 0),
            (1, 0, 4),
        ];
        let mut app = Application::new(4);
        for (a, b, w) in triples {
            app.rank_mut(Rank(a)).send(Rank(b), w, Tag(0));
        }
        let collected = CommGraph::from_application(&app);
        let mut added = CommGraph::new(4);
        for (a, b, w) in triples {
            added.add(Rank(a), Rank(b), w);
        }
        assert_eq!(collected.rows, added.rows);
        assert_eq!(collected.rows[1], vec![(0, 4), (3, 7)]);
        assert_eq!(collected.total(), 18);
    }

    #[test]
    fn neighbors_iterates_nonzero() {
        let mut g = CommGraph::new(4);
        g.add(Rank(0), Rank(3), 9);
        g.add(Rank(0), Rank(2), 7);
        g.add(Rank(0), Rank(1), 0);
        let nb: Vec<_> = g.neighbors(Rank(0)).collect();
        assert_eq!(nb, vec![(Rank(2), 7), (Rank(3), 9)]);
    }
}
