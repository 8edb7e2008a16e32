//! Clustering quality statistics — the columns of the paper's Table I.

use crate::graph::CommGraph;
use mps_sim::{Application, ClusterMap, Rank};
use serde::{Deserialize, Serialize};

/// Table-I-style statistics of one clustering on one application.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusteringStats {
    pub n_clusters: usize,
    /// Expected % of processes rolled back by a uniformly placed single
    /// failure.
    pub avg_rollback_pct: f64,
    /// Bytes crossing cluster boundaries (= logged by HydEE).
    pub logged_bytes: u64,
    /// Total bytes sent by the application.
    pub total_bytes: u64,
}

impl ClusteringStats {
    pub fn logged_pct(&self) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            100.0 * self.logged_bytes as f64 / self.total_bytes as f64
        }
    }

    /// Evaluate a clustering against an application's declared traffic,
    /// streaming aggregated send totals (closed form over each program's
    /// body — no per-op walk).
    pub fn evaluate(app: &Application, map: &ClusterMap) -> Self {
        assert_eq!(app.n_ranks(), map.n_ranks());
        let mut logged = 0u64;
        let mut total = 0u64;
        app.send_summary(|src, dst, bytes, _msgs| {
            total += bytes;
            if !map.same_cluster(src, dst) {
                logged += bytes;
            }
        });
        ClusteringStats {
            n_clusters: map.n_clusters(),
            avg_rollback_pct: 100.0 * map.avg_rollback_fraction(),
            logged_bytes: logged,
            total_bytes: total,
        }
    }

    /// Evaluate against a communication graph (undirected totals).
    pub fn evaluate_graph(graph: &CommGraph, map: &ClusterMap) -> Self {
        let n = graph.n_ranks();
        assert_eq!(n, map.n_ranks());
        let mut logged = 0u64;
        for i in 0..n {
            for (j, w) in graph.neighbors(Rank(i as u32)) {
                if j.idx() > i && !map.same_cluster(Rank(i as u32), j) {
                    logged += w;
                }
            }
        }
        ClusteringStats {
            n_clusters: map.n_clusters(),
            avg_rollback_pct: 100.0 * map.avg_rollback_fraction(),
            logged_bytes: logged,
            total_bytes: graph.total(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sim::Tag;

    fn app_two_groups() -> Application {
        // 0<->1 heavy intra, 1->2 light inter (when clustered {0,1},{2,3}).
        let mut app = Application::new(4);
        app.rank_mut(Rank(0)).send(Rank(1), 900, Tag(0));
        app.rank_mut(Rank(1)).recv(Rank(0), Tag(0));
        app.rank_mut(Rank(1)).send(Rank(2), 100, Tag(0));
        app.rank_mut(Rank(2)).recv(Rank(1), Tag(0));
        app
    }

    #[test]
    fn evaluate_counts_inter_cluster_bytes() {
        let app = app_two_groups();
        let map = ClusterMap::new(vec![0, 0, 1, 1]);
        let s = ClusteringStats::evaluate(&app, &map);
        assert_eq!(s.total_bytes, 1000);
        assert_eq!(s.logged_bytes, 100);
        assert!((s.logged_pct() - 10.0).abs() < 1e-12);
        assert_eq!(s.n_clusters, 2);
        assert!((s.avg_rollback_pct - 50.0).abs() < 1e-12);
    }

    #[test]
    fn graph_and_app_evaluation_agree() {
        let app = app_two_groups();
        let map = ClusterMap::new(vec![0, 0, 1, 1]);
        let g = CommGraph::from_application(&app);
        let a = ClusteringStats::evaluate(&app, &map);
        let b = ClusteringStats::evaluate_graph(&g, &map);
        assert_eq!(a.logged_bytes, b.logged_bytes);
        assert_eq!(a.total_bytes, b.total_bytes);
    }

    #[test]
    fn single_cluster_logs_nothing() {
        let app = app_two_groups();
        let s = ClusteringStats::evaluate(&app, &ClusterMap::single(4));
        assert_eq!(s.logged_bytes, 0);
        assert_eq!(s.logged_pct(), 0.0);
    }

    #[test]
    fn per_rank_clusters_log_everything() {
        let app = app_two_groups();
        let s = ClusteringStats::evaluate(&app, &ClusterMap::per_rank(4));
        assert_eq!(s.logged_bytes, 1000);
        assert!((s.logged_pct() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn empty_app_is_safe() {
        let app = Application::new(2);
        let s = ClusteringStats::evaluate(&app, &ClusterMap::single(2));
        assert_eq!(s.logged_pct(), 0.0);
    }
}
