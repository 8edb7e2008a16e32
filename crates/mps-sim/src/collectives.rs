//! Collective-operation lowering.
//!
//! An MPI all-to-all is lowered to point-to-point operations at program
//! build time, as the pairwise exchange MPICH uses at these scales. All
//! receives are source-specific, so per-channel FIFO makes repeated
//! exchanges on the same tag safe.
//!
//! The participant list is any subset of ranks (a "communicator"); indices
//! below are positions within that list.

use crate::program::Application;
use crate::types::{Rank, Tag};

/// All-to-all personalised exchange: every member sends `bytes` to every
/// other member. Sends are posted first (non-blocking in the engine), then
/// receives in a shifted order to spread load.
pub fn alltoall(app: &mut Application, ranks: &[Rank], bytes: u64, tag: Tag) {
    let n = ranks.len();
    if n <= 1 {
        return;
    }
    for (pos, &me) in ranks.iter().enumerate() {
        for shift in 1..n {
            let dst = ranks[(pos + shift) % n];
            app.rank_mut(me).send(dst, bytes, tag);
        }
        for shift in 1..n {
            let src = ranks[(pos + n - shift) % n];
            app.rank_mut(me).recv(src, tag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Sim, SimConfig};
    use crate::protocol::NullProtocol;

    fn ranks(n: u32) -> Vec<Rank> {
        (0..n).map(Rank).collect()
    }

    fn run(app: Application) -> crate::engine::RunReport {
        let report = Sim::new(app, SimConfig::default(), NullProtocol).run();
        assert!(report.completed(), "{:?}", report.status);
        assert!(report.trace.is_consistent());
        report
    }

    #[test]
    fn alltoall_message_count() {
        for n in [2usize, 3, 5, 8] {
            let mut app = Application::new(n);
            alltoall(&mut app, &ranks(n as u32), 64, Tag(0));
            let report = run(app);
            assert_eq!(report.metrics.app_messages, (n * (n - 1)) as u64, "n={n}");
        }
    }

    #[test]
    fn collectives_on_subcommunicator() {
        // Members 1,3,5 of a 6-rank app; ranks 0,2,4 stay idle.
        let members = vec![Rank(1), Rank(3), Rank(5)];
        let mut app = Application::new(6);
        alltoall(&mut app, &members, 32, Tag(0));
        alltoall(&mut app, &members, 32, Tag(1));
        for idle in [0, 2, 4] {
            assert!(app.rank(Rank(idle)).is_empty(), "P{idle} took part");
        }
        assert!(app.check_balance().is_ok());
        let report = run(app);
        assert_eq!(report.metrics.app_messages, 2 * 3 * 2);
    }

    #[test]
    fn back_to_back_collectives_same_tag() {
        // FIFO per channel means reusing a tag across iterations is safe.
        let mut app = Application::new(8);
        for _ in 0..5 {
            alltoall(&mut app, &ranks(8), 128, Tag(0));
        }
        let report = run(app);
        assert_eq!(report.metrics.app_messages, 5 * 8 * 7);
    }
}
