//! Group membership service helpers.
//!
//! View arithmetic used by the cluster's membership engine: merging
//! partition-side views while preserving join order and the
//! oldest-member-coordinates rule.

use crate::view::View;

/// Compute the merged view joining several partition-side views.
/// Members are ordered: winner side first (its join order), then the
/// remaining sides' members in (side, join) order — so the winner's
/// coordinator coordinates the merged group.
pub fn merged_view(winner: &View, losers: &[&View]) -> View {
    let mut members = winner.members.clone();
    let max_seq = losers
        .iter()
        .map(|v| v.id.seq)
        .chain(std::iter::once(winner.id.seq))
        .max()
        .expect("non-empty");
    for side in losers {
        for m in &side.members {
            if !members.contains(m) {
                members.push(*m);
            }
        }
    }
    View::new(max_seq + 1, members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;

    #[test]
    fn merge_prefers_winner_ordering() {
        let winner = View::new(7, vec![Addr(1), Addr(3)]);
        let loser = View::new(9, vec![Addr(2), Addr(4)]);
        let merged = merged_view(&winner, &[&loser]);
        assert_eq!(merged.members, vec![Addr(1), Addr(3), Addr(2), Addr(4)]);
        assert_eq!(merged.coordinator(), Addr(1));
        assert_eq!(merged.id.seq, 10, "past both sides' sequences");
    }
}
