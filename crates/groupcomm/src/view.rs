//! Group views.

use std::fmt;

use crate::addr::Addr;

/// Identifies a view: a monotonically increasing sequence number plus the
/// coordinator that installed it.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ViewId {
    pub seq: u64,
    pub coord: Addr,
}

impl fmt::Debug for ViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}|{}]", self.coord, self.seq)
    }
}

/// A membership view: the members, in join order. The first member is the
/// coordinator (JGroups convention: the oldest member coordinates).
#[derive(Clone, PartialEq, Eq)]
pub struct View {
    pub id: ViewId,
    pub members: Vec<Addr>,
}

impl View {
    /// Build a view; `members` must be non-empty and in join order.
    pub fn new(seq: u64, members: Vec<Addr>) -> View {
        assert!(!members.is_empty(), "a view needs at least one member");
        View {
            id: ViewId {
                seq,
                coord: members[0],
            },
            members,
        }
    }

    pub fn coordinator(&self) -> Addr {
        self.id.coord
    }

    pub fn contains(&self, a: Addr) -> bool {
        self.members.contains(&a)
    }

    pub fn size(&self) -> usize {
        self.members.len()
    }
}

impl fmt::Debug for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}{:?}", self.id, self.members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinator_is_first_member() {
        let v = View::new(3, vec![Addr(5), Addr(2), Addr(9)]);
        assert_eq!(v.coordinator(), Addr(5));
        assert_eq!(v.id.seq, 3);
        assert!(v.contains(Addr(9)));
        assert!(!v.contains(Addr(1)));
        assert_eq!(v.size(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_view_rejected() {
        View::new(0, vec![]);
    }
}
