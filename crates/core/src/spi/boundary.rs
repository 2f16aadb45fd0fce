//! The federation boundary: where a provider's namespace ends.
//!
//! Whether a name leaves a naming system, and where, is decided here and
//! nowhere else. A provider answers one question — *what is bound at the
//! longest bound prefix of these first `upto` components* ([`Bound`]) — and
//! wraps its `ProviderBackend::execute` in one [`run`]; the rule is:
//!
//! * `List`, `ListBindings` and `Search` denote the context a name leads
//!   to, so the name itself may be the mount (`upto` = all of it). Every
//!   other operation denotes a binding *in* its parent: strict prefixes
//!   only, so `lookup("link")` is the reference and `unbind("link")` removes
//!   it. `Rename` is judged on its old name; the driver re-bases the new
//!   one ([`crate::federation::drive_op`]).
//! * `Lookup` and `GetAttributes` run locally first and ask only on a miss:
//!   a hit costs the backend reads it always did.
//! * Everything else asks *before* touching the store: a write must never
//!   land beneath a link. What is not a link is the provider's own to
//!   answer for, in its own terms.
//! * Providers walk from the longest candidate prefix down and stop at the
//!   first thing that exists: a real intermediate entry means no mount above
//!   it. A link found there continues with the rest of the name; a plain
//!   leaf explains a read's miss as `NotAContext`.
//! * The empty name and the listener operations never leave.
//! * A provider that can say how far and how long its answer holds reports
//!   it with the link ([`Holds`]): every name strictly beneath a prefix of
//!   the one it asked about leaves the same way, whatever the operation,
//!   while its own state says so. `drive_op` follows such names without
//!   asking again.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{NamingError, Result};
use crate::name::CompositeName;
use crate::op::{NamingOp, OpKind, OpOutcome};
use crate::value::BoundValue;

/// What keeps a continuation true: the naming system's own state, checked
/// against the mark its answer left.
pub trait Keeper: Send + Sync {
    /// Whether what held at `mark` still does.
    fn still(&self, mark: u64) -> bool;

    /// Whether the naming system takes `name` at all: one it refuses
    /// outright (a DNS label outside its charset) leaves through no link.
    fn admits(&self, _name: &CompositeName) -> bool {
        true
    }
}

/// A generation: a counter the naming system bumps on every change it
/// applies (an HDNS replica's ops and state transfers).
impl Keeper for AtomicU64 {
    fn still(&self, mark: u64) -> bool {
        self.load(Ordering::Acquire) == mark
    }
}

/// How far and how long a continuation holds: every name that strictly
/// extends the first `within` components of the one asked about, and that
/// the keeper admits, leaves the same way while it says `mark` holds.
#[derive(Clone)]
pub struct Holds {
    pub within: usize,
    pub keeper: Arc<dyn Keeper>,
    pub mark: u64,
}

impl fmt::Debug for Holds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Holds(within {}, mark {})", self.within, self.mark)
    }
}

/// Two promises are the same when they rest on the same state.
impl PartialEq for Holds {
    fn eq(&self, other: &Self) -> bool {
        (self.within, self.mark) == (other.within, other.mark)
            && Arc::ptr_eq(&self.keeper, &other.keeper)
    }
}

/// What a provider found bound at a prefix of a name.
pub struct Bound {
    /// How many leading components of the name the binding covers (0: the
    /// provider's own root, for a provider whose root can be a link).
    pub len: usize,
    pub value: BoundValue,
    /// Whether names go on beneath it inside this naming system (a
    /// directory, a subcontext, a directory-server entry).
    pub holds_names: bool,
    /// How the provider spells this prefix in an error, when not the way
    /// the caller wrote it.
    pub spelled: Option<String>,
    /// How far beneath it, and how long, names leave through it, were it a
    /// link (`within` counts from the start of the name, at least `len`);
    /// read only when it is one.
    pub holds: Option<Holds>,
}

impl Bound {
    /// A value nothing of this naming system can be bound beneath.
    pub fn leaf(len: usize, value: BoundValue) -> Self {
        Bound {
            len,
            value,
            holds_names: false,
            spelled: None,
            holds: None,
        }
    }

    /// A context of this naming system.
    pub fn context(len: usize) -> Self {
        Bound {
            holds_names: true,
            ..Bound::leaf(len, BoundValue::Null)
        }
    }
}

/// Run `op` against one provider: `local` executes it in the provider's own
/// namespace, `probe(upto)` reports what is bound at the longest bound
/// prefix of the first `upto` components of `op.name` (called at most once).
pub fn run(
    op: &NamingOp,
    probe: impl FnOnce(usize) -> Result<Option<Bound>>,
    local: impl FnOnce() -> Result<OpOutcome>,
) -> Result<OpOutcome> {
    let n = op.name.len();
    if n == 0 || matches!(op.kind, OpKind::AddListener | OpKind::RemoveListener) {
        return local();
    }
    let leave = |bound: Bound| NamingError::Continue {
        resolved: bound.value,
        remaining: op.name.suffix(bound.len),
        holds: bound
            .holds
            .filter(|h| (bound.len..=n).contains(&h.within))
            .map(Box::new),
    };
    match op.kind {
        OpKind::Lookup | OpKind::GetAttributes => {
            let miss = match local() {
                Err(
                    e @ (NamingError::NameNotFound { .. }
                    | NamingError::NotAContext { .. }
                    | NamingError::ContextExpected { .. }),
                ) => e,
                other => return other,
            };
            Err(match probe(n - 1)? {
                Some(bound) if bound.value.is_federation_link() => leave(bound),
                Some(bound) if !bound.holds_names => NamingError::NotAContext {
                    name: bound
                        .spelled
                        .unwrap_or_else(|| op.name.prefix(bound.len).to_string()),
                },
                _ => miss,
            })
        }
        _ => {
            let at_the_name = matches!(
                op.kind,
                OpKind::List | OpKind::ListBindings | OpKind::Search
            );
            match probe(if at_the_name { n } else { n - 1 })? {
                Some(bound) if bound.value.is_federation_link() => Err(leave(bound)),
                _ => local(),
            }
        }
    }
}
