//! The federation-boundary rule (`rndi_core::spi::boundary`) on its own:
//! which operations ask about which prefixes, in which order relative to
//! the provider's own step, and what each answer turns into. The providers'
//! side of the contract is the matrix in `tests/heterogeneity.rs`.

use std::cell::Cell;

use rndi_core::error::{NamingError, Result};
use rndi_core::name::CompositeName;
use rndi_core::op::{NamingOp, OpKind, OpOutcome, ALL_OP_KINDS};
use rndi_core::spi::boundary::{run, Bound};
use rndi_core::value::{BoundValue, Reference};

fn op_of(kind: OpKind, name: &str) -> NamingOp {
    let mut op = NamingOp::lookup(CompositeName::from(name));
    op.kind = kind;
    op
}

fn link() -> BoundValue {
    BoundValue::Reference(Reference::url("mem://east"))
}

/// `(upto the probe was asked, whether the local step ran, result)` of one
/// run where the probe finds `bound` (if `upto` reaches it) and the local
/// step answers `local`.
fn ran(
    kind: OpKind,
    name: &str,
    bound: Option<Bound>,
    local: Result<OpOutcome>,
) -> (Option<usize>, bool, Result<OpOutcome>) {
    let (asked, ran_local) = (Cell::new(None), Cell::new(false));
    let result = run(
        &op_of(kind, name),
        |upto| {
            asked.set(Some(upto));
            Ok(bound.filter(|b| b.len <= upto))
        },
        || {
            ran_local.set(true);
            local
        },
    );
    (asked.get(), ran_local.get(), result)
}

fn remaining(result: Result<OpOutcome>) -> String {
    match result {
        Err(NamingError::Continue { remaining, .. }) => remaining.to_string(),
        other => panic!("expected Continue, got {other:?}"),
    }
}

#[test]
fn every_named_operation_leaves_through_a_link_on_a_strict_prefix() {
    for kind in ALL_OP_KINDS {
        let listener = matches!(kind, OpKind::AddListener | OpKind::RemoveListener);
        let optimistic = matches!(kind, OpKind::Lookup | OpKind::GetAttributes);
        let (asked, ran_local, result) = ran(
            kind,
            "link/x/y",
            Some(Bound::leaf(1, link())),
            Err(NamingError::not_found("x")),
        );
        if listener {
            assert!(ran_local && asked.is_none(), "{kind:?} never leaves");
            continue;
        }
        assert_eq!(remaining(result), "x/y", "{kind:?}");
        assert_eq!(ran_local, optimistic, "{kind:?}: only reads try first");
    }
}

#[test]
fn only_the_context_operations_look_at_the_name_itself() {
    for kind in ALL_OP_KINDS {
        let (asked, ran_local, result) = ran(
            kind,
            "link",
            Some(Bound::leaf(1, link())),
            Ok(OpOutcome::Done),
        );
        if matches!(kind, OpKind::List | OpKind::ListBindings | OpKind::Search) {
            assert_eq!(asked, Some(1), "{kind:?}");
            assert_eq!(remaining(result), "", "{kind:?}");
        } else {
            assert!(ran_local && result.is_ok(), "{kind:?} is the provider's");
        }
    }
}

#[test]
fn a_read_that_hits_asks_nothing_and_a_failure_is_not_a_miss() {
    let (asked, _, result) = ran(
        OpKind::Lookup,
        "a/b",
        Some(Bound::leaf(1, link())),
        Ok(OpOutcome::Done),
    );
    assert!(asked.is_none() && result.is_ok());
    let (asked, _, result) = ran(
        OpKind::GetAttributes,
        "a/b",
        Some(Bound::leaf(1, link())),
        Err(NamingError::service("down")),
    );
    assert!(asked.is_none());
    assert!(matches!(result, Err(NamingError::ServiceFailure { .. })));
}

#[test]
fn what_is_not_a_link_is_the_providers_own() {
    // A read's miss through a plain leaf is explained; through a context
    // or nothing at all it stands as the provider reported it.
    let miss = || Err(NamingError::not_found("a/b"));
    let (_, _, result) = ran(
        OpKind::Lookup,
        "a/b",
        Some(Bound::leaf(1, BoundValue::str("v"))),
        miss(),
    );
    assert!(matches!(result, Err(NamingError::NotAContext { name }) if name == "a"));
    let spelled = Bound {
        spelled: Some("a.zone".into()),
        ..Bound::leaf(1, BoundValue::str("v"))
    };
    let (_, _, result) = ran(OpKind::Lookup, "a/b", Some(spelled), miss());
    assert!(matches!(result, Err(NamingError::NotAContext { name }) if name == "a.zone"));
    for bound in [Some(Bound::context(1)), None] {
        let (_, _, result) = ran(OpKind::Lookup, "a/b", bound, miss());
        assert!(matches!(result, Err(NamingError::NameNotFound { .. })));
    }
    // A write is checked first and then left to the provider, leaf or not.
    let (asked, ran_local, _) = ran(
        OpKind::Bind,
        "a/b",
        Some(Bound::leaf(1, BoundValue::str("v"))),
        Ok(OpOutcome::Done),
    );
    assert_eq!((asked, ran_local), (Some(1), true));
    // A link that also holds names (a directory-server entry) is a link.
    let entry = Bound {
        holds_names: true,
        ..Bound::leaf(1, link())
    };
    let (_, ran_local, result) = ran(OpKind::Unbind, "a/b", Some(entry), Ok(OpOutcome::Done));
    assert!(!ran_local);
    assert_eq!(remaining(result), "b");
}

#[test]
fn the_empty_name_never_leaves() {
    for kind in ALL_OP_KINDS {
        let (asked, ran_local, _) =
            ran(kind, "", Some(Bound::leaf(0, link())), Ok(OpOutcome::Done));
        assert!(ran_local && asked.is_none(), "{kind:?}");
    }
}

#[test]
fn a_link_at_the_providers_root_takes_the_whole_name() {
    let (asked, _, result) = ran(
        OpKind::Bind,
        "x",
        Some(Bound::leaf(0, link())),
        Ok(OpOutcome::Done),
    );
    assert_eq!(asked, Some(0));
    assert_eq!(remaining(result), "x");
}
