//! The two directions between `Context`/`DirContext` methods and reified
//! ops, held against each other: every `OpKind`, through a provider pipeline
//! and through a federated facade, once by the trait method (method → op:
//! the `OpContext` blanket impls) and once by `op::dispatch` (op → method,
//! which hands an op-running context the op as it stands). Same outcome on
//! all four, and a dispatched op reaches the backend under its own trace.

use std::sync::{Arc, Mutex};

use rndi_core::op;
use rndi_core::prelude::*;
use rndi_obs::TraceCtx;

/// A `MemContext` behind the backend surface, noting what reaches it.
struct Recording {
    inner: MemContext,
    /// `(kind, trace id)` of the last op executed.
    last: Mutex<Option<(OpKind, Option<u64>)>>,
}

impl ProviderBackend for Recording {
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        let trace = op.trace_ctx().map(|ctx| ctx.trace_id);
        *self.last.lock().unwrap() = Some((op.kind, trace));
        op::dispatch(&self.inner, op)
    }
}

/// A fresh namespace: `a` bound with an attribute, `dir/x` under a
/// subcontext, `empty` an empty subcontext.
fn backend() -> Arc<Recording> {
    let inner = MemContext::new();
    inner
        .bind_with_attrs(
            &"a".into(),
            BoundValue::str("1"),
            Attributes::new().with("kind", "leaf"),
        )
        .unwrap();
    inner.create_subcontext(&"dir".into()).unwrap();
    inner.bind(&"dir/x".into(), BoundValue::str("2")).unwrap();
    inner.create_subcontext(&"empty".into()).unwrap();
    Arc::new(Recording {
        inner,
        last: Mutex::new(None),
    })
}

type Subject = fn(Arc<Recording>) -> Arc<dyn DirContext>;

fn pipeline(backend: Arc<Recording>) -> Arc<dyn DirContext> {
    ProviderPipeline::bare(backend)
}

fn federated(backend: Arc<Recording>) -> Arc<dyn DirContext> {
    FederatedContext::new(
        pipeline(backend),
        Arc::new(ProviderRegistry::new()),
        Environment::new(),
    )
}

/// One call, both ways round: as a reified op and as the trait method.
struct Case {
    kind: OpKind,
    op: fn(&dyn DirContext) -> NamingOp,
    method: fn(&dyn DirContext) -> Result<OpOutcome>,
}

fn attrs() -> Attributes {
    Attributes::new().with("colour", "blue")
}

fn mods() -> Vec<AttrMod> {
    vec![AttrMod::Add(Attribute::single("colour", "red"))]
}

fn listener() -> Arc<dyn NamingListener> {
    CollectingListener::new()
}

const DONE: fn(()) -> OpOutcome = |()| OpOutcome::Done;

fn cases() -> Vec<Case> {
    vec![
        Case {
            kind: OpKind::Lookup,
            op: |_| NamingOp::lookup("dir/x".into()),
            method: |c| c.lookup(&"dir/x".into()).map(OpOutcome::Value),
        },
        // An error is an outcome too: the name is taken.
        Case {
            kind: OpKind::Bind,
            op: |_| NamingOp::bind("a".into(), BoundValue::str("v")),
            method: |c| c.bind(&"a".into(), BoundValue::str("v")).map(DONE),
        },
        Case {
            kind: OpKind::Bind,
            op: |_| NamingOp::bind("b".into(), BoundValue::str("v")),
            method: |c| c.bind(&"b".into(), BoundValue::str("v")).map(DONE),
        },
        Case {
            kind: OpKind::Rebind,
            op: |_| NamingOp::rebind("a".into(), BoundValue::I64(7)),
            method: |c| c.rebind(&"a".into(), BoundValue::I64(7)).map(DONE),
        },
        Case {
            kind: OpKind::Unbind,
            op: |_| NamingOp::unbind("a".into()),
            method: |c| c.unbind(&"a".into()).map(DONE),
        },
        Case {
            kind: OpKind::Rename,
            op: |_| NamingOp::rename("a".into(), "dir/moved".into()),
            method: |c| c.rename(&"a".into(), &"dir/moved".into()).map(DONE),
        },
        Case {
            kind: OpKind::List,
            op: |_| NamingOp::list(CompositeName::empty()),
            method: |c| c.list(&CompositeName::empty()).map(OpOutcome::Names),
        },
        Case {
            kind: OpKind::ListBindings,
            op: |_| NamingOp::list_bindings("dir".into()),
            method: |c| c.list_bindings(&"dir".into()).map(OpOutcome::Bindings),
        },
        Case {
            kind: OpKind::CreateSubcontext,
            op: |_| NamingOp::create_subcontext("dir/sub".into()),
            method: |c| c.create_subcontext(&"dir/sub".into()).map(DONE),
        },
        Case {
            kind: OpKind::DestroySubcontext,
            op: |_| NamingOp::destroy_subcontext("empty".into()),
            method: |c| c.destroy_subcontext(&"empty".into()).map(DONE),
        },
        Case {
            kind: OpKind::GetAttributes,
            op: |_| NamingOp::get_attributes("a".into()),
            method: |c| c.get_attributes(&"a".into()).map(OpOutcome::Attrs),
        },
        Case {
            kind: OpKind::ModifyAttributes,
            op: |_| NamingOp::modify_attributes("a".into(), mods()),
            method: |c| c.modify_attributes(&"a".into(), &mods()).map(DONE),
        },
        Case {
            kind: OpKind::BindWithAttrs,
            op: |_| NamingOp::bind_with_attrs("b".into(), BoundValue::str("v"), attrs()),
            method: |c| {
                c.bind_with_attrs(&"b".into(), BoundValue::str("v"), attrs())
                    .map(DONE)
            },
        },
        Case {
            kind: OpKind::RebindWithAttrs,
            op: |_| NamingOp::rebind_with_attrs("a".into(), BoundValue::str("v"), attrs()),
            method: |c| {
                c.rebind_with_attrs(&"a".into(), BoundValue::str("v"), attrs())
                    .map(DONE)
            },
        },
        Case {
            kind: OpKind::Search,
            op: |_| {
                NamingOp::search(
                    CompositeName::empty(),
                    Filter::parse("(kind=leaf)").unwrap(),
                    SearchControls::default(),
                )
            },
            method: |c| {
                c.search(
                    &CompositeName::empty(),
                    &Filter::parse("(kind=leaf)").unwrap(),
                    &SearchControls::default(),
                )
                .map(OpOutcome::Found)
            },
        },
        Case {
            kind: OpKind::AddListener,
            op: |_| NamingOp::add_listener("dir".into(), listener()),
            method: |c| {
                c.add_listener(&"dir".into(), listener())
                    .map(OpOutcome::Subscribed)
            },
        },
        // The handle to give back comes from the context under test.
        Case {
            kind: OpKind::RemoveListener,
            op: |c| NamingOp::remove_listener(c.add_listener(&"dir".into(), listener()).unwrap()),
            method: |c| {
                c.remove_listener(c.add_listener(&"dir".into(), listener()).unwrap())
                    .map(DONE)
            },
        },
    ]
}

/// An outcome, spelled out far enough to compare two of them.
fn show(result: Result<OpOutcome>) -> String {
    match result {
        Ok(OpOutcome::Done) => "done".into(),
        Ok(OpOutcome::Value(v)) => format!("value {v:?}"),
        Ok(OpOutcome::Wire(bytes)) => format!("wire {bytes:?}"),
        Ok(OpOutcome::Names(names)) => format!("names {names:?}"),
        Ok(OpOutcome::Bindings(bindings)) => format!("bindings {bindings:?}"),
        Ok(OpOutcome::Attrs(attrs)) => format!("attrs {attrs:?}"),
        Ok(OpOutcome::Found(hits)) => format!("found {hits:?}"),
        Ok(OpOutcome::Subscribed(_)) => "subscribed".into(),
        Err(e) => format!("error {e}"),
    }
}

#[test]
fn every_op_kind_takes_one_path_whichever_way_it_is_called() {
    let cases = cases();
    for kind in op::ALL_OP_KINDS {
        assert!(cases.iter().any(|c| c.kind == kind), "{kind:?} has a case");
    }
    let subjects: [(&str, Subject); 2] = [("pipeline", pipeline), ("federated", federated)];
    for case in &cases {
        let mut outcomes = Vec::new();
        for (subject, build) in subjects {
            let by_method = backend();
            outcomes.push((
                format!("{subject} by method"),
                show((case.method)(build(by_method.clone()).as_ref())),
            ));
            let seen = by_method.last.lock().unwrap().expect("the backend ran it");
            assert_eq!(
                seen.0, case.kind,
                "{subject}: the method reifies its own kind"
            );

            let by_dispatch = backend();
            let ctx = build(by_dispatch.clone());
            let mut op = (case.op)(ctx.as_ref());
            let trace = TraceCtx::root();
            op.set_trace_ctx(&trace);
            outcomes.push((
                format!("{subject} by dispatch"),
                show(op::dispatch(ctx.as_ref(), &op)),
            ));
            assert_eq!(
                *by_dispatch.last.lock().unwrap(),
                Some((case.kind, Some(trace.trace_id))),
                "{subject}: {:?} reaches the backend as the op it was, trace and all",
                case.kind
            );
        }
        let (_, expected) = &outcomes[0];
        for (route, outcome) in &outcomes {
            assert_eq!(outcome, expected, "{:?} via {route}", case.kind);
        }
    }
}
