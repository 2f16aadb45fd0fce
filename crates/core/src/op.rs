//! Reified naming operations.
//!
//! Every [`Context`](crate::context::Context)/[`DirContext`] call is a
//! first-class request value ([`NamingOp`]) paired with a response value
//! ([`OpOutcome`]). Reifying the call gives every layer that
//! sits between the application and a backend — federation, caching, retry,
//! metrics, marshalling — a single uniform unit to operate on, instead of
//! one code path per trait method. The pipeline machinery that routes these
//! values lives in [`crate::spi`].

use std::fmt;
use std::sync::Arc;

use crate::attrs::{AttrMod, Attributes};
use crate::context::{Binding, DirContext, NameClassPair, SearchControls, SearchItem};
use crate::error::{NamingError, Result};
use crate::event::{ListenerHandle, NamingListener};
use crate::filter::Filter;
use crate::name::CompositeName;
use crate::value::BoundValue;
use rndi_obs::{TraceCell, TraceCtx};

/// The marshalling codec shared by every provider whose backing store holds
/// opaque bytes (Jini entry payloads, HDNS leaf values, LDAP attribute
/// strings, filesystem `.val` files). Lifted out of `providers::common` so
/// the pipeline's marshalling interceptor and the providers use one
/// implementation.
pub mod codec {
    use super::*;
    use crate::value::{Parts, StoredValue};

    /// Marshal a bound value into provider-storable bytes: its
    /// [`StoredValue`] encoding, written straight from `value`. Live
    /// contexts are rejected — bind a [`crate::value::Reference::url`]
    /// instead (the durable representation of a federation link).
    pub fn marshal(value: &BoundValue) -> Result<Vec<u8>> {
        let parts = Parts::of(value).ok_or_else(|| {
            NamingError::unsupported("binding a live context; bind a URL reference instead")
        })?;
        Ok(parts.encode())
    }

    /// Unmarshal provider bytes back into a bound value. Undecodable bytes
    /// surface as raw `Bytes` (foreign data bound by non-RNDI clients).
    pub fn unmarshal(bytes: &[u8]) -> BoundValue {
        match StoredValue::decode(bytes) {
            Some(s) => s.into_bound(),
            None => BoundValue::Bytes(bytes.to_vec()),
        }
    }
}

/// The operation kind — one variant per `Context`/`DirContext` method.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    Lookup,
    Bind,
    Rebind,
    Unbind,
    Rename,
    List,
    ListBindings,
    CreateSubcontext,
    DestroySubcontext,
    GetAttributes,
    ModifyAttributes,
    BindWithAttrs,
    RebindWithAttrs,
    Search,
    AddListener,
    RemoveListener,
}

/// All kinds, in stable display order (for stats tables).
pub const ALL_OP_KINDS: [OpKind; 16] = [
    OpKind::Lookup,
    OpKind::Bind,
    OpKind::Rebind,
    OpKind::Unbind,
    OpKind::Rename,
    OpKind::List,
    OpKind::ListBindings,
    OpKind::CreateSubcontext,
    OpKind::DestroySubcontext,
    OpKind::GetAttributes,
    OpKind::ModifyAttributes,
    OpKind::BindWithAttrs,
    OpKind::RebindWithAttrs,
    OpKind::Search,
    OpKind::AddListener,
    OpKind::RemoveListener,
];

impl OpKind {
    /// The `Context`/`DirContext` method name this kind reifies.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Lookup => "lookup",
            OpKind::Bind => "bind",
            OpKind::Rebind => "rebind",
            OpKind::Unbind => "unbind",
            OpKind::Rename => "rename",
            OpKind::List => "list",
            OpKind::ListBindings => "list_bindings",
            OpKind::CreateSubcontext => "create_subcontext",
            OpKind::DestroySubcontext => "destroy_subcontext",
            OpKind::GetAttributes => "get_attributes",
            OpKind::ModifyAttributes => "modify_attributes",
            OpKind::BindWithAttrs => "bind_with_attrs",
            OpKind::RebindWithAttrs => "rebind_with_attrs",
            OpKind::Search => "search",
            OpKind::AddListener => "add_listener",
            OpKind::RemoveListener => "remove_listener",
        }
    }

    /// Dense index for per-kind stats arrays.
    pub fn index(self) -> usize {
        ALL_OP_KINDS
            .iter()
            .position(|k| *k == self)
            .expect("listed")
    }

    /// Does this operation change namespace state? Mutations invalidate
    /// cached reads for the touched name.
    pub fn is_mutation(self) -> bool {
        matches!(
            self,
            OpKind::Bind
                | OpKind::Rebind
                | OpKind::Unbind
                | OpKind::Rename
                | OpKind::CreateSubcontext
                | OpKind::DestroySubcontext
                | OpKind::ModifyAttributes
                | OpKind::BindWithAttrs
                | OpKind::RebindWithAttrs
        )
    }

    /// Does this operation carry a value payload to be stored?
    pub fn carries_value(self) -> bool {
        matches!(
            self,
            OpKind::Bind | OpKind::Rebind | OpKind::BindWithAttrs | OpKind::RebindWithAttrs
        )
    }
}

/// The kind-specific request payload.
#[derive(Clone)]
pub enum OpPayload {
    /// No payload (lookup, unbind, list, …).
    None,
    /// A live value to store (bind/rebind before marshalling).
    Value(BoundValue),
    /// A pre-marshalled value (bind/rebind after the marshalling layer).
    Wire { bytes: Vec<u8>, class_name: String },
    /// The destination name of a rename.
    NewName(CompositeName),
    /// Attribute modifications.
    Mods(Vec<AttrMod>),
    /// A directory search.
    Query {
        filter: Filter,
        controls: SearchControls,
    },
    /// An event listener to register.
    Listener(Arc<dyn NamingListener>),
    /// A listener handle to unregister.
    Handle(ListenerHandle),
}

impl fmt::Debug for OpPayload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpPayload::None => write!(f, "None"),
            OpPayload::Value(v) => write!(f, "Value({})", v.class_name()),
            OpPayload::Wire { bytes, class_name } => {
                write!(f, "Wire({} bytes, {class_name})", bytes.len())
            }
            OpPayload::NewName(n) => write!(f, "NewName({n})"),
            OpPayload::Mods(m) => write!(f, "Mods({})", m.len()),
            OpPayload::Query { filter, .. } => write!(f, "Query({filter:?})"),
            OpPayload::Listener(_) => write!(f, "Listener"),
            OpPayload::Handle(h) => write!(f, "Handle({h:?})"),
        }
    }
}

/// A reified naming operation: one `Context`/`DirContext` call as a value.
#[derive(Clone, Debug)]
pub struct NamingOp {
    pub kind: OpKind,
    pub name: CompositeName,
    pub payload: OpPayload,
    /// Attributes accompanying `bind_with_attrs`/`rebind_with_attrs`.
    pub attrs: Option<Attributes>,
    /// The trace context this op executes under. A first-class
    /// interior-mutable cell so per-layer re-annotation is a handful of
    /// relaxed stores (no string encode, no op clone); the transport
    /// carries it in the envelope's trace field.
    pub trace: TraceCell,
}

impl NamingOp {
    fn raw(kind: OpKind, name: CompositeName, payload: OpPayload) -> Self {
        NamingOp {
            kind,
            name,
            payload,
            attrs: None,
            trace: TraceCell::empty(),
        }
    }

    pub fn lookup(name: CompositeName) -> Self {
        Self::raw(OpKind::Lookup, name, OpPayload::None)
    }

    pub fn bind(name: CompositeName, value: BoundValue) -> Self {
        Self::raw(OpKind::Bind, name, OpPayload::Value(value))
    }

    pub fn rebind(name: CompositeName, value: BoundValue) -> Self {
        Self::raw(OpKind::Rebind, name, OpPayload::Value(value))
    }

    pub fn unbind(name: CompositeName) -> Self {
        Self::raw(OpKind::Unbind, name, OpPayload::None)
    }

    pub fn rename(old: CompositeName, new: CompositeName) -> Self {
        Self::raw(OpKind::Rename, old, OpPayload::NewName(new))
    }

    pub fn list(name: CompositeName) -> Self {
        Self::raw(OpKind::List, name, OpPayload::None)
    }

    pub fn list_bindings(name: CompositeName) -> Self {
        Self::raw(OpKind::ListBindings, name, OpPayload::None)
    }

    pub fn create_subcontext(name: CompositeName) -> Self {
        Self::raw(OpKind::CreateSubcontext, name, OpPayload::None)
    }

    pub fn destroy_subcontext(name: CompositeName) -> Self {
        Self::raw(OpKind::DestroySubcontext, name, OpPayload::None)
    }

    pub fn get_attributes(name: CompositeName) -> Self {
        Self::raw(OpKind::GetAttributes, name, OpPayload::None)
    }

    pub fn modify_attributes(name: CompositeName, mods: Vec<AttrMod>) -> Self {
        Self::raw(OpKind::ModifyAttributes, name, OpPayload::Mods(mods))
    }

    pub fn bind_with_attrs(name: CompositeName, value: BoundValue, attrs: Attributes) -> Self {
        let mut op = Self::raw(OpKind::BindWithAttrs, name, OpPayload::Value(value));
        op.attrs = Some(attrs);
        op
    }

    pub fn rebind_with_attrs(name: CompositeName, value: BoundValue, attrs: Attributes) -> Self {
        let mut op = Self::raw(OpKind::RebindWithAttrs, name, OpPayload::Value(value));
        op.attrs = Some(attrs);
        op
    }

    pub fn search(name: CompositeName, filter: Filter, controls: SearchControls) -> Self {
        Self::raw(OpKind::Search, name, OpPayload::Query { filter, controls })
    }

    pub fn add_listener(name: CompositeName, listener: Arc<dyn NamingListener>) -> Self {
        Self::raw(OpKind::AddListener, name, OpPayload::Listener(listener))
    }

    pub fn remove_listener(handle: ListenerHandle) -> Self {
        Self::raw(
            OpKind::RemoveListener,
            CompositeName::empty(),
            OpPayload::Handle(handle),
        )
    }

    /// The value payload as a live [`BoundValue`], unmarshalling a wire
    /// payload if the marshalling layer already encoded it.
    pub fn value(&self) -> Result<BoundValue> {
        match &self.payload {
            OpPayload::Value(v) => Ok(v.clone()),
            OpPayload::Wire { bytes, .. } => Ok(codec::unmarshal(bytes)),
            _ => Err(NamingError::service(format!(
                "{} carries no value payload",
                self.kind.label()
            ))),
        }
    }

    /// The value payload as wire bytes plus its class name. If the
    /// marshalling interceptor already ran, the pre-encoded bytes are
    /// returned; otherwise the value is encoded here (so a pipeline without
    /// the marshalling layer still functions).
    pub fn wire_value(&self) -> Result<(Vec<u8>, String)> {
        match &self.payload {
            OpPayload::Wire { bytes, class_name } => Ok((bytes.clone(), class_name.clone())),
            OpPayload::Value(v) => Ok((codec::marshal(v)?, v.class_name().to_string())),
            _ => Err(NamingError::service(format!(
                "{} carries no value payload",
                self.kind.label()
            ))),
        }
    }

    fn payload_missing(&self) -> NamingError {
        NamingError::service(format!("{} payload missing", self.kind.label()))
    }

    /// The rename destination.
    pub fn new_name(&self) -> Result<&CompositeName> {
        match &self.payload {
            OpPayload::NewName(n) => Ok(n),
            _ => Err(self.payload_missing()),
        }
    }

    /// The attribute modifications of a `modify_attributes`.
    pub fn mods(&self) -> Result<&[AttrMod]> {
        match &self.payload {
            OpPayload::Mods(mods) => Ok(mods),
            _ => Err(self.payload_missing()),
        }
    }

    /// The filter and controls of a `search`.
    pub fn query(&self) -> Result<(&Filter, &SearchControls)> {
        match &self.payload {
            OpPayload::Query { filter, controls } => Ok((filter, controls)),
            _ => Err(self.payload_missing()),
        }
    }

    /// The listener an `add_listener` registers.
    pub fn listener(&self) -> Result<Arc<dyn NamingListener>> {
        match &self.payload {
            OpPayload::Listener(l) => Ok(l.clone()),
            _ => Err(self.payload_missing()),
        }
    }

    /// The handle a `remove_listener` unregisters.
    pub fn listener_handle(&self) -> Result<ListenerHandle> {
        match &self.payload {
            OpPayload::Handle(h) => Ok(*h),
            _ => Err(self.payload_missing()),
        }
    }

    /// How a sharded routing tier should place this operation.
    ///
    /// The routing key of a name is its *normalized first component*
    /// (leading/trailing whitespace trimmed): a partitioning layer that
    /// hashes only the head keeps every name under one top-level prefix on
    /// the same shard, so subtree operations (`list("apps")`,
    /// `search("apps", …)`) stay point-to-point. Ops whose target name is
    /// empty address the whole namespace and must scatter — as must
    /// `remove_listener`, which carries no name at all — and a `rename`
    /// routes by its *source* name; the router compares against
    /// [`NamingOp::new_name`]'s key to detect a cross-shard move.
    pub fn routing_key(&self) -> RoutingKey<'_> {
        match self.name.head().map(str::trim) {
            Some(head) if !head.is_empty() => RoutingKey::Shard(head),
            _ => RoutingKey::Scatter,
        }
    }

    /// The trace context this op is executing under, if any layer above
    /// annotated one.
    pub fn trace_ctx(&self) -> Option<TraceCtx> {
        self.trace.get()
    }

    /// Annotate this op with a trace context (overwriting any previous one).
    pub fn set_trace_ctx(&mut self, ctx: &TraceCtx) {
        self.trace.set(ctx);
    }
}

/// Where a sharded routing tier must send an operation — see
/// [`NamingOp::routing_key`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingKey<'a> {
    /// The op targets the namespace subtree rooted at this normalized
    /// first name component; exactly one shard owns it.
    Shard(&'a str),
    /// The op addresses the whole namespace (empty target name): every
    /// shard must be consulted and the results merged.
    Scatter,
}

/// The reified response of a [`NamingOp`].
#[derive(Clone)]
pub enum OpOutcome {
    /// A unit-returning operation completed.
    Done,
    /// A looked-up value.
    Value(BoundValue),
    /// A looked-up value still in wire form (decoded by the marshalling
    /// layer, or by the pipeline's context facade as a fallback).
    Wire(Vec<u8>),
    /// `list` results.
    Names(Vec<NameClassPair>),
    /// `list_bindings` results.
    Bindings(Vec<Binding>),
    /// `get_attributes` result.
    Attrs(Attributes),
    /// `search` results.
    Found(Vec<SearchItem>),
    /// `add_listener` result.
    Subscribed(ListenerHandle),
}

impl fmt::Debug for OpOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpOutcome::Done => write!(f, "Done"),
            OpOutcome::Value(v) => write!(f, "Value({})", v.class_name()),
            OpOutcome::Wire(b) => write!(f, "Wire({} bytes)", b.len()),
            OpOutcome::Names(n) => write!(f, "Names({})", n.len()),
            OpOutcome::Bindings(b) => write!(f, "Bindings({})", b.len()),
            OpOutcome::Attrs(a) => write!(f, "Attrs({})", a.len()),
            OpOutcome::Found(s) => write!(f, "Found({})", s.len()),
            OpOutcome::Subscribed(h) => write!(f, "Subscribed({h:?})"),
        }
    }
}

fn unexpected(kind: OpKind, got: &OpOutcome) -> NamingError {
    NamingError::service(format!(
        "{} returned an unexpected outcome {:?}",
        kind.label(),
        got
    ))
}

impl OpOutcome {
    pub fn into_value(self, kind: OpKind) -> Result<BoundValue> {
        match self {
            OpOutcome::Value(v) => Ok(v),
            OpOutcome::Wire(b) => Ok(codec::unmarshal(&b)),
            other => Err(unexpected(kind, &other)),
        }
    }

    pub fn into_done(self, kind: OpKind) -> Result<()> {
        match self {
            OpOutcome::Done => Ok(()),
            other => Err(unexpected(kind, &other)),
        }
    }

    pub fn into_names(self, kind: OpKind) -> Result<Vec<NameClassPair>> {
        match self {
            OpOutcome::Names(n) => Ok(n),
            other => Err(unexpected(kind, &other)),
        }
    }

    pub fn into_bindings(self, kind: OpKind) -> Result<Vec<Binding>> {
        match self {
            OpOutcome::Bindings(b) => Ok(b),
            other => Err(unexpected(kind, &other)),
        }
    }

    pub fn into_attrs(self, kind: OpKind) -> Result<Attributes> {
        match self {
            OpOutcome::Attrs(a) => Ok(a),
            other => Err(unexpected(kind, &other)),
        }
    }

    pub fn into_found(self, kind: OpKind) -> Result<Vec<SearchItem>> {
        match self {
            OpOutcome::Found(s) => Ok(s),
            other => Err(unexpected(kind, &other)),
        }
    }

    pub fn into_handle(self, kind: OpKind) -> Result<ListenerHandle> {
        match self {
            OpOutcome::Subscribed(h) => Ok(h),
            other => Err(unexpected(kind, &other)),
        }
    }
}

/// Run one reified op against a context, as it stands: its annotations
/// (the trace context above all) reach the backend with it.
pub fn dispatch(ctx: &dyn DirContext, op: &NamingOp) -> Result<OpOutcome> {
    ctx.execute(op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemContext;
    use crate::value::Reference;

    #[test]
    fn codec_roundtrip_and_foreign_bytes() {
        let v = BoundValue::str("hello");
        assert_eq!(codec::unmarshal(&codec::marshal(&v).unwrap()), v);
        let r = BoundValue::Reference(Reference::url("jini://h"));
        assert_eq!(codec::unmarshal(&codec::marshal(&r).unwrap()), r);
        assert!(matches!(
            codec::unmarshal(b"\x00\x01 not json"),
            BoundValue::Bytes(_)
        ));
        assert!(matches!(
            codec::marshal(&BoundValue::Context(Arc::new(MemContext::new()))),
            Err(NamingError::NotSupported { .. })
        ));
    }

    #[test]
    fn wire_value_encodes_on_demand_and_reuses_preencoded() {
        let op = NamingOp::bind("a".into(), BoundValue::str("x"));
        let (bytes, class) = op.wire_value().unwrap();
        assert_eq!(class, "string");
        assert_eq!(codec::unmarshal(&bytes), BoundValue::str("x"));

        let mut wired = op.clone();
        wired.payload = OpPayload::Wire {
            bytes: bytes.clone(),
            class_name: class.clone(),
        };
        assert_eq!(wired.wire_value().unwrap().0, bytes);
        assert_eq!(wired.value().unwrap(), BoundValue::str("x"));
    }

    #[test]
    fn dispatch_covers_the_context_surface() {
        let ctx = MemContext::new();
        dispatch(&ctx, &NamingOp::bind("a".into(), BoundValue::str("1")))
            .unwrap()
            .into_done(OpKind::Bind)
            .unwrap();
        let v = dispatch(&ctx, &NamingOp::lookup("a".into()))
            .unwrap()
            .into_value(OpKind::Lookup)
            .unwrap();
        assert_eq!(v.as_str(), Some("1"));
        let names = dispatch(&ctx, &NamingOp::list(CompositeName::empty()))
            .unwrap()
            .into_names(OpKind::List)
            .unwrap();
        assert_eq!(names.len(), 1);
        dispatch(&ctx, &NamingOp::rename("a".into(), "b".into()))
            .unwrap()
            .into_done(OpKind::Rename)
            .unwrap();
        assert!(dispatch(&ctx, &NamingOp::lookup("a".into())).is_err());
        dispatch(&ctx, &NamingOp::unbind("b".into()))
            .unwrap()
            .into_done(OpKind::Unbind)
            .unwrap();
    }

    #[test]
    fn routing_keys_partition_by_head_component() {
        assert_eq!(
            NamingOp::lookup("apps/web/frontend".into()).routing_key(),
            RoutingKey::Shard("apps")
        );
        assert_eq!(
            NamingOp::rebind("apps".into(), BoundValue::str("v")).routing_key(),
            RoutingKey::Shard("apps")
        );
        // Rename routes by its source; the destination key is read
        // separately by the router to detect cross-shard moves.
        let mv = NamingOp::rename("east/a".into(), "west/a".into());
        assert_eq!(mv.routing_key(), RoutingKey::Shard("east"));
        assert_eq!(mv.new_name().unwrap().head(), Some("west"));
        // Whole-namespace ops scatter.
        assert_eq!(
            NamingOp::list(CompositeName::empty()).routing_key(),
            RoutingKey::Scatter
        );
        assert_eq!(
            NamingOp::remove_listener(ListenerHandle::from_raw(7)).routing_key(),
            RoutingKey::Scatter
        );
    }

    #[test]
    fn outcome_conversions_reject_mismatches() {
        assert!(OpOutcome::Done.into_value(OpKind::Lookup).is_err());
        assert!(OpOutcome::Value(BoundValue::Null)
            .into_done(OpKind::Bind)
            .is_err());
        let wire = OpOutcome::Wire(codec::marshal(&BoundValue::I64(7)).unwrap());
        assert_eq!(wire.into_value(OpKind::Lookup).unwrap(), BoundValue::I64(7));
    }
}
