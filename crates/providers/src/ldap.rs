//! The LDAP service provider.
//!
//! Standard JNDI ships an LDAP provider; ours maps onto `dirserv`.
//! Composite-name components become RDNs (a component may spell its RDN
//! explicitly — `ou=dcl` — or defaults to `cn=<component>`); generic
//! values are stored in `rndiObject` entries under the `rndiValue`
//! attribute; RNDI search filters translate structurally to LDAP filters.
//! A stored value that is a naming URL acts as a federation mount, as in
//! every other provider.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use dirserv::server::{Connection, Modification};
use dirserv::{DirectoryServer, Dn, LdapEntry, LdapFilter, Rdn, ResultCode, Scope};

use rndi_core::attrs::{AttrMod, AttrValue, Attribute, Attributes};
use rndi_core::context::{
    Binding, DirContext, NameClassPair, SearchControls, SearchItem, SearchScope,
};
use rndi_core::env::{keys, Environment};
use rndi_core::error::{NamingError, Result};
use rndi_core::filter::Filter;
use rndi_core::name::CompositeName;
use rndi_core::op::{NamingOp, OpKind, OpOutcome};
use rndi_core::spi::boundary::{self, Bound};
use rndi_core::spi::{ProviderBackend, ProviderPipeline, UrlContextFactory, WireFormat};
use rndi_core::url::RndiUrl;
use rndi_core::value::BoundValue;
use rndi_obs::TraceCtx;

use crate::common::{self, MsClock};

const VALUE_ATTR: &str = "rndiValue";
const CLASS_ATTR: &str = "objectClass";
const RNDI_CLASS: &str = "rndiObject";

fn code_err(code: ResultCode, detail: String) -> NamingError {
    match code {
        ResultCode::NoSuchObject => NamingError::not_found(detail),
        ResultCode::EntryAlreadyExists => NamingError::already_bound(detail),
        ResultCode::NotAllowedOnNonLeaf => NamingError::ContextNotEmpty { name: detail },
        ResultCode::InvalidCredentials | ResultCode::InsufficientAccessRights => {
            NamingError::NoPermission { detail }
        }
        ResultCode::InvalidDnSyntax => NamingError::invalid_name(detail, "invalid DN"),
        ResultCode::ObjectClassViolation => NamingError::InvalidName {
            name: detail,
            reason: "schema violation".into(),
        },
        ResultCode::NamingViolation => NamingError::InvalidName {
            name: detail,
            reason: "naming violation".into(),
        },
        other => NamingError::service(format!("LDAP error {other:?}: {detail}")),
    }
}

/// Translate an RNDI filter into the server's dialect (structure-for-
/// structure; both speak RFC 2254).
fn to_ldap_filter(f: &Filter) -> Result<LdapFilter> {
    LdapFilter::parse(&f.to_string()).map_err(|reason| NamingError::InvalidSearchFilter {
        filter: f.to_string(),
        reason,
    })
}

/// A naming backend over one LDAP directory server. Implements
/// [`ProviderBackend`]; the `Context`/`DirContext` surface comes from the
/// [`ProviderPipeline`] returned by [`LdapProviderContext::new`].
pub struct LdapProviderContext {
    conn: Connection,
    base: Dn,
    clock: Arc<dyn MsClock>,
    instance: String,
}

impl LdapProviderContext {
    pub fn new(
        conn: Connection,
        base: Dn,
        clock: Arc<dyn MsClock>,
        instance: &str,
    ) -> Arc<ProviderPipeline<Self>> {
        Self::with_env(conn, base, clock, instance, &Environment::new())
    }

    /// Construct with an environment controlling the pipeline stack.
    pub fn with_env(
        conn: Connection,
        base: Dn,
        clock: Arc<dyn MsClock>,
        instance: &str,
        env: &Environment,
    ) -> Arc<ProviderPipeline<Self>> {
        ProviderPipeline::standard(
            Arc::new(LdapProviderContext {
                conn,
                base,
                clock,
                instance: instance.to_string(),
            }),
            env,
        )
    }

    /// The RDN a component names, as `(attribute, value)`.
    fn component_rdn(component: &str) -> Result<(&str, &str)> {
        if component.contains('=') {
            Rdn::split(component).map_err(|reason| NamingError::invalid_name(component, reason))
        } else if component.is_empty() {
            Err(NamingError::invalid_name(component, "empty component"))
        } else {
            Ok(("cn", component))
        }
    }

    /// DN for the first `k` components: their RDNs leaf-first, then the
    /// base's, written as one string.
    fn dn(&self, name: &CompositeName, k: usize) -> Result<Dn> {
        let leaf_first = name.iter().take(k).rev();
        self.base.under(leaf_first.map(Self::component_rdn))
    }

    fn read(&self, dn: &Dn, trace: Option<&TraceCtx>) -> Result<Option<Arc<LdapEntry>>> {
        match self.conn.read_traced(dn, self.clock.now_ms(), trace) {
            Ok((entry, _)) => Ok(Some(entry)),
            Err((ResultCode::NoSuchObject, _)) => Ok(None),
            Err((code, detail)) => Err(code_err(code, detail)),
        }
    }

    fn decode(entry: &LdapEntry) -> BoundValue {
        match entry.first(VALUE_ATTR) {
            Some(text) => common::unmarshal(text.as_bytes()),
            None => BoundValue::Null, // structural / foreign entry
        }
    }

    /// Answers the federation probe: the entry at the longest DN that
    /// exists among those of the first `upto` components — one `read` per
    /// candidate, from the longest down. Any entry can have children, a
    /// link included.
    fn bound_prefix(
        &self,
        name: &CompositeName,
        upto: usize,
        trace: Option<&TraceCtx>,
    ) -> Result<Option<Bound>> {
        for k in (1..=upto).rev() {
            if let Some(entry) = self.read(&self.dn(name, k)?, trace)? {
                return Ok(Some(Bound {
                    holds_names: true,
                    ..Bound::leaf(k, Self::decode(&entry))
                }));
            }
        }
        Ok(None)
    }

    fn core_attrs(entry: &LdapEntry) -> Attributes {
        let mut out = Attributes::new();
        for a in entry.attrs() {
            if a.id().eq_ignore_ascii_case(VALUE_ATTR) {
                continue;
            }
            let mut attr = Attribute::new(a.id());
            for v in a.values() {
                attr = attr.with(v);
            }
            out.put(attr);
        }
        out
    }

    fn build_entry(
        &self,
        dn: Dn,
        payload: Vec<u8>,
        attrs: Option<&Attributes>,
    ) -> Result<LdapEntry> {
        let rdn = dn
            .rdn()
            .ok_or_else(|| NamingError::invalid_name("", "cannot bind the base DN"))?;
        let mut entry = LdapEntry::new(dn.clone());
        entry.add_value(CLASS_ATTR, RNDI_CLASS);
        entry.add_value(&rdn.attr(), rdn.value());
        // Every marshalled value is text; only foreign bytes are not.
        entry.add_value(
            VALUE_ATTR,
            String::from_utf8(payload)
                .map_err(|_| NamingError::unsupported("non-UTF8 payloads in LDAP"))?,
        );
        for a in attrs.into_iter().flat_map(Attributes::iter) {
            for v in &a.values {
                if let AttrValue::Str(s) = v {
                    entry.add_value(&a.id, s.clone());
                }
            }
        }
        Ok(entry)
    }
}

impl LdapProviderContext {
    fn lookup(&self, name: &CompositeName, trace: Option<&TraceCtx>) -> Result<BoundValue> {
        if name.is_empty() {
            return Err(NamingError::invalid_name("", "empty name"));
        }
        let dn = self.dn(name, name.len())?;
        match self.read(&dn, trace)? {
            Some(entry) => Ok(Self::decode(&entry)),
            None => Err(NamingError::not_found(dn.to_string())),
        }
    }

    fn unbind(&self, name: &CompositeName, trace: Option<&TraceCtx>) -> Result<()> {
        let dn = self.dn(name, name.len())?;
        match self.conn.delete_traced(&dn, trace) {
            Ok(()) => Ok(()),
            Err((ResultCode::NoSuchObject, _)) => Ok(()), // idempotent
            Err((code, detail)) => Err(code_err(code, detail)),
        }
    }

    fn rename(
        &self,
        old: &CompositeName,
        new: &CompositeName,
        trace: Option<&TraceCtx>,
    ) -> Result<()> {
        if old.is_empty() {
            return Err(NamingError::invalid_name("", "the base entry is fixed"));
        }
        let old_dn = self.dn(old, old.len())?;
        let (attr, value) = Self::component_rdn(
            new.iter()
                .next_back()
                .ok_or_else(|| NamingError::invalid_name("", "empty target"))?,
        )?;
        let new_rdn = Rdn::new(attr, value);
        // LDAP modifyRDN renames within the same parent.
        if old.prefix(old.len() - 1) != new.prefix(new.len() - 1) {
            return Err(NamingError::unsupported(
                "LDAP rename across parents (modifyRDN is same-parent)",
            ));
        }
        self.conn
            .modify_rdn_traced(&old_dn, new_rdn, trace)
            .map(|_| ())
            .map_err(|(c, d)| code_err(c, d))
    }

    /// The entries directly under `name`: what both listings read.
    fn children(
        &self,
        name: &CompositeName,
        trace: Option<&TraceCtx>,
    ) -> Result<Vec<Arc<LdapEntry>>> {
        let base = self.dn(name, name.len())?;
        self.conn
            .search_traced(
                &base,
                Scope::OneLevel,
                &LdapFilter::match_all(),
                None,
                self.clock.now_ms(),
                trace,
            )
            .map(|out| out.entries)
            .map_err(|(c, d)| code_err(c, d))
    }

    fn list(&self, name: &CompositeName, trace: Option<&TraceCtx>) -> Result<Vec<NameClassPair>> {
        Ok(self
            .children(name, trace)?
            .iter()
            .map(|e| NameClassPair {
                name: e
                    .dn
                    .rdn()
                    .map(|r| r.as_str().to_owned())
                    .unwrap_or_default(),
                class_name: Self::decode(e).class_name().to_string(),
            })
            .collect())
    }

    fn list_bindings(
        &self,
        name: &CompositeName,
        trace: Option<&TraceCtx>,
    ) -> Result<Vec<Binding>> {
        Ok(self
            .children(name, trace)?
            .iter()
            .map(|e| Binding {
                name: e
                    .dn
                    .rdn()
                    .map(|r| r.as_str().to_owned())
                    .unwrap_or_default(),
                value: Self::decode(e),
            })
            .collect())
    }

    fn create_subcontext(&self, name: &CompositeName, trace: Option<&TraceCtx>) -> Result<()> {
        let dn = self.dn(name, name.len())?;
        let rdn = dn
            .rdn()
            .ok_or_else(|| NamingError::invalid_name("", "empty name"))?;
        let mut entry = LdapEntry::new(dn.clone());
        let class = if rdn.attr() == "ou" {
            "organizationalUnit"
        } else {
            RNDI_CLASS
        };
        entry.add_value(CLASS_ATTR, class);
        entry.add_value(&rdn.attr(), rdn.value());
        self.conn
            .add_traced(entry, trace)
            .map_err(|(c, d)| code_err(c, d))
    }

    fn destroy_subcontext(&self, name: &CompositeName, trace: Option<&TraceCtx>) -> Result<()> {
        self.unbind(name, trace)
    }

    fn get_attributes(&self, name: &CompositeName, trace: Option<&TraceCtx>) -> Result<Attributes> {
        let dn = self.dn(name, name.len())?;
        let entry = self
            .read(&dn, trace)?
            .ok_or_else(|| NamingError::not_found(dn.to_string()))?;
        Ok(Self::core_attrs(&entry))
    }

    fn modify_attributes(
        &self,
        name: &CompositeName,
        mods: &[AttrMod],
        trace: Option<&TraceCtx>,
    ) -> Result<()> {
        let dn = self.dn(name, name.len())?;
        let strs = |a: &Attribute| -> Vec<String> {
            let held = a.values.iter().filter_map(|v| v.as_str().map(String::from));
            held.collect()
        };
        let ldap_mods: Vec<Modification> = mods
            .iter()
            .map(|m| match m {
                AttrMod::Add(a) => Modification::Add(a.id.clone(), strs(a)),
                AttrMod::Replace(a) => Modification::Replace(a.id.clone(), strs(a)),
                AttrMod::Remove(id) => Modification::Delete(id.clone(), vec![]),
                AttrMod::RemoveValues(a) => Modification::Delete(a.id.clone(), strs(a)),
            })
            .collect();
        self.conn
            .modify_traced(&dn, &ldap_mods, trace)
            .map_err(|(c, d)| code_err(c, d))
    }

    fn bind_with_attrs(
        &self,
        name: &CompositeName,
        payload: Vec<u8>,
        attrs: Option<&Attributes>,
        trace: Option<&TraceCtx>,
    ) -> Result<()> {
        let dn = self.dn(name, name.len())?;
        let entry = self.build_entry(dn, payload, attrs)?;
        self.conn
            .add_traced(entry, trace)
            .map_err(|(c, d)| code_err(c, d))
    }

    fn rebind_with_attrs(
        &self,
        name: &CompositeName,
        payload: Vec<u8>,
        attrs: Option<&Attributes>,
        trace: Option<&TraceCtx>,
    ) -> Result<()> {
        let dn = self.dn(name, name.len())?;
        let entry = self.build_entry(dn, payload, attrs)?;
        // One server operation: the entry is validated, then swapped in
        // under the server's lock, so a concurrent reader never finds the
        // name unbound and a refused rebind leaves the old binding.
        self.conn
            .replace_traced(entry, trace)
            .map_err(|(c, d)| code_err(c, d))
    }

    fn search(
        &self,
        name: &CompositeName,
        filter: &Filter,
        controls: &SearchControls,
        trace: Option<&TraceCtx>,
    ) -> Result<Vec<SearchItem>> {
        let base = self.dn(name, name.len())?;
        let scope = match controls.scope {
            SearchScope::Object => Scope::Base,
            SearchScope::OneLevel => Scope::OneLevel,
            SearchScope::Subtree => Scope::Subtree,
        };
        let ldap_filter = to_ldap_filter(filter)?;
        let attrs_proj: Option<Vec<String>> = controls.return_attrs.clone();
        let out = self
            .conn
            .search_traced(
                &base,
                scope,
                &ldap_filter,
                attrs_proj.as_deref(),
                self.clock.now_ms(),
                trace,
            )
            .map_err(|(c, d)| code_err(c, d))?;
        let mut items: Vec<SearchItem> = out
            .entries
            .iter()
            .map(|e| SearchItem {
                name: relative_name(&e.dn, &base),
                value: controls.return_values.then(|| Self::decode(e)),
                attrs: Self::core_attrs(e),
            })
            .collect();
        if controls.count_limit > 0 {
            items.truncate(controls.count_limit);
        }
        Ok(items)
    }
}

impl ProviderBackend for LdapProviderContext {
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        // The server accepts the client's trace context directly (same
        // process), standing in for the wire frame a remote LDAP
        // connection would carry.
        let trace = op.trace_ctx();
        let trace = trace.as_ref();
        boundary::run(
            op,
            |upto| self.bound_prefix(&op.name, upto, trace),
            || match op.kind {
                OpKind::Lookup => self.lookup(&op.name, trace).map(OpOutcome::Value),
                OpKind::Bind | OpKind::BindWithAttrs => {
                    let (payload, _) = op.wire_value()?;
                    self.bind_with_attrs(&op.name, payload, op.attrs.as_ref(), trace)?;
                    Ok(OpOutcome::Done)
                }
                OpKind::Rebind | OpKind::RebindWithAttrs => {
                    let (payload, _) = op.wire_value()?;
                    self.rebind_with_attrs(&op.name, payload, op.attrs.as_ref(), trace)?;
                    Ok(OpOutcome::Done)
                }
                OpKind::Unbind => self.unbind(&op.name, trace).map(|_| OpOutcome::Done),
                OpKind::Rename => self
                    .rename(&op.name, op.new_name()?, trace)
                    .map(|_| OpOutcome::Done),
                OpKind::List => self.list(&op.name, trace).map(OpOutcome::Names),
                OpKind::ListBindings => {
                    self.list_bindings(&op.name, trace).map(OpOutcome::Bindings)
                }
                OpKind::CreateSubcontext => self
                    .create_subcontext(&op.name, trace)
                    .map(|_| OpOutcome::Done),
                OpKind::DestroySubcontext => self
                    .destroy_subcontext(&op.name, trace)
                    .map(|_| OpOutcome::Done),
                OpKind::GetAttributes => self.get_attributes(&op.name, trace).map(OpOutcome::Attrs),
                OpKind::ModifyAttributes => self
                    .modify_attributes(&op.name, op.mods()?, trace)
                    .map(|_| OpOutcome::Done),
                OpKind::Search => {
                    let (filter, controls) = op.query()?;
                    self.search(&op.name, filter, controls, trace)
                        .map(OpOutcome::Found)
                }
                // dirserv has no change-notification protocol.
                _ => Err(NamingError::unsupported(op.kind.label())),
            },
        )
    }

    fn provider_id(&self) -> String {
        format!("ldap:{}/{}", self.instance, self.base)
    }

    fn compound_syntax(&self) -> rndi_core::name::CompoundSyntax {
        rndi_core::name::CompoundSyntax::ldap()
    }

    fn wire_format(&self) -> WireFormat {
        WireFormat::Encoded
    }
}

/// Render `dn` relative to `base` as a composite-style name.
fn relative_name(dn: &Dn, base: &Dn) -> String {
    let extra = dn.depth().saturating_sub(base.depth());
    let mut rdns: Vec<&str> = dn.rdns().take(extra).map(|r| r.as_str()).collect();
    rdns.reverse();
    rdns.join("/")
}

/// URL factory: `ldap://host[:port]/...`. Hosts map to a server plus the
/// base DN the provider roots composite names at.
pub struct LdapFactory {
    hosts: Mutex<HashMap<String, (DirectoryServer, Dn)>>,
    clock: Arc<dyn MsClock>,
    /// One pipeline per `host|principal` pair — connections carry an
    /// authentication identity, so different principals must not share a
    /// cached context (or its lookup cache).
    contexts: Mutex<HashMap<String, Arc<ProviderPipeline<LdapProviderContext>>>>,
}

impl LdapFactory {
    pub fn new(clock: Arc<dyn MsClock>) -> Arc<Self> {
        Arc::new(LdapFactory {
            hosts: Mutex::new(HashMap::new()),
            clock,
            contexts: Mutex::new(HashMap::new()),
        })
    }

    pub fn register_host(&self, host: &str, server: DirectoryServer, base: Dn) {
        self.hosts.lock().insert(host.to_string(), (server, base));
        let prefix = format!("{host}|");
        self.contexts.lock().retain(|k, _| !k.starts_with(&prefix));
    }
}

impl UrlContextFactory for LdapFactory {
    fn scheme(&self) -> &str {
        "ldap"
    }

    fn create(&self, url: &RndiUrl, env: &Environment) -> Result<Arc<dyn DirContext>> {
        let key = format!(
            "{}|{}",
            url.host,
            env.get(keys::SECURITY_PRINCIPAL).unwrap_or("")
        );
        if let Some(ctx) = self.contexts.lock().get(&key) {
            return Ok(ctx.clone());
        }
        let (server, base) = self.hosts.lock().get(&url.host).cloned().ok_or_else(|| {
            NamingError::service(format!("no LDAP server registered for {}", url.host))
        })?;
        // Service-specific credentials flow through the environment — the
        // "service-specific configuration parameters" §3 mentions.
        let conn = match (
            env.get(keys::SECURITY_PRINCIPAL),
            env.get(keys::SECURITY_CREDENTIALS),
        ) {
            (Some(principal), Some(password)) => {
                let dn =
                    Dn::parse(principal).map_err(|r| NamingError::invalid_name(principal, r))?;
                server
                    .simple_bind(&dn, password)
                    .map_err(|(c, d)| code_err(c, d))?
            }
            _ => server.connect_anonymous(),
        };
        let ctx = LdapProviderContext::with_env(conn, base, self.clock.clone(), &url.host, env);
        self.contexts.lock().insert(key, ctx.clone());
        Ok(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirserv::ServerConfig;
    use rndi_core::context::{Context, ContextExt, DirContext};
    use rndi_core::value::Reference;
    use rndi_obs::clock::ManualClock;

    fn setup() -> (Arc<ProviderPipeline<LdapProviderContext>>, DirectoryServer) {
        let server = DirectoryServer::new(ServerConfig {
            read_throttle_per_sec: None,
            validate_schema: true,
            ..Default::default()
        });
        let conn = server.connect_anonymous();
        conn.add(
            LdapEntry::new(Dn::parse("o=emory").unwrap())
                .with("objectClass", "organization")
                .with("o", "emory"),
        )
        .unwrap();
        let ctx = LdapProviderContext::new(
            server.connect_anonymous(),
            Dn::parse("o=emory").unwrap(),
            ManualClock::new(),
            "test",
        );
        (ctx, server)
    }

    #[test]
    fn bind_lookup_roundtrip() {
        let (ctx, server) = setup();
        ctx.bind_str("mokey", "the-monkey").unwrap();
        assert_eq!(
            ctx.lookup_str("mokey").unwrap().as_str(),
            Some("the-monkey")
        );
        assert_eq!(server.entry_count(), 2);
    }

    #[test]
    fn atomic_bind_maps_entry_exists() {
        let (ctx, _) = setup();
        ctx.bind_str("k", "1").unwrap();
        assert!(matches!(
            ctx.bind_str("k", "2"),
            Err(NamingError::AlreadyBound { .. })
        ));
        ctx.rebind_str("k", "2").unwrap();
        assert_eq!(ctx.lookup_str("k").unwrap().as_str(), Some("2"));
    }

    #[test]
    fn explicit_rdn_components() {
        let (ctx, _) = setup();
        ctx.create_subcontext(&"ou=dcl".into()).unwrap();
        ctx.bind_str("ou=dcl/host1", "stub").unwrap();
        assert_eq!(
            ctx.lookup_str("ou=dcl/host1").unwrap().as_str(),
            Some("stub")
        );
        let names: Vec<String> = ctx
            .list(&"ou=dcl".into())
            .unwrap()
            .into_iter()
            .map(|p| p.name)
            .collect();
        assert_eq!(names, vec!["cn=host1"]);
    }

    #[test]
    fn hierarchy_requires_parent() {
        let (ctx, _) = setup();
        assert!(matches!(
            ctx.bind_str("missing/child", "v"),
            Err(NamingError::NameNotFound { .. })
        ));
    }

    #[test]
    fn unbind_idempotent_and_nonleaf_guard() {
        let (ctx, _) = setup();
        ctx.create_subcontext(&"ou=lab".into()).unwrap();
        ctx.bind_str("ou=lab/x", "v").unwrap();
        assert!(matches!(
            ctx.unbind_str("ou=lab"),
            Err(NamingError::ContextNotEmpty { .. })
        ));
        ctx.unbind_str("ou=lab/x").unwrap();
        ctx.unbind_str("ou=lab/x").unwrap(); // idempotent
        ctx.unbind_str("ou=lab").unwrap();
    }

    #[test]
    fn attributes_and_search() {
        let (ctx, _) = setup();
        ctx.bind_with_attrs(
            &"node1".into(),
            BoundValue::str("s"),
            common::attrs(&[("description", "compute node"), ("owner", "dcl")]),
        )
        .unwrap();
        ctx.bind_with_attrs(
            &"node2".into(),
            BoundValue::str("s"),
            common::attrs(&[("description", "storage node")]),
        )
        .unwrap();

        let attrs = ctx.get_attributes(&"node1".into()).unwrap();
        assert_eq!(attrs.get("owner").unwrap().first_str(), Some("dcl"));
        assert!(!attrs.contains(VALUE_ATTR), "internal attr hidden");

        let hits = ctx
            .search(
                &CompositeName::empty(),
                &Filter::parse("(description=compute*)").unwrap(),
                &SearchControls::default(),
            )
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name, "cn=node1");
    }

    #[test]
    fn modify_attributes() {
        let (ctx, _) = setup();
        ctx.bind_with_attrs(
            &"e".into(),
            BoundValue::Null,
            common::attrs(&[("description", "old")]),
        )
        .unwrap();
        ctx.modify_attributes(
            &"e".into(),
            &[AttrMod::Replace(Attribute::single("description", "new"))],
        )
        .unwrap();
        let attrs = ctx.get_attributes(&"e".into()).unwrap();
        assert_eq!(attrs.get("description").unwrap().first_str(), Some("new"));
    }

    #[test]
    fn rename_same_parent() {
        let (ctx, _) = setup();
        ctx.bind_str("old", "v").unwrap();
        ctx.rename(&"old".into(), &"new".into()).unwrap();
        assert!(ctx.lookup_str("old").is_err());
        assert_eq!(ctx.lookup_str("new").unwrap().as_str(), Some("v"));
    }

    #[test]
    fn federation_mount_via_stored_url() {
        let (ctx, _) = setup();
        ctx.bind(
            &"jiniServer".into(),
            BoundValue::Reference(Reference::url("jini://host1")),
        )
        .unwrap();
        // The paper's ldap://host/n=jiniServer/... case.
        let err = ctx.lookup(&"jiniServer/grp/obj".into()).unwrap_err();
        match err {
            NamingError::Continue {
                resolved,
                remaining,
                ..
            } => {
                assert_eq!(
                    resolved.as_reference().unwrap().url_addr(),
                    Some("jini://host1")
                );
                assert_eq!(remaining.to_string(), "grp/obj");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn authenticated_writes() {
        let server = DirectoryServer::new(ServerConfig {
            writes_require_auth: true,
            read_throttle_per_sec: None,
            ..Default::default()
        });
        let admin = server
            .simple_bind(&Dn::parse("cn=admin").unwrap(), "secret")
            .unwrap();
        admin
            .add(
                LdapEntry::new(Dn::parse("o=emory").unwrap())
                    .with("objectClass", "organization")
                    .with("o", "emory"),
            )
            .unwrap();
        let anon_ctx = LdapProviderContext::new(
            server.connect_anonymous(),
            Dn::parse("o=emory").unwrap(),
            ManualClock::new(),
            "t",
        );
        assert!(matches!(
            anon_ctx.bind_str("x", "v"),
            Err(NamingError::NoPermission { .. })
        ));
        let admin_ctx = LdapProviderContext::new(
            server
                .simple_bind(&Dn::parse("cn=admin").unwrap(), "secret")
                .unwrap(),
            Dn::parse("o=emory").unwrap(),
            ManualClock::new(),
            "t",
        );
        admin_ctx.bind_str("x", "v").unwrap();
        assert_eq!(anon_ctx.lookup_str("x").unwrap().as_str(), Some("v"));
    }

    #[test]
    fn rebind_never_leaves_the_name_unbound() {
        // A name that is only ever re-bound must resolve at every instant:
        // the reader spins on `lookup` while 20 000 rebinds land.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::mpsc;

        let (ctx, _) = setup();
        ctx.bind_str("pinned", "v0").unwrap();
        let done = AtomicBool::new(false);
        let (reading, started) = mpsc::channel();
        let (reads, failures) = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let (mut reads, mut failures) = (0u64, Vec::new());
                while !done.load(Ordering::Acquire) {
                    if let Err(e) = ctx.lookup_str("pinned") {
                        failures.push(e.to_string());
                    }
                    reads += 1;
                    if reads == 1 {
                        reading.send(()).expect("the writer waits for this");
                    }
                }
                (reads, failures)
            });
            // The rebinds start only once the reader is running.
            started.recv().expect("reader started");
            for i in 0..20_000 {
                ctx.rebind_str("pinned", format!("v{i}")).unwrap();
            }
            done.store(true, Ordering::Release);
            reader.join().expect("reader thread")
        });
        assert!(reads > 1, "the reader ran alongside the rebinds");
        assert!(
            failures.is_empty(),
            "{} of {reads} lookups failed, first: {}",
            failures.len(),
            failures[0]
        );
        assert_eq!(ctx.lookup_str("pinned").unwrap().as_str(), Some("v19999"));
    }

    #[test]
    fn refused_rebind_keeps_the_old_binding() {
        let (ctx, server) = setup();
        ctx.bind_str("kept", "old").unwrap();
        // A caller attribute the schema rejects: the server must refuse
        // before it touches the entry.
        let err = ctx
            .rebind_with_attrs(
                &"kept".into(),
                BoundValue::str("new"),
                Attributes::new().with("objectClass", "martian"),
            )
            .unwrap_err();
        assert!(
            matches!(&err, NamingError::InvalidName { reason, .. } if reason == "schema violation"),
            "unexpected {err:?}"
        );
        assert_eq!(ctx.lookup_str("kept").unwrap().as_str(), Some("old"));

        // An entry with children is refused as before, and stays.
        ctx.create_subcontext(&"unit".into()).unwrap();
        ctx.bind_str("unit/leaf", "x").unwrap();
        assert!(matches!(
            ctx.rebind_str("unit", "flattened"),
            Err(NamingError::ContextNotEmpty { .. })
        ));
        assert_eq!(ctx.lookup_str("unit/leaf").unwrap().as_str(), Some("x"));

        // Absent names are simply bound; a missing parent is an error.
        let entries = server.entry_count();
        ctx.rebind_str("fresh", "1").unwrap();
        assert_eq!(server.entry_count(), entries + 1);
        assert!(ctx.rebind_str("ou=ghost/leaf", "1").is_err());
        assert_eq!(server.entry_count(), entries + 1);
    }
}
