//! The DNS service provider.
//!
//! DNS is the read-only, world-scale root of the paper's federation (§6):
//! "we propose to anchor the federated naming system in DNS, so that a
//! common, well-known service name is resolved to a nearest HDNS node."
//!
//! Mapping: the URL host selects an *anchor domain* (e.g. `global` →
//! `global.emory.edu`); composite-name components become DNS labels under
//! it (reversed — most significant last in DNS). Values live in TXT
//! records; a TXT value that parses as a naming URL is a federation link.
//! A name with a record of its own resolves to that record; otherwise the
//! **longest bound prefix** — the anchor included — answers the federation
//! probe, and resolution continues in the naming system a link found there
//! points at. Updates are administrative (zone edits), so every write that
//! does not leave through a link reports `NotSupported` — exactly DNS's
//! "updates are rare and client-driven update is absent" profile.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use minidns::{DnsName, RData, RecordType, ResolveError, Resolver};

use rndi_core::attrs::Attributes;
use rndi_core::context::DirContext;
use rndi_core::env::Environment;
use rndi_core::error::{NamingError, Result};
use rndi_core::name::CompositeName;
use rndi_core::op::{NamingOp, OpKind, OpOutcome};
use rndi_core::spi::boundary::{self, Bound, Holds, Keeper};
use rndi_core::spi::{ProviderBackend, ProviderPipeline, UrlContextFactory};
use rndi_core::url::{looks_like_url, RndiUrl};
use rndi_core::value::{BoundValue, Reference};

use crate::common::MsClock;

/// A read-only naming backend over a DNS resolver, rooted at an anchor
/// domain. Implements [`ProviderBackend`]; the full `Context`/`DirContext`
/// surface comes from the [`ProviderPipeline`] wrapper returned by
/// [`DnsProviderContext::new`].
pub struct DnsProviderContext {
    resolver: Arc<Resolver>,
    anchor: DnsName,
    ttl: Arc<Ttl>,
    instance: String,
}

/// What keeps a link this provider found: answers that lapse on its clock,
/// for the names beneath the anchor it takes at all.
struct Ttl {
    clock: Arc<dyn MsClock>,
    anchor_len: usize,
}

impl Ttl {
    fn new(clock: Arc<dyn MsClock>, anchor: &DnsName) -> Arc<Ttl> {
        let anchor_len = anchor.as_str().len();
        Arc::new(Ttl { clock, anchor_len })
    }
}

impl Keeper for Ttl {
    fn still(&self, expires_ms: u64) -> bool {
        self.clock.now_ms() < expires_ms
    }

    /// The names [`DnsProviderContext::dns_name`] builds: every label
    /// non-empty, at most 63 bytes, in the DNS charset; the whole at most
    /// 255 bytes on the wire.
    fn admits(&self, name: &CompositeName) -> bool {
        let label = |l: &str| {
            (1..=63).contains(&l.len())
                && l.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        };
        let text = name.iter().map(|c| c.len() + 1).sum::<usize>() + self.anchor_len;
        name.iter().all(|c| c.split('.').all(label)) && text < 255
    }
}

impl DnsProviderContext {
    pub fn new(
        resolver: Arc<Resolver>,
        anchor: DnsName,
        clock: Arc<dyn MsClock>,
        instance: &str,
    ) -> Arc<ProviderPipeline<Self>> {
        Self::with_env(resolver, anchor, clock, instance, &Environment::new())
    }

    /// Construct with an environment controlling the pipeline stack
    /// (cache TTL, retry policy).
    pub fn with_env(
        resolver: Arc<Resolver>,
        anchor: DnsName,
        clock: Arc<dyn MsClock>,
        instance: &str,
        env: &Environment,
    ) -> Arc<ProviderPipeline<Self>> {
        ProviderPipeline::standard(
            Arc::new(DnsProviderContext {
                ttl: Ttl::new(clock, &anchor),
                resolver,
                anchor,
                instance: instance.to_string(),
            }),
            env,
        )
    }

    /// DNS name for the first `k` components of a composite name:
    /// components map to labels, most significant first in the composite
    /// ⇒ appended leaf-outward under the anchor. The whole name is built
    /// and validated once (every label non-empty, ≤ 63 bytes, in the DNS
    /// charset; ≤ 255 bytes in all); the name of each shorter prefix is
    /// then an ancestor of it — see [`Self::without`].
    fn dns_name(&self, name: &CompositeName, k: usize) -> Result<DnsName> {
        let components = name.iter().take(k);
        if k == 0 {
            return Ok(self.anchor.clone());
        }
        let anchor = self.anchor.as_str();
        let mut text = String::with_capacity(
            components.clone().map(|c| c.len() + 1).sum::<usize>() + anchor.len(),
        );
        for c in components.rev() {
            text.push_str(c);
            text.push('.');
        }
        text.push_str(anchor);
        DnsName::parse(&text).map_err(|_| {
            NamingError::invalid_name(name.to_string(), "component is not a valid DNS label")
        })
    }

    /// `dns_name` with its last component (`leaf`) taken off again: the
    /// ancestor above the labels that component contributed (one, unless it
    /// contains dots). Shares the text of `dns_name`; copies nothing.
    fn without(dns_name: DnsName, leaf: &str) -> DnsName {
        let labels = leaf.matches('.').count() + 1;
        (0..labels).fold(dns_name, |n, _| n.parent().unwrap_or(n))
    }

    /// Answers the federation probe: ask about the first `upto` components
    /// of `name` (`dns_name`), then each shorter prefix down to the anchor,
    /// and hand back the first TXT value found. Every prefix is asked about,
    /// longest first; the resolver answers each name below a denied one
    /// from that one cached denial (RFC 8020). DNS errors name DNS names,
    /// and only a plain record can be refused. A link found just below a
    /// denied name holds for every name beneath that one, until the first
    /// of the two answers lapses.
    fn bound_prefix(
        &self,
        name: &CompositeName,
        upto: usize,
        mut dns_name: DnsName,
        trace: Option<&rndi_obs::TraceCtx>,
    ) -> Result<Option<Bound>> {
        // When the denial of the prefix one longer lapses, if it was denied.
        let mut denial: Option<u64> = None;
        for k in (0..=upto).rev() {
            let (text, denied, expires_ms) = self.txt_at(&dns_name, trace)?;
            if let Some(text) = text {
                let value = Self::decode(text);
                let holds = denial.map(|denial| Holds {
                    within: k + 1,
                    keeper: self.ttl.clone(),
                    mark: denial.min(expires_ms),
                });
                return Ok(Some(Bound {
                    spelled: matches!(value, BoundValue::Str(_)).then(|| dns_name.to_string()),
                    holds,
                    ..Bound::leaf(k, value)
                }));
            }
            denial = denied.then_some(expires_ms);
            if k > 0 {
                dns_name = Self::without(dns_name, &name[k - 1]);
            }
        }
        Ok(None)
    }

    /// The TXT value at `dns_name`, whether the name was denied outright
    /// (NXDOMAIN: nothing beneath it exists either, RFC 8020), and when
    /// that answer lapses.
    fn txt_at(
        &self,
        dns_name: &DnsName,
        trace: Option<&rndi_obs::TraceCtx>,
    ) -> Result<(Option<String>, bool, u64)> {
        let now = self.ttl.clock.now_ms();
        match self
            .resolver
            .resolve_until(dns_name, RecordType::Txt, now, trace)
        {
            (Ok(rrs), expires) => {
                let text = rrs.into_iter().find_map(|rr| match rr.rdata {
                    RData::Txt(t) => Some(t),
                    _ => None,
                });
                Ok((text, false, expires))
            }
            (Err(ResolveError::NxDomain(_)), expires) => Ok((None, true, expires)),
            (Err(e), _) => Err(NamingError::service(e.to_string())),
        }
    }

    fn decode(text: String) -> BoundValue {
        if looks_like_url(&text) {
            BoundValue::Reference(Reference::url(text))
        } else {
            BoundValue::Str(text)
        }
    }

    /// The TXT value of `name`'s own record (`dns_name`; for the empty name
    /// the anchor's).
    fn lookup(
        &self,
        name: &CompositeName,
        dns_name: &DnsName,
        trace: Option<&rndi_obs::TraceCtx>,
    ) -> Result<BoundValue> {
        self.txt_at(dns_name, trace)?
            .0
            .map(Self::decode)
            .ok_or_else(|| {
                NamingError::not_found(if name.is_empty() {
                    dns_name.to_string()
                } else {
                    name.to_string()
                })
            })
    }

    fn get_attributes(
        &self,
        dns_name: &DnsName,
        trace: Option<&rndi_obs::TraceCtx>,
    ) -> Result<Attributes> {
        // Expose the record's TTL as the sole attribute.
        match self.resolver.resolve_traced(
            dns_name,
            RecordType::Txt,
            self.ttl.clock.now_ms(),
            trace,
        ) {
            Ok(rrs) if !rrs.is_empty() => Ok(Attributes::new().with("ttl", rrs[0].ttl.to_string())),
            Ok(_) => Ok(Attributes::new()),
            Err(ResolveError::NxDomain(n)) => Err(NamingError::not_found(n.to_string())),
            Err(e) => Err(NamingError::service(e.to_string())),
        }
    }
}

impl ProviderBackend for DnsProviderContext {
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        let trace = op.trace_ctx();
        let trace = trace.as_ref();
        let name = &op.name;
        // A read builds (and validates) its whole DNS name once: its own
        // record is asked for by it, and the probe after a miss walks its
        // ancestors. A write names only the strict prefixes it probes.
        let whole = match op.kind {
            OpKind::Lookup | OpKind::GetAttributes => Some(self.dns_name(name, name.len())?),
            _ => None,
        };
        boundary::run(
            op,
            |upto| {
                let dns_name = match &whole {
                    Some(whole) => name
                        .iter()
                        .skip(upto)
                        .rev()
                        .fold(whole.clone(), Self::without),
                    None => self.dns_name(name, upto)?,
                };
                self.bound_prefix(name, upto, dns_name, trace)
            },
            || match (op.kind, &whole) {
                (OpKind::Lookup, Some(at)) => self.lookup(name, at, trace).map(OpOutcome::Value),
                (OpKind::GetAttributes, Some(at)) => {
                    self.get_attributes(at, trace).map(OpOutcome::Attrs)
                }
                // DNS offers no enumeration (zone transfers are not a client
                // API).
                (OpKind::List | OpKind::ListBindings, _) => {
                    Err(NamingError::unsupported("DNS enumeration"))
                }
                // Writes cannot land in DNS itself; the ones that got here
                // did not leave through a link into a system where they can.
                (kind, _) if kind.is_mutation() => Err(NamingError::unsupported(
                    "DNS updates are administrative (edit the zone)",
                )),
                _ => Err(NamingError::unsupported(op.kind.label())),
            },
        )
    }

    fn provider_id(&self) -> String {
        format!("dns:{}@{}", self.instance, self.anchor)
    }

    fn compound_syntax(&self) -> rndi_core::name::CompoundSyntax {
        rndi_core::name::CompoundSyntax::dns()
    }
}

/// URL factory: `dns://anchor/...`. Anchor hosts map to `(resolver,
/// anchor domain)` pairs registered by the deployment. Created pipelines
/// are cached per host, so repeated resolutions share one cache/stats
/// stack instead of rebuilding it per URL hop.
pub struct DnsFactory {
    anchors: Mutex<HashMap<String, (Arc<Resolver>, DnsName)>>,
    contexts: Mutex<HashMap<String, Arc<ProviderPipeline<DnsProviderContext>>>>,
    clock: Arc<dyn MsClock>,
}

impl DnsFactory {
    pub fn new(clock: Arc<dyn MsClock>) -> Arc<Self> {
        Arc::new(DnsFactory {
            anchors: Mutex::new(HashMap::new()),
            contexts: Mutex::new(HashMap::new()),
            clock,
        })
    }

    pub fn register_anchor(&self, host: &str, resolver: Arc<Resolver>, anchor: DnsName) {
        self.anchors
            .lock()
            .insert(host.to_string(), (resolver, anchor));
        self.contexts.lock().remove(host);
    }
}

impl UrlContextFactory for DnsFactory {
    fn scheme(&self) -> &str {
        "dns"
    }

    fn create(&self, url: &RndiUrl, env: &Environment) -> Result<Arc<dyn DirContext>> {
        if let Some(pipeline) = self.contexts.lock().get(&url.host) {
            return Ok(pipeline.clone());
        }
        let (resolver, anchor) = self.anchors.lock().get(&url.host).cloned().ok_or_else(|| {
            NamingError::service(format!("no DNS anchor registered for {}", url.host))
        })?;
        let pipeline =
            DnsProviderContext::with_env(resolver, anchor, self.clock.clone(), &url.host, env);
        self.contexts
            .lock()
            .insert(url.host.clone(), pipeline.clone());
        Ok(pipeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidns::{AuthServer, ResourceRecord, Zone};
    use rndi_core::context::{Context, ContextExt};
    use rndi_obs::clock::ManualClock;

    fn world() -> Arc<ProviderPipeline<DnsProviderContext>> {
        let server = AuthServer::new();
        let mut zone = Zone::new(DnsName::parse("global.emory.edu").unwrap());
        zone.insert(ResourceRecord::txt(
            "global.emory.edu",
            60,
            "hdns://host2:8085",
        ));
        zone.insert(ResourceRecord::txt(
            "plain.global.emory.edu",
            60,
            "just-text",
        ));
        zone.insert(ResourceRecord::txt(
            "dcl.mathcs.global.emory.edu",
            60,
            "ldap://ldap-host/ou=dcl",
        ));
        // An intermediate that exists (so the walk can find it) — its
        // parent mathcs has no record, testing longest-prefix skipping.
        server.add_zone(zone);
        let resolver = Arc::new(Resolver::new(vec![server]));
        DnsProviderContext::new(
            resolver,
            DnsName::parse("global.emory.edu").unwrap(),
            ManualClock::new(),
            "global",
        )
    }

    #[test]
    fn leaf_txt_lookup() {
        let ctx = world();
        assert_eq!(ctx.lookup_str("plain").unwrap().as_str(), Some("just-text"));
    }

    #[test]
    fn url_txt_becomes_reference() {
        let ctx = world();
        let v = ctx.lookup(&CompositeName::empty()).unwrap();
        assert_eq!(
            v.as_reference().unwrap().url_addr(),
            Some("hdns://host2:8085")
        );
    }

    #[test]
    fn anchor_root_federation_continue() {
        // The paper's dns://global/emory/... case: no record for the path,
        // but the anchor itself points at the federation's HDNS layer.
        let ctx = world();
        let err = ctx.lookup(&"emory/mathcs/dcl/mokey".into()).unwrap_err();
        match err {
            NamingError::Continue {
                resolved,
                remaining,
                ..
            } => {
                assert_eq!(
                    resolved.as_reference().unwrap().url_addr(),
                    Some("hdns://host2:8085")
                );
                assert_eq!(remaining.to_string(), "emory/mathcs/dcl/mokey");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn longest_prefix_wins() {
        // mathcs/dcl has a record (an LDAP link) even though mathcs alone
        // does not; the walk must find the deeper prefix.
        let ctx = world();
        let err = ctx.lookup(&"mathcs/dcl/mokey".into()).unwrap_err();
        match err {
            NamingError::Continue {
                resolved,
                remaining,
                ..
            } => {
                assert_eq!(
                    resolved.as_reference().unwrap().url_addr(),
                    Some("ldap://ldap-host/ou=dcl")
                );
                assert_eq!(remaining.to_string(), "mokey");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn plain_prefix_is_not_a_context() {
        let ctx = world();
        assert!(matches!(
            ctx.lookup(&"plain/deeper".into()),
            Err(NamingError::NotAContext { .. })
        ));
    }

    #[test]
    fn writes_unsupported_without_a_link() {
        // An anchor with no federation TXT: writes have nowhere to go.
        let server = AuthServer::new();
        let mut zone = Zone::new(DnsName::parse("static.example").unwrap());
        zone.insert(ResourceRecord::txt("data.static.example", 60, "text"));
        server.add_zone(zone);
        let ctx = DnsProviderContext::new(
            Arc::new(minidns::Resolver::new(vec![server])),
            DnsName::parse("static.example").unwrap(),
            ManualClock::new(),
            "static",
        );
        assert!(matches!(
            ctx.bind_str("x", "v"),
            Err(NamingError::NotSupported { .. })
        ));
        // An existing plain record is still not client-writable.
        assert!(matches!(
            ctx.rebind_str("data", "v"),
            Err(NamingError::NotSupported { .. })
        ));
        assert!(matches!(
            ctx.unbind_str("x"),
            Err(NamingError::NotSupported { .. })
        ));
        assert!(matches!(
            ctx.list_str(""),
            Err(NamingError::NotSupported { .. })
        ));
    }

    #[test]
    fn writes_continue_through_the_anchor_link() {
        // The paper's scenario: the anchor TXT points at HDNS; a write
        // through dns://global/... must continue there, not fail.
        let ctx = world();
        let err = ctx.bind_str("emory/newservice", "v").unwrap_err();
        match err {
            NamingError::Continue { remaining, .. } => {
                assert_eq!(remaining.to_string(), "emory/newservice");
            }
            other => panic!("expected Continue, got {other:?}"),
        }
    }

    #[test]
    fn ttl_surfaces_as_attribute() {
        let ctx = world();
        let attrs = ctx.get_attributes(&"plain".into()).unwrap();
        assert_eq!(attrs.get("ttl").unwrap().first_str(), Some("60"));
    }

    #[test]
    fn invalid_label_rejected() {
        let ctx = world();
        assert!(matches!(
            ctx.lookup_str("bad label"),
            Err(NamingError::InvalidName { .. }) | Err(NamingError::NameNotFound { .. })
        ));
    }

    // ------------------------------------------------------ the oracle --
    //
    // The walk as it was before the whole name was built once: each prefix
    // rebuilt label by label and re-validated from scratch, one probe per
    // prefix. Kept as the reference the property test compares against.

    fn dns_name_oracle(
        ctx: &DnsProviderContext,
        name: &CompositeName,
        k: usize,
    ) -> Result<DnsName> {
        let mut out = ctx.anchor.clone();
        for c in name.iter().take(k) {
            out = out.child(c);
            if DnsName::parse(&out.to_string()).is_err() {
                return Err(NamingError::invalid_name(
                    name.to_string(),
                    "component is not a valid DNS label",
                ));
            }
        }
        Ok(out)
    }

    fn lookup_oracle(ctx: &DnsProviderContext, name: &CompositeName) -> Result<BoundValue> {
        if name.is_empty() {
            let text = ctx
                .txt_at(&ctx.anchor, None)?
                .0
                .ok_or_else(|| NamingError::not_found(ctx.anchor.to_string()))?;
            return Ok(DnsProviderContext::decode(text));
        }
        for k in (0..=name.len()).rev() {
            let dns_name = dns_name_oracle(ctx, name, k)?;
            let Some(text) = ctx.txt_at(&dns_name, None)?.0 else {
                continue;
            };
            let value = DnsProviderContext::decode(text);
            if k == name.len() {
                return Ok(value);
            }
            if value.is_federation_link() {
                return Err(NamingError::Continue {
                    resolved: value,
                    remaining: name.suffix(k),
                    holds: None,
                });
            }
            return Err(NamingError::NotAContext {
                name: dns_name.to_string(),
            });
        }
        Err(NamingError::not_found(name.to_string()))
    }

    fn continue_write_oracle(
        ctx: &DnsProviderContext,
        name: &CompositeName,
    ) -> Result<NamingError> {
        for k in (0..name.len()).rev() {
            let dns_name = dns_name_oracle(ctx, name, k)?;
            let Some(text) = ctx.txt_at(&dns_name, None)?.0 else {
                continue;
            };
            let value = DnsProviderContext::decode(text);
            if value.is_federation_link() {
                return Ok(NamingError::Continue {
                    resolved: value,
                    remaining: name.suffix(k),
                    holds: None,
                });
            }
            break;
        }
        Ok(NamingError::unsupported(
            "DNS updates are administrative (edit the zone)",
        ))
    }

    /// The two operations the oracles stand for, as `execute` runs them.
    fn looked_up(ctx: &DnsProviderContext, name: &CompositeName) -> Result<BoundValue> {
        ctx.execute(&NamingOp::lookup(name.clone()))?
            .into_value(OpKind::Lookup)
    }

    /// What a write to `name` is refused with — by validation, by the
    /// boundary (`Continue`) or by DNS itself; none succeeds.
    fn write_refusal(ctx: &DnsProviderContext, name: &CompositeName) -> NamingError {
        ctx.execute(&NamingOp::bind(name.clone(), BoundValue::str("v")))
            .expect_err("DNS takes no write")
    }

    /// A value or error flattened to text, so two outcomes compare by
    /// variant and by every field the caller can see.
    fn told(value: &BoundValue) -> String {
        match value.as_reference() {
            Some(r) => format!("link {:?}", r.url_addr()),
            None => format!("text {:?}", value.as_str()),
        }
    }

    fn outcome(result: Result<BoundValue>) -> String {
        match result {
            Ok(v) => format!("ok {}", told(&v)),
            Err(e) => refusal(e),
        }
    }

    fn refusal(e: NamingError) -> String {
        match e {
            NamingError::Continue {
                resolved,
                remaining,
                ..
            } => format!("continue {} remaining {:?}", told(&resolved), remaining),
            other => format!("{other:?}"),
        }
    }

    /// A provider over a fresh resolver and one zone at `global.test`:
    /// `records` are `(path under the anchor, kind)` with kind 0 a link
    /// TXT, 1 a plain TXT, 2 an A record only (the name exists, no TXT).
    fn zone_world(records: &[(Vec<String>, u8)]) -> (DnsProviderContext, Arc<Resolver>) {
        let anchor = DnsName::parse("global.test").unwrap();
        let mut zone = Zone::new(anchor.clone());
        for (path, kind) in records {
            let at = path
                .iter()
                .fold(anchor.clone(), |n, c| n.child(c))
                .to_string();
            zone.insert(match kind {
                0 => ResourceRecord::txt(&at, 60, format!("hdns://h/{}", path.join("-"))),
                1 => ResourceRecord::txt(&at, 60, "just-text"),
                _ => ResourceRecord::a(&at, 60, [10, 0, 0, 1]),
            });
        }
        let server = AuthServer::new();
        server.add_zone(zone);
        let resolver = Arc::new(Resolver::new(vec![server]));
        let ctx = DnsProviderContext {
            resolver: resolver.clone(),
            ttl: Ttl::new(ManualClock::new(), &anchor),
            anchor,
            instance: "prop".to_string(),
        };
        (ctx, resolver)
    }

    #[test]
    fn a_miss_probes_every_prefix_exactly_once() {
        // Nothing bound anywhere, the anchor included: a k-component lookup
        // asks the resolver about k + 1 names, a write about k.
        let (ctx, resolver) = zone_world(&[]);
        let probes = || {
            let s = resolver.stats();
            s.hits + s.misses
        };
        for k in 1..=5usize {
            let name =
                CompositeName::from_components((0..k).map(|i| format!("c{i}")).collect::<Vec<_>>());
            let before = probes();
            assert!(matches!(
                looked_up(&ctx, &name),
                Err(NamingError::NameNotFound { .. })
            ));
            assert_eq!(probes() - before, k as u64 + 1, "lookup of {k} components");
            let before = probes();
            assert!(matches!(
                write_refusal(&ctx, &name),
                NamingError::NotSupported { .. }
            ));
            assert_eq!(probes() - before, k as u64, "write to {k} components");
        }
    }

    #[test]
    fn dotted_and_oversized_components_are_pinned() {
        let (ctx, _) = zone_world(&[(vec!["b".into(), "a".into()], 0)]);
        // A component containing a dot names two labels at once.
        assert_eq!(
            outcome(looked_up(&ctx, &CompositeName::from_components(["a.b"]))),
            "ok link Some(\"hdns://h/b-a\")"
        );
        for bad in ["", "a..b", ".a", "a.", "bad label", &"x".repeat(64)] {
            let name = CompositeName::from_components([bad, "tail"]);
            assert!(
                matches!(looked_up(&ctx, &name), Err(NamingError::InvalidName { .. })),
                "{bad:?} rejected"
            );
            // A write never validates its last component, only the
            // strict prefixes it probes.
            let last_only = CompositeName::from_components(["ok", bad]);
            assert!(
                matches!(
                    write_refusal(&ctx, &last_only),
                    NamingError::NotSupported { .. }
                ),
                "{bad:?} as the last component of a write"
            );
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn component() -> impl Strategy<Value = String> {
            prop_oneof![
                12 => "[abAB]",
                3 => "[ab]\\.[abA]",
                1 => Just(String::new()),
                1 => Just("bad label".to_string()),
                1 => Just("a..b".to_string()),
                1 => Just("x".repeat(64)),
                1 => Just("y".repeat(63)),
            ]
        }

        fn name() -> impl Strategy<Value = Vec<String>> {
            prop_oneof![
                8 => proptest::collection::vec(component(), 0..6),
                // 63-byte labels: three fit under the anchor, four make
                // the name longer than 255 bytes.
                1 => proptest::collection::vec(Just("y".repeat(63)), 3..6),
            ]
        }

        fn records() -> impl Strategy<Value = Vec<(Vec<String>, u8)>> {
            proptest::collection::vec((proptest::collection::vec("[ab]", 0..4), 0u8..3), 0..8)
        }

        proptest! {
            /// The one-build walk and the per-prefix oracle agree on every
            /// outcome — value, continuation (link and remaining name) or
            /// error variant — for reads and for writes.
            #[test]
            fn the_walk_matches_its_oracle(records in records(), name in name()) {
                let (ctx, _) = zone_world(&records);
                let name = CompositeName::from_components(name);
                prop_assert_eq!(
                    outcome(looked_up(&ctx, &name)),
                    outcome(lookup_oracle(&ctx, &name)),
                    "lookup of {:?} over {:?}", name, records
                );
                // The oracle tells a name it could not validate (`Err`)
                // from a verdict (`Ok`); to `execute` both are refusals.
                let (Ok(told) | Err(told)) = continue_write_oracle(&ctx, &name);
                prop_assert_eq!(
                    refusal(write_refusal(&ctx, &name)),
                    refusal(told),
                    "write to {:?} over {:?}", name, records
                );
            }
        }
    }
}
