//! The conformance matrix: one behavioural test suite executed against
//! every writable provider, verifying that the "lowest common denominator"
//! API really does behave identically over wildly different backends —
//! the paper's central claim.

use std::sync::Arc;

use rndi::core::context::ContextExt;
use rndi::core::prelude::*;
use rndi::providers::common::{attrs, MsClock};
use rndi::providers::{FsContext, HdnsProviderContext, JiniProviderContext, LdapProviderContext};

struct ZeroClock;
impl MsClock for ZeroClock {
    fn now_ms(&self) -> u64 {
        0
    }
}

/// Build one instance of every writable provider, each on a fresh backend.
fn all_providers(tag: &str) -> Vec<(&'static str, Arc<dyn DirContext>)> {
    let mut out: Vec<(&'static str, Arc<dyn DirContext>)> = Vec::new();

    out.push(("mem", Arc::new(MemContext::new())));

    let clock = rndi::rlus::ManualClock::new();
    let registrar = rndi::rlus::Registrar::new(clock.clone(), u64::MAX / 4, 5);
    out.push((
        "jini",
        JiniProviderContext::new(registrar, clock, Environment::new(), "conformance"),
    ));

    let realm = rndi::hdns::HdnsRealm::new(
        "conformance",
        2,
        rndi::groupcast::StackConfig::default(),
        None,
        9,
    );
    out.push(("hdns", HdnsProviderContext::new(realm, 0, "conformance")));

    let ldap = rndi::ldap::DirectoryServer::new(rndi::ldap::ServerConfig {
        read_throttle_per_sec: None,
        ..Default::default()
    });
    ldap.connect_anonymous()
        .add(
            rndi::ldap::LdapEntry::new(rndi::ldap::Dn::parse("o=test").unwrap())
                .with("objectClass", "organization")
                .with("o", "test"),
        )
        .unwrap();
    out.push((
        "ldap",
        LdapProviderContext::new(
            ldap.connect_anonymous(),
            rndi::ldap::Dn::parse("o=test").unwrap(),
            Arc::new(ZeroClock),
            "conformance",
        ),
    ));

    let dir = std::env::temp_dir().join(format!("rndi-conformance-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    out.push(("fs", FsContext::new(dir)));

    out
}

#[test]
fn bind_lookup_rebind_unbind_uniform() {
    for (name, ctx) in all_providers("crud") {
        ctx.bind_str("key", "v1")
            .unwrap_or_else(|e| panic!("{name}: bind: {e}"));
        assert_eq!(
            ctx.lookup_str("key").unwrap().as_str(),
            Some("v1"),
            "{name}: lookup"
        );

        // Atomic bind: second bind fails, value untouched.
        let err = ctx.bind_str("key", "v2").unwrap_err();
        assert!(
            matches!(err, NamingError::AlreadyBound { .. }),
            "{name}: expected AlreadyBound, got {err}"
        );
        assert_eq!(
            ctx.lookup_str("key").unwrap().as_str(),
            Some("v1"),
            "{name}"
        );

        // Rebind replaces.
        ctx.rebind_str("key", "v2").unwrap();
        assert_eq!(
            ctx.lookup_str("key").unwrap().as_str(),
            Some("v2"),
            "{name}"
        );

        // Unbind is idempotent.
        ctx.unbind_str("key").unwrap();
        ctx.unbind_str("key").unwrap();
        assert!(
            matches!(ctx.lookup_str("key"), Err(NamingError::NameNotFound { .. })),
            "{name}: lookup after unbind"
        );
    }
}

#[test]
fn typed_values_roundtrip_everywhere() {
    for (name, ctx) in all_providers("typed") {
        let cases: Vec<(&str, BoundValue)> = vec![
            ("t-null", BoundValue::Null),
            ("t-str", BoundValue::str("text")),
            ("t-int", BoundValue::I64(-42)),
            ("t-bool", BoundValue::Bool(true)),
            (
                "t-json",
                BoundValue::Json(serde_json::json!({"a": [1, 2, 3]})),
            ),
            (
                "t-ref",
                BoundValue::Reference(Reference::url("jini://elsewhere")),
            ),
        ];
        for (key, value) in &cases {
            ctx.bind_str(key, value.clone())
                .unwrap_or_else(|e| panic!("{name}: bind {key}: {e}"));
            let got = ctx.lookup_str(key).unwrap();
            assert_eq!(&got, value, "{name}: roundtrip of {key}");
        }
    }
}

#[test]
fn attributes_and_search_uniform() {
    for (name, ctx) in all_providers("attrs") {
        ctx.bind_with_attrs(
            &"host-a".into(),
            BoundValue::str("stub-a"),
            attrs(&[("os", "linux"), ("cpu", "32")]),
        )
        .unwrap_or_else(|e| panic!("{name}: bind_with_attrs: {e}"));
        ctx.bind_with_attrs(
            &"host-b".into(),
            BoundValue::str("stub-b"),
            attrs(&[("os", "solaris"), ("cpu", "2")]),
        )
        .unwrap();

        let got = ctx.get_attributes(&"host-a".into()).unwrap();
        assert_eq!(got.get("os").unwrap().first_str(), Some("linux"), "{name}");

        let filter = Filter::parse("(&(os=linux)(cpu>=16))").unwrap();
        let hits = ctx
            .search(&CompositeName::empty(), &filter, &SearchControls::default())
            .unwrap_or_else(|e| panic!("{name}: search: {e}"));
        assert_eq!(hits.len(), 1, "{name}: one linux host");
        assert!(hits[0].name.contains("host-a"), "{name}: {}", hits[0].name);
    }
}

#[test]
fn object_scope_is_the_named_entry_itself_on_every_provider() {
    // As LDAP's base scope: one hit named "" when the entry's own
    // attributes match, and never one of its children.
    let kind = Filter::parse("(kind=*)").unwrap();
    let object = SearchControls {
        scope: SearchScope::Object,
        ..Default::default()
    };
    let mut wrong = Vec::new();
    for (provider, ctx) in all_providers("object-scope") {
        let found = |name: &str| -> Result<Vec<String>> {
            let hits = ctx.search(&name.into(), &kind, &object)?;
            Ok(hits.into_iter().map(|h| h.name).collect())
        };
        ctx.bind_with_attrs(&"y".into(), "leaf".into(), attrs(&[("kind", "leaf")]))
            .unwrap_or_else(|e| panic!("{provider}: bind y: {e}"));
        match found("y") {
            Ok(names) if names == [""] => {}
            other => wrong.push(format!("{provider}: search(y, Object) = {other:?}")),
        }
        if provider == "jini" {
            // The flat LUS holds no subcontexts (see above).
            continue;
        }
        ctx.create_subcontext(&"dir".into())
            .unwrap_or_else(|e| panic!("{provider}: create dir: {e}"));
        ctx.bind_with_attrs(&"dir/x".into(), "in dir".into(), attrs(&[("kind", "leaf")]))
            .unwrap_or_else(|e| panic!("{provider}: bind dir/x: {e}"));
        match found("dir") {
            Ok(names) if names.is_empty() => {}
            other => wrong.push(format!("{provider}: search(dir, Object) = {other:?}")),
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn list_reflects_bindings_uniform() {
    for (name, ctx) in all_providers("list") {
        ctx.bind_str("alpha", "1").unwrap();
        ctx.bind_str("beta", "2").unwrap();
        let names: Vec<String> = ctx
            .list_str("")
            .unwrap_or_else(|e| panic!("{name}: list: {e}"))
            .into_iter()
            .map(|p| p.name)
            .collect();
        assert!(
            names.iter().any(|n| n.contains("alpha")) && names.iter().any(|n| n.contains("beta")),
            "{name}: listing {names:?}"
        );
    }
}

#[test]
fn federation_mounts_continue_uniform() {
    // Every provider must signal Continue when resolution crosses a bound
    // URL reference — the SPI contract federation depends on.
    for (name, ctx) in all_providers("mount") {
        ctx.bind(
            &"mnt".into(),
            BoundValue::Reference(Reference::url("hdns://far-away")),
        )
        .unwrap();
        let err = ctx.lookup(&"mnt/deeper/obj".into()).unwrap_err();
        match err {
            NamingError::Continue {
                remaining,
                resolved,
                ..
            } => {
                assert_eq!(remaining.to_string(), "deeper/obj", "{name}");
                assert!(resolved.is_federation_link(), "{name}");
            }
            other => panic!("{name}: expected Continue, got {other}"),
        }
    }
}

#[test]
fn hierarchical_providers_support_subcontexts() {
    // The flat LUS legitimately opts out (conformance levels!); the
    // hierarchical providers must agree with each other.
    for (name, ctx) in all_providers("subctx") {
        if name == "jini" {
            assert!(matches!(
                ctx.create_subcontext(&"sub".into()),
                Err(NamingError::NotSupported { .. })
            ));
            continue;
        }
        ctx.create_subcontext(&"sub".into())
            .unwrap_or_else(|e| panic!("{name}: create_subcontext: {e}"));
        ctx.bind_str("sub/item", "deep").unwrap();
        assert_eq!(
            ctx.lookup_str("sub/item").unwrap().as_str(),
            Some("deep"),
            "{name}"
        );
        assert!(
            matches!(
                ctx.destroy_subcontext(&"sub".into()),
                Err(NamingError::ContextNotEmpty { .. })
            ),
            "{name}: destroy of non-empty context must fail"
        );
        ctx.unbind_str("sub/item").unwrap();
        ctx.destroy_subcontext(&"sub".into()).unwrap();
    }
}

// ------------------------------------------------- the federation matrix --
//
// Where a namespace ends is one decision (`rndi_core::spi::boundary`), so
// it has one contract: whatever the provider and whatever the operation, a
// name that crosses a bound link comes back as `Continue` carrying the rest
// of the name — and nothing has been done to the near store.

/// One cell's operation on `name`, its outcome flattened to text so that
/// every cell has the same type.
type CellOp = Box<dyn Fn(&dyn DirContext, &CompositeName) -> Result<String>>;

fn told<T: std::fmt::Debug>(r: Result<T>) -> Result<String> {
    r.map(|v| format!("{v:?}"))
}

/// The 14 name-taking `DirContext` operations.
fn name_taking_ops() -> Vec<(&'static str, CellOp)> {
    let any = || Filter::parse("(os=*)").unwrap();
    let tagged = || attrs(&[("os", "linux")]);
    let ops: Vec<(&'static str, CellOp)> = vec![
        ("lookup", Box::new(|c, n| told(c.lookup(n)))),
        ("bind", Box::new(|c, n| told(c.bind(n, "v".into())))),
        ("rebind", Box::new(|c, n| told(c.rebind(n, "v".into())))),
        ("unbind", Box::new(|c, n| told(c.unbind(n)))),
        (
            "rename",
            Box::new(|c, n| {
                let target = n.prefix(n.len() - 1).child("y");
                told(c.rename(n, &target))
            }),
        ),
        ("list", Box::new(|c, n| told(c.list(n)))),
        ("list_bindings", Box::new(|c, n| told(c.list_bindings(n)))),
        (
            "create_subcontext",
            Box::new(|c, n| told(c.create_subcontext(n))),
        ),
        (
            "destroy_subcontext",
            Box::new(|c, n| told(c.destroy_subcontext(n))),
        ),
        ("get_attributes", Box::new(|c, n| told(c.get_attributes(n)))),
        (
            "modify_attributes",
            Box::new(|c, n| {
                told(c.modify_attributes(n, &[AttrMod::Add(Attribute::single("note", "ok"))]))
            }),
        ),
        (
            "bind_with_attrs",
            Box::new(move |c, n| told(c.bind_with_attrs(n, "v".into(), tagged()))),
        ),
        (
            "rebind_with_attrs",
            Box::new(move |c, n| told(c.rebind_with_attrs(n, "v".into(), tagged()))),
        ),
        (
            "search",
            Box::new(move |c, n| told(c.search(n, &any(), &SearchControls::default()))),
        ),
    ];
    assert_eq!(ops.len(), 14);
    ops
}

#[test]
fn every_operation_continues_through_a_mount_on_every_provider() {
    let ops = name_taking_ops();
    let (mut cells, mut failures) = (0, Vec::new());
    for (provider, ctx) in all_providers("matrix") {
        let link = BoundValue::Reference(Reference::url("mem://east"));
        ctx.bind_with_attrs(&"link".into(), link.clone(), attrs(&[("kind", "mount")]))
            .unwrap_or_else(|e| panic!("{provider}: binding the link: {e}"));
        // Beneath the mount: every operation. At the mount: the three that
        // denote the context a name leads to rather than a binding in its
        // parent.
        let beneath = ops.iter().map(|(label, op)| ("link/x", "x", *label, op));
        let at = ops
            .iter()
            .filter(|(label, _)| matches!(*label, "list" | "list_bindings" | "search"))
            .map(|(label, op)| ("link", "", *label, op));
        for (name, rest, label, op) in beneath.chain(at) {
            cells += 1;
            match op(ctx.as_ref(), &name.into()) {
                Err(NamingError::Continue {
                    resolved,
                    remaining,
                    ..
                }) if remaining.to_string() == rest && resolved.is_federation_link() => {}
                Ok(got) => failures.push(format!("{provider}/{label}({name}): got Ok({got})")),
                Err(got) => failures.push(format!("{provider}/{label}({name}): got {got:?}")),
            }
        }
        // Strict prefixes only: the link's own name is a binding here.
        assert_eq!(ctx.lookup(&"link".into()).unwrap(), link, "{provider}");
        let own = ctx.get_attributes(&"link".into()).unwrap();
        assert_eq!(
            own.get("kind").and_then(|a| a.first_str()),
            Some("mount"),
            "{provider}"
        );
    }
    assert_eq!(cells, 85, "5 providers x (14 beneath + 3 at the mount)");
    assert!(
        failures.is_empty(),
        "{} of {cells} cells do not continue:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The matrix again, end to end: each cell through a [`FederatedContext`]
/// over the provider, into `mem://east`. Once cold — the registry's
/// continuation cache emptied before every cell — and once on a warmed
/// cache. Both passes start from an empty far system and must tell the same
/// story cell for cell; the HDNS hop, the one a writable provider says how
/// long holds, is taken from the cache on the warm pass.
#[test]
fn the_federation_matrix_is_the_same_on_a_warm_cache() {
    let ops = name_taking_ops();
    let (east, mem) = (MemContext::new(), MemFactory::new());
    mem.register_host("east", east.clone());
    let registry = Arc::new(ProviderRegistry::new());
    registry.register(mem);
    let hits = || {
        let labels = [("provider", "federation"), ("event", "hit")];
        rndi::obs::metrics::counter("rndi_cache_events_total", &labels).get()
    };
    for (provider, ctx) in all_providers("warm-matrix") {
        let link = BoundValue::Reference(Reference::url("mem://east"));
        ctx.bind(&"link".into(), link)
            .unwrap_or_else(|e| panic!("{provider}: binding the link: {e}"));
        let fed = FederatedContext::new(ctx, registry.clone(), Environment::new());
        let cells = |warm: bool| -> Vec<String> {
            for pair in east.list_str("").unwrap() {
                let _ = east.destroy_subcontext(&pair.name.as_str().into());
                let _ = east.unbind_str(&pair.name);
            }
            let beneath = ops.iter().map(|(label, op)| ("link/x", *label, op));
            let at = ops
                .iter()
                .filter(|(label, _)| matches!(*label, "list" | "list_bindings" | "search"))
                .map(|(label, op)| ("link", *label, op));
            let cell = |(name, label, op): (&str, &str, &CellOp)| {
                if !warm {
                    registry.continuations().clear();
                }
                format!("{label}({name}): {:?}", op(fed.as_ref(), &name.into()))
            };
            beneath.chain(at).map(cell).collect()
        };
        let cold = cells(false);
        let _ = fed.lookup(&"link/x".into());
        let warmed = hits();
        let warm = cells(true);
        assert_eq!(cold.len(), 17, "{provider}");
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c, w, "{provider}: cold, then warm");
        }
        if provider == "hdns" {
            assert!(
                hits() >= warmed + 14,
                "{provider}: every cell beneath the link took the cached hop"
            );
        }
    }
}

#[test]
fn a_bare_backend_continues_without_its_pipeline() {
    // The rule lives in `execute` itself: whatever re-wraps a backend (the
    // benchmark's `Traced`, a net server) keeps federation.
    let realm =
        rndi::hdns::HdnsRealm::new("bare", 1, rndi::groupcast::StackConfig::default(), None, 9);
    let hdns = HdnsProviderContext::new(realm, 0, "bare");
    hdns.bind(
        &"link".into(),
        BoundValue::Reference(Reference::url("mem://east")),
    )
    .unwrap();
    let bare: Arc<dyn ProviderBackend> = hdns.backend().clone();
    for op in [
        NamingOp::create_subcontext("link/x".into()),
        NamingOp::lookup("link/x".into()),
        NamingOp::rename("link/x".into(), "link/y".into()),
    ] {
        let kind = op.kind;
        match bare.execute(&op) {
            Err(NamingError::Continue { remaining, .. }) => {
                assert_eq!(remaining.to_string(), "x", "{kind:?}")
            }
            other => panic!("{kind:?}: expected Continue, got {other:?}"),
        }
    }
}

/// A near system's URL root and a fingerprint of everything its backend holds.
type Near = (&'static str, Box<dyn Fn() -> String>);

/// Every writable provider behind its URL scheme, `mem://east` as the far
/// system, and for each near system a fingerprint of everything its
/// backend holds.
struct Federation {
    ctx: InitialContext,
    east: MemContext,
    mem: Arc<MemFactory>,
    near: Vec<Near>,
}

fn federation(tag: &str) -> Federation {
    let registry = Arc::new(ProviderRegistry::new());
    let mut near: Vec<Near> = Vec::new();

    let east = MemContext::new();
    let mem = MemFactory::new();
    mem.register_host("east", east.clone());
    registry.register(mem.clone());

    let realm = rndi::hdns::HdnsRealm::new(
        "fed-matrix",
        2,
        rndi::groupcast::StackConfig::default(),
        None,
        9,
    );
    let hdns = rndi::providers::HdnsFactory::new();
    hdns.register_host("h0", realm.clone(), 0);
    registry.register(hdns);
    near.push((
        "hdns://h0",
        Box::new(move || format!("{:?}", realm.store_snapshot(0))),
    ));

    let ldap = rndi::ldap::DirectoryServer::new(rndi::ldap::ServerConfig {
        read_throttle_per_sec: None,
        ..Default::default()
    });
    let conn = ldap.connect_anonymous();
    conn.add(
        rndi::ldap::LdapEntry::new(rndi::ldap::Dn::parse("o=test").unwrap())
            .with("objectClass", "organization")
            .with("o", "test"),
    )
    .unwrap();
    let ldap_factory = rndi::providers::LdapFactory::new(Arc::new(ZeroClock));
    ldap_factory.register_host(
        "dir",
        ldap.clone(),
        rndi::ldap::Dn::parse("o=test").unwrap(),
    );
    registry.register(ldap_factory);
    // Every entry there is, the one a misplaced write adds beneath the
    // link included.
    near.push((
        "ldap://dir",
        Box::new(move || format!("{} entries", ldap.entry_count())),
    ));

    let clock = rndi::rlus::ManualClock::new();
    let registrar = rndi::rlus::Registrar::new(clock.clone(), u64::MAX / 4, 5);
    let lus = rndi::rlus::DiscoveryRealm::new();
    lus.announce(
        rndi::rlus::discovery::LookupLocator::new("lus", 4160),
        &["matrix"],
        registrar.clone(),
    );
    registry.register(rndi::providers::JiniFactory::new(
        lus,
        clock as Arc<dyn rndi::rlus::Clock>,
    ));
    near.push((
        "jini://lus",
        Box::new(move || format!("{} items", registrar.item_count())),
    ));

    let dir = std::env::temp_dir().join(format!("rndi-fedmatrix-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let fs = rndi::providers::FsFactory::new();
    fs.register_root("disk", &dir);
    registry.register(fs);
    near.push((
        "file://disk",
        Box::new(move || {
            let mut files: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            files.sort();
            files.join(" ")
        }),
    ));

    Federation {
        ctx: InitialContext::new(registry, Environment::new()).unwrap(),
        east,
        mem,
        near,
    }
}

#[test]
fn operations_through_a_mount_take_effect_in_the_far_system_only() {
    let fed = federation("e2e");
    let (ic, east) = (&fed.ctx, &fed.east);
    for (root, near_state) in &fed.near {
        ic.bind(
            &format!("{root}/link"),
            BoundValue::Reference(Reference::url("mem://east")),
        )
        .unwrap_or_else(|e| panic!("{root}: binding the link: {e}"));
        let before = near_state();
        let at = |rest: &str| format!("{root}/link/{rest}");

        ic.create_subcontext(&at("sub"))
            .unwrap_or_else(|e| panic!("{root}: create_subcontext: {e}"));
        ic.bind(&at("sub/item"), "v")
            .unwrap_or_else(|e| panic!("{root}: bind: {e}"));
        ic.modify_attributes(
            &at("sub/item"),
            &[AttrMod::Add(Attribute::single("note", "ok"))],
        )
        .unwrap_or_else(|e| panic!("{root}: modify_attributes: {e}"));
        assert_eq!(
            east.lookup_str("sub/item").unwrap().as_str(),
            Some("v"),
            "{root}"
        );
        assert!(
            east.get_attributes(&"sub/item".into())
                .unwrap()
                .contains("note"),
            "{root}"
        );

        let names = |listed: Vec<NameClassPair>| -> Vec<String> {
            listed.into_iter().map(|p| p.name).collect()
        };
        assert_eq!(
            names(ic.list(&format!("{root}/link")).unwrap()),
            ["sub"],
            "{root}"
        );
        assert_eq!(names(ic.list(&at("sub")).unwrap()), ["item"], "{root}");
        let hits = ic
            .search(&at("sub"), "(note=ok)", &SearchControls::default())
            .unwrap_or_else(|e| panic!("{root}: search: {e}"));
        assert_eq!(hits.len(), 1, "{root}");
        assert_eq!(hits[0].name, "item", "{root}");

        ic.unbind(&at("sub/item"))
            .unwrap_or_else(|e| panic!("{root}: unbind: {e}"));
        assert!(east.lookup_str("sub/item").is_err(), "{root}");
        ic.destroy_subcontext(&at("sub"))
            .unwrap_or_else(|e| panic!("{root}: destroy_subcontext: {e}"));
        assert!(east.list_str("").unwrap().is_empty(), "{root}");

        assert_eq!(near_state(), before, "{root}: the near store is untouched");
    }
}

#[test]
fn rename_survives_the_hop_and_stays_inside_one_naming_system() {
    let fed = federation("rename");
    let (ic, east) = (&fed.ctx, &fed.east);
    let (west, south) = (MemContext::new(), MemContext::new());
    fed.mem.register_host("west", west.clone());
    fed.mem.register_host("south", south.clone());
    let bound_in = |ctx: &MemContext| -> Vec<String> {
        let mut names: Vec<String> = ctx
            .list_str("")
            .unwrap()
            .into_iter()
            .map(|p| p.name)
            .collect();
        names.sort();
        names
    };

    for near in ["mem://west", "hdns://h0"] {
        ic.bind(
            &format!("{near}/link"),
            BoundValue::Reference(Reference::url("mem://east")),
        )
        .unwrap();
        let near_names =
            || -> Vec<String> { ic.list(near).unwrap().into_iter().map(|p| p.name).collect() };
        east.bind_str("x", "v").unwrap();
        ic.rename(&format!("{near}/link/x"), "link/y")
            .unwrap_or_else(|e| panic!("{near}: rename through the mount: {e}"));
        assert_eq!(bound_in(east), ["y"], "{near}: moved in the far system");
        assert_eq!(east.lookup_str("y").unwrap().as_str(), Some("v"), "{near}");
        assert_eq!(near_names(), ["link"], "{near}: nothing appears near");

        // Out of the mount, or into another one: refused, nothing moves.
        ic.bind(
            &format!("{near}/other"),
            BoundValue::Reference(Reference::url("mem://south")),
        )
        .unwrap();
        for target in ["other/z", "z", "link"] {
            let err = ic
                .rename(&format!("{near}/link/y"), target)
                .expect_err(target);
            assert!(
                matches!(&err, NamingError::NotSupported { operation }
                    if operation.contains("across naming systems")),
                "{near}: rename to {target}: {err:?}"
            );
        }
        assert_eq!(bound_in(east), ["y"], "{near}");
        assert!(bound_in(&south).is_empty(), "{near}");
        let mut near_after = near_names();
        near_after.sort();
        assert_eq!(near_after, ["link", "other"], "{near}");
        east.unbind_str("y").unwrap();
    }
}
