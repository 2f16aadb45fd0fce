//! An LDAP name is what LDAP says it is: a URL that differs from a bound
//! name only in the case of its values names that entry, for every
//! operation — not only for the ones that happened to probe the tree key.

use std::sync::Arc;

use rndi::core::prelude::*;
use rndi::ldap::{DirectoryServer, Dn, LdapEntry, ServerConfig};
use rndi::providers::common::MsClock;
use rndi::providers::LdapFactory;

struct ZeroClock;
impl MsClock for ZeroClock {
    fn now_ms(&self) -> u64 {
        0
    }
}

#[test]
fn a_name_that_differs_only_in_case_names_the_same_entry() {
    let server = DirectoryServer::new(ServerConfig {
        read_throttle_per_sec: None,
        ..Default::default()
    });
    let base = Dn::parse("o=bench").unwrap();
    let org = LdapEntry::new(base.clone())
        .with("objectClass", "organization")
        .with("o", "bench");
    server.connect_anonymous().add(org).unwrap();
    let factory = LdapFactory::new(Arc::new(ZeroClock));
    factory.register_host("dir", server.clone(), base);
    let registry = Arc::new(ProviderRegistry::new());
    registry.register(factory);
    let ic = InitialContext::new(registry, Environment::new()).unwrap();

    ic.create_subcontext("ldap://dir/ou=d0000").unwrap();
    ic.bind("ldap://dir/ou=d0000/l5", "v").unwrap();

    let found = ic.lookup("ldap://dir/ou=D0000/l5").unwrap();
    assert_eq!(found.as_str(), Some("v"), "lookup through another spelling");
    assert!(
        matches!(
            ic.bind("ldap://dir/ou=D0000/L5", "w"),
            Err(NamingError::AlreadyBound { .. })
        ),
        "bind through another spelling"
    );
    ic.unbind("ldap://dir/ou=D0000/l5").unwrap();
    assert!(matches!(
        ic.lookup("ldap://dir/ou=d0000/l5"),
        Err(NamingError::NameNotFound { .. })
    ));
    assert_eq!(server.entry_count(), 2, "the org and its unit are left");
}

#[test]
fn renaming_the_empty_name_is_an_invalid_name() {
    let server = DirectoryServer::new(ServerConfig::default());
    let base = Dn::parse("o=bench").unwrap();
    let org = LdapEntry::new(base.clone())
        .with("objectClass", "organization")
        .with("o", "bench");
    server.connect_anonymous().add(org).unwrap();
    let factory = LdapFactory::new(Arc::new(ZeroClock));
    factory.register_host("dir", server.clone(), base);
    let registry = ProviderRegistry::new();
    registry.register(factory);
    let ctx = registry
        .create_context(&RndiUrl::parse("ldap://dir").unwrap(), &Environment::new())
        .unwrap();

    let renamed = ctx.rename(&CompositeName::parse("").unwrap(), &"cn=x".into());
    assert!(
        matches!(renamed, Err(NamingError::InvalidName { .. })),
        "renaming the base entry: {renamed:?}"
    );
    assert_eq!(server.entry_count(), 1, "the base entry is left as it was");
}

#[test]
fn renaming_an_unbound_name_onto_a_bound_one_is_name_not_found() {
    let registry = Arc::new(ProviderRegistry::new());

    let server = DirectoryServer::new(ServerConfig {
        read_throttle_per_sec: None,
        ..Default::default()
    });
    let base = Dn::parse("o=bench").unwrap();
    let org = LdapEntry::new(base.clone())
        .with("objectClass", "organization")
        .with("o", "bench");
    server.connect_anonymous().add(org).unwrap();
    let ldap = LdapFactory::new(Arc::new(ZeroClock));
    ldap.register_host("dir", server, base);
    registry.register(ldap);

    let realm = rndi::hdns::HdnsRealm::new(
        "ldap-names",
        1,
        rndi::groupcast::StackConfig::default(),
        None,
        7,
    );
    let hdns = rndi::providers::HdnsFactory::new();
    hdns.register_host("h0", realm, 0);
    registry.register(hdns);

    let mem = MemFactory::new();
    mem.register_host("m0", MemContext::new());
    registry.register(mem);

    let ic = InitialContext::new(registry, Environment::new()).unwrap();
    for root in ["ldap://dir", "hdns://h0", "mem://m0"] {
        ic.create_subcontext(&format!("{root}/ou=d0000")).unwrap();
        ic.bind(&format!("{root}/ou=d0000/l5"), "v").unwrap();
        let renamed = ic.rename(&format!("{root}/ou=d0000/ghost"), "ou=d0000/l5");
        assert!(
            matches!(renamed, Err(NamingError::NameNotFound { .. })),
            "{root}: renaming an unbound name onto a bound one: {renamed:?}"
        );
        let kept = ic.lookup(&format!("{root}/ou=d0000/l5")).unwrap();
        assert_eq!(
            kept.as_str(),
            Some("v"),
            "{root}: the target is left as it was"
        );
    }
}
