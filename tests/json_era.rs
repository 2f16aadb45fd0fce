//! Data written while values and attribute sets were JSON still reads back
//! through every provider that stores them: an HDNS entry (its value and
//! its per-attribute string arrays), an LDAP entry's value, a filesystem
//! binding's `.val` and `.attrs` files, and a Jini item's stub payload and
//! attribute entry. Each store is written directly, as the earlier
//! versions left it, and read through the provider.

use std::sync::Arc;

use rndi::core::prelude::*;
use rndi::providers::common::MsClock;
use rndi::providers::{FsContext, HdnsProviderContext, JiniProviderContext, LdapFactory};
use rndi::rlus::{Entry, ServiceItem, ServiceStub};

struct ZeroClock;
impl MsClock for ZeroClock {
    fn now_ms(&self) -> u64 {
        0
    }
}

/// A value's JSON-era bytes.
fn json_value(value: &StoredValue) -> Vec<u8> {
    serde_json::to_vec(value).unwrap()
}

fn attrs() -> Attributes {
    Attributes::new()
        .with("os", "linux")
        .with("cpuCount", "8")
        .with("Tags", "a")
}

fn reference() -> StoredValue {
    StoredValue::Reference(Reference::url("hdns://h0/printers"))
}

#[test]
fn an_hdns_entry_written_as_json_reads_back() {
    let realm = rndi::hdns::HdnsRealm::new(
        "json-era",
        1,
        rndi::groupcast::StackConfig::default(),
        None,
        3,
    );
    let entry = rndi::hdns::HdnsEntry::leaf(json_value(&reference()))
        .with_attr("os", r#"["linux"]"#)
        .with_attr("cpuCount", r#"["8"]"#)
        .with_attr("Tags", r#"["a","b"]"#);
    realm.bind(0, "printer", entry).unwrap();
    let ctx = HdnsProviderContext::new(realm.clone(), 0, "json-era");

    let name = CompositeName::parse("printer").unwrap();
    assert_eq!(ctx.lookup(&name).unwrap(), reference().into_bound());
    let mut expected = attrs();
    expected.add_value("tags", "b");
    assert_eq!(ctx.get_attributes(&name).unwrap(), expected);

    // A write stores the encoding, which reads back the same.
    ctx.modify_attributes(&name, &[AttrMod::Remove("os".into())])
        .unwrap();
    expected.remove("os");
    assert_eq!(ctx.get_attributes(&name).unwrap(), expected);
    let stored = realm.lookup(0, "printer").unwrap();
    assert!(stored.attrs().all(|(_, text)| text.starts_with('\u{11}')));
}

#[test]
fn an_ldap_value_written_as_json_reads_back() {
    let server = rndi::ldap::DirectoryServer::new(rndi::ldap::ServerConfig::default());
    let base = rndi::ldap::Dn::parse("o=bench").unwrap();
    let conn = server.connect_anonymous();
    conn.add(
        rndi::ldap::LdapEntry::new(base.clone())
            .with("objectClass", "organization")
            .with("o", "bench"),
    )
    .unwrap();
    let json = String::from_utf8(json_value(&StoredValue::Str("v".into()))).unwrap();
    conn.add(
        rndi::ldap::LdapEntry::new(rndi::ldap::Dn::parse("cn=x,o=bench").unwrap())
            .with("objectClass", "rndiObject")
            .with("cn", "x")
            .with("rndiValue", &json)
            .with("os", "linux"),
    )
    .unwrap();
    let factory = LdapFactory::new(Arc::new(ZeroClock));
    factory.register_host("dir", server, base);
    let registry = ProviderRegistry::new();
    registry.register(factory);
    let ctx = registry
        .create_context(&RndiUrl::parse("ldap://dir").unwrap(), &Environment::new())
        .unwrap();

    let name = CompositeName::parse("cn=x").unwrap();
    assert_eq!(ctx.lookup(&name).unwrap(), BoundValue::str("v"));
    let found = ctx.get_attributes(&name).unwrap();
    assert_eq!(found.get("os").unwrap().first_str(), Some("linux"));
}

#[test]
fn a_file_binding_written_as_json_reads_back() {
    let dir = std::env::temp_dir().join(format!("rndi-json-era-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("x.val"), json_value(&StoredValue::I64(-5))).unwrap();
    std::fs::write(
        dir.join("x.attrs"),
        serde_json::to_string(&attrs()).unwrap(),
    )
    .unwrap();
    let ctx = FsContext::new(&dir);

    let name = CompositeName::parse("x").unwrap();
    assert_eq!(ctx.lookup(&name).unwrap(), BoundValue::I64(-5));
    assert_eq!(ctx.get_attributes(&name).unwrap(), attrs());

    // A write stores the encoding, which reads back the same.
    ctx.modify_attributes(&name, &[AttrMod::Remove("os".into())])
        .unwrap();
    let mut expected = attrs();
    expected.remove("os");
    assert_eq!(ctx.get_attributes(&name).unwrap(), expected);
    let text = std::fs::read_to_string(dir.join("x.attrs")).unwrap();
    assert!(text.starts_with('\u{10}'), "{text:?}");

    // Neither form: an error, not a binding that lost its attributes.
    std::fs::write(dir.join("x.attrs"), "garbage").unwrap();
    assert!(matches!(
        ctx.get_attributes(&name),
        Err(NamingError::ServiceFailure { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_jini_item_written_as_json_reads_back() {
    let clock = rndi::rlus::ManualClock::new();
    let registrar = rndi::rlus::Registrar::new(clock.clone(), u64::MAX / 4, 5);
    let item = ServiceItem::new(ServiceStub::new(
        vec!["RndiObject".into(), "reference".into()],
        json_value(&reference()),
    ))
    .with_entry(Entry::new("RndiBinding").with("name", "printer"))
    .with_entry(Entry::new("RndiAttrs").with("json", serde_json::to_string(&attrs()).unwrap()));
    registrar.register(item, u64::MAX / 4);
    let ctx = JiniProviderContext::new(registrar, clock, Environment::new(), "json-era");

    let name = CompositeName::parse("printer").unwrap();
    assert_eq!(ctx.lookup(&name).unwrap(), reference().into_bound());
    assert_eq!(ctx.get_attributes(&name).unwrap(), attrs());
}
