//! Service items: what gets registered in the lookup service.

use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use crate::id::ServiceId;

/// The marshalled service proxy. In Jini this is a serialized Java object
/// implementing the service's remote interfaces; here it is the interface
/// type list plus an opaque payload (whatever the client marshalled — the
/// JNDI provider stores encoded name/value tuples in it as "fake stubs").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceStub {
    /// Fully qualified names of every interface the proxy implements, most
    /// derived first. Template type matching checks membership here.
    pub type_names: Vec<String>,
    /// Marshalled proxy state.
    pub payload: Vec<u8>,
}

impl ServiceStub {
    pub fn new(type_names: Vec<String>, payload: Vec<u8>) -> Self {
        ServiceStub {
            type_names,
            payload,
        }
    }

    /// Whether the stub implements (or extends) the named type.
    pub fn implements(&self, type_name: &str) -> bool {
        self.type_names.iter().any(|t| t == type_name)
    }

    /// The marshalled size in bytes — registrars account this for their
    /// serialization cost model.
    pub fn size(&self) -> usize {
        self.payload.len() + self.type_names.iter().map(|t| t.len()).sum::<usize>()
    }
}

/// An attribute entry (Jini `net.jini.core.entry.Entry`): a typed record of
/// public fields. Matching is per-class with exact field comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entry {
    /// The entry's class, e.g. `"net.jini.lookup.entry.Name"`.
    pub class: String,
    /// Field name → field value (string-typed fields only, as the common
    /// Jini entry classes use).
    pub fields: BTreeMap<String, String>,
}

impl Entry {
    pub fn new(class: impl Into<String>) -> Self {
        Entry {
            class: class.into(),
            fields: BTreeMap::new(),
        }
    }

    /// Builder-style field setter.
    pub fn with(mut self, field: impl Into<String>, value: impl Into<String>) -> Self {
        self.fields.insert(field.into(), value.into());
        self
    }

    /// The standard `Name` entry.
    pub fn name(value: impl Into<String>) -> Self {
        Entry::new("Name").with("name", value)
    }
}

/// A registered (or to-be-registered) service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceItem {
    /// `None` on first registration — the registrar assigns one.
    pub service_id: Option<ServiceId>,
    pub service: ServiceStub,
    pub attribute_sets: Vec<Entry>,
}

impl ServiceItem {
    pub fn new(service: ServiceStub) -> Self {
        ServiceItem {
            service_id: None,
            service,
            attribute_sets: Vec::new(),
        }
    }

    pub fn with_id(mut self, id: ServiceId) -> Self {
        self.service_id = Some(id);
        self
    }

    pub fn with_entry(mut self, entry: Entry) -> Self {
        self.attribute_sets.push(entry);
        self
    }

    /// Approximate marshalled size in bytes.
    pub fn size(&self) -> usize {
        self.service.size()
            + self
                .attribute_sets
                .iter()
                .map(|e| {
                    e.class.len()
                        + e.fields
                            .iter()
                            .map(|(k, v)| k.len() + v.len())
                            .sum::<usize>()
                })
                .sum::<usize>()
    }
}

/// A registered item as the registrar holds it and hands it out: one
/// shared block, so a lookup or an event clones a pointer, not the item.
/// Writing through it copies the item first when anyone else holds it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SharedItem(Arc<ServiceItem>);

impl Deref for SharedItem {
    type Target = ServiceItem;

    fn deref(&self) -> &ServiceItem {
        &self.0
    }
}

impl DerefMut for SharedItem {
    fn deref_mut(&mut self) -> &mut ServiceItem {
        Arc::make_mut(&mut self.0)
    }
}

impl From<ServiceItem> for SharedItem {
    fn from(item: ServiceItem) -> Self {
        SharedItem(Arc::new(item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stub_type_membership() {
        let stub = ServiceStub::new(
            vec!["PrinterService".into(), "Service".into()],
            vec![1, 2, 3],
        );
        assert!(stub.implements("PrinterService"));
        assert!(stub.implements("Service"));
        assert!(!stub.implements("ScannerService"));
    }

    #[test]
    fn entry_builder() {
        let e = Entry::name("laser").with("location", "room-3");
        assert_eq!(e.class, "Name");
        assert_eq!(e.fields["name"], "laser");
        assert_eq!(e.fields["location"], "room-3");
    }

    #[test]
    fn item_size_accounts_everything() {
        let item = ServiceItem::new(ServiceStub::new(vec!["T".into()], vec![0; 10]))
            .with_entry(Entry::new("C").with("f", "v"));
        // payload 10 + type "T" 1 + class "C" 1 + field "f"+"v" 2
        assert_eq!(item.size(), 14);
    }

    #[test]
    fn a_shared_item_is_copied_on_write_only_while_shared() {
        let mut held = SharedItem::from(ServiceItem::new(ServiceStub::new(vec![], vec![1])));
        let handed_out = held.clone();
        held.service.payload = vec![2];
        assert_eq!(handed_out.service.payload, vec![1], "the copy is untouched");
        let at = &held.service as *const ServiceStub;
        held.service.payload = vec![3];
        assert_eq!(
            &held.service as *const ServiceStub, at,
            "sole holder: in place"
        );
    }
}
