//! Template matching (Jini `ServiceTemplate`).
//!
//! A template matches a service item when **all** of its constraints hold:
//! the service id (if given) is equal, the stub implements every listed
//! type, and for each entry template there is some attribute entry of the
//! same class whose specified fields match exactly (unspecified fields are
//! wildcards).

use std::collections::BTreeMap;

use crate::id::ServiceId;
use crate::item::{Entry, ServiceItem};

/// A partially specified [`Entry`]: `None` fields are wildcards.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EntryTemplate {
    pub class: String,
    pub fields: BTreeMap<String, Option<String>>,
}

impl EntryTemplate {
    pub fn new(class: impl Into<String>) -> Self {
        EntryTemplate {
            class: class.into(),
            fields: BTreeMap::new(),
        }
    }

    /// Require `field == value`.
    pub fn with(mut self, field: impl Into<String>, value: impl Into<String>) -> Self {
        self.fields.insert(field.into(), Some(value.into()));
        self
    }

    /// Require the field to exist, with any value.
    pub fn with_any(mut self, field: impl Into<String>) -> Self {
        self.fields.insert(field.into(), None);
        self
    }

    /// Whether `entry` satisfies this template.
    pub fn matches(&self, entry: &Entry) -> bool {
        if entry.class != self.class {
            return false;
        }
        self.fields
            .iter()
            .all(|(k, want)| match entry.fields.get(k) {
                Some(have) => want.as_ref().is_none_or(|w| w == have),
                None => false,
            })
    }
}

/// The full service template.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceTemplate {
    pub service_id: Option<ServiceId>,
    /// Types the service must implement (all of them).
    pub service_types: Vec<String>,
    /// Entry templates, each of which must be satisfied by some entry.
    pub attribute_templates: Vec<EntryTemplate>,
}

impl ServiceTemplate {
    /// The wildcard template: matches every item.
    pub fn any() -> Self {
        ServiceTemplate::default()
    }

    /// The template a client that knows an item's id reads it by: one
    /// map probe, no index.
    pub fn by_id(id: ServiceId) -> Self {
        ServiceTemplate {
            service_id: Some(id),
            ..Default::default()
        }
    }

    pub fn by_type(type_name: impl Into<String>) -> Self {
        ServiceTemplate {
            service_types: vec![type_name.into()],
            ..Default::default()
        }
    }

    // Kept: the type-constrained templates the crate's property and
    // stress tests drive through the index.
    pub fn with_type(mut self, type_name: impl Into<String>) -> Self {
        self.service_types.push(type_name.into());
        self
    }

    pub fn with_entry(mut self, tmpl: EntryTemplate) -> Self {
        self.attribute_templates.push(tmpl);
        self
    }

    /// Whether `item` satisfies every constraint.
    pub fn matches(&self, item: &ServiceItem) -> bool {
        if let Some(want) = self.service_id {
            if item.service_id != Some(want) {
                return false;
            }
        }
        if !self
            .service_types
            .iter()
            .all(|t| item.service.implements(t))
        {
            return false;
        }
        self.attribute_templates
            .iter()
            .all(|tmpl| item.attribute_sets.iter().any(|e| tmpl.matches(e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::ServiceStub;

    fn printer() -> ServiceItem {
        ServiceItem::new(ServiceStub::new(
            vec!["PrinterService".into(), "Service".into()],
            vec![],
        ))
        .with_id(ServiceId::new(7, 7))
        .with_entry(Entry::name("laser").with("location", "room-3"))
        .with_entry(Entry::new("Status").with("state", "idle"))
    }

    #[test]
    fn wildcard_matches_everything() {
        assert!(ServiceTemplate::any().matches(&printer()));
    }

    #[test]
    fn id_matching() {
        assert!(ServiceTemplate::by_id(ServiceId::new(7, 7)).matches(&printer()));
        assert!(!ServiceTemplate::by_id(ServiceId::new(1, 1)).matches(&printer()));
    }

    #[test]
    fn type_matching_requires_all() {
        assert!(ServiceTemplate::by_type("PrinterService").matches(&printer()));
        assert!(ServiceTemplate::by_type("Service")
            .with_type("PrinterService")
            .matches(&printer()));
        assert!(!ServiceTemplate::by_type("Scanner").matches(&printer()));
        assert!(!ServiceTemplate::by_type("PrinterService")
            .with_type("Scanner")
            .matches(&printer()));
    }

    #[test]
    fn entry_template_wildcards() {
        let t = ServiceTemplate::any().with_entry(EntryTemplate::new("Name").with("name", "laser"));
        assert!(t.matches(&printer()));

        let t = ServiceTemplate::any().with_entry(EntryTemplate::new("Name").with_any("location"));
        assert!(t.matches(&printer()));

        let t = ServiceTemplate::any().with_entry(EntryTemplate::new("Name").with_any("missing"));
        assert!(!t.matches(&printer()));

        let t =
            ServiceTemplate::any().with_entry(EntryTemplate::new("Name").with("name", "inkjet"));
        assert!(!t.matches(&printer()));
    }

    #[test]
    fn each_entry_template_independently_satisfied() {
        let t = ServiceTemplate::any()
            .with_entry(EntryTemplate::new("Name").with("name", "laser"))
            .with_entry(EntryTemplate::new("Status").with("state", "idle"));
        assert!(t.matches(&printer()));
        // One template can't straddle two entries.
        let t = ServiceTemplate::any().with_entry(
            EntryTemplate::new("Name")
                .with("name", "laser")
                .with("state", "idle"),
        );
        assert!(!t.matches(&printer()));
    }

    #[test]
    fn class_must_match_exactly() {
        let t = ServiceTemplate::any().with_entry(EntryTemplate::new("name"));
        assert!(!t.matches(&printer()), "entry class comparison is exact");
    }
}
