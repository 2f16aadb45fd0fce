//! A miniature object-class schema.
//!
//! Real OpenLDAP validates entries against a schema; we keep a small,
//! practical subset: each object class declares required ("must") and
//! allowed ("may") attributes; an entry must carry at least one known
//! object class and every "must" of every class it declares. Validation is
//! optional per server configuration.

use std::collections::HashMap;

/// An object-class definition.
// Public as the type `Schema::add` takes and `Schema::get` returns.
#[derive(Clone, Debug)]
pub struct ObjectClass {
    pub name: String,
    pub must: Vec<String>,
    pub may: Vec<String>,
}

/// A schema: object classes keyed case-insensitively.
#[derive(Clone, Debug, Default)]
pub struct Schema {
    classes: HashMap<String, ObjectClass>,
    /// When false, attributes outside must/may are tolerated.
    pub strict_attrs: bool,
}

impl Schema {
    /// The built-in default schema covering the entry kinds used in the
    /// paper's scenarios (organizations, OUs, devices, services, people).
    pub fn standard() -> Schema {
        let mut s = Schema::default();
        for (name, must, may) in [
            ("top", vec!["objectClass"], vec![]),
            ("organization", vec!["o"], vec!["description", "l"]),
            ("organizationalUnit", vec!["ou"], vec!["description", "l"]),
            (
                "device",
                vec!["cn"],
                vec!["description", "owner", "serialNumber", "l"],
            ),
            (
                "applicationProcess",
                vec!["cn"],
                vec!["description", "l", "seeAlso"],
            ),
            (
                "person",
                vec!["cn", "sn"],
                vec!["description", "telephoneNumber", "userPassword"],
            ),
            (
                "gridResource",
                vec!["cn"],
                vec!["description", "cpuCount", "memoryMb", "os", "endpoint"],
            ),
            // Free-form container for the JNDI provider's generic tuples.
            (
                "rndiObject",
                vec!["cn"],
                vec!["rndiValue", "rndiClass", "description"],
            ),
        ] {
            s.add(ObjectClass {
                name: name.to_string(),
                must: must.into_iter().map(String::from).collect(),
                may: may.into_iter().map(String::from).collect(),
            });
        }
        s
    }

    pub fn add(&mut self, class: ObjectClass) {
        self.classes.insert(class.name.to_ascii_lowercase(), class);
    }

    pub fn get(&self, name: &str) -> Option<&ObjectClass> {
        self.classes.get(&name.to_ascii_lowercase())
    }

    /// Validate an entry; `Ok(())` or a human-readable violation.
    pub fn validate(&self, entry: &crate::entry::LdapEntry) -> Result<(), String> {
        let Some(classes_attr) = entry.get("objectClass") else {
            return Err("entry has no objectClass".into());
        };
        let mut allowed: Vec<String> = vec!["objectclass".into()];
        for class_name in classes_attr.values() {
            let Some(class) = self.get(class_name) else {
                return Err(format!("unknown objectClass {class_name:?}"));
            };
            for must in &class.must {
                if !entry.has(must) {
                    return Err(format!(
                        "missing required attribute {must:?} for objectClass {class_name:?}"
                    ));
                }
            }
            allowed.extend(class.must.iter().map(|a| a.to_ascii_lowercase()));
            allowed.extend(class.may.iter().map(|a| a.to_ascii_lowercase()));
        }
        if self.strict_attrs {
            for attr in entry.attrs() {
                if !allowed.contains(&attr.id().to_ascii_lowercase()) {
                    return Err(format!("attribute {:?} not allowed by schema", attr.id()));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dn::Dn;
    use crate::entry::LdapEntry;

    fn device() -> LdapEntry {
        LdapEntry::new(Dn::parse("cn=printer,o=emory").unwrap())
            .with("objectClass", "device")
            .with("cn", "printer")
    }

    #[test]
    fn valid_entry_passes() {
        assert!(Schema::standard().validate(&device()).is_ok());
    }

    #[test]
    fn missing_must_fails() {
        let e = LdapEntry::new(Dn::root()).with("objectClass", "device");
        let err = Schema::standard().validate(&e).unwrap_err();
        assert!(err.contains("cn"));
    }

    #[test]
    fn unknown_class_fails() {
        let e = LdapEntry::new(Dn::root()).with("objectClass", "martian");
        assert!(Schema::standard().validate(&e).is_err());
    }

    #[test]
    fn no_object_class_fails() {
        let e = LdapEntry::new(Dn::root()).with("cn", "x");
        assert!(Schema::standard().validate(&e).is_err());
    }

    #[test]
    fn strict_attrs_rejects_extras() {
        let mut schema = Schema::standard();
        let e = device().with("color", "red");
        assert!(schema.validate(&e).is_ok(), "lenient by default");
        schema.strict_attrs = true;
        assert!(schema.validate(&e).is_err());
    }

    #[test]
    fn multiple_classes_union_allowed() {
        let mut schema = Schema::standard();
        schema.strict_attrs = true;
        let e = LdapEntry::new(Dn::root())
            .with("objectClass", "device")
            .with("objectClass", "gridResource")
            .with("cn", "node")
            .with("cpuCount", "8")
            .with("owner", "dcl");
        assert!(schema.validate(&e).is_ok());
    }
}
