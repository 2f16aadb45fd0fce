//! Registrar discovery (Jini multicast discovery, in-process analogue).
//!
//! Jini clients find lookup services by multicasting a discovery request
//! carrying the group names they are interested in; registrars answer with
//! their locator. In this workspace, services live in one process (or one
//! simulation), so [`DiscoveryRealm`] models the multicast domain: lookup
//! services announce themselves into it, and clients discover by group.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::registrar::Registrar;

/// Where a registrar can be reached.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LookupLocator {
    pub host: String,
    pub port: u16,
}

impl LookupLocator {
    pub fn new(host: impl Into<String>, port: u16) -> Self {
        LookupLocator {
            host: host.into(),
            port,
        }
    }
}

struct Announced {
    locator: LookupLocator,
    groups: Vec<String>,
    registrar: Registrar,
}

/// A multicast discovery domain.
#[derive(Clone, Default)]
pub struct DiscoveryRealm {
    inner: Arc<RwLock<HashMap<LookupLocator, Announced>>>,
}

impl DiscoveryRealm {
    pub fn new() -> Self {
        DiscoveryRealm::default()
    }

    /// Announce a registrar as serving the given groups.
    pub fn announce(&self, locator: LookupLocator, groups: &[&str], registrar: Registrar) {
        self.inner.write().insert(
            locator.clone(),
            Announced {
                locator,
                groups: groups.iter().map(|s| s.to_string()).collect(),
                registrar,
            },
        );
    }

    /// Discover every registrar serving `group` (`""` = all groups).
    pub fn discover(&self, group: &str) -> Vec<(LookupLocator, Registrar)> {
        let inner = self.inner.read();
        let mut out: Vec<(LookupLocator, Registrar)> = inner
            .values()
            .filter(|a| group.is_empty() || a.groups.iter().any(|g| g == group))
            .map(|a| (a.locator.clone(), a.registrar.clone()))
            .collect();
        out.sort_by(|a, b| (&a.0.host, a.0.port).cmp(&(&b.0.host, b.0.port)));
        out
    }

    /// Unicast discovery: fetch the registrar at a known locator.
    pub fn locate(&self, locator: &LookupLocator) -> Option<Registrar> {
        self.inner.read().get(locator).map(|a| a.registrar.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ManualClock;

    fn reg() -> Registrar {
        Registrar::new(ManualClock::new(), 60_000, 0)
    }

    #[test]
    fn group_discovery() {
        let realm = DiscoveryRealm::new();
        realm.announce(LookupLocator::new("h1", 4160), &["public"], reg());
        realm.announce(LookupLocator::new("h2", 4160), &["public", "dept"], reg());
        realm.announce(LookupLocator::new("h3", 4160), &["private"], reg());

        assert_eq!(realm.discover("public").len(), 2);
        assert_eq!(realm.discover("dept").len(), 1);
        assert_eq!(realm.discover("none").len(), 0);
        assert_eq!(realm.discover("").len(), 3, "empty group = all");
    }

    #[test]
    fn unicast_locate() {
        let realm = DiscoveryRealm::new();
        let loc = LookupLocator::new("h1", 4160);
        realm.announce(loc.clone(), &["g"], reg());
        assert!(realm.locate(&loc).is_some());
        assert!(realm.locate(&LookupLocator::new("h2", 4160)).is_none());
    }

    #[test]
    fn reannounce_replaces() {
        let realm = DiscoveryRealm::new();
        let loc = LookupLocator::new("h1", 4160);
        realm.announce(loc.clone(), &["a"], reg());
        realm.announce(loc.clone(), &["b"], reg());
        assert!(realm.discover("a").is_empty());
        assert_eq!(realm.discover("b").len(), 1);
    }
}
