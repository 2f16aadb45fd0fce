//! The shard map: which shards exist and where they live.
//!
//! Static configuration for now — a map is built once (programmatically or
//! from [`keys::SHARD_MAP`]) and shared by the router and the serving
//! facade. The `epoch` field exists so membership-change rebalancing can
//! slot in later: a rebalancer publishes a new map with a bumped epoch,
//! and rendezvous hashing guarantees only the keys of departed shards
//! change owners.

use rndi_core::env::{keys, Environment};
use rndi_core::error::{NamingError, Result};

use crate::hash;

/// One shard: a stable identity plus the endpoint serving it.
///
/// Ownership hashes over the *id*, never the endpoint, so a shard can be
/// re-homed (new port, new host) without moving a single key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardInfo {
    id: String,
    endpoint: String,
}

impl ShardInfo {
    pub fn new(id: impl Into<String>, endpoint: impl Into<String>) -> Self {
        ShardInfo {
            id: id.into(),
            endpoint: endpoint.into(),
        }
    }

    pub fn id(&self) -> &str {
        &self.id
    }

    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }
}

/// An immutable set of shards plus the rendezvous owner function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    epoch: u64,
    shards: Vec<ShardInfo>,
}

impl ShardMap {
    /// A map over `shards`. Ids must be non-empty and unique — ownership
    /// is a function of the id, so a duplicate would silently split one
    /// shard's keyspace across two endpoints. Endpoints must be non-empty:
    /// clients dial lazily, so a blank one would pass start-up and fail
    /// only when a key first hashes to that shard.
    pub fn new(shards: Vec<ShardInfo>) -> Result<Self> {
        if shards.is_empty() {
            return Err(NamingError::ConfigurationError {
                detail: "shard map must name at least one shard".to_string(),
            });
        }
        for (i, s) in shards.iter().enumerate() {
            if s.id.is_empty() {
                return Err(NamingError::ConfigurationError {
                    detail: format!("shard #{i} has an empty id"),
                });
            }
            if s.endpoint.trim().is_empty() {
                return Err(NamingError::ConfigurationError {
                    detail: format!("shard {:?} has an empty endpoint", s.id),
                });
            }
            if shards[..i].iter().any(|prev| prev.id == s.id) {
                return Err(NamingError::ConfigurationError {
                    detail: format!("duplicate shard id {:?}", s.id),
                });
            }
        }
        Ok(ShardMap { epoch: 0, shards })
    }

    /// Parse a `rndi.shard.map` spec: comma-separated members, each
    /// `id=endpoint` or a bare `endpoint` (which doubles as the id).
    pub fn parse(spec: &str) -> Result<Self> {
        let shards = spec
            .split(',')
            .map(str::trim)
            .filter(|m| !m.is_empty())
            .map(|member| match member.split_once('=') {
                Some((id, endpoint)) => ShardInfo::new(id.trim(), endpoint.trim()),
                None => ShardInfo::new(member, member),
            })
            .collect();
        Self::new(shards)
    }

    /// Build the map named by [`keys::SHARD_MAP`] in `env`.
    pub fn from_env(env: &Environment) -> Result<Self> {
        match env.get(keys::SHARD_MAP) {
            Some(spec) => Self::parse(spec),
            None => Err(NamingError::ConfigurationError {
                detail: format!("property {} is not set", keys::SHARD_MAP),
            }),
        }
    }

    /// The inverse of [`ShardMap::parse`].
    pub fn render(&self) -> String {
        self.shards
            .iter()
            .map(|s| format!("{}={}", s.id, s.endpoint))
            .collect::<Vec<_>>()
            .join(",")
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn len(&self) -> usize {
        self.shards.len()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    pub fn shards(&self) -> &[ShardInfo] {
        &self.shards
    }

    /// Index of the shard owning `key`: the highest-random-weight member.
    /// Ties (vanishingly rare with 64-bit weights) break toward the
    /// lexicographically greatest id, so ownership is a pure function of
    /// the membership *set* — permuting the member order never moves a
    /// key.
    pub fn owner_index(&self, key: &str) -> usize {
        let mut best = 0;
        let mut best_weight = hash::weight(&self.shards[0].id, key);
        for (i, shard) in self.shards.iter().enumerate().skip(1) {
            let w = hash::weight(&shard.id, key);
            if w > best_weight || (w == best_weight && shard.id > self.shards[best].id) {
                best = i;
                best_weight = w;
            }
        }
        best
    }

    /// The shard owning `key`.
    pub fn owner(&self, key: &str) -> &ShardInfo {
        &self.shards[self.owner_index(key)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_both_member_forms_and_round_trips() {
        let map = ShardMap::parse("a=127.0.0.1:7001, b=127.0.0.1:7002").unwrap();
        assert_eq!(map.len(), 2);
        assert_eq!(map.shards()[0].id(), "a");
        assert_eq!(map.shards()[1].endpoint(), "127.0.0.1:7002");
        assert_eq!(ShardMap::parse(&map.render()).unwrap(), map);

        let bare = ShardMap::parse("127.0.0.1:7001").unwrap();
        assert_eq!(bare.shards()[0].id(), "127.0.0.1:7001");
    }

    #[test]
    fn rejects_empty_and_duplicate_ids() {
        assert!(ShardMap::parse("").is_err());
        assert!(ShardMap::new(vec![]).is_err());
        assert!(ShardMap::parse("a=h:1,a=h:2").is_err());
        assert!(ShardMap::new(vec![ShardInfo::new("", "h:1")]).is_err());
        for spec in ["a=", "a= ", "a=,b=h:2"] {
            let err = ShardMap::parse(spec).unwrap_err().to_string();
            assert!(
                err.contains("\"a\" has an empty endpoint"),
                "{spec:?}: {err}"
            );
        }
    }

    #[test]
    fn ownership_ignores_member_order_and_endpoints() {
        let fwd = ShardMap::parse("a=h:1,b=h:2,c=h:3").unwrap();
        let rev = ShardMap::parse("c=h:3,a=h:1,b=h:2").unwrap();
        let rehomed = ShardMap::parse("a=elsewhere:9,b=h:2,c=h:3").unwrap();
        for key in ["printers", "apps", "svc-0", "svc-1", "x"] {
            assert_eq!(fwd.owner(key).id(), rev.owner(key).id(), "key {key}");
            assert_eq!(fwd.owner(key).id(), rehomed.owner(key).id(), "key {key}");
        }
    }

    #[test]
    fn from_env_reads_the_map_key() {
        let env = Environment::new().with(keys::SHARD_MAP, "a=h:1,b=h:2");
        assert_eq!(ShardMap::from_env(&env).unwrap().len(), 2);
        assert!(ShardMap::from_env(&Environment::new()).is_err());
    }
}
