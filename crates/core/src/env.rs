//! The environment: configuration properties passed to providers.
//!
//! JNDI threads a `Hashtable` of environment properties through every
//! context; providers read service-specific settings (credentials, URLs,
//! consistency flags) from it. This mirrors that, with typed accessors.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::NamingError;

/// Well-known property names.
pub mod keys {
    /// URL of the initial/default naming service, e.g. `"hdns://host2"`.
    pub const PROVIDER_URL: &str = "rndi.provider.url";
    /// Security principal (user identity) for providers that authenticate.
    pub const SECURITY_PRINCIPAL: &str = "rndi.security.principal";
    /// Security credentials.
    pub const SECURITY_CREDENTIALS: &str = "rndi.security.credentials";
    /// `"true"`/`"false"`: whether the Jini provider enforces strict atomic
    /// `bind` semantics via distributed locking (paper §5.1). Default true.
    pub const JINI_STRICT_BIND: &str = "rndi.jini.bind.strict";
    /// This process's slot in the Jini provider's strict-bind lock
    /// (Eisenberg–McGuire over registers in the lookup service). Default 0.
    /// Every process that binds strictly through one lookup service needs
    /// its own slot below [`JINI_LOCK_SLOTS`]: the lock excludes distinct
    /// slots only. Callers in one process that share a lookup service and
    /// a slot are serialised locally.
    pub const JINI_LOCK_SLOT: &str = "rndi.jini.lock.slot";
    /// Number of slots in the Jini strict-bind lock, i.e. the most
    /// processes that can bind strictly through one lookup service. Every
    /// process sharing the lookup service must use the same value. Default
    /// 2 (raised to `slot + 1` when [`JINI_LOCK_SLOT`] is past it).
    pub const JINI_LOCK_SLOTS: &str = "rndi.jini.lock.slots";
    /// Lease duration, in milliseconds, requested by providers that lease.
    pub const LEASE_MS: &str = "rndi.lease.ms";
    /// Maximum worker threads a federated subtree search fans out across
    /// mounted naming systems with. `1` degenerates to sequential visits.
    pub const FEDERATION_FANOUT: &str = "rndi.federation.fanout";
    /// TTL, in milliseconds, of the pipeline's read-through lookup cache.
    /// `0` (the default) disables the cache layer entirely.
    pub const CACHE_TTL_MS: &str = "rndi.pipeline.cache.ttl.ms";
    /// Maximum attempts the pipeline's retry layer makes per operation on
    /// transient backend errors. `1` (the default) means no retries.
    pub const RETRY_MAX_ATTEMPTS: &str = "rndi.pipeline.retry.max-attempts";
    /// Base backoff, in milliseconds, doubled per retry attempt.
    pub const RETRY_BACKOFF_MS: &str = "rndi.pipeline.retry.backoff.ms";
    /// `"true"`/`"false"`: whether pipelines install the observability
    /// layer (trace spans + per-op metrics). Default true.
    pub const OBS_ENABLED: &str = "rndi.obs.enabled";
    /// Path of a JSONL file that finished spans are appended to, in
    /// addition to the in-memory ring buffer. Unset (the default) means no
    /// file sink.
    pub const OBS_TRACE_FILE: &str = "rndi.obs.trace-file";
    /// Directory the flight recorder writes anomaly dumps (JSONL) into.
    /// Unset (the default) leaves the recorder disarmed.
    pub const OBS_FLIGHT_DIR: &str = "rndi.obs.flight-dir";
    /// Observations required per (provider, op) before the slow-op
    /// trigger arms (default 64).
    pub const OBS_FLIGHT_MIN_SAMPLES: &str = "rndi.obs.flight.min-samples";
    /// `host:port` a `NetServer` listens on. `127.0.0.1:0` (the default)
    /// binds an ephemeral loopback port.
    pub const NET_LISTEN: &str = "rndi.net.listen";
    /// Maximum concurrent connections a `NetServer` serves; accepts beyond
    /// this are refused until a slot drains. Default 64.
    pub const NET_SERVER_MAX_CONNS: &str = "rndi.net.server.max-conns";
    /// Per-request deadline, in milliseconds, that clients propagate and
    /// servers enforce. `0` disables deadlines. Default 5000.
    pub const NET_DEADLINE_MS: &str = "rndi.net.deadline-ms";
    /// Most multiplexed connections a `NetClient` pools per endpoint,
    /// redials included. Default 4.
    pub const NET_CLIENT_POOL_SIZE: &str = "rndi.net.client.pool-size";
    /// In-flight requests per connection past which a `NetClient` dials
    /// another; once the pool is full, the least-loaded connection takes
    /// the call anyway. Default 32.
    pub const NET_CLIENT_PIPELINE_DEPTH: &str = "rndi.net.client.pipeline-depth";
    /// Event-loop shards (worker threads) a `NetServer` spreads its
    /// connections across. `0` (the default) sizes to the machine:
    /// `min(available cores, 4)`.
    pub const NET_SERVER_SHARDS: &str = "rndi.net.server.shards";
    /// Bound on each `NetServer` event-loop shard's admission queue: calls
    /// beyond this many waiting are shed with `Overloaded` instead of
    /// queueing past their deadline. `0` (the default) leaves the queue
    /// unbounded (no queue shedding).
    pub const NET_SERVER_QUEUE_DEPTH: &str = "rndi.net.server.queue-depth";
    /// Per-connection token-bucket refill rate, in ops per second, that a
    /// `NetServer` admits; calls past the bucket are shed with
    /// `Overloaded`. `0` (the default) disables rate limiting.
    pub const NET_SERVER_RATE_OPS: &str = "rndi.net.server.rate.ops-per-sec";
    /// Per-connection token-bucket burst capacity (maximum tokens banked
    /// while a connection idles). `0` (the default) means the refill rate.
    pub const NET_SERVER_RATE_BURST: &str = "rndi.net.server.rate.burst";
    /// `"true"`/`"false"`: whether each `NetServer` shard runs the AIMD
    /// adaptive admission controller, shrinking its effective queue bound
    /// multiplicatively on shed/deadline-miss and growing it additively on
    /// in-budget completions. Requires a bounded queue. Default false.
    pub const NET_SERVER_ADAPTIVE: &str = "rndi.net.server.adaptive-concurrency";
    /// Grace window, in milliseconds, during which the pipeline cache may
    /// serve an *expired* entry when the backend reports `Overloaded`
    /// (serve-stale fallback). `0` (the default) disables it.
    pub const CACHE_SERVE_STALE_MS: &str = "rndi.pipeline.cache.serve-stale-ms";
    /// Maximum worker threads the shard router fans a scatter op
    /// (whole-namespace `list`/`search`, listener broadcast) out across.
    /// `1` degenerates to sequential shard visits. Default 8.
    pub const SHARD_FANOUT: &str = "rndi.shard.fanout";
    /// Shard-map specification a router/facade is built from:
    /// comma-separated `shard-id=host:port` members (the `shard-id=`
    /// prefix is optional — bare endpoints use the endpoint as id).
    pub const SHARD_MAP: &str = "rndi.shard.map";
    /// Seed endpoint (`host:port`) a booting cluster node gossips with
    /// first to discover the rest of the membership. Empty / absent means
    /// this node *is* the seed.
    pub const CLUSTER_SEED: &str = "rndi.cluster.seed";
    /// Milliseconds between gossip rounds (membership exchange with one
    /// random peer + heartbeat fan-out). Default 25.
    pub const CLUSTER_GOSSIP_INTERVAL_MS: &str = "rndi.cluster.gossip-interval-ms";
    /// Phi-accrual suspicion threshold: a peer whose heartbeat phi score
    /// crosses this becomes `Suspect`, and `Dead` at twice it. Default 8.
    pub const CLUSTER_PHI_THRESHOLD: &str = "rndi.cluster.phi-threshold";
    /// Milliseconds a node declared `Dead` stays quarantined: re-admission
    /// requires this cooldown to elapse *and* the node to return under a
    /// strictly higher incarnation. Default 2000.
    pub const CLUSTER_QUARANTINE_MS: &str = "rndi.cluster.quarantine-ms";
}

/// An immutable-by-convention string property map.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Environment {
    props: BTreeMap<String, String>,
}

impl Environment {
    pub fn new() -> Self {
        Environment::default()
    }

    /// Builder-style property set.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.props.insert(key.into(), value.into());
        self
    }

    pub fn set(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.props.insert(key.into(), value.into());
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.props.get(key).map(|s| s.as_str())
    }

    /// Boolean property; absent returns `default`. An unparsable value
    /// also falls back to `default` but is no longer silent: it bumps
    /// `rndi_config_parse_errors_total{key}` so misconfiguration is
    /// visible in metrics. Use [`Environment::try_get_bool`] to fail fast
    /// instead.
    pub fn get_bool(&self, key: &str, default: bool) -> bool {
        match self.parse_bool(key) {
            Ok(v) => v.unwrap_or(default),
            Err(_) => {
                note_parse_error(key);
                default
            }
        }
    }

    /// Unsigned integer property; absent returns `default`. An unparsable
    /// value falls back to `default` and bumps
    /// `rndi_config_parse_errors_total{key}`. Use
    /// [`Environment::try_get_u64`] to fail fast instead.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        match self.parse_u64(key) {
            Ok(v) => v.unwrap_or(default),
            Err(_) => {
                note_parse_error(key);
                default
            }
        }
    }

    /// Strict boolean accessor: absent returns `Ok(default)`, present but
    /// unparsable returns a `ConfigurationError` naming the key.
    pub fn try_get_bool(&self, key: &str, default: bool) -> Result<bool, NamingError> {
        self.parse_bool(key)
            .map(|v| v.unwrap_or(default))
            .map_err(|raw| config_error(key, &raw, "boolean"))
    }

    /// Strict unsigned-integer accessor: absent returns `Ok(default)`,
    /// present but unparsable returns a `ConfigurationError` naming the
    /// key.
    pub fn try_get_u64(&self, key: &str, default: u64) -> Result<u64, NamingError> {
        self.parse_u64(key)
            .map(|v| v.unwrap_or(default))
            .map_err(|raw| config_error(key, &raw, "unsigned integer"))
    }

    /// `Ok(None)` absent, `Ok(Some(v))` parsed, `Err(raw)` unparsable.
    fn parse_bool(&self, key: &str) -> Result<Option<bool>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => match v.to_ascii_lowercase().as_str() {
                "true" | "1" | "yes" | "on" => Ok(Some(true)),
                "false" | "0" | "no" | "off" => Ok(Some(false)),
                _ => Err(v.to_string()),
            },
        }
    }

    /// `Ok(None)` absent, `Ok(Some(v))` parsed, `Err(raw)` unparsable.
    fn parse_u64(&self, key: &str) -> Result<Option<u64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v.trim().parse().map(Some).map_err(|_| v.to_string()),
        }
    }

    pub fn len(&self) -> usize {
        self.props.len()
    }

    pub fn is_empty(&self) -> bool {
        self.props.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.props.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

fn note_parse_error(key: &str) {
    rndi_obs::metrics::counter(
        rndi_obs::metrics::names::CONFIG_PARSE_ERRORS,
        &[("key", key)],
    )
    .inc();
}

fn config_error(key: &str, raw: &str, kind: &str) -> NamingError {
    NamingError::ConfigurationError {
        detail: format!("property {key}: expected {kind}, got {raw:?}"),
    }
}

impl fmt::Debug for Environment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_map();
        for (k, v) in &self.props {
            // Never leak credentials into logs.
            if k == keys::SECURITY_CREDENTIALS {
                d.entry(k, &"<redacted>");
            } else {
                d.entry(k, v);
            }
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_accessors() {
        let env = Environment::new()
            .with("flag", "true")
            .with("num", "42")
            .with("junk", "zzz");
        assert!(env.get_bool("flag", false));
        assert!(!env.get_bool("missing", false));
        assert!(env.get_bool("junk", true), "unparsable falls back");
        assert_eq!(env.get_u64("num", 0), 42);
        assert_eq!(env.get_u64("junk", 7), 7);
        assert_eq!(env.get("num"), Some("42"));
    }

    #[test]
    fn strict_accessors_surface_config_errors() {
        let env = Environment::new()
            .with("flag", "true")
            .with("num", "42")
            .with("junk", "zzz");
        assert_eq!(env.try_get_bool("flag", false), Ok(true));
        assert_eq!(env.try_get_bool("missing", true), Ok(true));
        assert_eq!(env.try_get_u64("num", 0), Ok(42));
        assert_eq!(env.try_get_u64("missing", 9), Ok(9));
        match env.try_get_bool("junk", true) {
            Err(NamingError::ConfigurationError { detail }) => {
                assert!(detail.contains("junk"), "{detail}");
                assert!(detail.contains("zzz"), "{detail}");
            }
            other => panic!("expected ConfigurationError, got {other:?}"),
        }
        assert!(env.try_get_u64("junk", 7).is_err());
    }

    #[test]
    fn lenient_fallback_counts_parse_errors() {
        let env = Environment::new().with("env-test.bad", "not-a-number");
        let before = rndi_obs::metrics::counter(
            rndi_obs::metrics::names::CONFIG_PARSE_ERRORS,
            &[("key", "env-test.bad")],
        )
        .get();
        assert_eq!(env.get_u64("env-test.bad", 3), 3);
        assert!(env.get_bool("env-test.bad", true));
        let after = rndi_obs::metrics::counter(
            rndi_obs::metrics::names::CONFIG_PARSE_ERRORS,
            &[("key", "env-test.bad")],
        )
        .get();
        assert_eq!(after - before, 2, "both lenient reads count a parse error");
    }

    #[test]
    fn bool_spellings() {
        for (s, expect) in [("YES", true), ("off", false), ("1", true), ("0", false)] {
            let env = Environment::new().with("k", s);
            assert_eq!(env.get_bool("k", !expect), expect, "spelling {s}");
        }
    }

    #[test]
    fn debug_redacts_credentials() {
        let env = Environment::new()
            .with(keys::SECURITY_CREDENTIALS, "hunter2")
            .with(keys::SECURITY_PRINCIPAL, "alice");
        let dbg = format!("{env:?}");
        assert!(!dbg.contains("hunter2"));
        assert!(dbg.contains("alice"));
    }
}
