//! Serving the workspace's backends over the network where it takes
//! assembly: a shard cluster (N backends behind N [`NetServer`]s plus the
//! [`ShardMap`] naming them) and a replicated HDNS cluster on the
//! membership plane. One backend needs no helper: hand the provider's
//! standard pipeline to [`NetServer::bind`], e.g.
//! `NetServer::bind(HdnsProviderContext::with_env(realm, 0, "campus", &env), &env)`,
//! so the *server* side keeps its cache/retry/obs layers.

use std::sync::Arc;

use rndi_cluster::{ClusterConfig, ClusterNode};
use rndi_core::env::Environment;
use rndi_core::error::Result;
use rndi_core::spi::{ProviderBackend, ProviderPipeline};
use rndi_net::{NetServer, ServerConfig};
use rndi_shard::{ClusterObserver, ClusterScrape, ShardInfo, ShardMap, ShardRouter};

use groupcast::StackConfig;
use hdns::HdnsRealm;
use rndi_providers::hdns::HdnsProviderContext;

/// A locally-hosted shard cluster: N backends each behind their own
/// [`NetServer`], plus the [`ShardMap`] describing where they listen.
///
/// Built by [`serve_sharded`] (explicit backends) or
/// [`serve_sharded_hdns`] (one single-replica HDNS realm per shard).
/// Routers connect with [`ShardCluster::connect`]; any number of client
/// processes can instead read [`ShardCluster::map`]'s rendered form from
/// `rndi.shard.map` and call [`ShardRouter::connect`] themselves.
pub struct ShardCluster {
    map: ShardMap,
    servers: Vec<NetServer>,
    env: Environment,
}

impl ShardCluster {
    /// The membership: shard ids and the `host:port` each listens on.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// A routing client over this cluster: one pooled
    /// [`NetClient`](rndi_net::NetClient) per shard under a
    /// [`ShardRouter`], wrapped in the standard pipeline stack.
    pub fn connect(&self, env: &Environment) -> Result<Arc<ProviderPipeline<ShardRouter>>> {
        ShardRouter::connect(self.map.clone(), env)
    }

    /// A telemetry scraper over this cluster: one admin client per shard
    /// (see [`ClusterObserver`]).
    pub fn observer(&self) -> Result<ClusterObserver> {
        ClusterObserver::new(&self.map, &self.env)
    }

    /// One full telemetry pass: scrape every shard's metrics, health, and
    /// trace ring over the data sockets and merge them into one cluster
    /// view (convenience for [`ShardCluster::observer`] + `scrape_all`).
    pub fn scrape_all(&self) -> Result<ClusterScrape> {
        Ok(self.observer()?.scrape_all())
    }

    /// Stop every shard server, draining in-flight requests first.
    pub fn shutdown(self) {
        for server in self.servers {
            server.shutdown();
        }
    }
}

/// Host `backends` as a shard cluster: shard `i` (id `shard-<i>`) serves
/// `backends[i]` behind its own [`NetServer`].
///
/// Each server binds per `rndi.net.listen`; keep the default ephemeral
/// `127.0.0.1:0` when hosting more than one shard in-process (a fixed
/// port can only bind once) and read the resulting endpoints back from
/// [`ShardCluster::map`].
pub fn serve_sharded(
    backends: Vec<Arc<dyn ProviderBackend>>,
    env: &Environment,
) -> Result<ShardCluster> {
    let config = ServerConfig::from_env(env)?;
    let mut servers = Vec::with_capacity(backends.len());
    for backend in backends {
        // Each shard gets its own metrics registry so a remote scrape
        // returns *that* instance's series; the cluster observer stamps
        // and merges them without per-process disambiguation hacks.
        let registry = Arc::new(rndi_obs::Registry::new());
        servers.push(NetServer::with_registry(backend, config.clone(), registry)?);
    }
    let map = ShardMap::new(
        servers
            .iter()
            .enumerate()
            .map(|(i, s)| ShardInfo::new(format!("shard-{i}"), s.local_addr().to_string()))
            .collect(),
    )?;
    Ok(ShardCluster {
        map,
        servers,
        env: env.clone(),
    })
}

/// The paper-native composition: partition the namespace across `shards`
/// independent single-replica HDNS realms, each with its own standard
/// provider pipeline and network endpoint. [`ShardCluster::connect`]
/// yields the routing client.
pub fn serve_sharded_hdns(shards: usize, env: &Environment) -> Result<ShardCluster> {
    let backends = (0..shards)
        .map(|i| {
            let realm = HdnsRealm::new(
                &format!("shard-{i}"),
                1,
                StackConfig::default(),
                None,
                i as u64 + 1,
            );
            HdnsProviderContext::with_env(realm, 0, &format!("hdns-shard-{i}"), env)
                as Arc<dyn ProviderBackend>
        })
        .collect();
    serve_sharded(backends, env)
}

/// A locally-hosted replicated HDNS cluster on the membership plane:
/// `n` [`ClusterNode`]s gossiping over real TCP, each hosting a replica
/// of the *same* namespace (contrast [`ShardCluster`], which partitions
/// it). Built by [`serve_cluster_hdns`].
pub struct HdnsCluster {
    nodes: Vec<ClusterNode>,
    env: Environment,
}

impl HdnsCluster {
    pub fn nodes(&self) -> &[ClusterNode] {
        &self.nodes
    }

    pub fn node(&self, i: usize) -> &ClusterNode {
        &self.nodes[i]
    }

    /// Remove a node from the cluster's bookkeeping (it keeps running —
    /// call [`ClusterNode::kill`] or [`ClusterNode::shutdown`] on it).
    pub fn take(&mut self, i: usize) -> ClusterNode {
        self.nodes.remove(i)
    }

    /// The membership rendered as a [`ShardMap`] (node name → endpoint),
    /// which is what the telemetry plane scrapes by.
    pub fn map(&self) -> Result<ShardMap> {
        ShardMap::new(
            self.nodes
                .iter()
                .map(|n| ShardInfo::new(n.name(), n.endpoint()))
                .collect(),
        )
    }

    /// A telemetry scraper over every live node's admin surface.
    pub fn observer(&self) -> Result<ClusterObserver> {
        ClusterObserver::new(&self.map()?, &self.env)
    }

    /// One full telemetry pass over the cluster: per-node metrics
    /// (including the `rndi_cluster_*` series the membership signals are
    /// derived from), health, and trace rings, merged.
    pub fn scrape_all(&self) -> Result<ClusterScrape> {
        Ok(self.observer()?.scrape_all())
    }

    /// Gracefully stop every node.
    pub fn shutdown(self) {
        for node in self.nodes {
            node.shutdown();
        }
    }
}

/// Boot an `n`-node replicated HDNS cluster from one seed.
///
/// `node-0` bootstraps the view lineage; every other node is pointed at
/// its endpoint via `rndi.cluster.seed` and joins by gossip — membership
/// convergence, view installation, and state transfer all happen over
/// the wire exactly as they would across machines. Remaining
/// `rndi.cluster.*` knobs (gossip interval, phi threshold, quarantine)
/// are read from `env`.
pub fn serve_cluster_hdns(n: usize, group: &str, env: &Environment) -> Result<HdnsCluster> {
    let mut nodes = Vec::with_capacity(n);
    let seed_free = env.clone().with(rndi_core::env::keys::CLUSTER_SEED, "");
    nodes.push(ClusterNode::start(ClusterConfig::from_env(
        "node-0", group, &seed_free,
    )?)?);
    let seeded = env
        .clone()
        .with(rndi_core::env::keys::CLUSTER_SEED, nodes[0].endpoint());
    for i in 1..n {
        nodes.push(ClusterNode::start(ClusterConfig::from_env(
            format!("node-{i}"),
            group,
            &seeded,
        )?)?);
    }
    Ok(HdnsCluster {
        nodes,
        env: env.clone(),
    })
}
