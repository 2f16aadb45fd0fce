//! Resolution with a TTL cache.
//!
//! The resolver asks the first of its servers and caches positive and
//! negative results by TTL. It holds no glue, so a referral (a name
//! delegated away from that server) is SERVFAIL.
//!
//! NXDOMAIN is cached as RFC 8020 has it: one line per name, whatever
//! type was asked, that answers for every name below it too.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use rndi_obs::metrics::Counter;

use crate::name::DnsName;
use crate::rr::{RecordType, ResourceRecord};
use crate::server::{AuthServer, Rcode};

/// Resolution failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResolveError {
    /// Authoritative denial of this name.
    NxDomain(DnsName),
    /// Referral loop / depth exceeded / unreachable nameserver.
    ServFail(String),
}

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolveError::NxDomain(n) => write!(f, "NXDOMAIN {n}"),
            ResolveError::ServFail(d) => write!(f, "SERVFAIL {d}"),
        }
    }
}

impl std::error::Error for ResolveError {}

/// Most lines the cache holds. Distinct names are an input the caller
/// controls (a client resolving made-up names mints one negative line
/// each), so the cache is bounded: at the bound it drops what has expired,
/// then the oldest lines.
const MAX_CACHE_LINES: usize = 65_536;

/// Lines left after an eviction pass. Evicting an eighth at a time keeps
/// the pass (linear in the cache) off all but one in 8192 inserts.
const CACHE_LINES_AFTER_EVICTION: usize = MAX_CACHE_LINES - MAX_CACHE_LINES / 8;

struct CacheLine {
    expires_at_ms: u64,
    /// Insertion order: eviction drops the lowest first.
    seq: u64,
    /// Empty for NODATA, and in every denial.
    records: Vec<ResourceRecord>,
}

/// Where the denials are in `Cache::by_type`: after the record types.
const DENIED: usize = RecordType::COUNT;

/// One map per record type, and one more ([`DENIED`]) for the names denied
/// whatever the type, each keyed by the name alone, so a lookup hashes the
/// caller's `DnsName` — or an ancestor's slice of its text — where it
/// stands (through `Borrow<str>`) instead of assembling an owned key.
#[derive(Default)]
struct Cache {
    by_type: [HashMap<DnsName, CacheLine>; RecordType::COUNT + 1],
    next_seq: u64,
}

impl Cache {
    fn len(&self) -> usize {
        self.by_type.iter().map(HashMap::len).sum()
    }

    /// What is cached for `name`/`rtype` at `now_ms`: its own line (an
    /// expired one is dropped), or a live denial of it or an ancestor.
    fn answer(
        &mut self,
        name: &DnsName,
        rtype: RecordType,
        now_ms: u64,
    ) -> Option<Result<Vec<ResourceRecord>, ResolveError>> {
        let lines = &mut self.by_type[rtype as usize];
        if let Some(line) = lines.get(name.as_str()) {
            if now_ms < line.expires_at_ms {
                return Some(Ok(line.records.clone()));
            }
            lines.remove(name.as_str());
        }
        // The name, then each ancestor's text up to the root's empty one.
        let mut ancestry = std::iter::successors(Some(name.as_str()), |text| {
            (!text.is_empty()).then(|| text.split_once('.').map_or("", |(_, up)| up))
        });
        let denied = &self.by_type[DENIED];
        let live = |text| denied.get(text).is_some_and(|l| now_ms < l.expires_at_ms);
        ancestry
            .any(live)
            .then(|| Err(ResolveError::NxDomain(name.clone())))
    }

    /// Cache `records` for `name`/`rtype` — or, for `None`, a denial of
    /// `name` — first making room if the cache is at its bound. Returns how
    /// many lines that evicted.
    fn insert(
        &mut self,
        name: &DnsName,
        rtype: RecordType,
        expires_at_ms: u64,
        records: Option<Vec<ResourceRecord>>,
        now_ms: u64,
    ) -> u64 {
        let evicted = if self.len() >= MAX_CACHE_LINES {
            self.evict(now_ms)
        } else {
            0
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let at = records.as_ref().map_or(DENIED, |_| rtype as usize);
        let records = records.unwrap_or_default();
        self.by_type[at].insert(
            name.clone(),
            CacheLine {
                expires_at_ms,
                seq,
                records,
            },
        );
        evicted
    }

    /// Drop expired lines, then the oldest ones down to
    /// [`CACHE_LINES_AFTER_EVICTION`].
    fn evict(&mut self, now_ms: u64) -> u64 {
        let before = self.len();
        for lines in &mut self.by_type {
            lines.retain(|_, line| now_ms < line.expires_at_ms);
        }
        let excess = self.len().saturating_sub(CACHE_LINES_AFTER_EVICTION);
        if excess > 0 {
            let mut seqs: Vec<u64> = self
                .by_type
                .iter()
                .flat_map(|lines| lines.values().map(|line| line.seq))
                .collect();
            let (_, &mut newest_dropped, _) = seqs.select_nth_unstable(excess - 1);
            for lines in &mut self.by_type {
                lines.retain(|_, line| line.seq > newest_dropped);
            }
        }
        (before - self.len()) as u64
    }
}

/// Cache statistics.
// Public as the type `Resolver::stats` returns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResolverStats {
    pub hits: u64,
    pub misses: u64,
    pub upstream_queries: u64,
    /// Lines dropped to keep the cache under its bound (65 536 lines).
    pub evictions: u64,
}

/// The process-wide instruments every resolver reports into, looked up in
/// the registry once rather than by label strings on each resolution.
struct Instruments {
    resolve: rndi_obs::ServerOp,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
}

fn instruments() -> &'static Instruments {
    static INSTRUMENTS: OnceLock<Instruments> = OnceLock::new();
    INSTRUMENTS.get_or_init(|| {
        use rndi_obs::metrics::{counter, names};
        let cache_event = |event| {
            counter(
                names::CACHE_EVENTS,
                &[("provider", "minidns"), ("event", event)],
            )
        };
        Instruments {
            resolve: rndi_obs::ServerOp::new("minidns", "resolve"),
            cache_hits: cache_event("hit"),
            cache_misses: cache_event("miss"),
            cache_evictions: cache_event("eviction"),
        }
    })
}

/// A caching resolver.
///
/// ```
/// use minidns::{AuthServer, DnsName, RecordType, Resolver, ResourceRecord, Zone};
///
/// let server = AuthServer::new();
/// let mut zone = Zone::new(DnsName::parse("example").unwrap());
/// zone.insert(ResourceRecord::txt("svc.example", 60, "hdns://host2"));
/// server.add_zone(zone);
///
/// let resolver = Resolver::new(vec![server]);
/// let rrs = resolver
///     .resolve(&DnsName::parse("svc.example").unwrap(), RecordType::Txt, 0)
///     .unwrap();
/// assert_eq!(rrs.len(), 1);
/// ```
pub struct Resolver {
    roots: Vec<AuthServer>,
    cache: Mutex<Cache>,
    hits: AtomicU64,
    misses: AtomicU64,
    upstream_queries: AtomicU64,
    evictions: AtomicU64,
    negative_ttl_ms: u64,
}

impl Resolver {
    pub fn new(roots: Vec<AuthServer>) -> Self {
        Resolver {
            roots,
            cache: Mutex::new(Cache::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            upstream_queries: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            negative_ttl_ms: 30_000,
        }
    }

    pub fn stats(&self) -> ResolverStats {
        ResolverStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            upstream_queries: self.upstream_queries.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Lines currently cached (positive and negative).
    pub fn cache_len(&self) -> usize {
        self.cache.lock().len()
    }

    /// [`Resolver::resolve`] carrying the caller's trace context: the
    /// resolution is counted and timed under the `minidns` server label,
    /// and when a context is supplied a `server`-layer span is linked into
    /// the caller's trace.
    pub fn resolve_traced(
        &self,
        name: &DnsName,
        rtype: RecordType,
        now_ms: u64,
        trace: Option<&rndi_obs::TraceCtx>,
    ) -> Result<Vec<ResourceRecord>, ResolveError> {
        let start = std::time::Instant::now();
        let result = self.resolve(name, rtype, now_ms);
        instruments()
            .resolve
            .observe(start.elapsed(), result.is_ok(), trace);
        result
    }

    /// Store an answer, counting whatever the bound made it push out.
    fn remember(
        &self,
        name: &DnsName,
        rtype: RecordType,
        ttl_ms: u64,
        records: Option<Vec<ResourceRecord>>,
        now_ms: u64,
    ) {
        let evicted = self
            .cache
            .lock()
            .insert(name, rtype, now_ms + ttl_ms, records, now_ms);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            instruments().cache_evictions.add(evicted);
        }
    }

    /// Resolve `name`/`rtype` at virtual time `now_ms`.
    pub fn resolve(
        &self,
        name: &DnsName,
        rtype: RecordType,
        now_ms: u64,
    ) -> Result<Vec<ResourceRecord>, ResolveError> {
        // Cache consultation.
        let cached = self.cache.lock().answer(name, rtype, now_ms);
        if let Some(answer) = cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
            instruments().cache_hits.inc();
            return answer;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        instruments().cache_misses.inc();

        let Some(server) = self.roots.first() else {
            return Err(ResolveError::ServFail(format!(
                "no reachable nameserver for {name}"
            )));
        };
        self.upstream_queries.fetch_add(1, Ordering::Relaxed);
        let resp = server.query(name, rtype);
        match resp.rcode {
            Rcode::NoError if resp.is_referral() => Err(ResolveError::ServFail(format!(
                "{name} is delegated to a nameserver this resolver cannot reach"
            ))),
            Rcode::NoError => {
                let ttl_ms = resp
                    .answers
                    .iter()
                    .map(|r| r.ttl as u64 * 1000)
                    .min()
                    .unwrap_or(self.negative_ttl_ms);
                self.remember(name, rtype, ttl_ms, Some(resp.answers.clone()), now_ms);
                Ok(resp.answers)
            }
            Rcode::NxDomain => {
                self.remember(name, rtype, self.negative_ttl_ms, None, now_ms);
                Err(ResolveError::NxDomain(name.clone()))
            }
            Rcode::Refused | Rcode::ServFail => Err(ResolveError::ServFail(format!(
                "{name}: upstream rcode {:?}",
                resp.rcode
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rr::RData;
    use crate::zone::Zone;

    /// One server, authoritative for emory.edu.
    fn world() -> Resolver {
        let emory = AuthServer::new();
        let mut emory_zone = Zone::new(DnsName::parse("emory.edu").unwrap());
        emory_zone.insert(ResourceRecord::a("www.emory.edu", 60, [170, 140, 0, 2]));
        emory_zone.insert(ResourceRecord::txt(
            "global.emory.edu",
            60,
            "hdns://host2:8085",
        ));
        emory.add_zone(emory_zone);
        Resolver::new(vec![emory])
    }

    #[test]
    fn cache_short_circuits() {
        let r = world();
        let name = DnsName::parse("www.emory.edu").unwrap();
        r.resolve(&name, RecordType::A, 0).unwrap();
        r.resolve(&name, RecordType::A, 1_000).unwrap();
        let stats = r.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.upstream_queries, 1, "second hit went to cache");
    }

    #[test]
    fn cache_expires_by_ttl() {
        let r = world();
        let name = DnsName::parse("www.emory.edu").unwrap();
        r.resolve(&name, RecordType::A, 0).unwrap();
        // TTL is 60s; at 61s the cache line is stale.
        r.resolve(&name, RecordType::A, 61_000).unwrap();
        assert_eq!(r.stats().upstream_queries, 2);
    }

    #[test]
    fn negative_caching() {
        let r = world();
        let name = DnsName::parse("ghost.emory.edu").unwrap();
        assert!(matches!(
            r.resolve(&name, RecordType::A, 0),
            Err(ResolveError::NxDomain(_))
        ));
        let q1 = r.stats().upstream_queries;
        assert!(matches!(
            r.resolve(&name, RecordType::A, 1_000),
            Err(ResolveError::NxDomain(_))
        ));
        assert_eq!(r.stats().upstream_queries, q1, "negative answer cached");
    }

    #[test]
    fn a_referral_is_servfail() {
        let root = AuthServer::new();
        let mut z = Zone::new(DnsName::root());
        z.insert(ResourceRecord::ns("lost", 60, "ns.lost"));
        root.add_zone(z);
        let r = Resolver::new(vec![root]);
        assert!(matches!(
            r.resolve(&DnsName::parse("x.lost").unwrap(), RecordType::A, 0),
            Err(ResolveError::ServFail(_))
        ));
    }

    #[test]
    fn txt_lookup_for_federation_anchor() {
        let r = world();
        let rrs = r
            .resolve(
                &DnsName::parse("global.emory.edu").unwrap(),
                RecordType::Txt,
                0,
            )
            .unwrap();
        match &rrs[0].rdata {
            RData::Txt(t) => assert_eq!(t, "hdns://host2:8085"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cache_is_bounded_under_made_up_names() {
        // One zone, nothing in it but the apex: every name asked is a new
        // negative line.
        let server = AuthServer::new();
        let mut zone = Zone::new(DnsName::parse("example").unwrap());
        zone.insert(ResourceRecord::txt("example", 60, "apex"));
        server.add_zone(zone);
        let r = Resolver::new(vec![server]);
        for i in 0..200_000u32 {
            let name = DnsName::parse(&format!("made-up-{i}.example")).unwrap();
            assert!(matches!(
                r.resolve(&name, RecordType::Txt, 0),
                Err(ResolveError::NxDomain(_))
            ));
            assert!(r.cache_len() <= MAX_CACHE_LINES, "after {i} names");
            if i % 1_000 == 0 {
                // Asked again straight away, the same name is a hit —
                // also right after an eviction pass made room for it.
                let hits = r.stats().hits;
                assert!(r.resolve(&name, RecordType::Txt, 0).is_err());
                assert_eq!(r.stats().hits, hits + 1, "second ask of name {i}");
            }
        }
        let stats = r.stats();
        assert_eq!(stats.misses, 200_000);
        assert_eq!(
            stats.evictions as usize + r.cache_len(),
            200_000,
            "every line is either still cached or was counted out"
        );
        // The newest lines survive, the oldest went first.
        let newest = DnsName::parse("made-up-199999.example").unwrap();
        let oldest = DnsName::parse("made-up-0.example").unwrap();
        let upstream = r.stats().upstream_queries;
        assert!(r.resolve(&newest, RecordType::Txt, 0).is_err());
        assert_eq!(r.stats().upstream_queries, upstream, "newest still cached");
        assert!(r.resolve(&oldest, RecordType::Txt, 0).is_err());
        assert_eq!(r.stats().upstream_queries, upstream + 1, "oldest evicted");
    }

    #[test]
    fn eviction_drops_expired_lines_before_live_ones() {
        let server = AuthServer::new();
        let mut zone = Zone::new(DnsName::parse("example").unwrap());
        zone.insert(ResourceRecord::txt("keep.example", 3_600, "long-lived"));
        server.add_zone(zone);
        let r = Resolver::new(vec![server]);
        // The oldest line of all, but with an hour to live.
        let keep = DnsName::parse("keep.example").unwrap();
        r.resolve(&keep, RecordType::Txt, 0).unwrap();
        // Fill to the bound with 30-second negative lines, then ask one
        // more name after they have all expired.
        for i in 1..MAX_CACHE_LINES as u32 {
            let name = DnsName::parse(&format!("n{i}.example")).unwrap();
            let _ = r.resolve(&name, RecordType::Txt, 0);
        }
        assert_eq!(r.cache_len(), MAX_CACHE_LINES);
        let late = DnsName::parse("late.example").unwrap();
        let _ = r.resolve(&late, RecordType::Txt, 60_000);
        assert_eq!(
            r.cache_len(),
            2,
            "only the live line and the new one remain"
        );
        assert_eq!(r.stats().evictions as usize, MAX_CACHE_LINES - 1);
        let upstream = r.stats().upstream_queries;
        r.resolve(&keep, RecordType::Txt, 60_000).unwrap();
        assert_eq!(r.stats().upstream_queries, upstream, "live line kept");
    }
}
