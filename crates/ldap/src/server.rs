//! The directory server: connections, authentication, result codes.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;
use rndi_obs::TraceCtx;

use crate::dit::{Dit, DitError, Scope};
use crate::dn::{Dn, Rdn};
use crate::entry::LdapEntry;
use crate::filter::LdapFilter;
use crate::schema::Schema;
use crate::throttle::{Admit, ReadThrottle};

/// LDAP result codes (the subset this server produces), with their
/// protocol numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResultCode {
    Success = 0,
    OperationsError = 1,
    SizeLimitExceeded = 4,
    CompareFalse = 5,
    CompareTrue = 6,
    NoSuchObject = 32,
    InvalidDnSyntax = 34,
    InvalidCredentials = 49,
    InsufficientAccessRights = 50,
    UnwillingToPerform = 53,
    ObjectClassViolation = 65,
    NotAllowedOnNonLeaf = 66,
    EntryAlreadyExists = 68,
}

/// Operation outcome: `Ok(T)` or a result code with diagnostic text.
pub type LdapResult<T> = Result<T, (ResultCode, String)>;

fn dit_err(e: DitError) -> (ResultCode, String) {
    match e {
        DitError::NoSuchObject(d) => (ResultCode::NoSuchObject, d),
        DitError::AlreadyExists(d) => (ResultCode::EntryAlreadyExists, d),
        DitError::NotAllowedOnNonLeaf(d) => (ResultCode::NotAllowedOnNonLeaf, d),
        DitError::NoSuchParent(d) => (ResultCode::NoSuchObject, format!("parent {d}")),
    }
}

/// Attribute modifications (LDAP `modify`).
#[derive(Clone, Debug)]
pub enum Modification {
    Add(String, Vec<String>),
    Replace(String, Vec<String>),
    /// Empty value list deletes the whole attribute.
    Delete(String, Vec<String>),
}

/// Server configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// The administrative identity allowed to write.
    pub root_dn: Dn,
    pub root_password: String,
    /// Validate entries against the schema on add/modify.
    pub validate_schema: bool,
    pub schema: Schema,
    /// Reads per second before the anti-DoS throttle kicks in;
    /// `None` disables throttling.
    pub read_throttle_per_sec: Option<u64>,
    /// Search results cap (0 = unlimited).
    pub size_limit: usize,
    /// When true, anonymous connections may not write.
    pub writes_require_auth: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            root_dn: Dn::parse("cn=admin").expect("static dn"),
            root_password: "secret".into(),
            validate_schema: true,
            schema: Schema::standard(),
            read_throttle_per_sec: Some(800),
            size_limit: 0,
            writes_require_auth: false,
        }
    }
}

/// Counters for experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub searches: u64,
    pub throttled: u64,
    pub writes: u64,
}

struct Inner {
    dit: Dit,
    throttle: Option<ReadThrottle>,
    stats: ServerStats,
}

impl Inner {
    /// Count one read and pass it through the anti-DoS throttle; returns
    /// the delay the throttle imposes on it.
    fn admit_read(&mut self, now_ms: u64) -> u64 {
        self.stats.searches += 1;
        match self.throttle.as_mut().map(|t| t.admit(now_ms)) {
            Some(Admit::After(d)) => {
                self.stats.throttled += 1;
                d
            }
            _ => 0,
        }
    }
}

/// The operations a connection counts, times and traces.
#[derive(Clone, Copy)]
enum ServerOp {
    Add,
    Delete,
    Modify,
    Replace,
    ModifyRdn,
    Search,
}

impl ServerOp {
    fn label(self) -> &'static str {
        match self {
            ServerOp::Add => "add",
            ServerOp::Delete => "delete",
            ServerOp::Modify => "modify",
            ServerOp::Replace => "replace",
            ServerOp::ModifyRdn => "modify_rdn",
            ServerOp::Search => "search",
        }
    }

    /// This op's instruments, resolved on its first use and held from
    /// then on.
    fn instruments(self) -> &'static rndi_obs::ServerOp {
        static BY_OP: [OnceLock<rndi_obs::ServerOp>; 6] = [const { OnceLock::new() }; 6];
        BY_OP[self as usize].get_or_init(|| rndi_obs::ServerOp::new("dirserv", self.label()))
    }
}

/// [`LdapFilter::match_all`] for every [`Connection::read`], built once
/// and spelt in lower case (attribute ids compare case-insensitively) so
/// matching it needs no case folding.
fn match_all() -> &'static LdapFilter {
    static FILTER: OnceLock<LdapFilter> = OnceLock::new();
    FILTER.get_or_init(|| LdapFilter::Present("objectclass".into()))
}

/// The directory server (cheaply cloneable handle).
///
/// ```
/// use dirserv::{DirectoryServer, Dn, LdapEntry, LdapFilter, Scope, ServerConfig};
///
/// let server = DirectoryServer::new(ServerConfig::default());
/// let conn = server.connect_anonymous();
/// conn.add(
///     LdapEntry::new(Dn::parse("o=emory").unwrap())
///         .with("objectClass", "organization")
///         .with("o", "emory"),
/// )
/// .unwrap();
/// let out = conn
///     .search(
///         &Dn::parse("o=emory").unwrap(),
///         Scope::Base,
///         &LdapFilter::match_all(),
///         None,
///         0,
///     )
///     .unwrap();
/// assert_eq!(out.entries.len(), 1);
/// ```
#[derive(Clone)]
pub struct DirectoryServer {
    config: Arc<ServerConfig>,
    inner: Arc<Mutex<Inner>>,
}

/// A bound (or anonymous) connection to the server.
#[derive(Clone)]
pub struct Connection {
    server: DirectoryServer,
    authenticated: bool,
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("authenticated", &self.authenticated)
            .finish()
    }
}

/// What a search returns: the matched entries — the directory's own when
/// no projection was asked for, projected copies otherwise — plus the
/// artificial delay imposed by the anti-DoS throttle — callers modelling
/// latency (the benchmark harness) add it to their response time.
// Public as the type the `Connection` search methods return.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    pub entries: Vec<Arc<LdapEntry>>,
    pub delay_ms: u64,
}

impl DirectoryServer {
    pub fn new(config: ServerConfig) -> Self {
        let throttle = config.read_throttle_per_sec.map(ReadThrottle::per_second);
        DirectoryServer {
            config: Arc::new(config),
            inner: Arc::new(Mutex::new(Inner {
                dit: Dit::new(),
                throttle,
                stats: ServerStats::default(),
            })),
        }
    }

    /// Open an anonymous connection.
    pub fn connect_anonymous(&self) -> Connection {
        Connection {
            server: self.clone(),
            authenticated: false,
        }
    }

    /// Simple bind. Empty DN + empty password = anonymous.
    pub fn simple_bind(&self, dn: &Dn, password: &str) -> LdapResult<Connection> {
        if dn.is_root() && password.is_empty() {
            return Ok(self.connect_anonymous());
        }
        if *dn == self.config.root_dn && password == self.config.root_password {
            Ok(Connection {
                server: self.clone(),
                authenticated: true,
            })
        } else {
            Err((ResultCode::InvalidCredentials, dn.to_string()))
        }
    }

    /// Number of entries.
    pub fn entry_count(&self) -> usize {
        self.inner.lock().dit.len()
    }

    pub fn stats(&self) -> ServerStats {
        self.inner.lock().stats
    }
}

impl Connection {
    /// Count and time a server-side operation; when the caller shipped a
    /// trace context (a traced RNDI client), also emit a `server`-layer
    /// span linked into the client's trace.
    fn observe<T>(
        &self,
        op: ServerOp,
        trace: Option<&TraceCtx>,
        f: impl FnOnce() -> LdapResult<T>,
    ) -> LdapResult<T> {
        let start = Instant::now();
        let result = f();
        op.instruments()
            .observe(start.elapsed(), result.is_ok(), trace);
        result
    }

    fn guard_write(&self) -> LdapResult<()> {
        if self.server.config.writes_require_auth && !self.authenticated {
            return Err((
                ResultCode::InsufficientAccessRights,
                "anonymous write".into(),
            ));
        }
        Ok(())
    }

    /// What a write of a whole entry checks before it takes the lock: this
    /// connection may write, and the entry fits the schema.
    fn admit_entry(&self, entry: &LdapEntry) -> LdapResult<()> {
        self.guard_write()?;
        if self.server.config.validate_schema {
            if let Err(reason) = self.server.config.schema.validate(entry) {
                return Err((ResultCode::ObjectClassViolation, reason));
            }
        }
        Ok(())
    }

    /// Add an entry.
    pub fn add(&self, entry: LdapEntry) -> LdapResult<()> {
        self.add_traced(entry, None)
    }

    /// [`Connection::add`] carrying the caller's trace context.
    pub fn add_traced(&self, entry: LdapEntry, trace: Option<&TraceCtx>) -> LdapResult<()> {
        self.observe(ServerOp::Add, trace, || {
            self.admit_entry(&entry)?;
            let mut inner = self.server.inner.lock();
            inner.stats.writes += 1;
            inner.dit.add(entry).map_err(dit_err)
        })
    }

    /// Delete a leaf entry.
    pub fn delete(&self, dn: &Dn) -> LdapResult<()> {
        self.delete_traced(dn, None)
    }

    /// [`Connection::delete`] carrying the caller's trace context.
    pub fn delete_traced(&self, dn: &Dn, trace: Option<&TraceCtx>) -> LdapResult<()> {
        self.observe(ServerOp::Delete, trace, || {
            self.guard_write()?;
            let mut inner = self.server.inner.lock();
            inner.stats.writes += 1;
            inner.dit.delete(dn).map(|_| ()).map_err(dit_err)
        })
    }

    /// Put `entry` at its DN whether or not an entry is there already: the
    /// content of a leaf entry is replaced, an absent one is added. One
    /// operation under one lock — a reader sees the old entry or the new
    /// one, never neither — and all-or-nothing: the schema is checked
    /// before anything is touched, an entry with children is refused
    /// (`NotAllowedOnNonLeaf`), a missing parent too, and a refusal leaves
    /// what was there in place.
    pub fn replace_traced(&self, entry: LdapEntry, trace: Option<&TraceCtx>) -> LdapResult<()> {
        self.observe(ServerOp::Replace, trace, || {
            self.admit_entry(&entry)?;
            let mut inner = self.server.inner.lock();
            inner.stats.writes += 1;
            inner.dit.replace(entry).map_err(dit_err)
        })
    }

    /// Apply modifications to an entry.
    pub fn modify(&self, dn: &Dn, mods: &[Modification]) -> LdapResult<()> {
        self.modify_traced(dn, mods, None)
    }

    /// [`Connection::modify`] carrying the caller's trace context.
    pub fn modify_traced(
        &self,
        dn: &Dn,
        mods: &[Modification],
        trace: Option<&TraceCtx>,
    ) -> LdapResult<()> {
        self.observe(ServerOp::Modify, trace, || self.modify_inner(dn, mods))
    }

    fn modify_inner(&self, dn: &Dn, mods: &[Modification]) -> LdapResult<()> {
        self.guard_write()?;
        let config = &self.server.config;
        let mut inner = self.server.inner.lock();
        inner.stats.writes += 1;
        // The one deep copy a write makes: readers keep the entry they hold.
        let mut entry = inner
            .dit
            .get(dn)
            .cloned()
            .ok_or_else(|| (ResultCode::NoSuchObject, dn.to_string()))?;
        for m in mods {
            match m {
                Modification::Add(id, values) => {
                    for v in values {
                        entry.add_value(id, v.clone());
                    }
                }
                Modification::Replace(id, values) => entry.replace(id, values.clone()),
                Modification::Delete(id, values) => entry.remove_values(id, values),
            }
        }
        if config.validate_schema {
            if let Err(reason) = config.schema.validate(&entry) {
                return Err((ResultCode::ObjectClassViolation, reason));
            }
        }
        inner.dit.update(entry).map_err(dit_err)
    }

    /// Rename an entry's RDN.
    pub fn modify_rdn(&self, dn: &Dn, new_rdn: Rdn) -> LdapResult<Dn> {
        self.modify_rdn_traced(dn, new_rdn, None)
    }

    /// [`Connection::modify_rdn`] carrying the caller's trace context.
    pub fn modify_rdn_traced(
        &self,
        dn: &Dn,
        new_rdn: Rdn,
        trace: Option<&TraceCtx>,
    ) -> LdapResult<Dn> {
        self.observe(ServerOp::ModifyRdn, trace, || {
            self.guard_write()?;
            let mut inner = self.server.inner.lock();
            inner.stats.writes += 1;
            inner.dit.modify_rdn(dn, new_rdn).map_err(dit_err)
        })
    }

    /// Search. `now_ms` feeds the anti-DoS throttle; callers without a
    /// meaningful clock can pass 0 (throttle then acts per-"second" of
    /// request count only).
    pub fn search(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &LdapFilter,
        attrs: Option<&[String]>,
        now_ms: u64,
    ) -> LdapResult<SearchOutcome> {
        self.search_traced(base, scope, filter, attrs, now_ms, None)
    }

    /// [`Connection::search`] carrying the caller's trace context.
    #[allow(clippy::too_many_arguments)]
    pub fn search_traced(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &LdapFilter,
        attrs: Option<&[String]>,
        now_ms: u64,
        trace: Option<&TraceCtx>,
    ) -> LdapResult<SearchOutcome> {
        self.observe(ServerOp::Search, trace, || {
            self.search_inner(base, scope, filter, attrs, now_ms)
        })
    }

    fn search_inner(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &LdapFilter,
        attrs: Option<&[String]>,
        now_ms: u64,
    ) -> LdapResult<SearchOutcome> {
        let size_limit = self.server.config.size_limit;
        let mut inner = self.server.inner.lock();
        let delay_ms = inner.admit_read(now_ms);
        let entries = inner
            .dit
            .search(base, scope, filter, size_limit)
            .map_err(dit_err)?
            .into_iter()
            .map(|e| match attrs {
                None => e.clone(),
                Some(ids) => Arc::new(e.project(ids)),
            })
            .collect();
        Ok(SearchOutcome { entries, delay_ms })
    }

    /// Fetch one entry by DN with the throttle delay imposed on the read:
    /// what a base-scope match-all [`Connection::search`] answers, as one
    /// keyed probe that shares the one entry — nothing is copied under the
    /// server's lock.
    pub fn read(&self, dn: &Dn, now_ms: u64) -> LdapResult<(Arc<LdapEntry>, u64)> {
        self.read_traced(dn, now_ms, None)
    }

    /// [`Connection::read`] carrying the caller's trace context.
    pub fn read_traced(
        &self,
        dn: &Dn,
        now_ms: u64,
        trace: Option<&TraceCtx>,
    ) -> LdapResult<(Arc<LdapEntry>, u64)> {
        self.observe(ServerOp::Search, trace, || {
            let mut inner = self.server.inner.lock();
            let delay_ms = inner.admit_read(now_ms);
            match inner.dit.search_base(dn, match_all()).map_err(dit_err)? {
                Some(entry) => Ok((entry.clone(), delay_ms)),
                None => Err((ResultCode::NoSuchObject, dn.to_string())),
            }
        })
    }

    /// LDAP compare: does `dn` carry `attr=value`?
    pub fn compare(&self, dn: &Dn, attr: &str, value: &str) -> LdapResult<bool> {
        let inner = self.server.inner.lock();
        let entry = inner
            .dit
            .get(dn)
            .ok_or_else(|| (ResultCode::NoSuchObject, dn.to_string()))?;
        Ok(entry.has_value(attr, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> DirectoryServer {
        DirectoryServer::new(ServerConfig {
            read_throttle_per_sec: None,
            ..Default::default()
        })
    }

    fn seed(conn: &Connection) {
        conn.add(
            LdapEntry::new(Dn::parse("o=emory").unwrap())
                .with("objectClass", "organization")
                .with("o", "emory"),
        )
        .unwrap();
        conn.add(
            LdapEntry::new(Dn::parse("ou=dcl,o=emory").unwrap())
                .with("objectClass", "organizationalUnit")
                .with("ou", "dcl"),
        )
        .unwrap();
    }

    #[test]
    fn add_search_delete_cycle() {
        let s = server();
        let conn = s.connect_anonymous();
        seed(&conn);
        conn.add(
            LdapEntry::new(Dn::parse("cn=mokey,ou=dcl,o=emory").unwrap())
                .with("objectClass", "device")
                .with("cn", "mokey"),
        )
        .unwrap();
        assert_eq!(s.entry_count(), 3);

        let out = conn
            .search(
                &Dn::parse("o=emory").unwrap(),
                Scope::Subtree,
                &LdapFilter::parse("(cn=mokey)").unwrap(),
                None,
                0,
            )
            .unwrap();
        assert_eq!(out.entries.len(), 1);
        assert_eq!(out.delay_ms, 0);

        conn.delete(&Dn::parse("cn=mokey,ou=dcl,o=emory").unwrap())
            .unwrap();
        assert_eq!(s.entry_count(), 2);
    }

    #[test]
    fn schema_violation_rejected() {
        let s = server();
        let conn = s.connect_anonymous();
        let bad = LdapEntry::new(Dn::parse("o=x").unwrap()).with("objectClass", "organization");
        let (code, _) = conn.add(bad).unwrap_err();
        assert_eq!(code, ResultCode::ObjectClassViolation);
    }

    #[test]
    fn authentication() {
        let s = server();
        assert!(s
            .simple_bind(&Dn::parse("cn=admin").unwrap(), "secret")
            .is_ok());
        let (code, _) = s
            .simple_bind(&Dn::parse("cn=admin").unwrap(), "wrong")
            .unwrap_err();
        assert_eq!(code, ResultCode::InvalidCredentials);
        assert!(s.simple_bind(&Dn::root(), "").is_ok(), "anonymous bind");
    }

    #[test]
    fn writes_require_auth_when_configured() {
        let s = DirectoryServer::new(ServerConfig {
            writes_require_auth: true,
            read_throttle_per_sec: None,
            ..Default::default()
        });
        let anon = s.connect_anonymous();
        let e = LdapEntry::new(Dn::parse("o=x").unwrap())
            .with("objectClass", "organization")
            .with("o", "x");
        let (code, _) = anon.add(e.clone()).unwrap_err();
        assert_eq!(code, ResultCode::InsufficientAccessRights);

        let admin = s
            .simple_bind(&Dn::parse("cn=admin").unwrap(), "secret")
            .unwrap();
        admin.add(e).unwrap();
        // Anonymous reads still fine.
        assert!(anon.read(&Dn::parse("o=x").unwrap(), 0).is_ok());
    }

    #[test]
    fn modify_and_compare() {
        let s = server();
        let conn = s.connect_anonymous();
        seed(&conn);
        let dn = Dn::parse("ou=dcl,o=emory").unwrap();
        conn.modify(
            &dn,
            &[Modification::Add("description".into(), vec!["lab".into()])],
        )
        .unwrap();
        assert_eq!(conn.compare(&dn, "description", "LAB"), Ok(true));
        assert_eq!(conn.compare(&dn, "description", "other"), Ok(false));

        conn.modify(
            &dn,
            &[Modification::Replace(
                "description".into(),
                vec!["cluster".into()],
            )],
        )
        .unwrap();
        assert_eq!(conn.compare(&dn, "description", "cluster"), Ok(true));

        conn.modify(&dn, &[Modification::Delete("description".into(), vec![])])
            .unwrap();
        assert_eq!(conn.compare(&dn, "description", "cluster"), Ok(false));
    }

    #[test]
    fn modify_cannot_break_schema() {
        let s = server();
        let conn = s.connect_anonymous();
        seed(&conn);
        let dn = Dn::parse("ou=dcl,o=emory").unwrap();
        let (code, _) = conn
            .modify(&dn, &[Modification::Delete("ou".into(), vec![])])
            .unwrap_err();
        assert_eq!(code, ResultCode::ObjectClassViolation);
        // Entry unchanged.
        assert_eq!(conn.compare(&dn, "ou", "dcl"), Ok(true));
    }

    #[test]
    fn throttle_reports_delay() {
        let s = DirectoryServer::new(ServerConfig {
            read_throttle_per_sec: Some(2),
            ..Default::default()
        });
        let conn = s.connect_anonymous();
        seed(&conn);
        let base = Dn::parse("o=emory").unwrap();
        let all = LdapFilter::match_all();
        assert_eq!(
            conn.search(&base, Scope::Base, &all, None, 100)
                .unwrap()
                .delay_ms,
            0
        );
        assert_eq!(
            conn.search(&base, Scope::Base, &all, None, 150)
                .unwrap()
                .delay_ms,
            0
        );
        let delayed = conn.search(&base, Scope::Base, &all, None, 200).unwrap();
        assert!(delayed.delay_ms > 0, "third read in the window throttled");
        assert_eq!(s.stats().throttled, 1);
    }

    #[test]
    fn read_convenience() {
        let s = server();
        let conn = s.connect_anonymous();
        seed(&conn);
        let (e, _) = conn.read(&Dn::parse("ou=dcl,o=emory").unwrap(), 0).unwrap();
        assert_eq!(e.first("ou"), Some("dcl"));
        let (code, _) = conn
            .read(&Dn::parse("ou=ghost,o=emory").unwrap(), 0)
            .unwrap_err();
        assert_eq!(code, ResultCode::NoSuchObject);
    }

    #[test]
    fn size_limit_caps_results() {
        let s = DirectoryServer::new(ServerConfig {
            read_throttle_per_sec: None,
            size_limit: 2,
            ..Default::default()
        });
        let conn = s.connect_anonymous();
        seed(&conn);
        conn.add(
            LdapEntry::new(Dn::parse("cn=a,ou=dcl,o=emory").unwrap())
                .with("objectClass", "device")
                .with("cn", "a"),
        )
        .unwrap();
        let out = conn
            .search(
                &Dn::parse("o=emory").unwrap(),
                Scope::Subtree,
                &LdapFilter::match_all(),
                None,
                0,
            )
            .unwrap();
        assert_eq!(out.entries.len(), 2);
    }
}
