//! `NetServer`: sockets and threads around the sans-IO [`Shard`]. The
//! accept thread deals sockets round-robin to `rndi.net.server.shards`
//! threads, each driving one `Shard`: a pass reads every socket into it
//! and writes what it answered in place, runs its queue, then flushes each
//! socket once; an idle thread backs off. A connection that spoke gossip
//! moves, with its shard state, to a thread of its own: a naming call may
//! wait on the group, and the frames it waits for must not queue behind it.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rndi_core::env::Environment;
use rndi_core::error::{NamingError, Result};
use rndi_core::spi::ProviderBackend;
use rndi_obs::metrics::{global_registry, names, Registry};
use rndi_obs::HealthSummary;

use crate::shard::{Conn, Shard, Shared};
pub use crate::shard::{GossipHandler, ServerConfig};

/// Per-pass read budget per socket, so a firehose cannot starve its siblings.
const READ_CHUNK: usize = 64 * 1024;

/// Idle passes a thread yields before it sleeps, and the ceiling of its
/// escalating sleep.
const SPIN_PASSES: u32 = 1_500;
const MAX_IDLE_SLEEP: Duration = Duration::from_millis(1);

/// How long a draining shard keeps trying to flush response bytes.
const DRAIN_FLUSH_BUDGET: Duration = Duration::from_millis(500);

struct ServerState {
    shared: Arc<Shared>,
    shutdown: AtomicBool,
    /// A second handle on every live socket, for `abort` to shut down.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Sockets for each shard's next pass; the last is the gossip shard's.
    inboxes: Vec<Mutex<Vec<Socket>>>,
}

impl ServerState {
    fn gossip_shard(&self) -> usize {
        self.inboxes.len() - 1
    }

    /// Counted before it is parked, so the count never runs below zero.
    fn hand_off(&self, shard: usize, socket: Socket) {
        self.shared.backlog.fetch_add(1, Ordering::Relaxed);
        self.inboxes[shard].lock().push(socket);
    }
}

/// One connection a shard thread owns; `id` keys its shard state and handle.
struct Socket {
    id: u64,
    stream: TcpStream,
    /// Its shard state, while it moves to the gossip shard.
    conn: Option<Conn>,
    /// Hung up or failed: answered, then dropped, this pass.
    closed: bool,
}

/// A running TCP server hosting one backend (typically a fully-assembled
/// [`ProviderPipeline`](rndi_core::spi::ProviderPipeline), so cache, retry
/// and obs layers run server-side too).
pub struct NetServer {
    addr: SocketAddr,
    state: Arc<ServerState>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl NetServer {
    /// Bind and start serving `backend` with configuration from `env`.
    pub fn bind(backend: Arc<dyn ProviderBackend>, env: &Environment) -> Result<NetServer> {
        Self::with_config(backend, ServerConfig::from_env(env)?)
    }

    /// Bind and start serving with an explicit configuration. Instruments
    /// land in the process-global registry.
    pub fn with_config(
        backend: Arc<dyn ProviderBackend>,
        config: ServerConfig,
    ) -> Result<NetServer> {
        Self::with_registry(backend, config, global_registry())
    }

    /// Bind and start serving with an explicit configuration and a
    /// dedicated metrics registry. A multi-shard host gives each server
    /// its own registry so `Admin(Metrics)` scrapes stay per-instance.
    pub fn with_registry(
        backend: Arc<dyn ProviderBackend>,
        config: ServerConfig,
        registry: Arc<Registry>,
    ) -> Result<NetServer> {
        let listener = TcpListener::bind(&config.listen)
            .map_err(|e| NamingError::service(format!("bind {}: {e}", config.listen)))?;
        let addr = (listener.set_nonblocking(true))
            .and_then(|()| listener.local_addr())
            .map_err(|e| NamingError::service(format!("listener setup: {e}")))?;
        let shards = match config.shards {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get().min(4)),
            n => n,
        };
        let state = Arc::new(ServerState {
            shared: Shared::new(backend, config, registry, shards, Instant::now()),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            inboxes: (0..=shards).map(|_| Mutex::default()).collect(),
        });
        let mut threads: Vec<_> = (0..shards).map(|i| spawn_shard(&state, i)).collect();
        let accepting = state.clone();
        threads.push(std::thread::spawn(move || accept_loop(listener, accepting)));
        Ok(NetServer {
            addr,
            state,
            threads: Mutex::new(threads),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The health summary this server would answer to `Admin(Health)`.
    pub fn health(&self) -> HealthSummary {
        self.state.shared.health(Instant::now())
    }

    /// Attach a cluster membership plane: `handler` answers the
    /// `Gossip` request family on this server's data sockets.
    pub fn set_gossip_handler(&self, handler: Arc<dyn GossipHandler>) {
        let mut slot = self.state.shared.gossip.lock();
        if slot.is_none() {
            // The gossip shard must be running before any connection can
            // be handed to it.
            let gossip_shard = spawn_shard(&self.state, self.state.gossip_shard());
            self.threads.lock().push(gossip_shard);
        }
        *slot = Some(handler);
    }

    /// Graceful shutdown: stop accepting, answer buffered requests, flush
    /// responses, close every connection, and join all server threads.
    pub fn shutdown(mut self) {
        self.stop(false);
    }

    /// Unclean shutdown: tear sockets down immediately, mid-request if
    /// need be. Fault-injection tests use this to simulate a server crash.
    pub fn abort(mut self) {
        self.stop(true);
    }

    fn stop(&mut self, abort: bool) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        if abort {
            for conn in self.state.conns.lock().values() {
                let _ = conn.shutdown(Shutdown::Both);
            }
        }
        for handle in self.threads.get_mut().drain(..) {
            let _ = handle.join();
        }
        self.state.conns.lock().clear();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if !self.threads.get_mut().is_empty() {
            self.stop(false);
        }
    }
}

fn accept_loop(listener: TcpListener, state: Arc<ServerState>) {
    let shared = &state.shared;
    let refused = shared.counter(names::NET_CONNS, &[("event", "refused")]);
    let accepted = shared.counter(names::NET_CONNS, &[("event", "accepted")]);
    let (mut next_shard, mut next_id) = (0, 0);
    let mut idle = 0;
    while !state.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                idle = 0;
                if shared.active.load(Ordering::SeqCst) >= shared.config.max_conns {
                    refused.inc();
                    continue;
                }
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                accepted.inc();
                shared.active.fetch_add(1, Ordering::SeqCst);
                shared.active_gauge.add(1);
                next_id += 1;
                if let Ok(clone) = stream.try_clone() {
                    state.conns.lock().insert(next_id, clone);
                }
                let socket = Socket {
                    id: next_id,
                    stream,
                    conn: None,
                    closed: false,
                };
                state.hand_off(next_shard, socket);
                next_shard = (next_shard + 1) % state.gossip_shard();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => backoff(&mut idle, false),
            Err(_) => break,
        }
    }
}

/// Adaptive backoff after a pass: none after progress, then a yield for each
/// of `idle` passes without, then an escalating sleep. Keeps reaction in
/// microseconds under load and CPU near zero when idle.
fn backoff(idle: &mut u32, progress: bool) {
    *idle = if progress { 0 } else { idle.saturating_add(1) };
    match *idle {
        0 => {}
        1..=SPIN_PASSES => std::thread::yield_now(),
        n => {
            let sleep = Duration::from_micros(50).saturating_mul((n - SPIN_PASSES).min(20));
            std::thread::sleep(sleep.min(MAX_IDLE_SLEEP));
        }
    }
}

fn spawn_shard(state: &Arc<ServerState>, index: usize) -> JoinHandle<()> {
    let state = state.clone();
    std::thread::spawn(move || shard_loop(state, index))
}

/// One shard thread. Each pass adopts what its inbox holds, reads every
/// socket into the shard and flushes what that answered, runs the queue,
/// then flushes once more, drops what closed and moves what spoke gossip.
fn shard_loop(state: Arc<ServerState>, index: usize) {
    let shared = &state.shared;
    let mut shard = Shard::new(shared.clone(), index);
    let mut sockets: Vec<Socket> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut idle = 0;
    while !state.shutdown.load(Ordering::SeqCst) {
        let mut inbox = state.inboxes[index].lock();
        shared.backlog.fetch_sub(inbox.len(), Ordering::Relaxed);
        for mut socket in inbox.drain(..) {
            shard.open(socket.id, socket.conn.take(), Instant::now());
            sockets.push(socket);
        }
        drop(inbox);
        let mut progress = false;
        for socket in &mut sockets {
            // Sheds, pings, admin and gossip answers leave now, not behind
            // the queue.
            progress |= read(socket, &mut shard, &mut scratch);
            if !socket.closed {
                progress |= flush(socket, &mut shard);
            }
        }
        progress |= shard.run(&mut Instant::now);
        let mut i = 0;
        while i < sockets.len() {
            let socket = &mut sockets[i];
            progress |= flush(socket, &mut shard);
            if socket.closed || shard.broken(socket.id) {
                // The explicit shutdown is what the peer sees — `abort`'s
                // handle would otherwise keep the socket open.
                let dropped = sockets.swap_remove(i);
                let _ = dropped.stream.shutdown(Shutdown::Both);
                shard.closed(dropped.id);
                state.conns.lock().remove(&dropped.id);
                shared.active.fetch_sub(1, Ordering::SeqCst);
                shared.active_gauge.add(-1);
                progress = true;
            } else if index != state.gossip_shard() && shard.spoke_gossip(socket.id) {
                let mut moved = sockets.swap_remove(i);
                moved.conn = shard.closed(moved.id);
                state.hand_off(state.gossip_shard(), moved);
            } else {
                i += 1;
            }
        }
        backoff(&mut idle, progress);
    }
    // Every pass ends with the queue empty, so what is left is response
    // bytes: flush them, bounded so a stuck peer cannot wedge shutdown.
    let deadline = Instant::now() + DRAIN_FLUSH_BUDGET;
    for socket in &mut sockets {
        while !(socket.closed || shard.outgoing(socket.id).is_empty()) && Instant::now() < deadline
        {
            let moved = flush(socket, &mut shard);
            backoff(&mut idle, moved);
        }
        shared.active.fetch_sub(1, Ordering::SeqCst);
        shared.active_gauge.add(-1);
    }
}

/// Read at most [`READ_CHUNK`] of what one socket has into the shard;
/// whether bytes arrived. A hang-up, an error, bad framing or a refused
/// preamble closes it once this pass has answered what it read.
fn read(socket: &mut Socket, shard: &mut Shard, scratch: &mut [u8]) -> bool {
    let mut read = 0;
    while read < scratch.len() && !socket.closed {
        match socket.stream.read(&mut scratch[read..]) {
            Ok(0) => socket.closed = true,
            Ok(n) => read += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                socket.closed = true;
                return false;
            }
        }
    }
    let now = Instant::now();
    socket.closed |= read > 0 && shard.received(socket.id, &scratch[..read], now).is_err();
    read > 0
}

/// Write what the shard holds for one socket until it would block; a write
/// error marks the socket closed. Returns whether bytes left.
fn flush(socket: &mut Socket, shard: &mut Shard) -> bool {
    let mut moved = false;
    while !shard.outgoing(socket.id).is_empty() {
        match socket.stream.write(shard.outgoing(socket.id)) {
            Ok(n) if n > 0 => {
                shard.consumed(socket.id, n);
                moved = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // A zero-byte write or a socket error.
            _ => {
                socket.closed = true;
                break;
            }
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetClient;
    use rndi_core::context::ContextExt;
    use rndi_core::env::keys;
    use rndi_core::op::{NamingOp, OpKind, OpOutcome};
    use std::sync::mpsc;

    /// Answers every lookup; a lookup of `"block"` first reports that it
    /// is executing and then waits to be released.
    struct GateBackend {
        entered: Mutex<mpsc::Sender<()>>,
        release: Mutex<mpsc::Receiver<()>>,
    }

    impl ProviderBackend for GateBackend {
        fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
            if op.kind != OpKind::Lookup {
                return Err(NamingError::unsupported("gate backend: lookups only"));
            }
            if op.name.to_string() == "block" {
                let _ = self.entered.lock().send(());
                let _ = self.release.lock().recv();
            }
            Ok(OpOutcome::Wire(rndi_core::op::codec::marshal(
                &rndi_core::value::BoundValue::Str("v".into()),
            )?))
        }

        fn provider_id(&self) -> String {
            "gate".to_string()
        }
    }

    fn open_fds() -> usize {
        std::fs::read_dir("/proc/self/fd").expect("procfs").count()
    }

    #[test]
    fn connection_churn_leaks_no_descriptors_and_abort_still_tears_down_mid_request() {
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let backend = Arc::new(GateBackend {
            entered: Mutex::new(entered_tx),
            release: Mutex::new(release_rx),
        });
        let server = NetServer::with_config(
            backend,
            ServerConfig {
                shards: 1,
                ..ServerConfig::default()
            },
        )
        .expect("server starts");
        let addr = server.local_addr().to_string();
        let env = Environment::new().with(keys::RETRY_MAX_ATTEMPTS, "1");

        let wait_idle = |server: &NetServer| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while server.state.shared.active.load(Ordering::Relaxed) > 0 {
                assert!(Instant::now() < deadline, "server never saw the hang-up");
                std::thread::yield_now();
            }
        };

        let fds_before = open_fds();
        for _ in 0..300 {
            let client = NetClient::connect(addr.clone(), &env).unwrap();
            client.lookup_str("k").unwrap();
            drop(client);
            wait_idle(&server);
        }
        assert_eq!(
            server.state.conns.lock().len(),
            0,
            "every abort handle was pruned with its connection"
        );
        // Sibling tests in this binary open sockets of their own; a leak
        // would be one descriptor per cycle.
        let grown = open_fds().saturating_sub(fds_before);
        assert!(grown < 100, "{grown} descriptors leaked over 300 cycles");

        // A request that is executing when `abort` lands: the client sees
        // the socket die while the backend is still inside `execute`.
        let client = NetClient::connect(addr, &env).unwrap();
        let caller = std::thread::spawn(move || client.lookup_str("block"));
        entered_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("request reached the backend");
        assert_eq!(server.state.conns.lock().len(), 1);
        let aborter = std::thread::spawn(move || server.abort());
        let outcome = caller.join().expect("caller thread");
        assert!(outcome.is_err(), "torn down mid-request: {outcome:?}");
        release_tx.send(()).expect("backend still waiting");
        aborter.join().expect("abort joins the server threads");
    }
}
