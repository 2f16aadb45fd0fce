//! The refusal path: a peer that opens with anything but the `RNI\x02`
//! preamble — in particular the bare length-prefixed JSON frame the
//! retired v1 protocol sent — is closed without a byte in reply and
//! without anything reaching the backend, while a well-behaved client on
//! the same server keeps getting answers.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rndi_core::env::Environment;
use rndi_core::error::Result;
use rndi_core::op::{NamingOp, OpOutcome};
use rndi_core::spi::ProviderBackend;
use rndi_net::{proto, NetClient, NetServer};

/// Answers everything `Done` and counts what it was asked.
#[derive(Default)]
struct CountingBackend {
    executed: AtomicU64,
}

impl ProviderBackend for CountingBackend {
    fn execute(&self, _: &NamingOp) -> Result<OpOutcome> {
        self.executed.fetch_add(1, Ordering::SeqCst);
        Ok(OpOutcome::Done)
    }

    fn provider_id(&self) -> String {
        "counting".to_string()
    }
}

/// Open a raw connection with `opening` and report whether the server
/// closed it (EOF or reset) without sending a single byte.
fn refused(addr: &str, opening: &[u8]) -> bool {
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(opening).expect("opening bytes sent");
    let mut buf = [0u8; 64];
    match raw.read(&mut buf) {
        Ok(n) => n == 0,
        Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
    }
}

/// A server with a well-behaved client hammering it from another thread
/// for as long as the fixture lives.
struct Hammered {
    server: NetServer,
    backend: Arc<CountingBackend>,
    stop: Arc<AtomicBool>,
    worker: std::thread::JoinHandle<u64>,
}

impl Hammered {
    fn start() -> Hammered {
        let backend = Arc::new(CountingBackend::default());
        let server = NetServer::bind(backend.clone(), &Environment::new()).expect("server starts");
        let client = NetClient::new(server.local_addr().to_string(), &Environment::new()).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let worker = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut answered = 0u64;
                while !stop.load(Ordering::SeqCst) || answered == 0 {
                    client.execute(&NamingOp::lookup("k".into())).unwrap();
                    answered += 1;
                }
                answered
            })
        };
        Hammered {
            server,
            backend,
            stop,
            worker,
        }
    }

    /// Stop the client and check that its answered lookups are all the
    /// backend ever saw.
    fn finish(self) {
        self.stop.store(true, Ordering::SeqCst);
        let answered = self.worker.join().expect("client thread");
        assert_eq!(
            self.backend.executed.load(Ordering::SeqCst),
            answered,
            "nothing a refused connection sent reached the backend"
        );
        self.server.shutdown();
    }
}

#[test]
fn length_prefixed_json_is_refused_while_clients_keep_being_served() {
    let fixture = Hammered::start();
    // What the retired JSON protocol opened with: a bare length-prefixed
    // frame holding a JSON call. Two of them back to back, so a server
    // that tried to serve the first would have the second buffered too.
    let call = br#"{"Call":{"v":1,"op":{"kind":"lookup","name":"k","payload":"None","attrs":null,"meta":{}},"deadline_ms":0}}"#;
    let mut frame = (call.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(call);
    let opening = [frame.clone(), frame].concat();
    assert!(refused(&fixture.server.local_addr().to_string(), &opening));
    fixture.finish();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Any first four bytes other than the preamble, whatever follows.
    #[test]
    fn any_other_opening_is_refused_while_clients_keep_being_served(
        first4 in any::<[u8; 4]>(),
        tail in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        prop_assume!(first4 != proto::PREAMBLE_V2);
        let fixture = Hammered::start();
        let opening = [&first4[..], &tail[..]].concat();
        prop_assert!(
            refused(&fixture.server.local_addr().to_string(), &opening),
            "opening {first4:02x?} was not refused"
        );
        fixture.finish();
    }
}
