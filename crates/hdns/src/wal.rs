//! Durable state of one replica: a snapshot plus a write-ahead op log.
//!
//! Files, all derived from the replica's `data_path`:
//!
//! | file                  | content                                         |
//! |-----------------------|-------------------------------------------------|
//! | `<data_path>`         | the last snapshot ([`HdnsStore::snapshot`])     |
//! | `<data_path>.wal`     | every proposal delivered since that snapshot    |
//! | `<data_path>.tmp`     | a snapshot being written (compaction in flight) |
//! | `<data_path>.corrupt` | a snapshot recovery could not use, moved aside  |
//! | `<data_path>.wal.corrupt` | the log that extended that snapshot         |
//!
//! A log record is `len: u32 | crc32: u32 | seq: u64 | proposal`, little
//! endian, where `proposal` is the `len` bytes the group delivered (never
//! re-serialised), `seq` is [`HdnsStore::ops_applied`] right after applying
//! it, and the checksum covers `seq` and `proposal`.
//!
//! *Append* is one `write` per [`HdnsNode::process`](crate::HdnsNode::process)
//! call, with no `fsync`: a completed `write` survives the process, so a
//! `kill -9` loses nothing that was acknowledged, and persistence costs
//! O(op). *Compaction* — when the log outgrows twice the snapshot it extends
//! (64 KiB at least), on state transfer and on shutdown — writes the snapshot to `.tmp`, `fdatasync`s
//! it, renames it over the snapshot, syncs the directory, then empties the
//! log; it is the only place that syncs, so what a power loss can take is
//! bounded by the last compaction plus whatever the kernel had not yet
//! written back. *Recovery* is the snapshot plus every record whose `seq`
//! continues it, stopping at — and cutting the log back to — the first
//! torn, checksum-failing or out-of-sequence record.
//!
//! All of it is written against [`Storage`], the handful of file
//! operations used, so the crash-point tests can substitute a store that
//! fails, tears or forgets unsynced bytes at every call boundary.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use rndi_obs::metrics::{self, names, Counter, Histogram};

use crate::proposal::Proposal;
use crate::store::HdnsStore;

/// The files a replica keeps (see the module table).
// Public as the argument type of the public `Storage` trait.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Slot {
    Snapshot,
    Log,
    Tmp,
    Corrupt,
    CorruptLog,
}

/// The file operations persistence is built from. One call is one crash
/// boundary: an implementation may fail any of them, and whatever a failed
/// call left behind must be something recovery copes with.
pub trait Storage {
    /// The whole file, or `None` when it does not exist.
    fn read(&mut self, slot: Slot) -> io::Result<Option<Vec<u8>>>;
    /// Add `bytes` to the end of the log with a single write.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Create or replace the `Tmp` file with `bytes`.
    fn write_tmp(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Force one file's content to stable storage (`fdatasync`).
    fn sync(&mut self, slot: Slot) -> io::Result<()>;
    /// Force the directory — creations and renames — to stable storage.
    fn sync_dir(&mut self) -> io::Result<()>;
    /// Atomically move `from` over `to`.
    fn rename(&mut self, from: Slot, to: Slot) -> io::Result<()>;
    /// Cut the log back to `len` bytes.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

/// [`Storage`] on the local file system.
pub struct FsStorage {
    data_path: PathBuf,
    /// Kept open in append mode once the first record is written.
    log: Option<File>,
}

impl FsStorage {
    pub fn new(data_path: PathBuf) -> FsStorage {
        FsStorage {
            data_path,
            log: None,
        }
    }

    fn path(&self, slot: Slot) -> PathBuf {
        let suffix = match slot {
            Slot::Snapshot => return self.data_path.clone(),
            Slot::Log => ".wal",
            Slot::Tmp => ".tmp",
            Slot::Corrupt => ".corrupt",
            Slot::CorruptLog => ".wal.corrupt",
        };
        let mut name = self.data_path.clone().into_os_string();
        name.push(suffix);
        PathBuf::from(name)
    }

    /// The directory holding the files (`.` for a bare file name).
    fn dir(&self) -> &Path {
        match self.data_path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        }
    }

    fn log(&mut self) -> io::Result<&mut File> {
        if self.log.is_none() {
            fs::create_dir_all(self.dir())?;
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.path(Slot::Log))?;
            self.log = Some(file);
        }
        Ok(self.log.as_mut().expect("opened above"))
    }
}

impl Storage for FsStorage {
    fn read(&mut self, slot: Slot) -> io::Result<Option<Vec<u8>>> {
        match fs::read(self.path(slot)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.log()?.write_all(bytes)
    }

    fn write_tmp(&mut self, bytes: &[u8]) -> io::Result<()> {
        fs::create_dir_all(self.dir())?;
        fs::write(self.path(Slot::Tmp), bytes)
    }

    fn sync(&mut self, slot: Slot) -> io::Result<()> {
        match slot {
            Slot::Log => self.log()?.sync_data(),
            other => File::open(self.path(other))?.sync_data(),
        }
    }

    fn sync_dir(&mut self) -> io::Result<()> {
        File::open(self.dir())?.sync_all()
    }

    fn rename(&mut self, from: Slot, to: Slot) -> io::Result<()> {
        fs::rename(self.path(from), self.path(to))
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.log()?.set_len(len)
    }
}

// ------------------------------------------------------------- frame --

/// `len | crc32 | seq` ahead of the proposal bytes.
const HEADER: usize = 4 + 4 + 8;

/// CRC-32 (IEEE 802.3, reflected) lookup table.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

fn crc32(parts: [&[u8]; 2]) -> u32 {
    let mut c = !0u32;
    for byte in parts.into_iter().flatten() {
        c = CRC_TABLE[((c ^ u32::from(*byte)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

fn encode_record(out: &mut Vec<u8>, seq: u64, proposal: &[u8]) {
    let len = u32::try_from(proposal.len()).expect("a group message is far below 4 GiB");
    let seq = seq.to_le_bytes();
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32([&seq, proposal]).to_le_bytes());
    out.extend_from_slice(&seq);
    out.extend_from_slice(proposal);
}

/// The record at the head of `bytes` as `(seq, proposal, encoded length)`,
/// or `None` when it is torn or fails its checksum.
fn decode_record(bytes: &[u8]) -> Option<(u64, &[u8], usize)> {
    let header = bytes.get(..HEADER)?;
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    let seq = &header[8..16];
    let end = HEADER.checked_add(len)?;
    let proposal = bytes.get(HEADER..end)?;
    (crc32([seq, proposal]) == crc).then(|| {
        let seq = u64::from_le_bytes(seq.try_into().expect("8 bytes"));
        (seq, proposal, end)
    })
}

// --------------------------------------------------------------- wal --

/// What recovery found and did, kept by the node for
/// [`HdnsNode::recovery`](crate::HdnsNode::recovery).
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Entries restored from the snapshot file.
    pub snapshot_entries: usize,
    /// Log records applied on top of the snapshot.
    pub replayed: u64,
    /// Bytes cut from the log's tail: a torn or checksum-failing record
    /// and everything after it.
    pub discarded_bytes: u64,
    /// The first thing that went wrong, if anything did: an unreadable or
    /// unparseable snapshot (moved aside to `.corrupt`, its log to
    /// `.wal.corrupt`), an unreadable log, or a failure to cut the torn
    /// tail off.
    pub error: Option<io::Error>,
}

struct WalMetrics {
    appends: Arc<Counter>,
    bytes: Arc<Counter>,
    compactions: Arc<Counter>,
    compaction_time: Arc<Histogram>,
    replayed: Arc<Counter>,
    recovery_errors: Arc<Counter>,
}

/// Handles resolved once per process: appends sit on the write path.
fn wal_metrics() -> &'static WalMetrics {
    static METRICS: OnceLock<WalMetrics> = OnceLock::new();
    METRICS.get_or_init(|| WalMetrics {
        appends: metrics::counter(names::HDNS_WAL_APPENDS, &[]),
        bytes: metrics::counter(names::HDNS_WAL_BYTES, &[]),
        compactions: metrics::counter(names::HDNS_COMPACTIONS, &[]),
        compaction_time: metrics::histogram(names::HDNS_COMPACTION_DURATION, &[]),
        replayed: metrics::counter(names::HDNS_RECOVERY_REPLAYED, &[]),
        recovery_errors: metrics::counter(names::HDNS_RECOVERY_ERRORS, &[]),
    })
}

/// The log is compacted once it outgrows this multiple of the snapshot it
/// extends: rewriting S snapshot bytes per `2·S` logged bytes keeps the
/// amortised cost of persistence O(1) per logged byte, and disk use and
/// replay time within a constant factor of the store.
const LOG_TO_SNAPSHOT: u64 = 2;
/// …but never below this, so a small store that is rebound forever does
/// not pay two syncs every few writes.
const MIN_LOG_BEFORE_COMPACTION: u64 = 64 * 1024;

/// One replica's snapshot + log, over some [`Storage`].
pub(crate) struct Wal {
    storage: Box<dyn Storage + Send>,
    /// Records staged by the current `process()` call, not yet written.
    staged: Vec<u8>,
    staged_records: u64,
    /// Bytes the log holds (or would, had every append succeeded).
    log_len: u64,
    /// Size of the snapshot the log extends.
    snapshot_len: u64,
    /// The log on disk can no longer be extended to the store in memory:
    /// an append failed (later records would be stranded behind its
    /// partial one), or the store was replaced wholesale. Only a
    /// compaction repairs that; until one lands, nothing is appended.
    broken: bool,
    /// After a failed compaction, do not retry before the log reaches this
    /// size — a full disk must not turn every write into an O(store) one.
    retry_at: u64,
}

impl Wal {
    /// Recover: load the snapshot, replay the log suffix, cut off a torn
    /// tail. Never fails — the report says what happened.
    pub(crate) fn open(mut storage: Box<dyn Storage + Send>) -> (Wal, HdnsStore, RecoveryReport) {
        let mut report = RecoveryReport::default();
        let mut store = HdnsStore::new();
        let mut snapshot_len = 0;

        let snapshot = storage.read(Slot::Snapshot).and_then(|found| match found {
            Some(bytes) => HdnsStore::restore(&bytes)
                .map(|store| Some((store, bytes.len() as u64)))
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
            None => Ok(None),
        });
        match snapshot {
            Ok(Some((restored, len))) => {
                report.snapshot_entries = restored.len();
                store = restored;
                snapshot_len = len;
            }
            Ok(None) => {}
            Err(e) => {
                // Keep the evidence — the snapshot and the log that only
                // means something on top of it — out of the way of the
                // appends and the compaction that would overwrite them.
                // Best effort: an absent log has nothing to keep, and a
                // path that cannot be read may not be renamable either.
                let _ = storage.rename(Slot::Log, Slot::CorruptLog);
                let _ = storage.rename(Slot::Snapshot, Slot::Corrupt);
                let _ = storage.sync_dir();
                report.error = Some(e);
            }
        }

        let mut log_len = 0;
        match storage.read(Slot::Log) {
            Ok(Some(log)) => {
                let mut at = 0;
                while let Some((seq, proposal, used)) = decode_record(&log[at..]) {
                    if seq > store.ops_applied {
                        let next = seq == store.ops_applied + 1;
                        let Some(p) = next.then(|| Proposal::decode(proposal).ok()).flatten()
                        else {
                            break;
                        };
                        let _ = store.apply_owned(p.op);
                        report.replayed += 1;
                    }
                    at += used;
                }
                log_len = at as u64;
                if at < log.len() {
                    report.discarded_bytes = (log.len() - at) as u64;
                    let cut = storage
                        .truncate(log_len)
                        .and_then(|()| storage.sync(Slot::Log));
                    if let Err(e) = cut {
                        report.error.get_or_insert(e);
                    }
                }
            }
            Ok(None) => {}
            Err(e) => {
                report.error.get_or_insert(e);
            }
        }

        let m = wal_metrics();
        m.replayed.add(report.replayed);
        if report.error.is_some() {
            m.recovery_errors.inc();
        }
        let wal = Wal {
            storage,
            staged: Vec::new(),
            staged_records: 0,
            log_len,
            snapshot_len,
            broken: false,
            retry_at: 0,
        };
        (wal, store, report)
    }

    /// Stage one delivered proposal; [`Wal::flush`] writes the batch.
    pub(crate) fn stage(&mut self, seq: u64, proposal: &[u8]) {
        encode_record(&mut self.staged, seq, proposal);
        self.staged_records += 1;
    }

    /// Write everything staged with one append; `None` when nothing was
    /// staged. No sync.
    pub(crate) fn flush(&mut self) -> Option<io::Result<()>> {
        if self.staged.is_empty() {
            return None;
        }
        let written = if self.broken {
            Err(io::Error::other(
                "op log is broken; records are dropped until a compaction succeeds",
            ))
        } else {
            self.storage.append(&self.staged)
        };
        self.log_len += self.staged.len() as u64;
        if written.is_ok() {
            let m = wal_metrics();
            m.appends.add(self.staged_records);
            m.bytes.add(self.staged.len() as u64);
        } else {
            self.broken = true;
        }
        self.staged.clear();
        self.staged_records = 0;
        Some(written)
    }

    /// Log size past which the log is folded into a new snapshot.
    fn threshold(&self) -> u64 {
        (LOG_TO_SNAPSHOT * self.snapshot_len).max(MIN_LOG_BEFORE_COMPACTION)
    }

    pub(crate) fn wants_compaction(&self) -> bool {
        (self.broken || self.log_len > self.threshold()) && self.log_len >= self.retry_at
    }

    /// The store is about to be replaced wholesale: what the log holds
    /// stops being its history, until [`Wal::compact`] starts a new one.
    pub(crate) fn lineage_changed(&mut self) {
        self.broken = true;
    }

    /// Replace the snapshot with `snapshot` and empty the log. Crash-safe
    /// at every step: until the rename lands the old snapshot and the full
    /// log stand; after it, the log's records are all at or below the new
    /// snapshot's `ops_applied` and recovery skips them.
    pub(crate) fn compact(&mut self, snapshot: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        let s = &mut self.storage;
        let done = s
            .write_tmp(snapshot)
            .and_then(|()| s.sync(Slot::Tmp))
            .and_then(|()| s.rename(Slot::Tmp, Slot::Snapshot))
            .and_then(|()| s.sync_dir())
            .and_then(|()| s.truncate(0))
            .and_then(|()| s.sync(Slot::Log));
        match &done {
            Ok(()) => {
                self.snapshot_len = snapshot.len() as u64;
                self.log_len = 0;
                self.broken = false;
                self.retry_at = 0;
                let m = wal_metrics();
                m.compactions.inc();
                m.compaction_time.record_duration(start.elapsed());
            }
            Err(_) => self.retry_at = self.log_len.saturating_mul(2).max(1),
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32([b"1234", b"56789"]), 0xCBF4_3926);
    }

    #[test]
    fn replay_stops_at_a_gap_in_the_sequence() {
        let dir = crate::TestDir::new("gap");
        let mut storage = FsStorage::new(dir.0.join("snap.json"));
        let create = |path: &str| {
            let op = crate::Op::CreateContext { path: path.into() };
            Proposal { op_id: 0, op }.encode()
        };
        let mut log = Vec::new();
        encode_record(&mut log, 1, &create("a"));
        encode_record(&mut log, 2, &create("b"));
        let good = log.len() as u64;
        encode_record(&mut log, 4, &create("d"));
        storage.append(&log).unwrap();

        let (wal, store, report) = Wal::open(Box::new(storage));
        assert_eq!((store.ops_applied, store.len()), (2, 2));
        assert_eq!(report.replayed, 2);
        assert_eq!(report.discarded_bytes, log.len() as u64 - good);
        assert_eq!(wal.log_len, good);
    }

    /// What versions before the binary formats left on disk — a JSON
    /// snapshot and a log of JSON records — is refused loudly: never read,
    /// never truncated, both files moved aside byte for byte, and the
    /// error names the snapshot. The replica starts empty and its binary
    /// appends recover.
    #[test]
    fn a_json_era_data_dir_is_quarantined_then_takes_binary_appends() {
        use crate::{HdnsEntry, Op};

        let snapshot =
            br#"{"entries":{"c":{"attrs":{},"is_context":true,"value":[]}},"ops_applied":1}"#;
        let dir = crate::TestDir::new("json-era");
        let path = dir.0.join("replica-0.json");
        std::fs::create_dir_all(&dir.0).unwrap();
        std::fs::write(&path, snapshot).unwrap();
        let mut log = Vec::new();
        encode_record(
            &mut log,
            2,
            br#"{"op_id":0,"op":{"CreateContext":{"path":"d"}}}"#,
        );
        // A torn record behind it: a log that was read would be cut here.
        log.extend_from_slice(&[9, 0, 0]);
        FsStorage::new(path.clone()).append(&log).unwrap();

        let (mut wal, store, report) = Wal::open(Box::new(FsStorage::new(path.clone())));
        assert!(store.is_empty());
        assert_eq!(store.ops_applied, 0);
        assert_eq!((report.snapshot_entries, report.replayed), (0, 0));
        assert_eq!(report.discarded_bytes, 0, "the log was not read");
        let error = report.error.expect("a JSON-era snapshot is an error");
        assert!(error.to_string().contains("snapshot"), "{error}");
        let beside = |suffix: &str| {
            let mut name = path.clone().into_os_string();
            name.push(suffix);
            std::fs::read(name)
        };
        assert_eq!(beside(".corrupt").unwrap(), snapshot);
        assert_eq!(beside(".wal.corrupt").unwrap(), log);
        assert!(beside(".wal").is_err(), "the log moved aside whole");

        let mut model = HdnsStore::new();
        let binary = [
            Op::CreateContext { path: "d".into() },
            Op::Bind {
                path: "d/y".into(),
                entry: HdnsEntry::leaf(vec![5; 74]).with_attr("owner", "é"),
                overwrite: false,
            },
        ];
        for (op_id, op) in (100..).zip(&binary) {
            model.apply(op).unwrap();
            let record = Proposal {
                op_id,
                op: op.clone(),
            }
            .encode();
            wal.stage(model.ops_applied, &record);
        }
        wal.flush().expect("staged").unwrap();
        drop(wal);

        let (_, store, report) = Wal::open(Box::new(FsStorage::new(path)));
        assert_eq!(store.snapshot(), model.snapshot());
        assert_eq!(report.replayed, binary.len() as u64);
        assert_eq!(report.discarded_bytes, 0);
        assert!(report.error.is_none());
    }

    #[test]
    fn record_roundtrip_and_every_corruption_is_caught() {
        let mut buf = Vec::new();
        encode_record(&mut buf, 7, b"first");
        encode_record(&mut buf, 8, b"");
        let (seq, proposal, used) = decode_record(&buf).unwrap();
        assert_eq!((seq, proposal), (7, &b"first"[..]));
        let (seq, proposal, rest) = decode_record(&buf[used..]).unwrap();
        assert_eq!((seq, proposal, used + rest), (8, &b""[..], buf.len()));

        let one = &buf[..used];
        for cut in 0..one.len() {
            assert!(decode_record(&one[..cut]).is_none(), "torn at {cut}");
        }
        for i in 0..one.len() {
            let mut flipped = one.to_vec();
            flipped[i] ^= 0x40;
            assert!(decode_record(&flipped).is_none(), "bit flip at byte {i}");
        }
    }
}
