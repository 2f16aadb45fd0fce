//! The snapshot codec (`HdnsStore::snapshot` / `restore`) against round
//! trip, canonical bytes and hostile input, as `proposal_codec` holds the
//! proposal codec: a snapshot is what a replica recovers from and what a
//! joiner is handed, so it must decode strictly or not at all.

use std::collections::BTreeMap;

use groupcast::codec;
use hdns::{HdnsEntry, HdnsStore, Op};
use proptest::prelude::*;

/// The snapshot format's version byte.
const VERSION: u8 = 0x02;
/// Where the entry count sits: after the version byte and `ops_applied`.
const COUNT_AT: usize = 1 + 8;
/// The fewest bytes one entry encodes to.
const MIN_ENTRY_LEN: usize = 4 + 1 + 4 + 4;

fn entries(s: &HdnsStore) -> Vec<(&str, &HdnsEntry)> {
    s.iter().collect()
}

fn any_attrs() -> impl Strategy<Value = BTreeMap<String, String>> {
    proptest::collection::btree_map("[a-zß-ö]{0,6}", "[ -~à-ÿ]{0,12}", 0..4)
}

/// A store built the way replicas build one: contexts, leaves under them
/// and at the root, values of every size, any `ops_applied`.
fn any_store() -> impl Strategy<Value = HdnsStore> {
    let name = "[a-zA-Z0-9 _.é一-丿]{1,8}";
    let leaf = (
        proptest::option::of(0..4usize),
        name,
        proptest::collection::vec(any::<u8>(), 0..200),
        any_attrs(),
    );
    (
        proptest::collection::vec(name, 0..4),
        proptest::collection::vec(leaf, 0..8),
        any::<u64>(),
    )
        .prop_map(|(contexts, leaves, ops_applied)| {
            let mut s = HdnsStore::new();
            for path in &contexts {
                let _ = s.apply(&Op::CreateContext { path: path.clone() });
            }
            for (under, name, value, attrs) in leaves {
                let path = match under.and_then(|i| contexts.get(i)) {
                    Some(context) => format!("{context}/{name}"),
                    None => name,
                };
                let entry = attrs
                    .iter()
                    .fold(HdnsEntry::leaf(value), |e, (k, v)| e.with_attr(k, v));
                let _ = s.apply(&Op::Bind {
                    path,
                    entry,
                    overwrite: true,
                });
            }
            s.ops_applied = ops_applied;
            s
        })
}

/// A snapshot of `paths`, each an empty leaf, in the order given.
fn snapshot_of_paths(paths: &[&str]) -> Vec<u8> {
    let mut out = vec![VERSION];
    codec::put_u64(&mut out, 0);
    codec::put_len(&mut out, paths.len());
    for path in paths {
        codec::put_str(&mut out, path);
        codec::put_u8(&mut out, 0);
        codec::put_bytes(&mut out, b"");
        codec::put_len(&mut out, 0);
    }
    out
}

fn refusal(bytes: &[u8]) -> String {
    HdnsStore::restore(bytes).expect_err("refused")
}

proptest! {
    #[test]
    fn snapshot_codec_roundtrips(s in any_store()) {
        let bytes = s.snapshot();
        prop_assert_eq!(bytes[0], VERSION);
        let back = HdnsStore::restore(&bytes).unwrap();
        prop_assert_eq!(entries(&back), entries(&s));
        prop_assert_eq!(back.ops_applied, s.ops_applied);
        prop_assert_eq!(back.snapshot(), bytes);
    }

    #[test]
    fn snapshot_codec_refuses_every_prefix_and_any_suffix(
        s in any_store(),
        extra in any::<u8>(),
    ) {
        let mut bytes = s.snapshot();
        for cut in 0..bytes.len() {
            prop_assert!(HdnsStore::restore(&bytes[..cut]).is_err(), "prefix of {cut} bytes");
        }
        bytes.push(extra);
        prop_assert_eq!(refusal(&bytes), "1 trailing bytes");
    }

    #[test]
    fn snapshot_codec_survives_arbitrary_bytes(
        noise in proptest::collection::vec(any::<u8>(), 0..64),
        versioned in any::<bool>(),
    ) {
        // Give half the cases a valid head so the entry readers see
        // hostile counts and lengths.
        let mut bytes = noise;
        if versioned {
            let mut head = vec![VERSION];
            codec::put_u64(&mut head, 7);
            head.extend_from_slice(&bytes);
            bytes = head;
        }
        if let Ok(s) = HdnsStore::restore(&bytes) {
            if bytes[0] == VERSION {
                prop_assert_eq!(s.snapshot(), bytes, "what restores is canonical");
            }
        }
    }
}

#[test]
fn snapshot_codec_refuses_hostile_counts_and_lengths_before_allocating() {
    // u32::MAX entries claimed over one entry's bytes: `Reader::count`
    // refuses before the loop runs.
    let mut bytes = snapshot_of_paths(&["p"]);
    bytes[COUNT_AT..COUNT_AT + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(refusal(&bytes), "truncated entry count");
    // One entry whose path claims 4 GiB.
    let mut bytes = snapshot_of_paths(&[]);
    bytes[COUNT_AT..COUNT_AT + 4].copy_from_slice(&1u32.to_le_bytes());
    codec::put_u32(&mut bytes, u32::MAX);
    bytes.extend_from_slice(&[0; MIN_ENTRY_LEN]);
    assert_eq!(refusal(&bytes), "truncated path");
    // A flag no encoder writes, and a version that is not this one.
    let mut bytes = snapshot_of_paths(&["p"]);
    bytes[COUNT_AT + 4 + 4 + 1] = 1;
    assert_eq!(refusal(&bytes), "invalid entry flags");
    assert_eq!(refusal(&[0x01, 0, 0]), "unknown snapshot version 0x01");
    assert!(HdnsStore::restore(b"{\"entries\":").is_err());
}

#[test]
fn snapshot_codec_refuses_keys_out_of_order_or_twice() {
    assert!(HdnsStore::restore(&snapshot_of_paths(&["a", "b"])).is_ok());
    for paths in [&["b", "a"][..], &["a", "a"][..]] {
        assert_eq!(
            refusal(&snapshot_of_paths(paths)),
            "invalid entry order",
            "{paths:?}"
        );
    }
}
