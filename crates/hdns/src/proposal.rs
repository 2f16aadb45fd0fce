//! The write proposal and its byte form — what a replica multicasts to
//! the group and, verbatim, the payload of one op-log record.
//!
//! ```text
//! 0x01 | op_id u64 | op tag u8 | fields
//!   1 Bind           path | flags (1 overwrite, 2 is_context) | value | attrs
//!   2 Unbind         path
//!   3 Rename         from | to
//!   4 CreateContext  path
//!   5 SetAttrs       path | attrs
//! ```
//!
//! over [`groupcast::codec`]: little-endian integers, `u32`-prefixed text
//! and bytes, `attrs` as a `u32` count and its key/value pairs in key
//! order. Versions before this one wrote the proposal as JSON; such a
//! payload starts with `{`, which is no version byte, and
//! [`Proposal::decode`] still reads it — so an op log written by an older
//! binary, or one that turns binary half-way, recovers. Nothing writes
//! JSON any more.

use std::collections::BTreeMap;

use groupcast::codec::{self, DecodeError, Reader};
use serde::Deserialize;

use crate::store::{each_attr, put_attrs, HdnsEntry, Op};

/// The binary format's version byte.
const VERSION: u8 = 0x01;
/// How every JSON-era payload begins.
pub(crate) const JSON_OPEN: u8 = b'{';

const TAG_BIND: u8 = 1;
const TAG_UNBIND: u8 = 2;
const TAG_RENAME: u8 = 3;
const TAG_CREATE_CONTEXT: u8 = 4;
const TAG_SET_ATTRS: u8 = 5;

/// A Bind's flag beside the entry's own (`crate::store::FLAG_IS_CONTEXT`).
const FLAG_OVERWRITE: u8 = 1;

/// One write on its way through the group: the op and the submitter's
/// handle for it.
#[derive(Debug, PartialEq, Eq, Deserialize)]
#[cfg_attr(test, derive(Clone, serde::Serialize))]
pub(crate) struct Proposal {
    pub(crate) op_id: u64,
    pub(crate) op: Op,
}

fn attrs(r: &mut Reader<'_>) -> Result<BTreeMap<String, String>, DecodeError> {
    let mut map = BTreeMap::new();
    each_attr(r, |k, v| {
        map.insert(k.to_owned(), v.to_owned());
    })?;
    Ok(map)
}

fn path(r: &mut Reader<'_>) -> Result<String, DecodeError> {
    r.str("path").map(str::to_owned)
}

impl Proposal {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(match &self.op {
            Op::Bind { path, entry, .. } => 32 + path.len() + entry.value().len(),
            _ => 64,
        });
        codec::put_u8(&mut out, VERSION);
        codec::put_u64(&mut out, self.op_id);
        match &self.op {
            Op::Bind {
                path,
                entry,
                overwrite,
            } => {
                codec::put_u8(&mut out, TAG_BIND);
                codec::put_str(&mut out, path);
                entry.put_body(&mut out, if *overwrite { FLAG_OVERWRITE } else { 0 });
            }
            Op::Unbind { path } => {
                codec::put_u8(&mut out, TAG_UNBIND);
                codec::put_str(&mut out, path);
            }
            Op::Rename { from, to } => {
                codec::put_u8(&mut out, TAG_RENAME);
                codec::put_str(&mut out, from);
                codec::put_str(&mut out, to);
            }
            Op::CreateContext { path } => {
                codec::put_u8(&mut out, TAG_CREATE_CONTEXT);
                codec::put_str(&mut out, path);
            }
            Op::SetAttrs { path, attrs } => {
                codec::put_u8(&mut out, TAG_SET_ATTRS);
                codec::put_str(&mut out, path);
                put_attrs(
                    &mut out,
                    attrs.iter().map(|(k, v)| (k.as_str(), v.as_str())),
                );
            }
        }
        out
    }

    /// The proposal in `payload`: the binary form, strictly (known version,
    /// tag and flags, UTF-8 text, every length inside the input, attributes
    /// in key order, nothing trailing — so what decodes re-encodes to the
    /// same bytes), or the JSON form of earlier versions.
    pub(crate) fn decode(payload: &[u8]) -> Result<Proposal, DecodeError> {
        let mut r = Reader::new(payload);
        match r.u8("proposal version")? {
            VERSION => {}
            JSON_OPEN => {
                return serde_json::from_slice(payload)
                    .map_err(|_| DecodeError::Invalid("JSON-era proposal"))
            }
            tag => {
                return Err(DecodeError::UnknownTag {
                    what: "proposal version",
                    tag,
                })
            }
        }
        let op_id = r.u64("op id")?;
        let op = match r.u8("op tag")? {
            TAG_BIND => {
                // The entry's record keeps the path it was sent under: when
                // that is already normalized, it is the record stored.
                let (entry, flags) = HdnsEntry::read(&mut r, FLAG_OVERWRITE)?;
                Op::Bind {
                    path: entry.path().to_owned(),
                    entry,
                    overwrite: flags & FLAG_OVERWRITE != 0,
                }
            }
            TAG_UNBIND => Op::Unbind {
                path: path(&mut r)?,
            },
            TAG_RENAME => Op::Rename {
                from: path(&mut r)?,
                to: path(&mut r)?,
            },
            TAG_CREATE_CONTEXT => Op::CreateContext {
                path: path(&mut r)?,
            },
            TAG_SET_ATTRS => Op::SetAttrs {
                path: path(&mut r)?,
                attrs: attrs(&mut r)?,
            },
            tag => {
                return Err(DecodeError::UnknownTag {
                    what: "op tag",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(Proposal { op_id, op })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::store::FLAG_IS_CONTEXT;
    use proptest::prelude::*;

    /// What `HdnsNode::submit` put on the wire and in the log before the
    /// binary form: the oracle the JSON fallback is held to.
    pub(crate) fn json_of(p: &Proposal) -> Vec<u8> {
        serde_json::to_vec(p).expect("ops serialize")
    }

    fn any_path() -> impl Strategy<Value = String> {
        "[a-zA-Z0-9/ _.é-ü一-丿]{0,24}"
    }

    fn any_attrs() -> impl Strategy<Value = BTreeMap<String, String>> {
        proptest::collection::btree_map("[a-zß-ö]{0,6}", "[ -~à-ÿ]{0,12}", 0..5)
    }

    fn any_value() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            6 => proptest::collection::vec(any::<u8>(), 0..200),
            1 => Just(Vec::new()),
            1 => any::<u8>().prop_map(|b| vec![b; 64 * 1024]),
        ]
    }

    pub(crate) fn any_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (
                any_path(),
                any_value(),
                any_attrs(),
                any::<bool>(),
                any::<bool>()
            )
                .prop_map(|(path, value, attrs, is_context, overwrite)| {
                    let flags = if is_context { FLAG_IS_CONTEXT } else { 0 };
                    let attrs = attrs.iter().map(|(k, v)| (k.as_str(), v.as_str()));
                    Op::Bind {
                        path,
                        entry: HdnsEntry::build("", flags, &value, attrs),
                        overwrite,
                    }
                }),
            any_path().prop_map(|path| Op::Unbind { path }),
            (any_path(), any_path()).prop_map(|(from, to)| Op::Rename { from, to }),
            any_path().prop_map(|path| Op::CreateContext { path }),
            (any_path(), any_attrs()).prop_map(|(path, attrs)| Op::SetAttrs { path, attrs }),
        ]
    }

    fn any_proposal() -> impl Strategy<Value = Proposal> {
        (any::<u64>(), any_op()).prop_map(|(op_id, op)| Proposal { op_id, op })
    }

    proptest! {
        #[test]
        fn proposal_codec_roundtrips(p in any_proposal()) {
            let bytes = p.encode();
            prop_assert_eq!(bytes[0], VERSION);
            prop_assert_eq!(Proposal::decode(&bytes), Ok(p));
        }

        #[test]
        fn proposal_codec_reads_the_json_of_earlier_versions(p in any_proposal()) {
            let json = json_of(&p);
            prop_assert_eq!(json[0], JSON_OPEN);
            prop_assert_eq!(Proposal::decode(&json), Ok(p));
        }

        #[test]
        fn proposal_codec_rejects_every_prefix_and_any_suffix(
            p in any_proposal(),
            extra in any::<u8>(),
        ) {
            let bytes = p.encode();
            // Every cut of a small encoding; a spread of cuts of a 64 KiB one.
            let step = (bytes.len() / 512).max(1);
            for cut in (0..bytes.len()).step_by(step) {
                prop_assert!(Proposal::decode(&bytes[..cut]).is_err(), "prefix of {cut} bytes");
            }
            prop_assert!(Proposal::decode(&bytes[..bytes.len() - 1]).is_err());
            let mut longer = bytes;
            longer.push(extra);
            prop_assert_eq!(Proposal::decode(&longer), Err(DecodeError::Trailing(1)));
        }

        #[test]
        fn proposal_codec_survives_arbitrary_bytes(
            noise in proptest::collection::vec(any::<u8>(), 0..64),
            versioned in any::<bool>(),
            tag in 0u8..8,
        ) {
            // Bare noise mostly dies on the version byte; give half the
            // cases a valid head so the field readers see hostile lengths.
            let mut bytes = noise;
            if versioned {
                let mut head = vec![VERSION];
                head.extend_from_slice(&7u64.to_le_bytes());
                head.push(tag);
                head.extend_from_slice(&bytes);
                bytes = head;
            }
            if let Ok(p) = Proposal::decode(&bytes) {
                prop_assert_eq!(p.encode(), bytes, "what decodes is canonical");
            }
        }
    }

    #[test]
    fn hostile_lengths_are_refused_without_allocating_for_them() {
        // version, op id, Bind, then a path that claims 4 GiB.
        let mut bytes = vec![VERSION];
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.push(TAG_BIND);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(b"short");
        assert_eq!(
            Proposal::decode(&bytes),
            Err(DecodeError::Truncated("path"))
        );
        // SetAttrs on "p" whose map claims u32::MAX pairs.
        let mut bytes = vec![VERSION];
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.push(TAG_SET_ATTRS);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(b'p');
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Proposal::decode(&bytes),
            Err(DecodeError::Truncated("attribute count"))
        );
        for (bytes, what) in [
            (&[0x02u8, 0, 0][..], "proposal version"),
            (&[b'[', b']'][..], "proposal version"),
        ] {
            assert!(
                matches!(Proposal::decode(bytes), Err(DecodeError::UnknownTag { what: w, .. }) if w == what)
            );
        }
        assert_eq!(
            Proposal::decode(b"{\"op_id\":"),
            Err(DecodeError::Invalid("JSON-era proposal"))
        );
    }

    #[test]
    fn the_benchmark_rebind_record_is_a_third_of_its_json() {
        let p = Proposal {
            op_id: 123_456,
            op: Op::Bind {
                path: "n/k012345".into(),
                entry: HdnsEntry::leaf(vec![b'x'; 74]),
                overwrite: true,
            },
        };
        let (binary, json) = (p.encode().len(), json_of(&p).len());
        assert_eq!(binary, 106);
        assert!(json >= 3 * binary, "{json} JSON bytes vs {binary}");
    }
}
