//! The value and attribute codecs against their oracle, the JSON their
//! earlier versions wrote (`serde_json` over the same types). For every
//! `StoredValue` variant and for typed attribute sets and value lists: the
//! encoding decodes to what was encoded (a float by its bits), is UTF-8,
//! starts with no byte a JSON text can start with, and the JSON-era form of
//! the same value decodes to it too. Every strict prefix of an encoding with
//! more than one field is refused. Noise (an encoding with a byte changed,
//! and arbitrary bytes behind a tag) never panics, and tagged noise decodes
//! only when it is the encoding of what it decodes to: the codec reads no
//! second spelling of a value, so bytes it never wrote stay foreign. A
//! failure prints the runner's seed and the case shrunk to the smallest one
//! that still fails.

use proptest::prelude::*;
use rndi_core::attrs::{AttrValue, Attribute, Attributes};
use rndi_core::value::{RefAddr, Reference, StoredValue};
use serde_json::Value;

/// Characters a field can hold: control characters, every tag byte, JSON's
/// start bytes, a multi-byte letter, a symbol and an emoji.
const CHARS: [char; 24] = [
    '\0', '\u{1}', '\u{2}', '\u{3}', '\u{4}', '\u{5}', '\u{6}', '\u{7}', '\u{8}', '\u{10}',
    '\u{11}', '\u{1f}', '\t', '\n', ' ', '"', '{', '[', '-', '7', 'a', 'é', '€', '🦀',
];

/// The empty string, and strings over [`CHARS`].
fn any_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..CHARS.len(), 0..10)
        .prop_map(|picks| picks.into_iter().map(|i| CHARS[i]).collect())
}

fn any_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(-0.0),
        Just(0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::MIN_POSITIVE),
        Just(-1e300),
        any::<u64>().prop_map(f64::from_bits),
        any::<f64>(),
    ]
}

/// JSON trees two levels deep, of numbers JSON can write.
fn any_json() -> impl Strategy<Value = Value> {
    let leaf = || {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::from),
            any::<f64>().prop_map(|f| Value::from(f * 1e6 - 5e5)),
            any_text().prop_map(Value::String),
        ]
    };
    prop_oneof![
        2 => leaf(),
        1 => proptest::collection::vec(leaf(), 0..4).prop_map(Value::Array),
        1 => proptest::collection::vec((any_text(), leaf()), 0..4)
            .prop_map(|pairs| Value::Object(pairs.into_iter().collect())),
    ]
}

fn any_reference() -> impl Strategy<Value = Reference> {
    (
        any_text(),
        proptest::collection::vec((any_text(), any_text()), 0..4),
        proptest::option::of(any_text()),
    )
        .prop_map(|(class_name, addrs, factory)| Reference {
            class_name,
            addrs: addrs
                .into_iter()
                .map(|(addr_type, content)| RefAddr { addr_type, content })
                .collect(),
            factory,
        })
}

fn any_value() -> impl Strategy<Value = StoredValue> {
    prop_oneof![
        Just(StoredValue::Null),
        any_text().prop_map(StoredValue::Str),
        prop_oneof![Just(i64::MIN), Just(i64::MAX), any::<i64>()].prop_map(StoredValue::I64),
        any_float().prop_map(StoredValue::F64),
        any::<bool>().prop_map(StoredValue::Bool),
        proptest::collection::vec(any::<u8>(), 0..12).prop_map(StoredValue::Bytes),
        any_json().prop_map(StoredValue::Json),
        any_reference().prop_map(StoredValue::Reference),
        Just(StoredValue::Reference(Reference::url(
            "ldap://dir/ou=d0000"
        ))),
    ]
}

fn any_attr_value() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        any_text().prop_map(AttrValue::Str),
        proptest::collection::vec(any::<u8>(), 0..6).prop_map(AttrValue::Bytes),
    ]
}

fn any_attrs() -> impl Strategy<Value = Attributes> {
    let id = "[a-zA-Z]{0,4}";
    proptest::collection::vec(
        (id, proptest::collection::vec(any_attr_value(), 0..4)),
        0..4,
    )
    .prop_map(|attrs| {
        attrs
            .into_iter()
            .map(|(id, values)| Attribute { id, values })
            .collect()
    })
}

#[derive(Clone, Debug)]
enum Case {
    Value(StoredValue),
    Attrs(Attributes),
}

/// Equal, with floats compared by their bits (NaN is itself, -0.0 is not 0.0).
fn same(a: &StoredValue, b: &StoredValue) -> bool {
    match (a, b) {
        (StoredValue::F64(x), StoredValue::F64(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Bytes a JSON text can start with: its whitespace, and the first byte of
/// each of its values.
fn json_can_start_with(b: u8) -> bool {
    matches!(
        b,
        b' ' | b'\t' | b'\n' | b'\r' | b'{' | b'[' | b'"' | b'-' | b'0'..=b'9' | b't' | b'f' | b'n'
    )
}

/// What is wrong with the codec on `case`, if anything.
fn misread(case: &Case) -> Option<String> {
    // (the encoding, whether it has more than one field, whether it decodes
    // to the case, the JSON-era form when JSON can write the case, and
    // whether that decodes to it)
    let (encoding, fields, back, json, json_back): (Vec<u8>, bool, bool, Option<Vec<u8>>, bool) =
        match case {
            Case::Value(v) => {
                let encoding = v.encode();
                let back = StoredValue::decode(&encoding).is_some_and(|d| same(&d, v));
                let json = match v {
                    StoredValue::F64(f) if !f.is_finite() => None,
                    _ => Some(serde_json::to_vec(v).unwrap()),
                };
                let json_back = json
                    .as_deref()
                    .is_none_or(|j| StoredValue::decode(j).is_some_and(|d| same(&d, v)));
                let fields = matches!(v, StoredValue::Reference(_));
                (encoding, fields, back, json, json_back)
            }
            Case::Attrs(a) => {
                let encoding = a.encode().into_bytes();
                let back =
                    Attributes::decode(std::str::from_utf8(&encoding).unwrap()) == Some(a.clone());
                let json = serde_json::to_string(a).unwrap();
                let json_back = Attributes::decode(&json) == Some(a.clone());
                // Each attribute's value list, as a replica stores it.
                for attr in a.iter() {
                    let text = attr.encode_values();
                    if Attribute::decode_values(&attr.id, &text).as_ref() != Some(attr) {
                        return Some(format!(
                            "{attr:?}'s values read back otherwise from {text:?}"
                        ));
                    }
                    for end in 1..text.len() {
                        if text.is_char_boundary(end)
                            && Attribute::decode_values(&attr.id, &text[..end]).is_some()
                        {
                            return Some(format!(
                                "{attr:?}'s values: the prefix {:?} decodes",
                                &text[..end]
                            ));
                        }
                    }
                    let strs: Option<Vec<&str>> =
                        attr.values.iter().map(AttrValue::as_str).collect();
                    if let Some(strs) = strs {
                        let json = serde_json::to_string(&strs).unwrap();
                        if Attribute::decode_values(&attr.id, &json).as_ref() != Some(attr) {
                            return Some(format!(
                                "{attr:?}'s JSON-era values {json:?} read back otherwise"
                            ));
                        }
                    }
                }
                (encoding, true, back, Some(json.into_bytes()), json_back)
            }
        };
    if !back {
        return Some(format!(
            "the encoding {encoding:?} does not decode to the case"
        ));
    }
    if std::str::from_utf8(&encoding).is_err() {
        return Some(format!("the encoding {encoding:?} is not UTF-8"));
    }
    if encoding.first().is_none_or(|b| json_can_start_with(*b)) {
        return Some(format!("the encoding {encoding:?} starts as JSON may"));
    }
    if !json_back {
        return Some(format!(
            "the JSON-era form {:?} does not decode to the case",
            json.map(String::from_utf8)
        ));
    }
    if fields {
        for end in 1..encoding.len() {
            let prefix = &encoding[..end];
            let decodes = match case {
                Case::Value(_) => StoredValue::decode(prefix).is_some(),
                Case::Attrs(_) => {
                    std::str::from_utf8(prefix).is_ok_and(|t| Attributes::decode(t).is_some())
                }
            };
            if decodes {
                return Some(format!("the strict prefix {prefix:?} decodes"));
            }
        }
    }
    None
}

/// Cases one step simpler than `case`.
fn simpler(case: &Case) -> Vec<Case> {
    fn shorter(s: &str) -> Vec<String> {
        s.char_indices()
            .map(|(i, c)| format!("{}{}", &s[..i], &s[i + c.len_utf8()..]))
            .collect()
    }
    let mut out = Vec::new();
    match case {
        Case::Value(StoredValue::Str(s)) => {
            out.extend(
                shorter(s)
                    .into_iter()
                    .map(|s| Case::Value(StoredValue::Str(s))),
            );
        }
        Case::Value(StoredValue::Bytes(b)) => {
            for i in 0..b.len() {
                let mut fewer = b.clone();
                fewer.remove(i);
                out.push(Case::Value(StoredValue::Bytes(fewer)));
            }
        }
        Case::Value(StoredValue::Json(Value::Array(items))) => {
            for i in 0..items.len() {
                let mut fewer = items.clone();
                fewer.remove(i);
                out.push(Case::Value(StoredValue::Json(Value::Array(fewer))));
            }
        }
        Case::Value(StoredValue::Reference(r)) => {
            let with = |f: &dyn Fn(&mut Reference)| {
                let mut r = r.clone();
                f(&mut r);
                Case::Value(StoredValue::Reference(r))
            };
            if let Some(factory) = &r.factory {
                out.push(with(&|r| r.factory = None));
                for s in shorter(factory) {
                    out.push(with(&|r| r.factory = Some(s.clone())));
                }
            }
            for i in 0..r.addrs.len() {
                out.push(with(&|r| {
                    r.addrs.remove(i);
                }));
            }
            for s in shorter(&r.class_name) {
                out.push(with(&|r| r.class_name = s.clone()));
            }
        }
        Case::Attrs(a) => {
            for attr in a.iter() {
                let mut fewer = a.clone();
                fewer.remove(&attr.id);
                out.push(Case::Attrs(fewer));
                for i in 0..attr.values.len() {
                    let mut values = attr.values.clone();
                    values.remove(i);
                    let mut fewer = a.clone();
                    fewer.put(Attribute {
                        id: attr.id.clone(),
                        values,
                    });
                    out.push(Case::Attrs(fewer));
                }
            }
        }
        Case::Value(_) => {}
    }
    out
}

/// `case` made simpler for as long as it still fails.
fn shrink(mut case: Case) -> Case {
    while let Some(next) = simpler(&case).into_iter().find(|c| misread(c).is_some()) {
        case = next;
    }
    case
}

fn check(case: Case) -> Result<(), proptest::TestCaseError> {
    if misread(&case).is_some() {
        let shrunk = shrink(case);
        let why = misread(&shrunk).unwrap_or_default();
        prop_assert!(false, "{why}\nshrunk case: {shrunk:#?}");
    }
    Ok(())
}

/// An encoding with the byte at `at` replaced, or noise behind a tag.
fn noise(case: &Case, at: usize, byte: u8, tail: &[u8]) -> Vec<Vec<u8>> {
    let mut changed = match case {
        Case::Value(v) => v.encode(),
        Case::Attrs(a) => a.encode().into_bytes(),
    };
    let at = at % changed.len();
    changed[at] = byte;
    let mut noisy = Vec::new();
    for tag in [
        0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x10, 0x11, 0x00, b'{', b'[',
    ] {
        noisy.push([&[tag][..], tail].concat());
    }
    noisy.push(changed);
    noisy
}

proptest! {
    #[test]
    fn the_codec_reads_every_value_back_from_its_encoding_and_its_json(value in any_value()) {
        check(Case::Value(value))?;
    }

    #[test]
    fn the_codec_reads_every_attribute_set_back_from_its_encoding_and_its_json(attrs in any_attrs()) {
        check(Case::Attrs(attrs))?;
    }

    #[test]
    fn the_codec_decodes_or_refuses_noise_and_never_panics(
        value in any_value(),
        attrs in any_attrs(),
        at in any::<usize>(),
        byte in any::<u8>(),
        tail in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        for case in [Case::Value(value), Case::Attrs(attrs)] {
            for bytes in noise(&case, at, byte, &tail) {
                if let Some(v) = StoredValue::decode(&bytes) {
                    let tagged = (0x01..=0x08).contains(&bytes[0]);
                    prop_assert!(!tagged || v.encode() == bytes, "{bytes:?} decodes to {v:?}");
                }
                let text = String::from_utf8_lossy(&bytes);
                if let Some(a) = Attributes::decode(&text) {
                    let tagged = text.starts_with('\u{10}');
                    prop_assert!(!tagged || a.encode() == text, "{text:?} decodes to {a:?}");
                }
                if let Some(a) = Attribute::decode_values("id", &text) {
                    let tagged = text.starts_with('\u{11}');
                    prop_assert!(!tagged || a.encode_values() == text, "{text:?} decodes to {a:?}");
                }
            }
        }
    }
}

#[test]
fn the_codec_reads_fixed_cases_back() {
    let values = [
        StoredValue::Str(String::new()),
        StoredValue::F64(f64::NAN),
        StoredValue::F64(-0.0),
        StoredValue::Reference(Reference {
            class_name: "Printer".into(),
            addrs: vec![
                RefAddr {
                    addr_type: "URL".into(),
                    content: "hdns://h/p".into(),
                },
                RefAddr {
                    addr_type: "queue".into(),
                    content: "q\u{1}\u{8}".into(),
                },
            ],
            factory: Some("PrinterFactory".into()),
        }),
    ];
    for value in values {
        if let Some(why) = misread(&Case::Value(value.clone())) {
            panic!("{value:?}: {why}");
        }
    }
    let attrs = Attributes::new()
        .with("os", "")
        .with("cert", AttrValue::Bytes(vec![0, 0x10, 0xff]));
    assert_eq!(misread(&Case::Attrs(attrs)), None);
}

#[test]
fn the_codec_refuses_forms_it_never_writes() {
    let overflow = [&[0x08][..], &[0x20; 12], &[0x10, 0x00, 0x00]].concat();
    let values: [&[u8]; 14] = [
        b"\x03+5",
        b"\x03007",
        b"\x03-0",
        b"\x03-",
        b"\x03",
        b"\x04000000000000000A",
        b"\x06AB",
        b"\x06abc",
        b"\x07[1, 2]",
        b"\x07{\"a\":1,\"a\":2}",
        // A class name's length with a zero high digit.
        b"\x08\x21\x00a\x00\x00",
        // Thirteen digits whose last holds more bits than a u64 has left.
        &overflow,
        b"\x05true",
        b"\x01\x01",
    ];
    for bytes in values {
        assert_eq!(StoredValue::decode(bytes), None, "{bytes:?} decodes");
    }
    let sets = [
        // `b` before `a`, and `a` twice (once as `A`).
        "\u{10}\u{2}\u{1}b\u{0}\u{1}a\u{0}",
        "\u{10}\u{2}\u{1}a\u{0}\u{1}A\u{0}",
        // The value count with a zero high digit.
        "\u{10}\u{1}\u{1}a\u{20}\u{0}",
    ];
    for text in sets {
        assert_eq!(Attributes::decode(text), None, "{text:?} decodes");
    }
    assert_eq!(Attribute::decode_values("id", "\u{11}\u{1}\u{5}AB"), None);
}
