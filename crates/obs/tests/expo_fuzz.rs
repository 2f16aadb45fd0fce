//! Fuzz-style hardening for the observability text surface: the
//! exposition parser must return errors on malformed or truncated input —
//! never panic, never read out of bounds — and must read back exactly what
//! the one renderer, `Registry::render`, writes.

use proptest::prelude::*;

use rndi_obs::{expo, Registry};

proptest! {
    /// Arbitrary text (including multi-byte characters, braces, quotes,
    /// backslashes) parses to Ok or Err — never a panic.
    #[test]
    fn parse_never_panics_on_arbitrary_text(text in ".*") {
        let _ = expo::parse(&text);
    }

    /// Hostile almost-exposition text built from the tokens the parser
    /// cares about, in random order.
    #[test]
    fn parse_never_panics_on_token_soup(
        tokens in proptest::collection::vec(
            prop_oneof![
                Just("{".to_string()),
                Just("}".to_string()),
                Just("\"".to_string()),
                Just("\\".to_string()),
                Just("=".to_string()),
                Just(",".to_string()),
                Just("# TYPE".to_string()),
                Just("+Inf".to_string()),
                Just("NaN".to_string()),
                Just("\n".to_string()),
                Just(" ".to_string()),
                proptest::string::string_regex("[a-z_]{1,8}").expect("regex"),
                proptest::string::string_regex("[0-9.eE+-]{1,8}").expect("regex"),
            ],
            0..40,
        )
    ) {
        let _ = expo::parse(&tokens.concat());
    }

    /// Truncating a *valid* exposition at any byte must not panic (the
    /// common failure when a scrape is cut off mid-line).
    #[test]
    fn parse_survives_truncation(cut in 0usize..1000) {
        let r = Registry::new();
        r.counter("rndi_fuzz_total", &[("provider", "a\"b\\c\nd"), ("op", "lookup")])
            .add(42);
        r.gauge("rndi_plain", &[]).set(-1);
        let h = r.histogram("rndi_fuzz_ns", &[("op", "lookup")]);
        h.record(3);
        h.record(1_000_000);
        let text = r.render();
        let cut = cut.min(text.len());
        // Truncation may land inside a multi-byte char; use a lossy view
        // the way a scrape buffer would.
        let truncated = String::from_utf8_lossy(&text.as_bytes()[..cut]);
        let _ = expo::parse(&truncated);
    }

    /// Everything the registry renders, parse accepts and round-trips:
    /// random names, label values with quotes, backslashes and newlines,
    /// and values.
    #[test]
    fn registry_render_always_reparses(
        name in proptest::string::string_regex("[a-z_][a-z0-9_:]{0,20}").expect("regex"),
        labels in proptest::collection::vec(
            (
                proptest::string::string_regex("[a-z_][a-z0-9_]{0,10}").expect("regex"),
                "[ -~\n]{0,12}",
            ),
            0..4,
        ),
        value in any::<i32>(),
    ) {
        let r = Registry::new();
        let borrowed: Vec<(&str, &str)> =
            labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        r.gauge(&name, &borrowed).set(value.into());
        let samples = expo::parse(&r.render()).expect("rendered text reparses");
        prop_assert_eq!(samples.len(), 1);
        prop_assert_eq!(&samples[0].name, &name);
        let mut sorted = labels.clone();
        sorted.sort();
        prop_assert_eq!(&samples[0].labels, &sorted);
        prop_assert_eq!(samples[0].value, f64::from(value));
    }
}
