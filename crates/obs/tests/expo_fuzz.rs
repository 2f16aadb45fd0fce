//! Fuzz-style hardening for the observability text surface: the
//! exposition parser must return errors on malformed or truncated input —
//! never panic, never read out of bounds.

use proptest::prelude::*;

use rndi_obs::expo;

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
    fn parse_survives_truncation(cut in 0usize..500) {
        let mut text = String::new();
        expo::write_sample(
            &mut text,
            "rndi_fuzz_total",
            &[("provider", "a\"b\\c\nd"), ("op", "lookup")],
            42.5,
        );
        text.push_str("# TYPE rndi_fuzz_total counter\n");
        expo::write_sample(&mut text, "rndi_plain", &[], f64::INFINITY);
        let cut = cut.min(text.len());
        // Truncation may land inside a multi-byte char; use a lossy view
        // the way a scrape buffer would.
        let truncated = String::from_utf8_lossy(&text.as_bytes()[..cut]);
        let _ = expo::parse(&truncated);
    }

    /// Everything write_sample can emit, parse accepts and round-trips.
    #[test]
    fn write_sample_output_always_reparses(
        name in proptest::string::string_regex("[a-z_][a-z0-9_:]{0,20}").expect("regex"),
        labels in proptest::collection::vec(
            (
                proptest::string::string_regex("[a-z_][a-z0-9_]{0,10}").expect("regex"),
                "[ -~]{0,12}",
            ),
            0..4,
        ),
        value in any::<i32>().prop_map(|v| v as f64),
    ) {
        let mut text = String::new();
        let borrowed: Vec<(&str, &str)> =
            labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        expo::write_sample(&mut text, &name, &borrowed, value);
        let samples = expo::parse(&text).expect("emitted sample reparses");
        prop_assert_eq!(samples.len(), 1);
        prop_assert_eq!(&samples[0].name, &name);
        prop_assert_eq!(samples[0].labels.len(), labels.len());
        for ((k, v), (pk, pv)) in labels.iter().zip(&samples[0].labels) {
            prop_assert_eq!(k, pk);
            prop_assert_eq!(v, pv);
        }
        prop_assert_eq!(samples[0].value, value);
    }
}
