//! A tiny parser for the Prometheus-style text exposition that
//! [`crate::snapshot::MetricsSnapshot::render`] produces. Tests and the CI
//! smoke job use it to assert the exposition is non-empty and well-formed
//! instead of string-grepping.

/// One parsed sample line: `name{labels} value`.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_labels(s: &str, line_no: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = s;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {line_no}: label without '='"))?;
        let key = rest[..eq].trim().to_string();
        if !valid_metric_name(&key) {
            return Err(format!("line {line_no}: bad label name {key:?}"));
        }
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| format!("line {line_no}: label value must be quoted"))?;
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, escaped)) => value.push(escaped),
                    None => return Err(format!("line {line_no}: dangling escape")),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or_else(|| format!("line {line_no}: unterminated label value"))?;
        labels.push((key, value));
        rest = rest[end + 1..].trim_start_matches(',');
    }
    Ok(labels)
}

/// Parse exposition text into samples. Comment lines (`# TYPE`, `# HELP`)
/// are validated for shape and skipped; blank lines are skipped; anything
/// else must be a well-formed sample line or the whole parse fails.
pub fn parse(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            // HELP and free-form comments pass through unvalidated.
            if let Some("TYPE") = words.next() {
                let name = words
                    .next()
                    .ok_or_else(|| format!("line {line_no}: TYPE without a name"))?;
                if !valid_metric_name(name) {
                    return Err(format!("line {line_no}: bad metric name {name:?}"));
                }
                match words.next() {
                    Some("counter" | "gauge" | "histogram" | "summary" | "untyped") => {}
                    other => return Err(format!("line {line_no}: bad TYPE kind {other:?}")),
                }
            }
            continue;
        }
        let (name_part, rest) = match line.find('{') {
            Some(brace) => {
                let close = line
                    .rfind('}')
                    .ok_or_else(|| format!("line {line_no}: unclosed label block"))?;
                if close < brace {
                    return Err(format!("line {line_no}: mismatched braces"));
                }
                (
                    &line[..brace],
                    Some((&line[brace + 1..close], &line[close + 1..])),
                )
            }
            None => (line.split_whitespace().next().unwrap_or(""), None),
        };
        if !valid_metric_name(name_part) {
            return Err(format!("line {line_no}: bad metric name {name_part:?}"));
        }
        let (labels, value_part) = match rest {
            Some((labels_str, tail)) => (parse_labels(labels_str, line_no)?, tail.trim()),
            None => (Vec::new(), line[name_part.len()..].trim()),
        };
        if value_part.is_empty() {
            return Err(format!("line {line_no}: sample without a value"));
        }
        let value = match value_part {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v
                .split_whitespace()
                .next()
                .unwrap_or("")
                .parse()
                .map_err(|_| format!("line {line_no}: bad value {v:?}"))?,
        };
        samples.push(Sample {
            name: name_part.to_string(),
            labels,
            value,
        });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_samples_with_and_without_labels() {
        let text = "\
# TYPE rndi_ops_total counter
rndi_ops_total{provider=\"jini:h1\",op=\"lookup\"} 42
# HELP free-form text is ignored
rndi_up 1
rndi_latency_bucket{le=\"+Inf\"} 7
";
        let samples = parse(text).unwrap();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].name, "rndi_ops_total");
        assert_eq!(samples[0].label("provider"), Some("jini:h1"));
        assert_eq!(samples[0].value, 42.0);
        assert_eq!(samples[1].labels, vec![]);
        assert_eq!(samples[2].label("le"), Some("+Inf"));
    }

    #[test]
    fn unescapes_label_values() {
        let samples = parse("m{k=\"a\\\"b\\\\c\\nd\"} 1").unwrap();
        assert_eq!(samples[0].label("k"), Some("a\"b\\c\nd"));
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "1bad_name 3",
            "name{unclosed=\"v\" 3",
            "name{k=unquoted} 3",
            "name",
            "name{k=\"v\"} notanumber",
            "# TYPE name nonsense",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn empty_input_is_empty_not_error() {
        assert_eq!(parse("").unwrap(), vec![]);
        assert_eq!(parse("\n# HELP x\n").unwrap(), vec![]);
    }
}
