//! Attribute search filters.
//!
//! JNDI mandates LDAP-style (RFC 2254) string filters for directory
//! searches; this module implements a lexer/parser, an evaluator over
//! [`Attributes`], and round-trippable printing. Comparisons are
//! case-insensitive; ordering comparisons (`>=`, `<=`) compare numerically
//! when both operands parse as numbers, lexicographically otherwise.

use std::fmt;

use crate::attrs::{AttrValue, Attributes};
use crate::error::{NamingError, Result};

/// A parsed search filter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Filter {
    /// `(&(f1)(f2)...)` — all must match. An empty `And` matches everything
    /// (the standard "absolute true" filter).
    And(Vec<Filter>),
    /// `(|(f1)(f2)...)` — at least one must match.
    Or(Vec<Filter>),
    /// `(!(f))`.
    Not(Box<Filter>),
    /// `(attr=*)` — the attribute is present.
    Present(String),
    /// `(attr=value)`.
    Eq(String, String),
    /// `(attr~=value)` — approximate match (case/whitespace-insensitive).
    Approx(String, String),
    /// `(attr>=value)`.
    Ge(String, String),
    /// `(attr<=value)`.
    Le(String, String),
    /// `(attr=ini*any*...*fin)` — substring match.
    Substring(String, SubstringPattern),
}

/// The pattern of a substring filter: optional anchored prefix/suffix and
/// any number of interior fragments, in order.
// Public as the payload of `Filter::Substring`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SubstringPattern {
    pub initial: Option<String>,
    pub any: Vec<String>,
    pub final_: Option<String>,
}

impl SubstringPattern {
    /// Whether `s` matches the pattern (case-insensitive).
    pub fn matches(&self, s: &str) -> bool {
        let s = s.to_ascii_lowercase();
        let mut pos = 0usize;
        if let Some(ini) = &self.initial {
            let ini = ini.to_ascii_lowercase();
            if !s.starts_with(&ini) {
                return false;
            }
            pos = ini.len();
        }
        for frag in &self.any {
            let frag = frag.to_ascii_lowercase();
            match s[pos..].find(&frag) {
                Some(at) => pos += at + frag.len(),
                None => return false,
            }
        }
        if let Some(fin) = &self.final_ {
            let fin = fin.to_ascii_lowercase();
            if s.len() < pos + fin.len() {
                return false;
            }
            return s.ends_with(&fin);
        }
        true
    }
}

impl Filter {
    /// The filter that matches every entry: `(&)`.
    pub fn always() -> Filter {
        Filter::And(Vec::new())
    }

    /// Parse an RFC 2254-style filter string.
    pub fn parse(input: &str) -> Result<Filter> {
        let mut p = Parser {
            src: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let f = p.filter()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after filter"));
        }
        Ok(f)
    }

    /// Evaluate against an attribute set.
    pub fn matches(&self, attrs: &Attributes) -> bool {
        match self {
            Filter::And(fs) => fs.iter().all(|f| f.matches(attrs)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(attrs)),
            Filter::Not(f) => !f.matches(attrs),
            Filter::Present(id) => attrs.contains(id),
            Filter::Eq(id, v) => any_value(attrs, id, |s| s.eq_ignore_ascii_case(v)),
            Filter::Approx(id, v) => {
                let want = normalize(v);
                any_value(attrs, id, |s| normalize(s) == want)
            }
            Filter::Ge(id, v) => {
                any_value(attrs, id, |s| compare(s, v) >= std::cmp::Ordering::Equal)
            }
            Filter::Le(id, v) => {
                any_value(attrs, id, |s| compare(s, v) <= std::cmp::Ordering::Equal)
            }
            Filter::Substring(id, pat) => any_value(attrs, id, |s| pat.matches(s)),
        }
    }
}

fn any_value(attrs: &Attributes, id: &str, pred: impl Fn(&str) -> bool) -> bool {
    attrs
        .get(id)
        .map(|a| {
            a.values.iter().any(|v| match v {
                AttrValue::Str(s) => pred(s),
                AttrValue::Bytes(_) => false,
            })
        })
        .unwrap_or(false)
}

fn normalize(s: &str) -> String {
    s.split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
        .to_ascii_lowercase()
}

/// Numeric comparison when both sides parse, otherwise case-insensitive
/// lexicographic.
fn compare(a: &str, b: &str) -> std::cmp::Ordering {
    match (a.trim().parse::<f64>(), b.trim().parse::<f64>()) {
        (Ok(x), Ok(y)) => x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal),
        _ => a.to_ascii_lowercase().cmp(&b.to_ascii_lowercase()),
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: &str) -> NamingError {
        NamingError::InvalidSearchFilter {
            filter: self.src.to_string(),
            reason: format!("{reason} (at byte {})", self.pos),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn filter(&mut self) -> Result<Filter> {
        self.expect(b'(')?;
        let f = match self.peek() {
            Some(b'&') => {
                self.bump();
                Filter::And(self.filter_list()?)
            }
            Some(b'|') => {
                self.bump();
                let list = self.filter_list()?;
                if list.is_empty() {
                    return Err(self.err("empty OR filter"));
                }
                Filter::Or(list)
            }
            Some(b'!') => {
                self.bump();
                Filter::Not(Box::new(self.filter()?))
            }
            Some(_) => self.item()?,
            None => return Err(self.err("unexpected end of filter")),
        };
        self.expect(b')')?;
        Ok(f)
    }

    fn filter_list(&mut self) -> Result<Vec<Filter>> {
        let mut out = Vec::new();
        self.skip_ws();
        while self.peek() == Some(b'(') {
            out.push(self.filter()?);
            self.skip_ws();
        }
        Ok(out)
    }

    fn item(&mut self) -> Result<Filter> {
        let attr = self.attr_name()?;
        let op = match (self.bump(), self.peek()) {
            (Some(b'='), _) => b'=',
            (Some(b'~'), Some(b'=')) => {
                self.bump();
                b'~'
            }
            (Some(b'>'), Some(b'=')) => {
                self.bump();
                b'>'
            }
            (Some(b'<'), Some(b'=')) => {
                self.bump();
                b'<'
            }
            _ => return Err(self.err("expected =, ~=, >= or <=")),
        };
        let (value, wildcards) = self.value()?;
        match op {
            b'~' => Ok(Filter::Approx(attr, value)),
            b'>' => Ok(Filter::Ge(attr, value)),
            b'<' => Ok(Filter::Le(attr, value)),
            b'=' => {
                if !wildcards {
                    Ok(Filter::Eq(attr, value))
                } else if value == "\u{0}" {
                    // Single '*' (encoded below as NUL sentinel): presence.
                    Ok(Filter::Present(attr))
                } else {
                    Ok(Filter::Substring(attr, split_pattern(&value)))
                }
            }
            _ => unreachable!(),
        }
    }

    fn attr_name(&mut self) -> Result<String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'=' | b'~' | b'>' | b'<' | b'(' | b')' | b'*') {
                break;
            }
            self.pos += 1;
        }
        let name = self.src[start..self.pos].trim();
        if name.is_empty() {
            return Err(self.err("empty attribute name"));
        }
        Ok(name.to_string())
    }

    /// Parse a value up to `)`. Returns the decoded value and whether any
    /// unescaped `*` appeared. Unescaped `*` characters are preserved
    /// in-band; escaped characters (`\xx` hex pairs) are decoded and can
    /// never be confused with wildcards because a decoded `*` is re-escaped
    /// on display. A value that is exactly one `*` is reported via the NUL
    /// sentinel so the caller can distinguish presence from substring.
    fn value(&mut self) -> Result<(String, bool)> {
        let mut out = String::new();
        let mut stars = 0usize;
        let mut non_star = false;
        while let Some(b) = self.peek() {
            match b {
                b')' => break,
                b'(' => return Err(self.err("unescaped '(' in value")),
                b'\\' => {
                    self.bump();
                    let hi = self.bump().ok_or_else(|| self.err("truncated escape"))?;
                    let lo = self.bump().ok_or_else(|| self.err("truncated escape"))?;
                    let hex = [hi, lo];
                    let s = std::str::from_utf8(&hex).map_err(|_| self.err("bad escape"))?;
                    let byte = u8::from_str_radix(s, 16).map_err(|_| self.err("bad hex escape"))?;
                    out.push(byte as char);
                    non_star = true;
                }
                b'*' => {
                    self.bump();
                    out.push('*');
                    stars += 1;
                }
                _ => {
                    self.bump();
                    out.push(b as char);
                    non_star = true;
                }
            }
        }
        if stars > 0 && !non_star && stars == 1 {
            return Ok(("\u{0}".to_string(), true));
        }
        Ok((out, stars > 0))
    }
}

/// Split a wildcard-bearing value into a [`SubstringPattern`].
fn split_pattern(value: &str) -> SubstringPattern {
    let parts: Vec<&str> = value.split('*').collect();
    let n = parts.len();
    let mut pat = SubstringPattern::default();
    for (i, p) in parts.iter().enumerate() {
        if p.is_empty() {
            continue;
        }
        if i == 0 {
            pat.initial = Some(p.to_string());
        } else if i == n - 1 {
            pat.final_ = Some(p.to_string());
        } else {
            pat.any.push(p.to_string());
        }
    }
    pat
}

/// Escape special characters in a filter value for display.
fn escape_value(v: &str, out: &mut String) {
    for c in v.chars() {
        match c {
            '*' => out.push_str("\\2a"),
            '(' => out.push_str("\\28"),
            ')' => out.push_str("\\29"),
            '\\' => out.push_str("\\5c"),
            '\u{0}' => out.push_str("\\00"),
            _ => out.push(c),
        }
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write_to(&mut s);
        f.write_str(&s)
    }
}

impl Filter {
    fn write_to(&self, out: &mut String) {
        out.push('(');
        match self {
            Filter::And(fs) => {
                out.push('&');
                for x in fs {
                    x.write_to(out);
                }
            }
            Filter::Or(fs) => {
                out.push('|');
                for x in fs {
                    x.write_to(out);
                }
            }
            Filter::Not(x) => {
                out.push('!');
                x.write_to(out);
            }
            Filter::Present(a) => {
                out.push_str(a);
                out.push_str("=*");
            }
            Filter::Eq(a, v) => {
                out.push_str(a);
                out.push('=');
                escape_value(v, out);
            }
            Filter::Approx(a, v) => {
                out.push_str(a);
                out.push_str("~=");
                escape_value(v, out);
            }
            Filter::Ge(a, v) => {
                out.push_str(a);
                out.push_str(">=");
                escape_value(v, out);
            }
            Filter::Le(a, v) => {
                out.push_str(a);
                out.push_str("<=");
                escape_value(v, out);
            }
            Filter::Substring(a, p) => {
                out.push_str(a);
                out.push('=');
                if let Some(i) = &p.initial {
                    escape_value(i, out);
                }
                out.push('*');
                for frag in &p.any {
                    escape_value(frag, out);
                    out.push('*');
                }
                if let Some(fin) = &p.final_ {
                    escape_value(fin, out);
                }
            }
        }
        out.push(')');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::Attributes;

    fn node() -> Attributes {
        Attributes::new()
            .with("cpu", "8")
            .with("os", "Linux")
            .with("host", "node01.mathcs.emory.edu")
    }

    #[test]
    fn simple_eq() {
        let f = Filter::parse("(os=linux)").unwrap();
        assert!(f.matches(&node()), "case-insensitive match");
        assert!(!Filter::parse("(os=windows)").unwrap().matches(&node()));
    }

    #[test]
    fn presence() {
        assert!(Filter::parse("(cpu=*)").unwrap().matches(&node()));
        assert!(!Filter::parse("(gpu=*)").unwrap().matches(&node()));
        assert_eq!(
            Filter::parse("(cpu=*)").unwrap(),
            Filter::Present("cpu".into())
        );
    }

    #[test]
    fn numeric_ordering() {
        assert!(Filter::parse("(cpu>=4)").unwrap().matches(&node()));
        assert!(Filter::parse("(cpu<=8)").unwrap().matches(&node()));
        assert!(!Filter::parse("(cpu>=16)").unwrap().matches(&node()));
        // "8" >= "10" numerically false even though lexicographically true.
        let attrs = Attributes::new().with("n", "8");
        assert!(!Filter::parse("(n>=10)").unwrap().matches(&attrs));
    }

    #[test]
    fn lexicographic_fallback() {
        let attrs = Attributes::new().with("name", "delta");
        assert!(Filter::parse("(name>=alpha)").unwrap().matches(&attrs));
        assert!(!Filter::parse("(name<=alpha)").unwrap().matches(&attrs));
    }

    #[test]
    fn boolean_combinators() {
        let f = Filter::parse("(&(os=Linux)(cpu>=4))").unwrap();
        assert!(f.matches(&node()));
        let f = Filter::parse("(|(os=windows)(cpu=8))").unwrap();
        assert!(f.matches(&node()));
        let f = Filter::parse("(!(os=Linux))").unwrap();
        assert!(!f.matches(&node()));
        assert!(
            Filter::parse("(&)").unwrap().matches(&node()),
            "empty AND is true"
        );
    }

    #[test]
    fn substrings() {
        let f = Filter::parse("(host=node*emory*)").unwrap();
        assert!(f.matches(&node()));
        let f = Filter::parse("(host=*edu)").unwrap();
        assert!(f.matches(&node()));
        let f = Filter::parse("(host=*mathcs*)").unwrap();
        assert!(f.matches(&node()));
        let f = Filter::parse("(host=node*gatech*)").unwrap();
        assert!(!f.matches(&node()));
    }

    #[test]
    fn substring_ordering_of_fragments() {
        let attrs = Attributes::new().with("s", "abcdef");
        assert!(Filter::parse("(s=a*c*e*)").unwrap().matches(&attrs));
        assert!(
            !Filter::parse("(s=a*e*c*)").unwrap().matches(&attrs),
            "fragments must appear in order"
        );
        assert!(Filter::parse("(s=*f)").unwrap().matches(&attrs));
        assert!(!Filter::parse("(s=*g)").unwrap().matches(&attrs));
    }

    #[test]
    fn approx_normalizes() {
        let attrs = Attributes::new().with("desc", "High  Performance   Cluster");
        assert!(Filter::parse("(desc~=high performance cluster)")
            .unwrap()
            .matches(&attrs));
        assert!(!Filter::parse("(desc=high performance cluster)")
            .unwrap()
            .matches(&attrs));
    }

    #[test]
    fn hex_escapes() {
        // Match a literal '*' via the \2a escape.
        let attrs = Attributes::new().with("v", "a*b");
        let f = Filter::parse(r"(v=a\2ab)").unwrap();
        assert_eq!(f, Filter::Eq("v".into(), "a*b".into()));
        assert!(f.matches(&attrs));
        // Display re-escapes.
        assert_eq!(f.to_string(), r"(v=a\2ab)");
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "", "()", "(a)", "(=x)", "(a=b", "a=b", "(a=b))", "((a=b)", "(|)", r"(a=\2)", "(a=(b)",
            "(&(a=b)",
        ] {
            assert!(Filter::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn display_roundtrip() {
        for s in [
            "(a=b)",
            "(&(a=b)(c>=3))",
            "(|(x~=y)(!(z<=9)))",
            "(cpu=*)",
            "(host=a*b*c)",
            "(host=*mid*)",
        ] {
            let f = Filter::parse(s).unwrap();
            let printed = f.to_string();
            assert_eq!(Filter::parse(&printed).unwrap(), f, "roundtrip of {s}");
        }
    }

    #[test]
    fn multivalued_any_semantics() {
        let mut attrs = Attributes::new();
        attrs.add_value("member", "alice");
        attrs.add_value("member", "bob");
        assert!(Filter::parse("(member=bob)").unwrap().matches(&attrs));
        assert!(!Filter::parse("(member=carol)").unwrap().matches(&attrs));
    }
}
