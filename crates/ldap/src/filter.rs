//! RFC 2254 search filters, evaluated over [`LdapEntry`] values.
//!
//! Independent from the `rndi-core` filter module on purpose: this crate
//! models a pre-existing server with its own (similar but separately
//! evolved) filter dialect, as real OpenLDAP is to real JNDI.

use crate::entry::LdapEntry;

/// A parsed filter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LdapFilter {
    And(Vec<LdapFilter>),
    Or(Vec<LdapFilter>),
    Not(Box<LdapFilter>),
    Present(String),
    Equality(String, String),
    Greater(String, String),
    Less(String, String),
    Approx(String, String),
    /// `attr=*sub*strings*` — fragments in order; empty leading/trailing
    /// fragment means unanchored.
    Substrings {
        attr: String,
        initial: Option<String>,
        any: Vec<String>,
        final_: Option<String>,
    },
}

impl LdapFilter {
    /// `(objectClass=*)` — the conventional match-all filter.
    pub fn match_all() -> LdapFilter {
        LdapFilter::Present("objectClass".into())
    }

    /// Parse an RFC 2254 filter string.
    pub fn parse(s: &str) -> Result<LdapFilter, String> {
        let mut p = P {
            b: s.as_bytes(),
            i: 0,
        };
        let f = p.filter()?;
        if p.i != p.b.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(f)
    }

    /// Evaluate against an entry.
    pub fn matches(&self, e: &LdapEntry) -> bool {
        match self {
            LdapFilter::And(fs) => fs.iter().all(|f| f.matches(e)),
            LdapFilter::Or(fs) => fs.iter().any(|f| f.matches(e)),
            LdapFilter::Not(f) => !f.matches(e),
            LdapFilter::Present(a) => e.has(a),
            LdapFilter::Equality(a, v) => e.has_value(a, v),
            LdapFilter::Greater(a, v) => any_val(e, a, |x| ord(x, v).is_ge()),
            LdapFilter::Less(a, v) => any_val(e, a, |x| ord(x, v).is_le()),
            LdapFilter::Approx(a, v) => any_val(e, a, |x| squash(x) == squash(v)),
            LdapFilter::Substrings {
                attr,
                initial,
                any,
                final_,
            } => any_val(e, attr, |x| {
                sub_match(x, initial.as_deref(), any, final_.as_deref())
            }),
        }
    }
}

fn any_val(e: &LdapEntry, attr: &str, pred: impl Fn(&str) -> bool) -> bool {
    e.get(attr).is_some_and(|a| a.values().any(pred))
}

fn ord(a: &str, b: &str) -> std::cmp::Ordering {
    match (a.trim().parse::<f64>(), b.trim().parse::<f64>()) {
        (Ok(x), Ok(y)) => x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal),
        _ => a.to_ascii_lowercase().cmp(&b.to_ascii_lowercase()),
    }
}

fn squash(s: &str) -> String {
    s.split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
        .to_ascii_lowercase()
}

fn sub_match(s: &str, initial: Option<&str>, any: &[String], final_: Option<&str>) -> bool {
    let lower = s.to_ascii_lowercase();
    let mut pos = 0;
    if let Some(ini) = initial {
        let ini = ini.to_ascii_lowercase();
        if !lower.starts_with(&ini) {
            return false;
        }
        pos = ini.len();
    }
    for frag in any {
        let frag = frag.to_ascii_lowercase();
        match lower[pos..].find(&frag) {
            Some(at) => pos += at + frag.len(),
            None => return false,
        }
    }
    match final_ {
        Some(fin) => {
            let fin = fin.to_ascii_lowercase();
            lower.len() >= pos + fin.len() && lower.ends_with(&fin)
        }
        None => true,
    }
}

struct P<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> P<'a> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn filter(&mut self) -> Result<LdapFilter, String> {
        self.eat(b'(')?;
        let out = match self.peek() {
            Some(b'&') => {
                self.i += 1;
                LdapFilter::And(self.list()?)
            }
            Some(b'|') => {
                self.i += 1;
                let l = self.list()?;
                if l.is_empty() {
                    return Err("empty OR".into());
                }
                LdapFilter::Or(l)
            }
            Some(b'!') => {
                self.i += 1;
                LdapFilter::Not(Box::new(self.filter()?))
            }
            Some(_) => self.item()?,
            None => return Err("unexpected end".into()),
        };
        self.eat(b')')?;
        Ok(out)
    }

    fn list(&mut self) -> Result<Vec<LdapFilter>, String> {
        let mut out = Vec::new();
        while self.peek() == Some(b'(') {
            out.push(self.filter()?);
        }
        Ok(out)
    }

    fn item(&mut self) -> Result<LdapFilter, String> {
        let start = self.i;
        while let Some(c) = self.peek() {
            if matches!(c, b'=' | b'~' | b'>' | b'<' | b'(' | b')') {
                break;
            }
            self.i += 1;
        }
        let attr = std::str::from_utf8(&self.b[start..self.i])
            .map_err(|_| "non-utf8 attribute")?
            .trim()
            .to_string();
        if attr.is_empty() {
            return Err(format!("empty attribute at byte {start}"));
        }
        let op = self.peek().ok_or("truncated item")?;
        self.i += 1;
        if op != b'=' {
            self.eat(b'=')?;
        }
        let raw = self.value()?;
        Ok(match op {
            b'~' => LdapFilter::Approx(attr, raw.text),
            b'>' => LdapFilter::Greater(attr, raw.text),
            b'<' => LdapFilter::Less(attr, raw.text),
            b'=' => {
                if !raw.wild {
                    LdapFilter::Equality(attr, raw.text)
                } else if raw.text == "*" {
                    LdapFilter::Present(attr)
                } else {
                    let parts: Vec<&str> = raw.text.split('*').collect();
                    let n = parts.len();
                    let mut any = Vec::new();
                    let mut initial = None;
                    let mut final_ = None;
                    for (idx, p) in parts.iter().enumerate() {
                        if p.is_empty() {
                            continue;
                        }
                        if idx == 0 {
                            initial = Some(p.to_string());
                        } else if idx == n - 1 {
                            final_ = Some(p.to_string());
                        } else {
                            any.push(p.to_string());
                        }
                    }
                    LdapFilter::Substrings {
                        attr,
                        initial,
                        any,
                        final_,
                    }
                }
            }
            other => return Err(format!("bad operator {:?}", other as char)),
        })
    }

    fn value(&mut self) -> Result<RawValue, String> {
        let mut text = String::new();
        let mut wild = false;
        while let Some(c) = self.peek() {
            match c {
                b')' => break,
                b'(' => return Err("unescaped '(' in value".into()),
                b'\\' => {
                    self.i += 1;
                    let hi = self.peek().ok_or("truncated escape")?;
                    self.i += 1;
                    let lo = self.peek().ok_or("truncated escape")?;
                    self.i += 1;
                    let byte = u8::from_str_radix(
                        std::str::from_utf8(&[hi, lo]).map_err(|_| "bad escape")?,
                        16,
                    )
                    .map_err(|_| "bad hex escape")?;
                    text.push(byte as char);
                }
                b'*' => {
                    wild = true;
                    text.push('*');
                    self.i += 1;
                }
                _ => {
                    text.push(c as char);
                    self.i += 1;
                }
            }
        }
        Ok(RawValue { text, wild })
    }
}

struct RawValue {
    text: String,
    wild: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dn::Dn;

    fn entry() -> LdapEntry {
        LdapEntry::new(Dn::parse("cn=srv1,o=emory").unwrap())
            .with("objectClass", "applicationProcess")
            .with("cn", "srv1")
            .with("port", "8085")
            .with("description", "grid  gateway   node")
    }

    #[test]
    fn equality_and_presence() {
        let e = entry();
        assert!(LdapFilter::parse("(cn=SRV1)").unwrap().matches(&e));
        assert!(LdapFilter::parse("(cn=*)").unwrap().matches(&e));
        assert!(!LdapFilter::parse("(cn=srv2)").unwrap().matches(&e));
        assert!(!LdapFilter::parse("(missing=*)").unwrap().matches(&e));
        assert!(LdapFilter::match_all().matches(&e));
    }

    #[test]
    fn combinators() {
        let e = entry();
        assert!(LdapFilter::parse("(&(cn=srv1)(port>=8000))")
            .unwrap()
            .matches(&e));
        assert!(LdapFilter::parse("(|(cn=xxx)(port<=9000))")
            .unwrap()
            .matches(&e));
        assert!(LdapFilter::parse("(!(cn=xxx))").unwrap().matches(&e));
        assert!(!LdapFilter::parse("(&(cn=srv1)(cn=xxx))")
            .unwrap()
            .matches(&e));
    }

    #[test]
    fn substrings_and_approx() {
        let e = entry();
        assert!(LdapFilter::parse("(cn=srv*)").unwrap().matches(&e));
        assert!(LdapFilter::parse("(cn=*rv1)").unwrap().matches(&e));
        assert!(LdapFilter::parse("(cn=s*v*1)").unwrap().matches(&e));
        assert!(!LdapFilter::parse("(cn=x*)").unwrap().matches(&e));
        assert!(LdapFilter::parse("(description~=grid gateway node)")
            .unwrap()
            .matches(&e));
    }

    #[test]
    fn numeric_ordering() {
        let e = entry();
        assert!(LdapFilter::parse("(port>=8085)").unwrap().matches(&e));
        assert!(!LdapFilter::parse("(port>=10000)").unwrap().matches(&e));
        assert!(LdapFilter::parse("(port<=8085)").unwrap().matches(&e));
    }

    #[test]
    fn hex_escape() {
        let e = LdapEntry::new(Dn::root()).with("v", "a*b");
        let f = LdapFilter::parse(r"(v=a\2ab)").unwrap();
        assert_eq!(f, LdapFilter::Equality("v".into(), "a*b".into()));
        assert!(f.matches(&e));
    }

    #[test]
    fn parse_errors() {
        for bad in ["", "(", "(a=b", "a=b", "(a=b))", "(|)", "(a=(x))"] {
            assert!(LdapFilter::parse(bad).is_err(), "should reject {bad:?}");
        }
    }
}
