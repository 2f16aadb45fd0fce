//! Composite and compound names.
//!
//! JNDI distinguishes **composite names** — which span naming systems and
//! use `/` as the component separator with `\` escapes and `'`/`"` quoting —
//! from **compound names**, which live within a single naming system and
//! follow provider-specific syntax (dot-separated right-to-left for DNS,
//! comma-separated right-to-left for LDAP, …). We implement both, with
//! round-trippable parse/print.

use std::fmt;

use crate::error::{NamingError, Result};

/// A composite name: an ordered sequence of components, possibly spanning
/// multiple naming systems.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct CompositeName {
    components: Vec<String>,
}

impl CompositeName {
    /// The empty name (names the context itself).
    pub fn empty() -> Self {
        CompositeName::default()
    }

    /// Build from pre-split components (no parsing).
    pub fn from_components<I, S>(parts: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        CompositeName {
            components: parts.into_iter().map(Into::into).collect(),
        }
    }

    /// Parse the JNDI composite-name syntax: components separated by `/`,
    /// with `\` escaping the next character and single or double quotes
    /// protecting whole components.
    pub fn parse(s: &str) -> Result<Self> {
        if s.is_empty() {
            return Ok(CompositeName::empty());
        }
        let mut components = Vec::new();
        let mut current = String::new();
        let mut chars = s.chars().peekable();
        let mut quote: Option<char> = None;
        let mut component_open = true; // tracks trailing separator
        while let Some(c) = chars.next() {
            component_open = true;
            match c {
                '\\' => match chars.next() {
                    Some(next) => current.push(next),
                    None => {
                        return Err(NamingError::invalid_name(s, "dangling escape at end"));
                    }
                },
                q @ ('\'' | '"') => {
                    match quote {
                        None if current.is_empty() => quote = Some(q),
                        Some(open) if open == q => {
                            // Closing quote must end the component.
                            match chars.peek() {
                                None | Some('/') => quote = None,
                                Some(_) => {
                                    return Err(NamingError::invalid_name(
                                        s,
                                        "closing quote not at end of component",
                                    ));
                                }
                            }
                        }
                        _ => current.push(q),
                    }
                }
                '/' if quote.is_none() => {
                    components.push(std::mem::take(&mut current));
                    component_open = false;
                }
                other => current.push(other),
            }
        }
        if quote.is_some() {
            return Err(NamingError::invalid_name(s, "unterminated quote"));
        }
        if component_open || components.is_empty() {
            components.push(current);
        } else if s.ends_with('/') {
            // "a/" names the empty component under a.
            components.push(String::new());
        }
        Ok(CompositeName { components })
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// `true` when the name has no components.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Borrow the components.
    pub fn components(&self) -> &[String] {
        &self.components
    }

    /// The first component, if any.
    pub fn head(&self) -> Option<&str> {
        self.components.first().map(|s| s.as_str())
    }

    /// Everything after the first component.
    pub fn tail(&self) -> CompositeName {
        CompositeName {
            components: self.components.iter().skip(1).cloned().collect(),
        }
    }

    /// The leading `n` components.
    pub fn prefix(&self, n: usize) -> CompositeName {
        CompositeName {
            components: self.components.iter().take(n).cloned().collect(),
        }
    }

    /// Components from position `n` onward.
    pub fn suffix(&self, n: usize) -> CompositeName {
        CompositeName {
            components: self.components.iter().skip(n).cloned().collect(),
        }
    }

    /// Append a single component (no parsing).
    pub fn child(&self, component: impl Into<String>) -> CompositeName {
        let mut components = self.components.clone();
        components.push(component.into());
        CompositeName { components }
    }

    /// Concatenate two names.
    pub fn join(&self, other: &CompositeName) -> CompositeName {
        let mut components = self.components.clone();
        components.extend(other.components.iter().cloned());
        CompositeName { components }
    }

    /// Whether `prefix` is a leading subsequence of this name.
    pub fn starts_with(&self, prefix: &CompositeName) -> bool {
        self.components.len() >= prefix.components.len()
            && self.components[..prefix.components.len()] == prefix.components[..]
    }

    /// Escape a single component for display.
    fn escape(component: &str) -> String {
        let mut out = String::with_capacity(component.len());
        for c in component.chars() {
            if matches!(c, '/' | '\\' | '\'' | '"') {
                out.push('\\');
            }
            out.push(c);
        }
        out
    }
}

impl fmt::Display for CompositeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for c in &self.components {
            if !first {
                f.write_str("/")?;
            }
            first = false;
            f.write_str(&Self::escape(c))?;
        }
        Ok(())
    }
}

impl fmt::Debug for CompositeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CompositeName({self})")
    }
}

impl std::str::FromStr for CompositeName {
    type Err = NamingError;
    fn from_str(s: &str) -> Result<Self> {
        CompositeName::parse(s)
    }
}

impl From<&str> for CompositeName {
    /// Convenience conversion that panics on malformed names; use
    /// [`CompositeName::parse`] when input is untrusted.
    fn from(s: &str) -> Self {
        CompositeName::parse(s).expect("malformed composite name literal")
    }
}

/// Syntax description for a provider's compound names.
#[derive(Clone, Debug)]
pub struct CompoundSyntax {
    /// The component separator, e.g. `"."` for DNS, `","` for LDAP.
    pub separator: char,
    /// `true` when the most significant component is rightmost (DNS, LDAP).
    pub right_to_left: bool,
    /// Escape character, if the syntax supports escaping.
    pub escape: Option<char>,
    /// Whether surrounding whitespace in components is insignificant.
    pub trim_blanks: bool,
}

impl CompoundSyntax {
    /// DNS-style: dot-separated, right-to-left.
    pub fn dns() -> Self {
        CompoundSyntax {
            separator: '.',
            right_to_left: true,
            escape: Some('\\'),
            trim_blanks: false,
        }
    }

    /// LDAP-style: comma-separated, right-to-left, with blank trimming
    /// (`cn=a, dc=b` ≡ `cn=a,dc=b`).
    pub fn ldap() -> Self {
        CompoundSyntax {
            separator: ',',
            right_to_left: true,
            escape: Some('\\'),
            trim_blanks: true,
        }
    }

    /// Unix-path style: slash-separated, left-to-right.
    pub fn path() -> Self {
        CompoundSyntax {
            separator: '/',
            right_to_left: false,
            escape: Some('\\'),
            trim_blanks: false,
        }
    }
}

/// A compound name: components within one naming system, stored
/// **most-significant first** regardless of the display direction.
#[derive(Clone, Debug)]
pub struct CompoundName {
    components: Vec<String>,
    syntax: CompoundSyntax,
}

impl CompoundName {
    /// Parse `s` under the given syntax.
    pub fn parse(s: &str, syntax: CompoundSyntax) -> Result<Self> {
        if s.is_empty() {
            return Ok(CompoundName {
                components: Vec::new(),
                syntax,
            });
        }
        let mut parts: Vec<String> = Vec::new();
        let mut current = String::new();
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if Some(c) == syntax.escape {
                match chars.next() {
                    Some(next) => current.push(next),
                    None => return Err(NamingError::invalid_name(s, "dangling escape")),
                }
            } else if c == syntax.separator {
                parts.push(std::mem::take(&mut current));
            } else {
                current.push(c);
            }
        }
        parts.push(current);
        if syntax.trim_blanks {
            for p in &mut parts {
                *p = p.trim().to_string();
            }
        }
        if syntax.right_to_left {
            parts.reverse();
        }
        Ok(CompoundName {
            components: parts,
            syntax,
        })
    }

    /// Components, most-significant first.
    pub fn components(&self) -> &[String] {
        &self.components
    }

    pub fn len(&self) -> usize {
        self.components.len()
    }

    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }
}

impl fmt::Display for CompoundName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let escape = |c: &str| -> String {
            let mut out = String::with_capacity(c.len());
            for ch in c.chars() {
                if ch == self.syntax.separator || Some(ch) == self.syntax.escape {
                    if let Some(e) = self.syntax.escape {
                        out.push(e);
                    }
                }
                out.push(ch);
            }
            out
        };
        let ordered: Vec<String> = if self.syntax.right_to_left {
            self.components.iter().rev().map(|c| escape(c)).collect()
        } else {
            self.components.iter().map(|c| escape(c)).collect()
        };
        f.write_str(&ordered.join(&self.syntax.separator.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let n = CompositeName::parse("a/b/c").unwrap();
        assert_eq!(n.components(), ["a", "b", "c"]);
        assert_eq!(n.to_string(), "a/b/c");
    }

    #[test]
    fn parse_empty_and_root() {
        assert!(CompositeName::parse("").unwrap().is_empty());
        let n = CompositeName::parse("/").unwrap();
        assert_eq!(n.components(), ["", ""]);
    }

    #[test]
    fn trailing_separator_yields_empty_component() {
        let n = CompositeName::parse("a/").unwrap();
        assert_eq!(n.components(), ["a", ""]);
    }

    #[test]
    fn escapes_protect_separator() {
        let n = CompositeName::parse(r"a\/b/c").unwrap();
        assert_eq!(n.components(), ["a/b", "c"]);
        // Round trip re-escapes.
        assert_eq!(n.to_string(), r"a\/b/c");
        let re = CompositeName::parse(&n.to_string()).unwrap();
        assert_eq!(re, n);
    }

    #[test]
    fn quotes_protect_separator() {
        let n = CompositeName::parse(r#""a/b"/c"#).unwrap();
        assert_eq!(n.components(), ["a/b", "c"]);
        let n = CompositeName::parse("'x/y'").unwrap();
        assert_eq!(n.components(), ["x/y"]);
    }

    #[test]
    fn quote_errors() {
        assert!(CompositeName::parse("'abc").is_err());
        assert!(CompositeName::parse("'ab'c").is_err());
        assert!(CompositeName::parse(r"abc\").is_err());
    }

    #[test]
    fn inner_quote_is_literal() {
        let n = CompositeName::parse("ab'cd").unwrap();
        assert_eq!(n.components(), ["ab'cd"]);
    }

    #[test]
    fn head_tail_prefix_suffix() {
        let n = CompositeName::from_components(["a", "b", "c"]);
        assert_eq!(n.head(), Some("a"));
        assert_eq!(n.tail().components(), ["b", "c"]);
        assert_eq!(n.prefix(2).components(), ["a", "b"]);
        assert_eq!(n.suffix(2).components(), ["c"]);
        assert!(n.starts_with(&n.prefix(2)));
        assert!(!n.prefix(2).starts_with(&n));
    }

    #[test]
    fn join_and_child() {
        let a = CompositeName::from_components(["x"]);
        let b = CompositeName::from_components(["y", "z"]);
        assert_eq!(a.join(&b).to_string(), "x/y/z");
        assert_eq!(a.child("w").to_string(), "x/w");
    }

    #[test]
    fn compound_dns_right_to_left() {
        let n = CompoundName::parse("dcl.mathcs.emory.edu", CompoundSyntax::dns()).unwrap();
        // Most significant first: edu, emory, mathcs, dcl
        assert_eq!(n.components(), ["edu", "emory", "mathcs", "dcl"]);
        assert_eq!(n.to_string(), "dcl.mathcs.emory.edu");
    }

    #[test]
    fn compound_ldap_trims_blanks() {
        let n =
            CompoundName::parse("cn=monkey, dc=emory , dc=edu", CompoundSyntax::ldap()).unwrap();
        assert_eq!(n.components(), ["dc=edu", "dc=emory", "cn=monkey"]);
    }

    #[test]
    fn compound_escaped_separator() {
        let n = CompoundName::parse(r"a\.b.c", CompoundSyntax::dns()).unwrap();
        assert_eq!(n.components(), ["c", "a.b"]);
        assert_eq!(n.to_string(), r"a\.b.c");
    }
}
