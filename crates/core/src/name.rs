//! Composite and compound names.
//!
//! JNDI distinguishes **composite names** — which span naming systems and
//! use `/` as the component separator with `\` escapes and `'`/`"` quoting —
//! from **compound names**, which live within a single naming system and
//! follow provider-specific syntax (dot-separated right-to-left for DNS,
//! comma-separated right-to-left for LDAP, …). Composite names are
//! implemented here, with round-trippable parse/print; a provider reports
//! its compound syntax as a [`CompoundSyntax`], and its own names parse in
//! the provider (`dirserv::Dn`, `minidns::DnsName`).

use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::ops::Index;
use std::sync::Arc;

use crate::error::{NamingError, Result};

/// A composite name: an ordered sequence of components, possibly spanning
/// multiple naming systems.
///
/// A range of the components of one shared block, `[count: u32][where each
/// component ends in the block: u32; count][the components joined by '/']`
/// (DESIGN §5): a clone, a view or a read allocates nothing.
#[derive(Clone, Default)]
pub struct CompositeName {
    block: Option<Arc<[u8]>>,
    /// The block's components `start..end`.
    start: u32,
    end: u32,
}

/// The width of the block's count and offsets.
const WORD: usize = size_of::<u32>();

fn word(block: &[u8], at: usize) -> usize {
    u32::from_le_bytes(block[at..at + WORD].try_into().expect("a word")) as usize
}

/// Fills a fresh block: the next component's end goes at `slot`, text at `at`.
struct Writer<'b> {
    block: &'b mut [u8],
    slot: usize,
    at: usize,
}

impl Writer<'_> {
    fn push(&mut self, bytes: &[u8]) {
        self.block[self.at..self.at + bytes.len()].copy_from_slice(bytes);
        self.at += bytes.len();
    }

    /// End the current component (`build` checked that `at` fits a `u32`).
    fn end(&mut self) {
        self.block[self.slot..self.slot + WORD].copy_from_slice(&(self.at as u32).to_le_bytes());
        self.slot += WORD;
        if self.at < self.block.len() {
            self.push(b"/");
        }
    }
}

/// The name of `count` components whose joined text, separators included,
/// is `text` bytes long, as `fill` writes them: one allocation.
fn build(count: usize, text: usize, fill: impl FnOnce(&mut Writer<'_>)) -> CompositeName {
    if count == 0 {
        return CompositeName::empty();
    }
    let base = WORD * (1 + count);
    u32::try_from(base + text).expect("a name's block is shorter than 4 GiB");
    let end = count as u32;
    // A `TrustedLen` iterator: `collect` allocates the `Arc` exactly once.
    let mut block: Arc<[u8]> = std::iter::repeat_n(0, base + text).collect();
    let bytes = Arc::get_mut(&mut block).expect("a fresh block");
    bytes[..WORD].copy_from_slice(&end.to_le_bytes());
    let mut writer = Writer {
        block: bytes,
        slot: WORD,
        at: base,
    };
    fill(&mut writer);
    let whole = writer.slot == base && writer.at == writer.block.len();
    assert!(whole, "a name's block is written whole");
    CompositeName {
        block: Some(block),
        start: 0,
        end,
    }
}

/// Walk `s` in the composite syntax, handing `out` each unescaped byte of a
/// component (escapes and quotes are ASCII) and each component's end. As in
/// JNDI, a trailing separator ends one more, empty, component unless every
/// component before it is empty (`"x/"` is `{"x", ""}`, `"/"` is `{""}`).
fn lex(s: &str, mut out: impl FnMut(Option<u8>)) -> Result<()> {
    let bytes = s.as_bytes();
    // The open quote; the current component has no byte yet; every one so
    // far is empty; one is open (the last byte was no unquoted separator).
    let (mut quote, mut fresh, mut all_empty, mut open) = (None, true, true, true);
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        i += 1;
        open = true;
        match b {
            b'\\' => {
                let Some(&next) = bytes.get(i) else {
                    return Err(NamingError::invalid_name(s, "dangling escape at end"));
                };
                i += 1;
                out(Some(next));
                fresh = false;
            }
            b'\'' | b'"' if quote.is_none() && fresh => quote = Some(b),
            b'\'' | b'"' if quote == Some(b) => {
                // Closing quote must end the component.
                if !matches!(bytes.get(i), None | Some(b'/')) {
                    return Err(NamingError::invalid_name(s, "closing quote not at end"));
                }
                quote = None;
            }
            b'/' if quote.is_none() => {
                out(None);
                all_empty &= fresh;
                fresh = true;
                open = false;
                if i == bytes.len() && !all_empty {
                    out(None);
                }
            }
            other => {
                out(Some(other));
                fresh = false;
            }
        }
    }
    if quote.is_some() {
        return Err(NamingError::invalid_name(s, "unterminated quote"));
    }
    if open {
        out(None);
    }
    Ok(())
}

impl CompositeName {
    /// The empty name (names the context itself).
    pub fn empty() -> Self {
        CompositeName::default()
    }

    /// Build from pre-split components (no parsing), walked twice to allocate
    /// once: pass borrowed ones, as the second walk clones owned ones.
    pub fn from_components<I>(parts: I) -> Self
    where
        I: IntoIterator,
        I::IntoIter: Clone,
        I::Item: AsRef<str>,
    {
        let parts = parts.into_iter();
        let (count, bytes) = parts
            .clone()
            .fold((0, 0), |(n, len), c| (n + 1, len + c.as_ref().len()));
        build(count, bytes + count.saturating_sub(1), |w| {
            for c in parts {
                w.push(c.as_ref().as_bytes());
                w.end();
            }
        })
    }

    /// Parse the JNDI composite-name syntax: components separated by `/`,
    /// with `\` escaping the next character and single or double quotes
    /// protecting whole components; `parse(&n.to_string()) == n`.
    pub fn parse(s: &str) -> Result<Self> {
        if s.is_empty() {
            return Ok(CompositeName::empty());
        }
        let (mut count, mut bytes) = (0, 0);
        lex(s, |b| if b.is_some() { bytes += 1 } else { count += 1 })?;
        Ok(build(count, bytes + count - 1, |w| {
            lex(s, |b| match b {
                Some(b) => w.push(&[b]),
                None => w.end(),
            })
            .expect("lexed once already")
        }))
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// `true` when the name has no components.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The block's components `from..to`, joined by `/` (none: no block).
    fn bytes(&self, from: usize, to: usize) -> &[u8] {
        let Some(block) = self.block.as_deref() else {
            return &[];
        };
        let begin = match from {
            0 => WORD * (1 + word(block, 0)),
            _ => word(block, WORD * from) + 1,
        };
        &block[begin..word(block, WORD * to)]
    }

    fn component_bytes(&self, i: usize) -> &[u8] {
        assert!(i < self.len(), "component {i} of a name of {}", self.len());
        let at = self.start as usize + i;
        self.bytes(at, at + 1)
    }

    fn joined_bytes(&self) -> &[u8] {
        self.bytes(self.start as usize, self.end as usize)
    }

    /// The components joined by `/`, unescaped: a slice of the block (an
    /// HDNS store path). Unlike [`Display`](fmt::Display), this does not
    /// tell `{"a/b"}` from `{"a", "b"}`.
    pub fn joined(&self) -> &str {
        std::str::from_utf8(self.joined_bytes()).expect("whole str components")
    }

    /// The components, in order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &str> + ExactSizeIterator + Clone {
        (0..self.len()).map(|i| &self[i])
    }

    /// The components, collected (for callers off the hot path).
    pub fn components(&self) -> Vec<&str> {
        self.iter().collect()
    }

    /// The first component, if any.
    pub fn head(&self) -> Option<&str> {
        self.iter().next()
    }

    /// The components `from..to`, sharing this name's block.
    fn view(&self, from: usize, to: usize) -> CompositeName {
        // Both are at most `len`, itself a `u32`; an empty view holds no block.
        let (start, end) = (self.start + from as u32, self.start + to as u32);
        let block = (from < to).then(|| self.block.clone()).flatten();
        CompositeName { block, start, end }
    }

    /// Everything after the first component.
    pub fn tail(&self) -> CompositeName {
        self.suffix(1)
    }

    /// The leading `n` components.
    pub fn prefix(&self, n: usize) -> CompositeName {
        self.view(0, n.min(self.len()))
    }

    /// Components from position `n` onward.
    pub fn suffix(&self, n: usize) -> CompositeName {
        self.view(n.min(self.len()), self.len())
    }

    /// Append a single component (no parsing).
    pub fn child(&self, component: impl AsRef<str>) -> CompositeName {
        CompositeName::from_components(self.iter().chain([component.as_ref()]))
    }

    /// Concatenate two names.
    pub fn join(&self, other: &CompositeName) -> CompositeName {
        match (self.is_empty(), other.is_empty()) {
            (true, _) => other.clone(),
            (_, true) => self.clone(),
            _ => CompositeName::from_components(self.iter().chain(other.iter())),
        }
    }

    /// Whether `prefix` is a leading subsequence of this name.
    pub fn starts_with(&self, prefix: &CompositeName) -> bool {
        self.len() >= prefix.len()
            && (0..prefix.len()).all(|i| self.component_bytes(i) == prefix.component_bytes(i))
    }
}

impl Index<usize> for CompositeName {
    type Output = str;

    /// Component `i`; panics past the end, as a slice does.
    fn index(&self, i: usize) -> &str {
        std::str::from_utf8(self.component_bytes(i)).expect("a whole str component")
    }
}

impl PartialEq for CompositeName {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.starts_with(other)
    }
}

impl Eq for CompositeName {}

/// The count and the joined text: names equal component-wise hash alike.
impl Hash for CompositeName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len().hash(state);
        self.joined_bytes().hash(state);
    }
}

impl fmt::Display for CompositeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, mut c) in self.iter().enumerate() {
            if i > 0 {
                f.write_char('/')?;
            }
            while let Some(at) = c.find(['/', '\\', '\'', '"']) {
                f.write_str(&c[..at])?;
                f.write_char('\\')?;
                f.write_str(&c[at..=at])?;
                c = &c[at + 1..];
            }
            f.write_str(c)?;
        }
        // Every component empty (the text is only separators): one more
        // separator, which `parse` reads as no trailing component.
        if !self.is_empty() && self.joined_bytes().len() == self.len() - 1 {
            f.write_char('/')?;
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
        assert_eq!(n.components(), [""]);
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
}
