//! The client-side search walk, for a backend with no query engine of its
//! own (the in-memory model, HDNS, a filesystem, a Jini lookup service that
//! matches templates, not filters): the backend enumerates and the filter is
//! evaluated here — the paper's capability emulation (§3), written once.
//!
//! The walk asks the backend only what every provider already answers:
//! `list` for a context's children, `get_attributes` and `lookup` for an
//! entry's own attributes and value. It decides the rest, so a scope means
//! the same on every backend that uses it:
//!
//! * [`SearchScope::Object`] is the named entry itself, as LDAP's base scope
//!   is: one hit, named `""`, if its own attributes match — never a child.
//!   The root context is no entry of its own.
//! * [`SearchScope::OneLevel`] is what `list` gives of the named context;
//!   [`SearchScope::Subtree`] adds, under each child that lists as a
//!   context, its subtree.
//! * `count_limit` stops the walk at that many hits, `return_attrs` projects
//!   a hit's attributes, and a hit's value is looked up only under
//!   `return_values`.

use crate::context::{SearchControls, SearchItem, SearchScope};
use crate::error::Result;
use crate::filter::Filter;
use crate::name::CompositeName;
use crate::op::{NamingOp, OpKind, OpOutcome};
use crate::spi::ProviderBackend;

/// Answer a search `op` by walking `backend`; hits are named relative to
/// the op's name.
pub fn walk<B: ProviderBackend + ?Sized>(backend: &B, op: &NamingOp) -> Result<OpOutcome> {
    let (filter, controls) = op.query()?;
    let mut walk = Walk {
        backend,
        filter,
        controls,
        hits: Vec::new(),
    };
    match controls.scope {
        SearchScope::Object => walk.visit(&op.name, String::new())?,
        SearchScope::OneLevel | SearchScope::Subtree => {
            walk.descend(&op.name, &CompositeName::empty())?
        }
    }
    Ok(OpOutcome::Found(walk.hits))
}

struct Walk<'a, B: ?Sized> {
    backend: &'a B,
    filter: &'a Filter,
    controls: &'a SearchControls,
    hits: Vec<SearchItem>,
}

impl<B: ProviderBackend + ?Sized> Walk<'_, B> {
    /// The entry at `name`: a hit, named `rel`, if its own attributes match.
    fn visit(&mut self, name: &CompositeName, rel: String) -> Result<()> {
        if name.is_empty() {
            return Ok(());
        }
        let attrs = self
            .backend
            .execute(&NamingOp::get_attributes(name.clone()))?
            .into_attrs(OpKind::GetAttributes)?;
        if !self.filter.matches(&attrs) {
            return Ok(());
        }
        let attrs = match &self.controls.return_attrs {
            Some(ids) => attrs.project(&ids.iter().map(String::as_str).collect::<Vec<_>>()),
            None => attrs,
        };
        let lookup = || {
            self.backend
                .execute(&NamingOp::lookup(name.clone()))?
                .into_value(OpKind::Lookup)
        };
        let value = self.controls.return_values.then(lookup).transpose()?;
        self.hits.push(SearchItem {
            name: rel,
            value,
            attrs,
        });
        Ok(())
    }

    /// The children of the context at `name` (`rel` from the search base),
    /// and under SUBTREE theirs.
    fn descend(&mut self, name: &CompositeName, rel: &CompositeName) -> Result<()> {
        let children = self
            .backend
            .execute(&NamingOp::list(name.clone()))?
            .into_names(OpKind::List)?;
        for child in children {
            let limit = self.controls.count_limit;
            if limit > 0 && self.hits.len() >= limit {
                break;
            }
            let (name, rel) = (name.child(&child.name), rel.child(child.name));
            self.visit(&name, rel.to_string())?;
            // A subcontext lists as class `context` on every provider. One
            // that is a mounted foreign context answers `Continue`: the
            // system behind it is the federation layer's to search.
            if self.controls.scope == SearchScope::Subtree && child.class_name == "context" {
                match self.descend(&name, &rel) {
                    Err(e) if e.is_continue() => {}
                    other => other?,
                }
            }
        }
        Ok(())
    }
}
