//! `CompositeName` against its oracle: a name as the list of component
//! strings it was before it became one shared block, with a reference
//! parser and printer for JNDI's composite syntax kept here and nowhere
//! else. A random sequence of steps builds names (from components, by
//! parsing text, and as prefixes, suffixes, tails, children and joins of
//! earlier ones) beside their lists; after every step each name
//! must read as its list (components, length, head, joined text, printed
//! text, the text parsed back), and every pair must agree with the lists on
//! `==`, `starts_with` and, when equal, on their hashes, as must each name
//! and the same components built fresh. A failure prints the runner's seed
//! and the sequence shrunk to the steps it still fails without.

use std::hash::{BuildHasher, RandomState};

use proptest::prelude::*;
use rndi_core::name::CompositeName;

type Model = Vec<String>;

/// The printed form: each `/`, `\` and quote escaped, components joined by
/// `/`, and one more `/` when every component (of at least one) is empty.
fn model_print(model: &Model) -> String {
    let mut out = String::new();
    for (i, c) in model.iter().enumerate() {
        if i > 0 {
            out.push('/');
        }
        for ch in c.chars() {
            if matches!(ch, '/' | '\\' | '\'' | '"') {
                out.push('\\');
            }
            out.push(ch);
        }
    }
    if !model.is_empty() && model.iter().all(String::is_empty) {
        out.push('/');
    }
    out
}

/// JNDI's composite syntax, a character at a time (`None`: malformed).
fn model_parse(s: &str) -> Option<Model> {
    if s.is_empty() {
        return Some(Vec::new());
    }
    let chars: Vec<char> = s.chars().collect();
    let (mut model, mut current) = (Model::new(), String::new());
    let (mut quote, mut fresh) = (None, true);
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        i += 1;
        match c {
            '\\' => {
                current.push(*chars.get(i)?);
                i += 1;
                fresh = false;
            }
            '\'' | '"' if quote.is_none() && fresh => quote = Some(c),
            '\'' | '"' if quote == Some(c) => {
                if !matches!(chars.get(i), None | Some('/')) {
                    return None;
                }
                quote = None;
            }
            '/' if quote.is_none() => {
                model.push(std::mem::take(&mut current));
                fresh = true;
                if i == chars.len() {
                    // A trailing separator ends an empty component, unless
                    // every component before it is empty.
                    if model.iter().any(|c| !c.is_empty()) {
                        model.push(String::new());
                    }
                    return Some(model);
                }
            }
            other => {
                current.push(other);
                fresh = false;
            }
        }
    }
    if quote.is_some() {
        return None;
    }
    model.push(current);
    Some(model)
}

/// One step: the operands are indices into the names built so far (taken
/// modulo their number, so any subsequence of steps still runs).
#[derive(Clone, Debug)]
enum Step {
    From(Model),
    Parse(String),
    Prefix(usize, usize),
    Suffix(usize, usize),
    Tail(usize),
    Child(usize, String),
    Join(usize, usize),
}

/// The names so far, each beside its list.
type Pool = Vec<(CompositeName, Model)>;

fn apply(pool: &mut Pool, step: &Step) -> Result<(), String> {
    let at = |i: usize| i % pool.len();
    let made = match step {
        Step::From(model) => (CompositeName::from_components(model), model.clone()),
        Step::Parse(text) => match (CompositeName::parse(text), model_parse(text)) {
            (Ok(name), Some(model)) => (name, model),
            (Err(_), None) => return Ok(()),
            (got, want) => return Err(format!("parse({text:?}) = {got:?}, oracle {want:?}")),
        },
        Step::Prefix(i, n) => {
            let (name, model) = &pool[at(*i)];
            (name.prefix(*n), model[..(*n).min(model.len())].to_vec())
        }
        Step::Suffix(i, n) => {
            let (name, model) = &pool[at(*i)];
            (name.suffix(*n), model[(*n).min(model.len())..].to_vec())
        }
        Step::Tail(i) => {
            let (name, model) = &pool[at(*i)];
            (name.tail(), model.iter().skip(1).cloned().collect())
        }
        Step::Child(i, c) => {
            let (name, model) = &pool[at(*i)];
            let mut model = model.clone();
            model.push(c.clone());
            (name.child(c), model)
        }
        Step::Join(i, j) => {
            let ((a, am), (b, bm)) = (&pool[at(*i)], &pool[at(*j)]);
            (a.join(b), [am.clone(), bm.clone()].concat())
        }
    };
    pool.push(made);
    Ok(())
}

/// How `name` fails to read as `model`, if it does.
fn misread(name: &CompositeName, model: &Model) -> Option<String> {
    let printed = model_print(model);
    let checks = [
        ("components", name.components() == *model),
        ("len", name.len() == model.len()),
        ("is_empty", name.is_empty() == model.is_empty()),
        ("head", name.head() == model.first().map(String::as_str)),
        ("index", (0..model.len()).all(|i| name[i] == model[i])),
        ("iter().rev()", name.iter().rev().eq(model.iter().rev())),
        ("joined", name.joined() == model.join("/")),
        ("to_string", name.to_string() == printed),
        (
            "parse(to_string)",
            CompositeName::parse(&printed).is_ok_and(|back| back == *name),
        ),
        (
            "oracle parse(to_string)",
            model_parse(&printed).as_ref() == Some(model),
        ),
    ];
    let failed: Vec<&str> = checks.iter().filter(|c| !c.1).map(|c| c.0).collect();
    (!failed.is_empty()).then(|| format!("{name:?} against {model:?}: {failed:?} disagree"))
}

/// Where the names first part from their lists over `steps`, if they do.
fn divergence(steps: &[Step]) -> Option<String> {
    let hasher = RandomState::new();
    let mut pool: Pool = vec![(CompositeName::empty(), Vec::new())];
    for (s, step) in steps.iter().enumerate() {
        if let Err(why) = apply(&mut pool, step) {
            return Some(format!("step {s}: {why}"));
        }
        for (name, model) in &pool {
            if let Some(why) = misread(name, model) {
                return Some(format!("after step {s}: {why}"));
            }
            let fresh = CompositeName::from_components(model);
            if *name != fresh || hasher.hash_one(name) != hasher.hash_one(&fresh) {
                return Some(format!(
                    "after step {s}: {name:?} differs from itself built fresh"
                ));
            }
        }
        for (a, am) in &pool {
            for (b, bm) in &pool {
                let prefixed = bm.len() <= am.len() && am[..bm.len()] == bm[..];
                if (a == b) != (am == bm) || a.starts_with(b) != prefixed {
                    return Some(format!("after step {s}: {a:?} against {b:?}"));
                }
                if a == b && hasher.hash_one(a) != hasher.hash_one(b) {
                    return Some(format!("after step {s}: {a:?} == {b:?} hash apart"));
                }
            }
        }
    }
    None
}

/// `steps` less every step it still fails without, one at a time.
fn shrink(mut steps: Vec<Step>) -> Vec<Step> {
    let mut i = 0;
    while i < steps.len() {
        let mut fewer = steps.clone();
        fewer.remove(i);
        if divergence(&fewer).is_some() {
            steps = fewer;
        } else {
            i += 1;
        }
    }
    steps
}

/// Components over the characters the syntax treats specially, a
/// multi-byte one, and the empty component.
fn any_component() -> impl Strategy<Value = String> {
    "[ab/\\\\'\"é]{0,3}"
}

fn any_step() -> impl Strategy<Value = Step> {
    let index = 0usize..16;
    let count = 0usize..5;
    prop_oneof![
        3 => proptest::collection::vec(any_component(), 0..5).prop_map(Step::From),
        3 => "[ab/\\\\'\"é]{0,8}".prop_map(Step::Parse),
        2 => (index.clone(), count.clone()).prop_map(|(i, n)| Step::Prefix(i, n)),
        2 => (index.clone(), count.clone()).prop_map(|(i, n)| Step::Suffix(i, n)),
        1 => index.clone().prop_map(Step::Tail),
        2 => (index.clone(), any_component()).prop_map(|(i, c)| Step::Child(i, c)),
        2 => (index.clone(), index).prop_map(|(i, j)| Step::Join(i, j)),
    ]
}

#[test]
fn the_jndi_table_parses_and_prints_row_by_row() {
    // The table in JNDI's `CompositeName` documentation.
    let table: [(&str, &[&str]); 9] = [
        ("", &[]),
        ("x", &["x"]),
        ("x/y", &["x", "y"]),
        ("x/", &["x", ""]),
        ("/x", &["", "x"]),
        ("/", &[""]),
        ("//", &["", ""]),
        ("/x/", &["", "x", ""]),
        ("x//y", &["x", "", "y"]),
    ];
    for (text, components) in table {
        let name = CompositeName::parse(text).unwrap();
        assert_eq!(name.components(), components, "{text:?}");
        assert_eq!(name.to_string(), text, "{components:?}");
        assert_eq!(model_parse(text).unwrap(), components, "oracle, {text:?}");
    }
}

proptest! {
    #[test]
    fn the_name_matches_its_oracle(steps in proptest::collection::vec(any_step(), 0..16)) {
        if let Some(why) = divergence(&steps) {
            let shrunk = shrink(steps);
            let why = divergence(&shrunk).unwrap_or(why);
            prop_assert!(false, "{why}\nshrunk sequence: {shrunk:#?}");
        }
    }
}
