//! docs/ARCHITECTURE.md's code references point at what they name.
//!
//! A reference is a code span `path.rs:line`, or a `:line` shorthand
//! that reuses the path of the reference before it. The code span just
//! before a reference names an item, and the cited line must contain
//! that name's last `::` segment (up to any argument list) as a whole
//! word. Line ranges and lists (`x.rs:3-5`, `x.rs:14,65`) are not
//! references the rule can read, so they fail too.

use std::path::Path;

/// The code spans of `doc` outside fenced blocks, in order (a span may
/// wrap across lines).
fn code_spans(doc: &str) -> Vec<String> {
    let mut fenced = false;
    let mut prose = String::new();
    for line in doc.lines() {
        if line.starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// `(path, line)` when `span` is `path.rs:line`, `(None, line)` when it
/// is the `:line` shorthand.
fn reference(span: &str) -> Option<(Option<&str>, usize)> {
    let (path, line) = span.rsplit_once(':')?;
    let line = line.parse().ok()?;
    match path {
        "" => Some((None, line)),
        p if p.ends_with(".rs") && !p.contains(' ') => Some((Some(p), line)),
        _ => None,
    }
}

/// The identifier a code span names: its last `::` segment, up to any
/// argument list.
fn identifier(item: &str) -> &str {
    let last = item.rsplit("::").next().unwrap_or(item);
    let end = last
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(last.len());
    &last[..end]
}

/// Whether `line` contains `ident` as a whole word.
fn names(line: &str, ident: &str) -> bool {
    let word = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices(ident)
        .any(|(i, _)| !line[..i].ends_with(word) && !line[i + ident.len()..].starts_with(word))
}

#[test]
fn every_code_reference_names_what_is_on_its_line() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let doc = std::fs::read_to_string(root.join("docs/ARCHITECTURE.md")).expect("ARCHITECTURE.md");
    let mut failures = Vec::new();
    let mut checked = 0;
    let mut path: Option<String> = None;
    let mut item: Option<String> = None;
    for span in code_spans(&doc) {
        let Some((cited, line)) = reference(&span) else {
            // A line range or list: it cites code, but not one line.
            if span.contains(".rs:") || span.starts_with(':') {
                failures.push(format!("`{span}` is not `path.rs:line` or `:line`"));
                item = None;
            } else {
                item = Some(span);
            }
            continue;
        };
        if let Some(p) = cited {
            path = Some(p.to_string());
        }
        let (Some(file), Some(item)) = (&path, item.take()) else {
            failures.push(format!("`{span}` has no path or no item named before it"));
            continue;
        };
        let ident = identifier(&item);
        let text = std::fs::read_to_string(root.join(file)).unwrap_or_default();
        match text.lines().nth(line.wrapping_sub(1)) {
            Some(l) if !ident.is_empty() && names(l, ident) => checked += 1,
            got => failures.push(format!("`{item}` at `{file}:{line}`, which reads {got:?}")),
        }
    }
    assert!(
        failures.is_empty(),
        "{} reference(s) in docs/ARCHITECTURE.md do not resolve:\n{}",
        failures.len(),
        failures.join("\n")
    );
    assert!(checked >= 30, "only {checked} references found");
}
