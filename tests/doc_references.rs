//! The docs name only what exists. Every backticked `crates/…`,
//! `benchmark/…` or crate-relative `tests/…` path in README, DESIGN,
//! EXPERIMENTS and the crate docs (`//!` of each `lib.rs`/`main.rs`) is a
//! file or directory of the tree, and every backticked `Type::name`
//! names a fn, field, variant or const some `.rs` file defines on
//! `Type`. ROADMAP and CHANGES narrate history, so they are not read.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Types from `std` and the language that no `.rs` file of the tree
/// defines.
const STD_TYPES: &[&str] = &[
    "Arc",
    "BTreeMap",
    "Box",
    "Duration",
    "HashMap",
    "HashSet",
    "Instant",
    "Iterator",
    "Mutex",
    "Option",
    "Ordering",
    "PoisonError",
    "Result",
    "Self",
    "String",
    "Vec",
];

/// Members a `#[derive]` or a blanket impl provides without a
/// definition in the tree.
const DERIVED: &[&str] = &["clone", "default", "eq", "fmt", "from", "into"];

#[test]
fn docs_name_only_paths_and_members_that_exist() {
    let members = defined_members();
    let mut stale = Vec::new();
    for (doc, text) in docs() {
        for (line, span) in spans(&text) {
            for span in expand_braces(&span) {
                if let Some(what) = missing(&span, &members) {
                    stale.push(format!("{doc}:{line}: `{span}` {what}"));
                }
            }
        }
    }
    assert!(
        stale.is_empty(),
        "stale doc references:\n{}",
        stale.join("\n")
    );
}

/// The checked documents and their text: the three top-level docs and
/// the `//!` lines of every crate root.
fn docs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
        .iter()
        .map(|d| (d.to_string(), read(&Path::new(ROOT).join(d))))
        .collect();
    let mut roots = vec![PathBuf::from("src/lib.rs")];
    for krate in dir(&Path::new(ROOT).join("crates")) {
        for file in ["src/lib.rs", "src/main.rs"] {
            roots.push(krate.join(file));
        }
    }
    for root in roots {
        let path = Path::new(ROOT).join(&root);
        if path.is_file() {
            let text = read(&path);
            // Other lines stay as blanks, so line numbers match the file.
            let crate_doc: Vec<&str> = text
                .lines()
                .map(|l| l.trim_start().strip_prefix("//!").unwrap_or_default())
                .collect();
            out.push((root.display().to_string(), crate_doc.join("\n")));
        }
    }
    out
}

/// Inline code spans outside fenced blocks, with their line numbers.
fn spans(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut fenced = false;
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        let parts: Vec<&str> = line.split('`').collect();
        // Odd-indexed parts sit between a pair of backticks.
        for span in parts.iter().skip(1).step_by(2).take((parts.len() - 1) / 2) {
            out.push((i + 1, span.trim().to_string()));
        }
    }
    out
}

/// `a{b,c}d` → `abd`, `acd`, recursively; text without braces as is.
fn expand_braces(span: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (span.find('{'), span.find('}')) else {
        return vec![span.to_string()];
    };
    if close < open {
        return vec![span.to_string()];
    }
    let (head, alts, tail) = (&span[..open], &span[open + 1..close], &span[close + 1..]);
    alts.split(',')
        .flat_map(|alt| expand_braces(&format!("{head}{}{tail}", alt.trim())))
        .collect()
}

/// Why `span` names something that does not exist, if it does.
fn missing(span: &str, members: &HashMap<String, HashSet<String>>) -> Option<String> {
    if ["crates/", "benchmark/", "tests/"]
        .iter()
        .any(|p| span.starts_with(p))
    {
        let path = span.split_whitespace().next().unwrap_or(span);
        // A line reference (`file.rs:12`, `:382–392`, `:108,863`) and
        // trailing punctuation are not part of the path.
        let path = path.split(':').next().unwrap_or(path);
        let path = path.trim_end_matches(['.', ',', ';', ')']);
        if path.contains(['…', '<', '>']) || path.contains("...") {
            return None;
        }
        return (!path_exists(path)).then(|| "is not in the tree".to_string());
    }
    let (ty, rest) = type_member(span)?;
    let member: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if member.is_empty() || STD_TYPES.contains(&ty.as_str()) || DERIVED.contains(&member.as_str()) {
        return None;
    }
    match members.get(&ty) {
        Some(defined) if defined.contains(&member) => None,
        Some(_) => Some(format!("names no member `{member}` of `{ty}`")),
        None => Some(format!("names a type `{ty}` no .rs file defines")),
    }
}

/// The first `Type::rest` in `span` whose `Type` is capitalised.
fn type_member(span: &str) -> Option<(String, &str)> {
    let mut from = 0;
    while let Some(at) = span[from..].find("::") {
        let at = from + at;
        let head = &span[..at];
        let ty: String = head
            .chars()
            .rev()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect::<Vec<char>>()
            .into_iter()
            .rev()
            .collect();
        if ty.starts_with(|c: char| c.is_ascii_uppercase()) {
            return Some((ty, &span[at + 2..]));
        }
        from = at + 2;
    }
    None
}

/// Whether a doc path names a file or directory: `crates/` and
/// `benchmark/` paths from the workspace root, `tests/` paths in the
/// root package or any crate. A `*` component matches any entry.
fn path_exists(path: &str) -> bool {
    let root = Path::new(ROOT);
    let bases: Vec<PathBuf> = if path.starts_with("tests/") {
        let mut bases = vec![root.to_path_buf()];
        bases.extend(dir(&root.join("crates")));
        bases
    } else {
        vec![root.to_path_buf()]
    };
    bases.iter().any(|base| glob_exists(base, path.split('/')))
}

fn glob_exists<'a>(base: &Path, mut parts: impl Iterator<Item = &'a str> + Clone) -> bool {
    let Some(part) = parts.next() else {
        return base.exists();
    };
    if part.is_empty() {
        return base.exists();
    }
    if !part.contains('*') {
        return glob_exists(&base.join(part), parts);
    }
    let (prefix, suffix) = part.split_once('*').unwrap_or((part, ""));
    dir(base).into_iter().any(|entry| {
        let name = entry.file_name().map(|n| n.to_string_lossy().to_string());
        let name = name.unwrap_or_default();
        name.starts_with(prefix) && name.ends_with(suffix) && glob_exists(&entry, parts.clone())
    })
}

/// Type name → the fns, fields, variants, consts and associated types
/// some `.rs` file of the tree defines on it.
fn defined_members() -> HashMap<String, HashSet<String>> {
    let mut members: HashMap<String, HashSet<String>> = HashMap::new();
    let root = Path::new(ROOT);
    let mut files = Vec::new();
    for top in ["src", "tests", "examples", "crates", "benchmark/src"] {
        rust_files(&root.join(top), &mut files);
    }
    for file in files {
        let code = strip(&read(&file));
        for (ty, names) in items(&code) {
            members.entry(ty).or_default().extend(names);
        }
    }
    members
}

fn rust_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        if path.file_name().is_some_and(|n| n == "target") {
            return;
        }
        for entry in dir(path) {
            rust_files(&entry, out);
        }
    } else if path.extension().is_some_and(|e| e == "rs") {
        out.push(path.to_path_buf());
    }
}

/// The `struct`, `enum`, `trait` and `impl` blocks of comment- and
/// literal-free `code`, each as (type, members at the block's top
/// level).
fn items(code: &str) -> Vec<(String, Vec<String>)> {
    let mut out = Vec::new();
    let words: Vec<(usize, &str)> = idents(code);
    for (w, &(at, word)) in words.iter().enumerate() {
        if !matches!(word, "struct" | "enum" | "trait" | "impl") {
            continue;
        }
        let Some(open) = code[at..].find(['{', ';']).map(|i| at + i) else {
            continue;
        };
        if code.as_bytes()[open] != b'{' {
            continue;
        }
        let header = &code[at + word.len()..open];
        let ty = match word {
            "impl" => {
                let target = header.rsplit(" for ").next().unwrap_or(header);
                let target = top_level(target);
                idents(&target).last().map(|(_, t)| t.to_string())
            }
            _ => words.get(w + 1).map(|(_, t)| t.to_string()),
        };
        let Some(ty) = ty else { continue };
        let body = top_level(&code[open + 1..matching(code, open)]);
        let names = match word {
            "struct" => body
                .split(',')
                .filter_map(|field| field.split_once(':'))
                .filter_map(|(head, _)| idents(head).last().map(|(_, n)| n.to_string()))
                .collect(),
            "enum" => body
                .split(',')
                .filter_map(|variant| idents(variant).first().map(|(_, n)| n.to_string()))
                .collect(),
            _ => {
                let inner = idents(&body);
                inner
                    .windows(2)
                    .filter(|p| matches!(p[0].1, "fn" | "const" | "type"))
                    .map(|p| p[1].1.to_string())
                    .collect()
            }
        };
        out.push((ty, names));
    }
    out
}

/// The index of the `}` closing the `{` at `open`.
fn matching(code: &str, open: usize) -> usize {
    let mut depth = 0usize;
    for (i, b) in code.bytes().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    code.len()
}

/// `text` with everything nested inside `{}`, `()`, `[]` or `<>` removed.
/// Angle brackets count only outside the others, where they are generics
/// rather than comparisons.
fn top_level(text: &str) -> String {
    let (mut depth, mut angles) = (0i32, 0i32);
    let mut out = String::new();
    let mut prev = ' ';
    for c in text.chars() {
        match c {
            '{' | '(' | '[' => depth += 1,
            '}' | ')' | ']' => depth -= 1,
            '<' if depth == 0 => angles += 1,
            '>' if depth == 0 && prev != '-' && prev != '=' => angles -= 1,
            _ if depth == 0 && angles == 0 => out.push(c),
            _ => {}
        }
        prev = c;
    }
    out
}

/// Identifiers (and keywords) in `text` with their byte offsets.
fn idents(text: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, c) in text.char_indices().chain([(text.len(), ' ')]) {
        let word = c.is_alphanumeric() || c == '_';
        match (start, word) {
            (None, true) => start = Some(i),
            (Some(s), false) => {
                if !text[s..i].starts_with(|c: char| c.is_ascii_digit()) {
                    out.push((s, &text[s..i]));
                }
                start = None;
            }
            _ => {}
        }
    }
    out
}

/// `src` with comments removed and string and char literals emptied, so
/// braces count only where the code has them.
fn strip(src: &str) -> String {
    let chars: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    while i < chars.len() {
        let (c, next) = (chars[i], chars.get(i + 1).copied());
        if c == '/' && next == Some('/') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && next == Some('*') {
            i += 2;
            while i + 1 < chars.len() && !(chars[i] == '*' && chars[i + 1] == '/') {
                i += 1;
            }
            i += 2;
        } else if c == 'r' && matches!(next, Some('"' | '#')) && !ident_before(&chars, i) {
            // A raw string: r"…" or r#"…"#.
            let mut j = i + 1;
            let mut hashes = 0;
            while chars.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if chars.get(j) != Some(&'"') {
                out.push(c);
                i += 1;
                continue;
            }
            let close: String = std::iter::once('"')
                .chain(std::iter::repeat_n('#', hashes))
                .collect();
            let rest: String = chars[j + 1..].iter().collect();
            let end = rest
                .find(&close)
                .map_or(chars.len(), |e| j + 1 + rest[..e].chars().count());
            out.push_str("\"\"");
            i = end + 1 + hashes;
        } else if c == '"' {
            i += 1;
            while i < chars.len() && chars[i] != '"' {
                i += if chars[i] == '\\' { 2 } else { 1 };
            }
            out.push_str("\"\"");
            i += 1;
        } else if c == '\'' && (next == Some('\\') || chars.get(i + 2) == Some(&'\'')) {
            // A char literal; a lifetime has no closing quote.
            i += if next == Some('\\') { 2 } else { 1 };
            while i < chars.len() && chars[i] != '\'' {
                i += 1;
            }
            out.push_str("' '");
            i += 1;
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

fn ident_before(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

fn dir(path: &Path) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = fs::read_dir(path)
        .map(|d| d.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    entries.sort();
    entries
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}
