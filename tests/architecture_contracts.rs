//! Citations in the documentation cannot go stale: every test
//! `docs/ARCHITECTURE.md` names next to a contract, and every repository
//! path `docs/*.md` and `README.md` cite, must exist.
//!
//! A test citation is a backticked snake_case name of three or more words in
//! a `*Tests:*` or `*Test:*` paragraph, read from the marker to the
//! paragraph's end. Two-word names such as `saturated_votes` are fields or
//! bench rows, not tests, so they are not checked. Each citation must be a
//! `fn` somewhere under `crates/` or `tests/`.
//!
//! A cited path is a run of path characters that starts a word with one of
//! [`PATH_ROOTS`] and ends in one of [`PATH_EXTENSIONS`]; a sentence's
//! closing period is not part of it. Each must name a file of the
//! repository.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// The test names cited in the `*Tests:*` / `*Test:*` paragraphs of `doc`.
fn cited_tests(doc: &str) -> BTreeSet<String> {
    let mut cited = BTreeSet::new();
    let mut paragraph = String::new();
    for line in doc.lines().chain([""]) {
        if !line.trim().is_empty() {
            paragraph.push_str(line);
            paragraph.push('\n');
            continue;
        }
        let marker = ["*Tests:*", "*Test:*"]
            .iter()
            .filter_map(|m| paragraph.find(m))
            .min();
        if let Some(start) = marker {
            let spans = paragraph[start..].split('`').skip(1).step_by(2);
            cited.extend(spans.filter(|s| is_test_name(s)).map(str::to_owned));
        }
        paragraph.clear();
    }
    cited
}

/// A snake_case identifier of at least three words.
fn is_test_name(span: &str) -> bool {
    span.starts_with(|c: char| c.is_ascii_lowercase())
        && span
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        && span.split('_').filter(|w| !w.is_empty()).count() >= 3
}

/// Every `fn` name in the Rust sources under `dir`.
fn fn_names(dir: &Path, names: &mut BTreeSet<String>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                fn_names(&path, names);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let source = fs::read_to_string(&path).expect("readable source");
            for (i, _) in source.match_indices("fn ") {
                let boundary = source[..i]
                    .chars()
                    .next_back()
                    .is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
                let name: String = source[i + 3..]
                    .chars()
                    .take_while(|&c| c.is_alphanumeric() || c == '_')
                    .collect();
                if boundary && !name.is_empty() {
                    names.insert(name);
                }
            }
        }
    }
}

/// The top-level directories a cited path starts with.
const PATH_ROOTS: [&str; 5] = ["crates/", "tests/", "examples/", "benchmarks/", "evbench/"];

/// The extensions a cited path ends with.
const PATH_EXTENSIONS: [&str; 5] = [".rs", ".md", ".json", ".toml", ".lock"];

/// The repository paths cited in `text`.
fn cited_paths(text: &str) -> BTreeSet<String> {
    let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    let mut cited = BTreeSet::new();
    let mut rest = text;
    while let Some(start) = rest.find(|c: char| is_path_char(c)) {
        let word = &rest[start..];
        let end = word.find(|c: char| !is_path_char(c)).unwrap_or(word.len());
        let path = word[..end].trim_end_matches('.');
        if PATH_ROOTS.iter().any(|r| path.starts_with(r))
            && PATH_EXTENSIONS.iter().any(|e| path.ends_with(e))
        {
            cited.insert(path.to_owned());
        }
        rest = &word[end..];
    }
    cited
}

#[test]
fn cited_paths_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut docs = vec![root.join("README.md")];
    for entry in fs::read_dir(root.join("docs")).expect("docs/") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            docs.push(path);
        }
    }
    let mut cited = BTreeSet::new();
    for doc in &docs {
        let text = fs::read_to_string(doc).unwrap_or_else(|e| panic!("{}: {e}", doc.display()));
        cited.extend(cited_paths(&text));
    }
    assert!(!cited.is_empty(), "the documentation cites no path");
    let missing: Vec<_> = cited.iter().filter(|p| !root.join(p).is_file()).collect();
    assert!(
        missing.is_empty(),
        "docs/*.md or README.md cite paths that do not exist: {missing:?}"
    );
}

#[test]
fn cited_paths_are_whole_words_with_a_known_root_and_extension() {
    let text = "See `crates/hwsim/src/device.rs`, crates/dsi/src/volume.rs:518 and\n\
                [tests](tests/cosim_equivalence.rs). Also evbench/Cargo.lock.\n\
                Not: src/crates/x.rs, crates/bench/src/bin/*.rs, docs/WIRE.md,\n\
                crates/hwsim, tests/regressions/a.fuzzworld.";
    let cited: Vec<_> = cited_paths(text).into_iter().collect();
    assert_eq!(
        cited,
        [
            "crates/dsi/src/volume.rs",
            "crates/hwsim/src/device.rs",
            "evbench/Cargo.lock",
            "tests/cosim_equivalence.rs"
        ]
    );
}

#[test]
fn cited_contract_tests_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = fs::read_to_string(root.join("docs/ARCHITECTURE.md")).expect("ARCHITECTURE.md");
    let cited = cited_tests(&doc);
    assert!(!cited.is_empty(), "no contract cites a test");
    let mut defined = BTreeSet::new();
    fn_names(&root.join("crates"), &mut defined);
    fn_names(&root.join("tests"), &mut defined);
    let missing: Vec<_> = cited.difference(&defined).collect();
    assert!(
        missing.is_empty(),
        "ARCHITECTURE.md cites tests that no `fn` under crates/ or tests/ defines: {missing:?}"
    );
}

#[test]
fn citations_are_three_word_names_after_the_marker() {
    let doc = "Prose names `not_a_citation_here` before the marker.\n\
               *Tests:* `first_cited_test`, `saturated_votes`,\n\
               `tests/cosim_equivalence.rs`, `kernel::project_z0`.\n\
               \n\
               `after_the_paragraph_end` *Test:* `second_cited_test`.\n";
    let cited: Vec<_> = cited_tests(doc).into_iter().collect();
    assert_eq!(cited, ["first_cited_test", "second_cited_test"]);
}
