//! Every benchmark or output file the docs cite by name must exist at the
//! repository root: a doc that points readers at a `BENCH_*.json` ledger
//! or a `*_output.txt` capture nobody produces is evidence that cannot be
//! checked.

use std::path::Path;

/// The docs a reader follows to reproduce a number.
const DOCS: [&str; 4] =
    ["README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"];

/// The root-level file names `text` cites: `BENCH_*.json` and
/// `*_output.txt`. A name with a directory in front is not root-level
/// and is skipped; a shorthand such as `BENCH_a/b.json` is kept whole,
/// so it fails the existence check rather than slipping past it.
fn cited_files(text: &str) -> Vec<&str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || "_./-".contains(c)))
        .map(|word| word.trim_end_matches('.'))
        .filter(|word| {
            (word.starts_with("BENCH_") && word.ends_with(".json"))
                || (word.ends_with("_output.txt") && !word.contains('/'))
        })
        .collect()
}

#[test]
fn cited_bench_files_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc))
            .unwrap_or_else(|e| panic!("read {doc}: {e}"));
        for name in cited_files(&text) {
            if !root.join(name).is_file() {
                missing.push(format!("{doc} cites {name}"));
            }
        }
    }
    assert!(missing.is_empty(), "cited files missing at the repository root: {missing:#?}");
}

#[test]
fn citation_scan_finds_root_names_only() {
    let text = "see `BENCH_serve.json`, bench_output.txt. and BENCH_a/b.json; \
                not perfbench/BENCH_x.json, /tmp/run_output.txt or BENCH_*.json";
    assert_eq!(cited_files(text), ["BENCH_serve.json", "bench_output.txt", "BENCH_a/b.json"]);
}
