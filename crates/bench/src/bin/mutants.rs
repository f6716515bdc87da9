//! `mutants` — the runner of the checked-in mutant list.
//!
//! ```text
//! mutants mutants.txt
//! ```
//!
//! Parses the list, and exits 1 before anything is built when it is
//! malformed or when some entry's `find` text does not occur exactly once
//! in its file. Then runs every entry's test command once on a clean copy
//! of the tree, which must pass, and applies each mutant, one at a time,
//! to a fresh copy of the tree, where its test command must fail. Exits 1
//! on a failing clean run or a surviving mutant.
//!
//! Every run gets its own copy and its own target directory. A mutant is
//! never applied in place: a file restored with an mtime older than the
//! last build would let cargo keep the mutant's build. The copy holds the
//! files git tracks or would track (`git ls-files --cached --others
//! --exclude-standard`), so it sees uncommitted edits; a mutant costs one
//! release build of what its test needs.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// One mutant: replace the one occurrence of `find` in `file` with
/// `replace`, and `test` must fail.
#[derive(Debug, PartialEq)]
struct Mutant {
    name: String,
    file: String,
    find: String,
    replace: String,
    test: String,
}

/// Parses the list: `# comments`, and entries of a `[name]` line followed
/// by `file = `, `find = `, `replace = ` and `test = ` lines. A value is
/// the rest of its line after `= `, taken exactly.
fn parse(text: &str) -> Result<Vec<Mutant>, String> {
    let mut mutants = Vec::new();
    let mut fields: Option<(String, [Option<String>; 4])> = None;
    const KEYS: [&str; 4] = ["file", "find", "replace", "test"];
    let finish = |entry: Option<(String, [Option<String>; 4])>| -> Result<Option<Mutant>, String> {
        let Some((name, values)) = entry else {
            return Ok(None);
        };
        let [file, find, replace, test] = values;
        let missing = |key: &str| format!("mutant [{name}] has no `{key}`");
        Ok(Some(Mutant {
            file: file.ok_or_else(|| missing("file"))?,
            find: find.ok_or_else(|| missing("find"))?,
            replace: replace.ok_or_else(|| missing("replace"))?,
            test: test.ok_or_else(|| missing("test"))?,
            name,
        }))
    };
    for (number, line) in (1..).zip(text.lines()) {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            mutants.extend(finish(fields.take())?);
            fields = Some((name.to_string(), Default::default()));
            continue;
        }
        let Some((key, value)) = line.split_once(" = ") else {
            return Err(format!(
                "line {number}: expected `key = value`, got {line:?}"
            ));
        };
        let Some(index) = KEYS.iter().position(|&k| k == key) else {
            return Err(format!("line {number}: unknown key {key:?}"));
        };
        let Some((_, values)) = fields.as_mut() else {
            return Err(format!("line {number}: `{key}` before any `[name]`"));
        };
        if values[index].replace(value.to_string()).is_some() {
            return Err(format!("line {number}: `{key}` given twice"));
        }
    }
    mutants.extend(finish(fields.take())?);
    if mutants.is_empty() {
        return Err("the list holds no mutant".into());
    }
    Ok(mutants)
}

/// The source of `mutant` applied: the text of `file` with its one
/// occurrence of `find` replaced, or why it cannot be applied.
fn apply(source: &str, mutant: &Mutant) -> Result<String, String> {
    match source.matches(mutant.find.as_str()).count() {
        1 => Ok(source.replacen(&mutant.find, &mutant.replace, 1)),
        count => Err(format!(
            "[{}]: {:?} occurs {count} times in {}, not once",
            mutant.name, mutant.find, mutant.file
        )),
    }
}

/// Copies the files of the tree at `root` that git tracks or would track
/// into `dest`, with fresh mtimes.
fn copy_tree(root: &Path, dest: &Path) -> Result<(), String> {
    let listed = Command::new("git")
        .args([
            "ls-files",
            "-z",
            "--cached",
            "--others",
            "--exclude-standard",
        ])
        .current_dir(root)
        .output()
        .map_err(|e| format!("git ls-files: {e}"))?;
    if !listed.status.success() {
        return Err("git ls-files failed".into());
    }
    for name in listed.stdout.split(|&b| b == 0).filter(|n| !n.is_empty()) {
        let name = std::str::from_utf8(name).map_err(|e| e.to_string())?;
        let (from, to) = (root.join(name), dest.join(name));
        if !from.is_file() {
            // Deleted in the working tree but still in the index.
            continue;
        }
        if let Some(parent) = to.parent() {
            fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        }
        fs::copy(&from, &to).map_err(|e| format!("{name}: {e}"))?;
    }
    Ok(())
}

/// Runs `test` through `sh -c` in `dir`, with the copy's own target
/// directory, and returns whether it succeeded.
fn passes(dir: &Path, test: &str) -> Result<bool, String> {
    let status = Command::new("sh")
        .args(["-c", test])
        .current_dir(dir)
        .env("CARGO_TARGET_DIR", dir.join("target"))
        .status()
        .map_err(|e| format!("sh -c {test:?}: {e}"))?;
    Ok(status.success())
}

/// A fresh, empty directory for one run.
fn fresh_dir(work: &Path, label: &str) -> Result<PathBuf, String> {
    let dir = work.join(label);
    if dir.exists() {
        fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn run(list: &Path) -> Result<bool, String> {
    let text = fs::read_to_string(list).map_err(|e| format!("{}: {e}", list.display()))?;
    let root = list
        .canonicalize()
        .map_err(|e| e.to_string())?
        .parent()
        .ok_or("the list has no directory")?
        .to_path_buf();
    let mutants = parse(&text)?;
    // Every entry must apply before anything is built.
    for mutant in &mutants {
        let source = fs::read_to_string(root.join(&mutant.file))
            .map_err(|e| format!("[{}]: {}: {e}", mutant.name, mutant.file))?;
        apply(&source, mutant)?;
    }
    let work = std::env::temp_dir().join(format!("mutants-{}", std::process::id()));
    let clean = fresh_dir(&work, "clean")?;
    copy_tree(&root, &clean)?;
    let mut tests: Vec<&str> = mutants.iter().map(|m| m.test.as_str()).collect();
    tests.dedup();
    for test in tests {
        if !passes(&clean, test)? {
            return Err(format!("the clean tree fails {test:?}"));
        }
    }
    fs::remove_dir_all(&clean).map_err(|e| e.to_string())?;
    let mut survivors = Vec::new();
    for (index, mutant) in mutants.iter().enumerate() {
        let dir = fresh_dir(&work, &format!("mutant-{index}"))?;
        copy_tree(&root, &dir)?;
        let path = dir.join(&mutant.file);
        let source = fs::read_to_string(&path).map_err(|e| e.to_string())?;
        fs::write(&path, apply(&source, mutant)?).map_err(|e| e.to_string())?;
        let survived = passes(&dir, &mutant.test)?;
        println!(
            "mutants: [{}] {}",
            mutant.name,
            if survived { "SURVIVED" } else { "caught" }
        );
        if survived {
            survivors.push(mutant.name.as_str());
        }
        fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    let _ = fs::remove_dir(&work);
    if !survivors.is_empty() {
        eprintln!("mutants: {} survived: {survivors:?}", survivors.len());
    }
    Ok(survivors.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [list] = args.as_slice() else {
        eprintln!("usage: mutants <mutants.txt>");
        return ExitCode::from(2);
    };
    match run(Path::new(list)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("mutants: {message}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENTRY: &str =
        "# a comment\n\n[one]\nfile = a.rs\nfind = x < k\nreplace = x <= k\ntest = cargo test t\n";

    #[test]
    fn entries_parse_with_their_values_taken_exactly() {
        let mutants = parse(ENTRY).unwrap();
        assert_eq!(
            mutants,
            vec![Mutant {
                name: "one".into(),
                file: "a.rs".into(),
                find: "x < k".into(),
                replace: "x <= k".into(),
                test: "cargo test t".into(),
            }]
        );
    }

    #[test]
    fn malformed_lists_are_errors() {
        assert!(parse("").is_err());
        assert!(parse("file = a.rs\n").unwrap_err().contains("before any"));
        assert!(parse("[a]\nfile = a.rs\n")
            .unwrap_err()
            .contains("no `find`"));
        assert!(parse("[a]\nfile = a\nfile = b\n")
            .unwrap_err()
            .contains("twice"));
        assert!(parse("[a]\nsize = 3\n")
            .unwrap_err()
            .contains("unknown key"));
        assert!(parse("[a]\nfile: a\n").unwrap_err().contains("line 2"));
    }

    #[test]
    fn a_mutant_applies_only_to_exactly_one_occurrence() {
        let mutant = &parse(ENTRY).unwrap()[0];
        assert_eq!(apply("if x < k {", mutant).unwrap(), "if x <= k {");
        assert!(apply("if y {", mutant).unwrap_err().contains("0 times"));
        assert!(apply("x < k; x < k", mutant)
            .unwrap_err()
            .contains("2 times"));
    }
}
