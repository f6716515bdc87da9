//! `lab` — the experiment-sweep CLI.
//!
//! ```text
//! lab plans                                list the built-in sweep plans
//! lab expand [--plan NAME|--plan-file F]   print the trials a plan expands to
//! lab run    [--plan NAME|--plan-file F]   run a sweep and print the summary
//!            [--workers N] [--jsonl PATH] [--format text|md|csv]
//! lab report [--out PATH] [--check]        regenerate (or verify) EXPERIMENTS.md
//! lab doccheck [FILE ...]                  validate markdown cross-references
//! ```
//!
//! `lab report` runs the built-in `report` plan twice — with 1 worker and
//! with 4 workers — and refuses to write anything unless the two sweeps
//! produce bit-identical records; the resulting document states the check.
//!
//! `lab doccheck` (default files: `EXPERIMENTS.md`, `ARCHITECTURE.md`,
//! `README.md`, `ROADMAP.md`) guards the hand-written documents against
//! drift: every relative markdown link and every back-ticked repo path must
//! name an existing file, every URL must be well-formed (arXiv links in the
//! canonical `arxiv.org/abs/<id>` form, DOI links resolving a `/10.…` DOI),
//! heading anchors must be unique per file, every `BENCH_*.json` baseline
//! mentioned must exist, and every `Table N` reference must match a
//! `## Table N` heading in the EXPERIMENTS.md next to the checked file — so
//! renumbering the generated tables without updating the architecture notes
//! fails CI.
//!
//! Exit codes: `0` success, `1` usage or plan errors, `2` a failed check
//! (report drift, bound violation, shard mismatch, or a dangling doc
//! reference), `141` a reader that closed stdout early.

use std::fmt::Display;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

use explab::executor::{expand, run};
use explab::plan::SweepPlan;
use explab::report::{experiments_markdown, family_overview};
use explab::ExplabError;
use gridviz::Table;

/// The worker counts `lab report` cross-checks; the note is embedded in the
/// generated document, so both are fixed rather than machine-derived.
const REPORT_WORKERS: (usize, usize) = (1, 4);

/// Upper bound on `--workers` (one OS thread each; sweeps saturate memory
/// bandwidth far below this).
const MAX_WORKERS: usize = 1024;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: lab <plans|expand|run|report> [options]");
        return ExitCode::from(1);
    };
    let result = match command.as_str() {
        "plans" => cmd_plans(rest),
        "expand" => cmd_expand(rest),
        "run" => cmd_run(rest),
        "report" => cmd_report(rest),
        "doccheck" => cmd_doccheck(rest),
        other => Err(CliError::Usage(format!("unknown subcommand {other:?}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(message)) => {
            eprintln!("lab: {message}");
            ExitCode::from(1)
        }
        Err(CliError::Plan(error)) => {
            eprintln!("lab: {error}");
            ExitCode::from(1)
        }
        Err(CliError::Check(message)) => {
            eprintln!("lab: CHECK FAILED: {message}");
            ExitCode::from(2)
        }
        Err(CliError::Io(message)) => {
            eprintln!("lab: {message}");
            ExitCode::from(1)
        }
    }
}

/// Writes `text` to stdout: every command prints through here. A reader
/// that closes the pipe early (`lab expand | head -1`) ends the process
/// quietly with status 141, what a shell reports for SIGPIPE, so output
/// cut short never reads as a success.
fn emit(text: impl Display) -> Result<(), CliError> {
    let mut stdout = std::io::stdout().lock();
    match write!(stdout, "{text}").and_then(|()| stdout.flush()) {
        Ok(()) => Ok(()),
        Err(error) if error.kind() == ErrorKind::BrokenPipe => std::process::exit(141),
        Err(error) => Err(CliError::Io(format!("cannot write to stdout: {error}"))),
    }
}

enum CliError {
    Usage(String),
    Plan(ExplabError),
    Check(String),
    Io(String),
}

impl From<ExplabError> for CliError {
    fn from(error: ExplabError) -> Self {
        CliError::Plan(error)
    }
}

/// Pulls `--flag value` out of an option list; the remaining options must be
/// empty when the caller is done.
struct Options {
    args: Vec<String>,
}

impl Options {
    fn new(rest: &[String]) -> Options {
        Options {
            args: rest.to_vec(),
        }
    }

    fn take_value(&mut self, flag: &str) -> Result<Option<String>, CliError> {
        if let Some(index) = self.args.iter().position(|a| a == flag) {
            if index + 1 >= self.args.len() {
                return Err(CliError::Usage(format!("{flag} needs a value")));
            }
            let value = self.args.remove(index + 1);
            self.args.remove(index);
            return Ok(Some(value));
        }
        Ok(None)
    }

    fn take_flag(&mut self, flag: &str) -> bool {
        if let Some(index) = self.args.iter().position(|a| a == flag) {
            self.args.remove(index);
            return true;
        }
        false
    }

    fn finish(self) -> Result<(), CliError> {
        if let Some(stray) = self.args.first() {
            return Err(CliError::Usage(format!("unexpected argument {stray:?}")));
        }
        Ok(())
    }
}

/// Resolves `--plan NAME` / `--plan-file PATH` (default: the `smoke`
/// built-in).
fn load_plan(options: &mut Options) -> Result<SweepPlan, CliError> {
    let name = options.take_value("--plan")?;
    let file = options.take_value("--plan-file")?;
    match (name, file) {
        (Some(_), Some(_)) => Err(CliError::Usage(
            "--plan and --plan-file are mutually exclusive".into(),
        )),
        (Some(name), None) => Ok(SweepPlan::builtin(&name)?),
        (None, Some(path)) => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
            Ok(SweepPlan::parse(&text)?)
        }
        (None, None) => Ok(SweepPlan::builtin("smoke")?),
    }
}

fn cmd_plans(rest: &[String]) -> Result<(), CliError> {
    Options::new(rest).finish()?;
    let mut table = Table::new(vec!["plan", "families", "workloads", "trials"]);
    for name in SweepPlan::BUILTIN_NAMES {
        let plan = SweepPlan::builtin(name)?;
        table.push_row(vec![
            name.to_string(),
            plan.families
                .iter()
                .map(|f| f.name())
                .collect::<Vec<_>>()
                .join(", "),
            plan.workloads
                .iter()
                .map(|w| w.name())
                .collect::<Vec<_>>()
                .join(", "),
            expand(&plan).len().to_string(),
        ]);
    }
    emit(table)
}

fn cmd_expand(rest: &[String]) -> Result<(), CliError> {
    let mut options = Options::new(rest);
    let plan = load_plan(&mut options)?;
    options.finish()?;
    let specs = expand(&plan);
    let mut table = Table::new(vec!["id", "family", "guest", "host", "nodes", "seed"]);
    for spec in &specs {
        table.push_row(vec![
            spec.id.to_string(),
            spec.family.to_string(),
            spec.guest.to_string(),
            spec.host.to_string(),
            spec.guest.size().to_string(),
            format!("{:#018x}", spec.seed),
        ]);
    }
    emit(table)?;
    eprintln!("{} trials", specs.len());
    Ok(())
}

fn cmd_run(rest: &[String]) -> Result<(), CliError> {
    let mut options = Options::new(rest);
    let plan = load_plan(&mut options)?;
    let workers: usize = match options.take_value("--workers")? {
        None => 0,
        Some(value) => {
            let workers = value.parse().map_err(|_| {
                CliError::Usage(format!("--workers must be an integer, got {value:?}"))
            })?;
            // Each worker is one OS thread; a runaway value would die in a
            // thread-spawn panic deep inside the executor instead of a
            // usage error here.
            if workers > MAX_WORKERS {
                return Err(CliError::Usage(format!(
                    "--workers must be at most {MAX_WORKERS}, got {workers}"
                )));
            }
            workers
        }
    };
    let jsonl = options.take_value("--jsonl")?;
    let format = options
        .take_value("--format")?
        .unwrap_or_else(|| "text".into());
    options.finish()?;
    // Reject a bad --format before the sweep runs, not after minutes of work.
    if !matches!(format.as_str(), "text" | "md" | "csv") {
        return Err(CliError::Usage(format!(
            "--format must be text, md or csv, got {format:?}"
        )));
    }

    let outcome = run(&plan, workers);
    let streaming_jsonl = jsonl.as_deref() == Some("-");
    if let Some(path) = jsonl {
        if streaming_jsonl {
            emit(outcome.to_jsonl())?;
        } else {
            std::fs::write(&path, outcome.to_jsonl())
                .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
            eprintln!("wrote {} records to {path}", outcome.records.len());
        }
    }
    // When records stream to stdout, the overview table would corrupt the
    // JSONL for downstream parsers; the stderr summary below still reports
    // the totals.
    if !streaming_jsonl {
        let overview = family_overview(&outcome);
        match format.as_str() {
            "text" => emit(overview)?,
            "md" => emit(overview.to_markdown())?,
            _ => emit(overview.to_csv())?,
        }
    }
    eprintln!(
        "plan {}: {} trials, {} supported, {} bound violations",
        outcome.plan_name,
        outcome.records.len(),
        outcome.supported(),
        outcome.bound_violations().len()
    );
    if !outcome.bound_violations().is_empty() {
        return Err(CliError::Check(format!(
            "{} trials violate a bound (dilation/chain prediction, injectivity, \
             or optimizer congestion monotonicity)",
            outcome.bound_violations().len()
        )));
    }
    Ok(())
}

/// The files `lab doccheck` validates when none are given.
const DOCCHECK_DEFAULTS: [&str; 4] = [
    "EXPERIMENTS.md",
    "ARCHITECTURE.md",
    "README.md",
    "ROADMAP.md",
];

/// Extracts the targets of markdown links (`[text](target)`) from `text`.
fn markdown_link_targets(text: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b']' && bytes[i + 1] == b'(' {
            if let Some(end) = text[i + 2..].find(')') {
                targets.push(text[i + 2..i + 2 + end].to_string());
                i += 2 + end;
                continue;
            }
        }
        i += 1;
    }
    targets
}

/// Extracts back-ticked spans that look like repo paths: no whitespace, a
/// path separator or a doc/data extension, and none of the placeholder
/// characters that mark patterns rather than files.
fn backticked_paths(text: &str) -> Vec<String> {
    text.split('`')
        .skip(1)
        .step_by(2)
        .filter(|span| {
            !span.is_empty()
                && !span.contains(char::is_whitespace)
                && !span.contains(['{', '}', '<', '>', '*', ':', '|'])
                // Absolute paths point outside the repo (e.g. environment
                // notes); only repo-relative references are checkable.
                && !span.starts_with('/')
                && (span.contains('/')
                    || span.ends_with(".md")
                    || span.ends_with(".json")
                    || span.ends_with(".toml"))
        })
        .map(str::to_string)
        .collect()
}

/// Extracts every `http://`/`https://` URL in `text` — bare or inside a
/// markdown link — up to the first whitespace or delimiter, with trailing
/// sentence punctuation stripped.
fn urls(text: &str) -> Vec<String> {
    let mut found = Vec::new();
    for scheme in ["https://", "http://"] {
        for (index, _) in text.match_indices(scheme) {
            let rest = &text[index..];
            let end = rest
                .find(|c: char| {
                    c.is_whitespace() || matches!(c, ')' | ']' | '>' | '"' | '`' | '\'' | ',')
                })
                .unwrap_or(rest.len());
            found.push(rest[..end].trim_end_matches(['.', ';', ':']).to_string());
        }
    }
    found
}

/// Validates one URL: it must carry a dotted host, arXiv links must use the
/// canonical `arxiv.org/abs/<id>` (or `/pdf/<id>`) form, and DOI links must
/// resolve a `/10.…` DOI. Returns a problem description, or `None` when the
/// URL is fine.
fn url_problem(url: &str) -> Option<String> {
    let rest = url
        .strip_prefix("https://")
        .or_else(|| url.strip_prefix("http://"))
        .unwrap_or(url);
    let host = rest.split('/').next().unwrap_or("");
    if host.is_empty() || !host.contains('.') {
        return Some(format!("malformed URL {url:?} (no dotted host)"));
    }
    let path = &rest[host.len()..];
    if host == "arxiv.org" || host.ends_with(".arxiv.org") {
        let id_ok = |id: &str| {
            !id.is_empty()
                && id
                    .chars()
                    .all(|c| c.is_ascii_digit() || matches!(c, '.' | 'v'))
        };
        let ok = ["/abs/", "/pdf/"]
            .iter()
            .any(|prefix| path.strip_prefix(prefix).is_some_and(id_ok));
        if !ok {
            return Some(format!(
                "arXiv URL {url:?} is not of the form https://arxiv.org/abs/<id>"
            ));
        }
    }
    if (host == "doi.org" || host.ends_with(".doi.org")) && !path.starts_with("/10.") {
        return Some(format!("DOI URL {url:?} does not resolve a `/10.…` DOI"));
    }
    None
}

/// The GitHub-style anchors of every markdown heading in `text`, skipping
/// fenced code blocks (a `#` there is a shell comment, not a heading).
fn heading_anchors(text: &str) -> Vec<String> {
    let mut in_fence = false;
    let mut anchors = Vec::new();
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence || !line.starts_with('#') {
            continue;
        }
        anchors.push(
            line.trim_start_matches('#')
                .trim()
                .chars()
                .filter_map(|c| {
                    if c.is_ascii_alphanumeric() {
                        Some(c.to_ascii_lowercase())
                    } else if c == ' ' || c == '-' {
                        Some('-')
                    } else {
                        None
                    }
                })
                .collect(),
        );
    }
    anchors
}

/// Extracts every `BENCH_<name>.json` baseline reference in `text`,
/// deduplicated (glob placeholders like `BENCH_*.json` are skipped).
fn bench_file_references(text: &str) -> Vec<String> {
    let mut found: Vec<String> = Vec::new();
    for (index, _) in text.match_indices("BENCH_") {
        let rest = &text[index..];
        let Some(end) = rest.find(".json") else {
            continue;
        };
        let stem = &rest["BENCH_".len()..end];
        if !stem.is_empty() && stem.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            found.push(rest[..end + ".json".len()].to_string());
        }
    }
    found.sort();
    found.dedup();
    found
}

/// Extracts the numbers of every `Table N` reference in `text`.
fn table_references(text: &str) -> Vec<u32> {
    let mut numbers = Vec::new();
    for (index, _) in text.match_indices("Table ") {
        let digits: String = text[index + "Table ".len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        if let Ok(number) = digits.parse() {
            numbers.push(number);
        }
    }
    numbers
}

/// The table numbers EXPERIMENTS.md actually defines (`## Table N` headings).
fn table_headings(text: &str) -> Vec<u32> {
    text.lines()
        .filter_map(|line| line.strip_prefix("## Table "))
        .filter_map(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().ok()
        })
        .collect()
}

/// `lab doccheck`: every relative link and back-ticked repo path in the
/// given markdown files must exist, and every `Table N` reference must have
/// a matching heading in the EXPERIMENTS.md that sits next to the file.
fn cmd_doccheck(rest: &[String]) -> Result<(), CliError> {
    if let Some(flag) = rest.iter().find(|a| a.starts_with("--")) {
        return Err(CliError::Usage(format!(
            "doccheck takes file paths only, got {flag:?}"
        )));
    }
    let files: Vec<String> = if rest.is_empty() {
        DOCCHECK_DEFAULTS.iter().map(|f| f.to_string()).collect()
    } else {
        rest.to_vec()
    };
    let mut problems: Vec<String> = Vec::new();
    let mut checked = 0usize;
    for file in &files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| CliError::Io(format!("cannot read {file}: {e}")))?;
        let dir = std::path::Path::new(file)
            .parent()
            .map(std::path::Path::to_path_buf)
            .unwrap_or_default();

        for target in markdown_link_targets(&text) {
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
                || target.starts_with('#')
            {
                continue;
            }
            let path = target.split('#').next().unwrap_or("");
            if path.is_empty() {
                continue;
            }
            checked += 1;
            if !dir.join(path).exists() {
                problems.push(format!("{file}: link target {path:?} does not exist"));
            }
        }

        for path in backticked_paths(&text) {
            checked += 1;
            if !dir.join(&path).exists() {
                problems.push(format!("{file}: referenced path {path:?} does not exist"));
            }
        }

        for url in urls(&text) {
            checked += 1;
            if let Some(problem) = url_problem(&url) {
                problems.push(format!("{file}: {problem}"));
            }
        }

        // Duplicate heading anchors make `#anchor` links ambiguous (GitHub
        // silently renames the second one to `anchor-1`).
        let mut anchors = heading_anchors(&text);
        checked += anchors.len();
        anchors.sort();
        for window in anchors.windows(2) {
            if window[0] == window[1] {
                problems.push(format!(
                    "{file}: duplicate heading anchor {:?} (intra-document links are ambiguous)",
                    window[0]
                ));
            }
        }

        for name in bench_file_references(&text) {
            checked += 1;
            if !dir.join(&name).exists() {
                problems.push(format!(
                    "{file}: referenced bench baseline {name:?} does not exist"
                ));
            }
        }

        let references = table_references(&text);
        if !references.is_empty() {
            let experiments = dir.join("EXPERIMENTS.md");
            let headings = if file.ends_with("EXPERIMENTS.md") {
                table_headings(&text)
            } else {
                match std::fs::read_to_string(&experiments) {
                    Ok(text) => table_headings(&text),
                    Err(e) => {
                        problems.push(format!(
                            "{file}: references tables but {} is unreadable: {e}",
                            experiments.display()
                        ));
                        continue;
                    }
                }
            };
            for number in references {
                checked += 1;
                if !headings.contains(&number) {
                    problems.push(format!(
                        "{file}: references Table {number}, but EXPERIMENTS.md has no \
                         `## Table {number}` heading (tables renumbered?)"
                    ));
                }
            }
        }
    }
    for problem in &problems {
        eprintln!("lab: doccheck: {problem}");
    }
    if !problems.is_empty() {
        return Err(CliError::Check(format!(
            "{} dangling documentation reference(s)",
            problems.len()
        )));
    }
    eprintln!(
        "doccheck: {} files, {checked} references, all valid",
        files.len()
    );
    Ok(())
}

fn cmd_report(rest: &[String]) -> Result<(), CliError> {
    let mut options = Options::new(rest);
    let out_path = options
        .take_value("--out")?
        .unwrap_or_else(|| "EXPERIMENTS.md".into());
    let check = options.take_flag("--check");
    options.finish()?;

    // In check mode, fail on an unreadable target *before* the two report
    // sweeps run, not after ~20 seconds of work.
    let existing = if check {
        Some(
            std::fs::read_to_string(&out_path)
                .map_err(|e| CliError::Io(format!("cannot read {out_path}: {e}")))?,
        )
    } else {
        None
    };

    let plan = SweepPlan::builtin("report")?;
    let (a, b) = REPORT_WORKERS;
    let sequential = run(&plan, a);
    let sharded = run(&plan, b);
    if sequential.records != sharded.records {
        return Err(CliError::Check(
            ExplabError::ShardMismatch { workers: (a, b) }.to_string(),
        ));
    }
    let violations = sharded.bound_violations().len();
    if violations > 0 {
        return Err(CliError::Check(format!(
            "{violations} trials violate a bound (dilation/chain prediction, \
             injectivity, or optimizer congestion monotonicity)"
        )));
    }
    let note = format!("identical records with {a} and {b} workers");
    let document = experiments_markdown(&sharded, &note);

    if let Some(existing) = existing {
        if existing != document {
            let line = existing
                .lines()
                .zip(document.lines())
                .position(|(a, b)| a != b)
                .map(|i| i + 1)
                .unwrap_or_else(|| existing.lines().count().min(document.lines().count()) + 1);
            return Err(CliError::Check(
                ExplabError::ReportDrift { line }.to_string(),
            ));
        }
        eprintln!(
            "{out_path} is up to date ({} trials)",
            sharded.records.len()
        );
        return Ok(());
    }
    std::fs::write(&out_path, &document)
        .map_err(|e| CliError::Io(format!("cannot write {out_path}: {e}")))?;
    eprintln!(
        "wrote {out_path}: {} trials, {} supported, 0 bound violations",
        sharded.records.len(),
        sharded.supported()
    );
    Ok(())
}
