//! Regenerates Table 2: line counts per component, paper vs this
//! reproduction.
//!
//! The paper counts physical source lines (excluding comments and
//! whitespace) of Dafny specification, Vale implementation, and proof
//! annotation. The Rust reproduction has no proof lines — its analogue is
//! the test suites (refinement + noninterference), counted separately.

use std::fs;
use std::path::{Path, PathBuf};

/// Non-blank, non-comment line counts of one Rust source file.
#[derive(Default)]
struct Counts {
    code: usize,
    test: usize,
    /// Modules the file declares `#[cfg(test)] mod name;`: their files
    /// are tests whole.
    test_mods: Vec<String>,
}

/// What a line-initial `#[cfg(test)]` gates, when it gates a module.
enum GatedMod {
    /// An inline `mod name {`: the file's unit tests start here.
    Inline,
    /// A `mod name;` declaration: the module's file is test-only.
    File(String),
}

/// Parses `item` as a (possibly `pub`) module item.
fn gated_mod(item: &str) -> Option<GatedMod> {
    let (vis, rest) = item.split_once("mod ")?;
    if !(vis.is_empty() || vis.starts_with("pub")) {
        return None;
    }
    match rest.trim().strip_suffix(';') {
        Some(name) => Some(GatedMod::File(name.trim().to_string())),
        None => rest.contains('{').then_some(GatedMod::Inline),
    }
}

/// Counts `text`'s non-blank, non-comment lines, split into (code,
/// test). The split is at the first line that starts with
/// `#[cfg(test)]` and gates an inline `mod … {` (in this layout a
/// file's unit tests run from there to EOF); any other test-only item
/// stays code. The gated item is the rest of the attribute's line, or
/// else the next line that is not another attribute.
fn count_source(text: &str) -> Counts {
    let lines: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|t| !t.is_empty() && !t.starts_with("//"))
        .collect();
    let mut counts = Counts::default();
    let mut in_tests = false;
    for (i, line) in lines.iter().enumerate() {
        if let Some(rest) = line.strip_prefix("#[cfg(test)]").filter(|_| !in_tests) {
            let item = Some(rest.trim()).filter(|r| !r.is_empty()).or_else(|| {
                lines[i + 1..]
                    .iter()
                    .copied()
                    .find(|l| !l.starts_with("#["))
            });
            match item.and_then(gated_mod) {
                Some(GatedMod::Inline) => in_tests = true,
                Some(GatedMod::File(name)) => counts.test_mods.push(name),
                None => {}
            }
        }
        if in_tests {
            counts.test += 1;
        } else {
            counts.code += 1;
        }
    }
    counts
}

/// The directory a file's `mod name;` declarations resolve in: its own
/// for `lib.rs`, `main.rs` and `mod.rs`, else one named after the file.
fn module_dir(file: &Path) -> PathBuf {
    match file.file_stem().and_then(|s| s.to_str()) {
        Some("lib" | "main" | "mod") => file.parent().unwrap_or(Path::new("")).to_path_buf(),
        _ => file.with_extension(""),
    }
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    if let Ok(entries) = fs::read_dir(dir) {
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                rs_files(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
}

/// Sums [`count_source`] over every `.rs` file under `dir`. A module a
/// file declares `#[cfg(test)] mod name;` counts whole as tests: its
/// `name.rs`, and everything under its `name/` directory.
fn count_dir(dir: &Path) -> (usize, usize) {
    let mut files = Vec::new();
    rs_files(dir, &mut files);
    let counted: Vec<(PathBuf, Counts)> = files
        .into_iter()
        .map(|p| {
            let c = count_source(&fs::read_to_string(&p).unwrap_or_default());
            (p, c)
        })
        .collect();
    let test_only: Vec<PathBuf> = counted
        .iter()
        .flat_map(|(p, c)| c.test_mods.iter().map(|m| module_dir(p).join(m)))
        .collect();
    let mut total = (0, 0);
    for (p, c) in &counted {
        if test_only
            .iter()
            .any(|m| p.with_extension("") == *m || p.starts_with(m))
        {
            total.1 += c.code + c.test;
        } else {
            total.0 += c.code;
            total.1 += c.test;
        }
    }
    total
}

/// A crate's (code, test) lines: its `src/` split as [`count_dir`]
/// does, plus every line of its `tests/` directory as tests.
fn count_crate(dir: &Path) -> (usize, usize) {
    let (code, test) = count_dir(&dir.join("src"));
    let (tc, tt) = count_dir(&dir.join("tests"));
    (code, test + tc + tt)
}

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    println!("Table 2: Line counts");
    println!();
    println!("Paper (Dafny/Vale artifact):");
    println!(
        "  {:<24} {:>6} {:>6} {:>7} {:>9}",
        "Component", "Spec", "Impl", "Proof", "Assembly"
    );
    for (c, s, i, p, a) in [
        ("ARM model", 1174, 112, 985, 0),
        ("Dafny libraries", 588, 0, 806, 0),
        ("SHA-256, SHA-HMAC", 250, 415, 3200, 170),
        ("Komodo common", 775, 358, 3078, 136),
        ("SMC handler", 591, 1082, 4493, 284),
        ("SVC handler", 204, 612, 2509, 233),
        ("Other exceptions", 39, 131, 940, 52),
        ("Noninterference", 175, 0, 2644, 0),
        ("Assembly printer", 650, 0, 0, 0),
    ] {
        println!("  {c:<24} {s:>6} {i:>6} {p:>7} {a:>9}");
    }
    println!(
        "  {:<24} {:>6} {:>6} {:>7} {:>9}",
        "Total", 4446, 2710, 18655, 875
    );
    println!();
    println!("This reproduction (Rust):");
    println!(
        "  {:<24} {:>8} {:>8}   role (paper analogue)",
        "Crate", "code", "tests"
    );
    let rows = [
        ("crates/armv7", "machine model (ARM model + printer)"),
        ("crates/crypto", "SHA-256/HMAC (crypto libraries)"),
        (
            "crates/spec",
            "functional spec (Komodo common + handlers spec)",
        ),
        (
            "crates/monitor",
            "monitor impl (SMC/SVC/exception handlers)",
        ),
        ("crates/os", "untrusted OS model (Linux driver)"),
        ("crates/guest", "guest toolkit + notary (§8.2 app)"),
        ("crates/ni", "noninterference harness (§6 proofs→tests)"),
        ("crates/sgx-baseline", "SGX comparison baseline"),
        ("crates/komodo", "public API"),
        ("crates/trace", "flight recorder + metrics (observability)"),
        ("crates/fleet", "fleet scheduler of pooled platforms"),
        ("crates/service", "service node + attestation protocol"),
        ("crates/chaos", "fault-injection campaigns"),
        ("crates/bench", "evaluation harness (§8)"),
    ];
    let mut totals = (0usize, 0usize);
    for (dir, role) in rows {
        let (c, t) = count_crate(&root.join(dir));
        totals.0 += c;
        totals.1 += t;
        println!("  {dir:<24} {c:>8} {t:>8}   {role}");
    }
    let (tc, tt) = count_dir(&root.join("tests"));
    let suites = tc + tt;
    println!(
        "  {:<24} {:>8} {:>8}   integration/refinement/NI suites",
        "tests/", 0, suites
    );
    let (ec, et) = count_dir(&root.join("examples"));
    println!(
        "  {:<24} {:>8} {:>8}   runnable examples",
        "examples/", ec, et
    );
    totals.0 += ec;
    totals.1 += suites + et;
    println!("  {:<24} {:>8} {:>8}", "Total", totals.0, totals.1);
    println!();
    println!(
        "The paper's 18.7k proof lines have no direct Rust counterpart; their\n\
         role (establishing functional correctness and noninterference) is\n\
         played by the refinement and NI test suites counted above."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(lines: &[&str]) -> (usize, usize, Vec<String>) {
        let c = count_source(&lines.join("\n"));
        (c.code, c.test, c.test_mods)
    }

    /// A test-only item that is not a module stays code.
    #[test]
    fn a_gated_function_stays_code() {
        let src = [
            "struct T;",
            "impl T {",
            "    #[cfg(test)]",
            "    fn with(&self) {}",
            "    fn step(&self) {}",
            "}",
        ];
        assert_eq!(count(&src), (6, 0, vec![]));
    }

    /// The inline test module starts the tests, past attributes between
    /// it and its `#[cfg(test)]` and blank or comment lines.
    #[test]
    fn an_inline_test_module_starts_the_tests() {
        let src = [
            "fn f() {}",
            "// tests follow",
            "",
            "#[cfg(test)]",
            "#[allow(clippy::assertions_on_constants)] // a comment",
            "mod tests {",
            "    #[test]",
            "    fn t() {}",
            "}",
        ];
        assert_eq!(count(&src), (1, 6, vec![]));
        assert_eq!(
            count(&["#[cfg(test)] pub mod tests {", "}"]),
            (0, 2, vec![])
        );
    }

    /// A `#[cfg(test)] mod name;` leaves the declaring file's lines as
    /// code and names the module whose file is tests.
    #[test]
    fn a_declared_test_module_is_recorded_and_code_continues() {
        let src = [
            "pub mod exec;",
            "#[cfg(test)]",
            "mod mem_props;",
            "pub mod mode;",
            "pub use mode::Mode;",
        ];
        assert_eq!(count(&src), (5, 0, vec!["mem_props".to_string()]));
    }

    /// A line that merely mentions the attribute switches nothing.
    #[test]
    fn a_mention_of_the_attribute_is_code() {
        let src = [
            "fn is_gate(t: &str) -> bool {",
            "    t.contains(\"#[cfg(test)]\")",
            "}",
            "mod later {",
            "}",
        ];
        assert_eq!(count(&src), (5, 0, vec![]));
    }

    #[test]
    fn declared_modules_resolve_next_to_crate_roots_and_under_files() {
        assert_eq!(
            module_dir(Path::new("src/lib.rs")).join("mem_props"),
            Path::new("src/mem_props")
        );
        assert_eq!(
            module_dir(Path::new("src/exec.rs")).join("props"),
            Path::new("src/exec/props")
        );
    }
}
