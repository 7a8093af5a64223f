//! `experiments loc [--rev <rev>] <path>…`: production lines of Rust
//! source, per file and in total — the lines that are neither blank nor
//! comments (`//`, `///`, `//!` and `/* … */` lines), outside
//! `#[cfg(test)]` modules. A path is a `.rs` file or a directory searched
//! for them. With `--rev`, the files are read at that git revision
//! through `git show`, so no second checkout is needed.

use std::path::Path;
use std::process::Command;

/// The production lines of one file's `source`. A `#[cfg(test)]` module
/// is skipped, attribute and all, to its closing brace, counted on lines
/// with string and character literals left out.
pub fn count(source: &str) -> usize {
    let mut lines = source.lines().map(str::trim);
    let mut n = 0;
    // A `#[cfg(test)]` line not yet counted: it may open a test module.
    let mut test_attr = false;
    while let Some(line) = lines.next() {
        if line.is_empty() || line.starts_with("//") {
            continue;
        }
        if line.starts_with("/*") {
            let mut rest = line;
            while !rest.contains("*/") {
                let Some(next) = lines.next() else { break };
                rest = next;
            }
            continue;
        }
        if test_attr && is_mod_block(line) {
            let mut depth = braces(line);
            while depth > 0 {
                let Some(next) = lines.next() else { break };
                depth += braces(next);
            }
            test_attr = false;
            continue;
        }
        n += usize::from(test_attr);
        test_attr = line == "#[cfg(test)]";
        n += usize::from(!test_attr);
    }
    n + usize::from(test_attr)
}

/// `mod name {`, with any visibility.
fn is_mod_block(line: &str) -> bool {
    let item = line.strip_prefix("pub ").unwrap_or(line);
    let item = item.strip_prefix("pub(crate) ").unwrap_or(item);
    item.starts_with("mod ") && line.ends_with('{')
}

/// Opening minus closing braces on `line`, outside literals and a
/// trailing line comment.
fn braces(line: &str) -> isize {
    let mut depth = 0;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '{' => depth += 1,
            '}' => depth -= 1,
            '"' => {
                while let Some(c) = chars.next() {
                    match c {
                        '\\' => {
                            chars.next();
                        }
                        '"' => break,
                        _ => {}
                    }
                }
            }
            // A character literal (`'x'`, `'\''`, `'\u{7b}'`), or a lifetime.
            '\'' => {
                let mut ahead = chars.clone();
                match (ahead.next(), ahead.next()) {
                    (Some('\\'), _) => {
                        chars.nth(1);
                        chars.by_ref().find(|&c| c == '\'');
                    }
                    (Some(_), Some('\'')) => {
                        chars.nth(1);
                    }
                    _ => {}
                }
            }
            '/' if chars.peek() == Some(&'/') => break,
            _ => {}
        }
    }
    depth
}

/// The `.rs` files under `path` (or `path` itself), sorted: in the work
/// tree, or at `rev`.
fn files(rev: Option<&str>, path: &str) -> Result<Vec<String>, String> {
    if let Some(rev) = rev {
        let listed = git(&["ls-tree", "-r", "--name-only", rev, "--", path])?;
        let mut found: Vec<String> = listed
            .lines()
            .filter(|f| f.ends_with(".rs"))
            .map(String::from)
            .collect();
        found.sort();
        return Ok(found);
    }
    let mut found = Vec::new();
    let mut dirs = vec![Path::new(path).to_path_buf()];
    while let Some(dir) = dirs.pop() {
        if dir.is_file() {
            found.push(dir.to_string_lossy().into_owned());
            continue;
        }
        let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() || p.extension().is_some_and(|x| x == "rs") {
                dirs.push(p);
            }
        }
    }
    found.sort();
    Ok(found)
}

fn git(args: &[&str]) -> Result<String, String> {
    let out = Command::new("git")
        .args(args)
        .output()
        .map_err(|e| format!("git: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "git {}: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("git {}: {e}", args.join(" ")))
}

/// Runs `loc` on the arguments after it; returns the exit code.
pub fn run(args: impl Iterator<Item = String>) -> i32 {
    let (mut rev, mut paths) = (None, Vec::new());
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rev" => match args.next() {
                Some(r) => rev = Some(r),
                None => {
                    eprintln!("--rev needs a revision");
                    return 2;
                }
            },
            _ => paths.push(arg),
        }
    }
    if paths.is_empty() {
        eprintln!("usage: experiments loc [--rev <rev>] <path>...");
        return 2;
    }
    let mut total = 0;
    for path in &paths {
        let listed = match files(rev.as_deref(), path) {
            Ok(listed) => listed,
            Err(e) => {
                eprintln!("loc: {e}");
                return 1;
            }
        };
        for file in listed {
            let source = match &rev {
                Some(rev) => git(&["show", &format!("{rev}:{file}")]),
                None => std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}")),
            };
            match source {
                Ok(source) => {
                    let n = count(&source);
                    println!("{n:>7} {file}");
                    total += n;
                }
                Err(e) => {
                    eprintln!("loc: {e}");
                    return 1;
                }
            }
        }
    }
    println!("{total:>7} total");
    0
}

#[cfg(test)]
mod tests {
    use super::count;

    const FIXTURE: &str = r#"//! A module doc: not counted.

/// An item doc: not counted.
pub fn f() -> &'static str {
    // A line comment: not counted.
    let brace = '{';
    let quote = '\'';
    /* A block
       comment: not counted. */
    "}" // a trailing comment leaves the line counted
}

#[cfg(test)]
fn only_in_tests() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let s = "}";
        assert_eq!(s, "}");
        assert_ne!('}', '\u{7b}');
    }
}

pub struct After;
"#;

    #[test]
    fn counts_code_outside_comments_blanks_and_test_modules() {
        // `pub fn f`, `let brace`, `let quote`, `"}"`, `}`; the
        // `#[cfg(test)]` fn and its attribute; `pub struct After`.
        assert_eq!(count(FIXTURE), 8);
    }

    #[test]
    fn a_test_module_counts_nothing_and_code_after_it_counts() {
        assert_eq!(count("#[cfg(test)]\nmod tests {\n    fn a() {}\n}\n"), 0);
        assert_eq!(count("#[cfg(test)]\npub(crate) mod t {\n}\nfn b() {}\n"), 1);
    }
}
