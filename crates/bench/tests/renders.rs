//! EXPERIMENTS.md's tables are renders of the committed artifacts.
//!
//! Each table sits between `<!-- render <exp> -->` and `<!-- end render
//! -->` and must be exactly what `experiments report <exp>` prints from
//! `BENCH_<exp>.json`; and every artifact that keeps a table has its
//! block. To refresh one: run `experiments <exp>` at the repo root, then
//! paste the output of `experiments report <exp>` between its markers.

use std::collections::BTreeMap;
use std::path::PathBuf;

use bench::report;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every render block in EXPERIMENTS.md, by experiment: the lines
/// between a line `<!-- render <exp> -->` and the next `<!-- end render
/// -->` line.
fn blocks() -> BTreeMap<String, String> {
    let doc = std::fs::read_to_string(root().join("EXPERIMENTS.md")).unwrap();
    let mut blocks = BTreeMap::new();
    let mut open: Option<(String, String)> = None;
    for line in doc.lines() {
        let start = line
            .strip_prefix("<!-- render ")
            .and_then(|l| l.strip_suffix(" -->"));
        match (open.as_mut(), start) {
            (None, Some(exp)) => open = Some((exp.to_string(), String::new())),
            (Some((exp, _)), Some(_)) => panic!("the block for {exp} has no end marker"),
            (Some(_), None) if line == "<!-- end render -->" => {
                let (exp, block) = open.take().unwrap();
                let old = blocks.insert(exp.clone(), block);
                assert!(old.is_none(), "two blocks for {exp}");
            }
            (Some((_, block)), None) => *block += &format!("{line}\n"),
            (None, None) => {}
        }
    }
    assert!(open.is_none(), "the last block has no end marker");
    blocks
}

/// The render of every committed artifact that keeps a table, by
/// experiment.
fn renders() -> BTreeMap<String, String> {
    let mut renders = BTreeMap::new();
    for entry in std::fs::read_dir(root()).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let Some(exp) = name.strip_prefix("BENCH_").and_then(|n| n.strip_suffix(".json")) else {
            continue;
        };
        if let Ok(render) = report::render(&root().join(&name)) {
            renders.insert(exp.to_string(), render);
        }
    }
    renders
}

#[test]
fn every_block_is_its_artifacts_render() {
    let renders = renders();
    for (exp, block) in blocks() {
        let render = renders
            .get(&exp)
            .unwrap_or_else(|| panic!("BENCH_{exp}.json keeps no table for its block"));
        assert_eq!(
            &block, render,
            "EXPERIMENTS.md's {exp} block differs from `experiments report {exp}`"
        );
    }
}

#[test]
fn every_artifact_table_has_a_block() {
    let blocks = blocks();
    let missing: Vec<String> = renders()
        .into_keys()
        .filter(|exp| !blocks.contains_key(exp))
        .collect();
    assert!(
        missing.is_empty(),
        "no EXPERIMENTS.md block for {missing:?}"
    );
    // The 22 experiments with a table: all but E16's span dump.
    assert_eq!(blocks.len(), 22);
}
