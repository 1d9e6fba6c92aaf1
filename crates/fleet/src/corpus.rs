//! Target materialization: the generated corpus and on-disk PTX as
//! runnable child-process specs.
//!
//! A [`TargetSpec`] is everything a worker needs to launch one analysis
//! in a child process: a stable id (the journal key), a PTX file on
//! disk, and the one-shot CLI arguments. Generated targets are the
//! cartesian product of [`CorpusAxes`]: every selected Table-1 workload
//! crossed with simulator seeds, warp sizes and weak-memory presets.
//! Their PTX is written once per workload under a work directory, since
//! the module depends only on the scale, not on the seed/warp/model
//! axes. User-supplied targets come from directories of `.ptx` files,
//! scanned in sorted order so ids and scheduling are deterministic.

use barracuda::MemoryModel;
use barracuda_workloads::{all_workloads, Scale};
use std::path::{Path, PathBuf};

/// One runnable fleet target.
#[derive(Debug, Clone)]
pub struct TargetSpec {
    /// Stable id, the journal/resume key: `gen/<workload>/s<seed>/…` or
    /// `ptx/<stem>`.
    pub id: String,
    /// PTX file to analyze.
    pub ptx: PathBuf,
    /// One-shot `check` arguments after the file (kernel, geometry,
    /// params, axes). Timeout and chaos flags are appended by the
    /// runner, not stored here.
    pub args: Vec<String>,
}

/// The axes of a generated corpus.
#[derive(Debug, Clone)]
pub struct CorpusAxes {
    /// Workload names (Table 1 column 1); empty selects all 26.
    pub workloads: Vec<String>,
    /// Simulator seeds (`--seed`).
    pub seeds: Vec<u64>,
    /// Simulated warp sizes (`--warp-size`); must be powers of two in
    /// `1..=32`.
    pub warp_sizes: Vec<u32>,
    /// Weak-memory presets (`--memory-model`).
    pub memory_models: Vec<MemoryModel>,
    /// Generation scale.
    pub scale: Scale,
}

impl Default for CorpusAxes {
    /// One target per workload: seed `0x0be511e5`, warp size 32, `sc`.
    fn default() -> Self {
        CorpusAxes {
            workloads: Vec::new(),
            seeds: vec![0x0be5_11e5],
            warp_sizes: vec![32],
            memory_models: vec![MemoryModel::SequentiallyConsistent],
            scale: Scale::default_scale(),
        }
    }
}

/// Generates the corpus for `axes` and writes each workload's PTX under
/// `work_dir` (created if needed), returning one target per axis point
/// in deterministic order: workload × seed × warp size × memory model,
/// each axis in the given order. A target's id is
/// `gen/<workload>/s<seed>/w<warp>/<model>`; resume journals key on it,
/// so it must not depend on enumeration order.
///
/// # Errors
///
/// Names the offending value for an unknown workload, an invalid warp
/// size or an empty axis; propagates I/O failures writing the PTX files.
pub fn generated_targets(axes: &CorpusAxes, work_dir: &Path) -> Result<Vec<TargetSpec>, String> {
    let all = all_workloads();
    let selected: Vec<_> = if axes.workloads.is_empty() {
        all.iter().collect()
    } else {
        axes.workloads
            .iter()
            .map(|name| {
                all.iter()
                    .find(|w| w.name == name)
                    .ok_or_else(|| format!("unknown workload '{name}'"))
            })
            .collect::<Result<_, _>>()?
    };
    if axes.seeds.is_empty() || axes.warp_sizes.is_empty() || axes.memory_models.is_empty() {
        return Err("corpus axes must be non-empty (seeds, warp sizes, memory models)".to_string());
    }
    for &w in &axes.warp_sizes {
        if !(1..=32).contains(&w) || !w.is_power_of_two() {
            return Err(format!("bad warp size {w} (want a power of two in 1..=32)"));
        }
    }
    std::fs::create_dir_all(work_dir)
        .map_err(|e| format!("cannot create work dir {}: {e}", work_dir.display()))?;
    let dim = |d: barracuda_trace::Dim3| format!("{},{},{}", d.x, d.y, d.z);
    let mut out = Vec::new();
    for w in selected {
        let inst = w.generate(&axes.scale);
        let path = work_dir.join(format!("gen_{}.ptx", w.name));
        std::fs::write(&path, inst.ptx())
            .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
        for &seed in &axes.seeds {
            for &warp_size in &axes.warp_sizes {
                for model in &axes.memory_models {
                    out.push(TargetSpec {
                        id: format!("gen/{}/s{seed}/w{warp_size}/{model}", w.name),
                        ptx: path.clone(),
                        args: vec![
                            "--kernel".to_string(),
                            inst.kernel.clone(),
                            "--grid".to_string(),
                            dim(inst.dims.grid),
                            "--block".to_string(),
                            dim(inst.dims.block),
                            "--param".to_string(),
                            format!("buf:{}", inst.buf_bytes),
                            "--warp-size".to_string(),
                            warp_size.to_string(),
                            "--seed".to_string(),
                            seed.to_string(),
                            "--memory-model".to_string(),
                            model.to_string(),
                        ],
                    });
                }
            }
        }
    }
    Ok(out)
}

/// Scans `dir` for `.ptx` files (sorted by file name) and returns one
/// target per file, with `extra_args` (shared `--ptx-grid`-style
/// geometry/params, already translated to one-shot flags) appended to
/// each. The kernel defaults to the module's first entry, as in the
/// one-shot CLI.
///
/// # Errors
///
/// Fails when the directory cannot be read or holds no `.ptx` files.
pub fn ptx_dir_targets(dir: &Path, extra_args: &[String]) -> Result<Vec<TargetSpec>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|d| d.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ptx"))
        .collect();
    if files.is_empty() {
        return Err(format!("no .ptx files in {}", dir.display()));
    }
    files.sort();
    Ok(files
        .into_iter()
        .map(|p| {
            let stem = p
                .file_stem()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            TargetSpec {
                id: format!("ptx/{stem}"),
                ptx: p,
                args: extra_args.to_vec(),
            }
        })
        .collect())
}

/// Rejects duplicate target ids (two `--ptx-dir`s with a same-named
/// file, or a repeated axis point) — the journal keys on the id, so a
/// duplicate would make resume ambiguous.
///
/// # Errors
///
/// Names the first duplicated id.
pub fn check_unique_ids(targets: &[TargetSpec]) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    for t in targets {
        if !seen.insert(t.id.as_str()) {
            return Err(format!("duplicate target id '{}'", t.id));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "barracuda_fleet_corpus_{name}_{}",
            std::process::id()
        ))
    }

    #[test]
    fn full_product_over_all_workloads_has_unique_stable_ids() {
        let axes = CorpusAxes {
            seeds: vec![1, 2],
            warp_sizes: vec![32, 16],
            memory_models: vec![MemoryModel::SequentiallyConsistent, MemoryModel::KeplerK520],
            scale: Scale::quick(),
            ..CorpusAxes::default()
        };
        let dir = tmp("product");
        let targets = generated_targets(&axes, &dir).unwrap();
        assert_eq!(targets.len(), 26 * 2 * 2 * 2);
        check_unique_ids(&targets).unwrap();
        let t = targets
            .iter()
            .find(|t| t.id == "gen/hashtable/s1/w16/kepler")
            .expect("axis point present");
        // The child's flags, in the order existing journals were written
        // with: kernel, geometry and buffer from the generator, then the
        // axis point.
        let args: Vec<&str> = t.args.iter().map(String::as_str).collect();
        assert_eq!(
            [args[0], args[2], args[4], args[6]],
            ["--kernel", "--grid", "--block", "--param"]
        );
        assert!(args[7].starts_with("buf:"));
        assert_eq!(
            args[8..],
            [
                "--warp-size",
                "16",
                "--seed",
                "1",
                "--memory-model",
                "kepler"
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generated_targets_share_ptx_files_per_workload() {
        let axes = CorpusAxes {
            workloads: vec!["hashtable".to_string(), "backprop".to_string()],
            seeds: vec![1, 2],
            scale: Scale::quick(),
            ..CorpusAxes::default()
        };
        let dir = tmp("gen");
        let targets = generated_targets(&axes, &dir).unwrap();
        assert_eq!(targets.len(), 4);
        check_unique_ids(&targets).unwrap();
        // Two workloads → exactly two PTX files, each parseable and
        // declaring the kernel its targets launch.
        let files: std::collections::BTreeSet<_> = targets.iter().map(|t| t.ptx.clone()).collect();
        assert_eq!(files.len(), 2);
        for t in &targets {
            let text = std::fs::read_to_string(&t.ptx).unwrap();
            let module = barracuda_ptx::parse(&text).unwrap();
            assert!(module.kernel(&t.args[1]).is_some(), "{}", t.id);
        }
        assert!(targets[0].args.contains(&"--seed".to_string()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_axes_are_validated() {
        let dir = tmp("validate");
        let mut axes = CorpusAxes {
            workloads: vec!["nope".to_string()],
            scale: Scale::quick(),
            ..CorpusAxes::default()
        };
        assert!(generated_targets(&axes, &dir).unwrap_err().contains("nope"));
        axes.workloads.clear();
        axes.warp_sizes = vec![12];
        assert!(generated_targets(&axes, &dir)
            .unwrap_err()
            .contains("warp size"));
        axes.warp_sizes = vec![32];
        for empty in 0..3 {
            let mut axes = axes.clone();
            match empty {
                0 => axes.seeds.clear(),
                1 => axes.warp_sizes.clear(),
                _ => axes.memory_models.clear(),
            }
            assert!(generated_targets(&axes, &dir)
                .unwrap_err()
                .contains("non-empty"));
        }
        // Memory models are typed: an unknown preset name fails where it
        // is parsed, before any axis exists.
        assert!("tso".parse::<MemoryModel>().unwrap_err().contains("tso"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ptx_dir_scan_is_sorted_and_validates() {
        let dir = tmp("scan");
        std::fs::create_dir_all(&dir).unwrap();
        for n in ["b", "a", "c"] {
            std::fs::write(dir.join(format!("{n}.ptx")), "// stub").unwrap();
        }
        std::fs::write(dir.join("notes.txt"), "skip me").unwrap();
        let targets = ptx_dir_targets(&dir, &["--grid".to_string(), "2".to_string()]).unwrap();
        let ids: Vec<_> = targets.iter().map(|t| t.id.as_str()).collect();
        assert_eq!(ids, ["ptx/a", "ptx/b", "ptx/c"]);
        assert_eq!(targets[0].args, ["--grid", "2"]);

        let empty = tmp("empty");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(ptx_dir_targets(&empty, &[]).is_err());

        let mut dup = targets.clone();
        dup.push(targets[0].clone());
        assert!(check_unique_ids(&dup).unwrap_err().contains("ptx/a"));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&empty);
    }
}
