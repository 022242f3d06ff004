//! Input generation, run in a child process so the measured process's
//! peak memory never includes the generator.
//!
//! Layout of a run directory:
//!
//! | path | what |
//! |---|---|
//! | `plans/` | the workload's plans + `MANIFEST.tsv` ground truth |
//! | `pool/` | held-out diagnose plans + ground truth; on service-mix also `<id>.json`, the expected diagnose body |
//! | `ingest/` | fresh plans for service-mix ingests |
//! | `plans.optirepo` | repository of `plans/` (warm-extended, service-mix) |
//! | `reference.json` | the full-KB scan of `plans/` from a cold directory open (warm-extended, service-mix) |
//! | `facts.tsv` | `plan_bytes` and `repo_bytes` of `plans/` |

use crate::config::{self, Workload, INGEST_SEED, POOL_SEED};
use crate::stats::{shuffle, SplitMix};
use crate::{fail, Args, BenchError, Result};
use optimatch_core::{build_repo, OpenOptions, OptImatch, ScanOptions, Source};
use optimatch_qep::{format_qep, parse_qep};
use optimatch_workload::inject::inject_pattern;
use optimatch_workload::{
    write_workload, GeneratorConfig, InjectionConfig, PatternId, PlanGenerator, Variant,
};
use std::path::Path;

/// Run `perfbench gen` for `workload` in a child process and wait for it.
pub fn spawn(workload: &str, seed: u64, dir: &Path) -> Result<()> {
    let exe = std::env::current_exe()?;
    let status = std::process::Command::new(exe)
        .args([
            "gen",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--dir",
        ])
        .arg(dir)
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .status()?;
    if !status.success() {
        return fail(format!("input generation failed ({status})"));
    }
    sync_tree(dir)
}

/// Flush every file under `dir` to disk, so writeback of the generated
/// inputs does not run during the measurement (where it would slow reads
/// and the fsync of every ingest).
fn sync_tree(dir: &Path) -> Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            sync_tree(&path)?;
        } else {
            std::fs::File::open(&path)?.sync_all()?;
        }
    }
    Ok(std::fs::File::open(dir)?.sync_all()?)
}

/// Generate `n` paper-shaped plans with ground truth, ids `<prefix>0001…`.
///
/// The sample is stratified so that a seed changes which plans carry
/// which shape, not how much work the workload holds: target sizes are
/// spread evenly over the generator's operator range, and each pattern is
/// injected into exactly `round(rate × n)` seeded plans (hard variants
/// likewise exactly `round(hard × count)`) instead of a binomial draw.
fn generate(seed: u64, n: usize, prefix: &str) -> optimatch_workload::Workload {
    let mut rng = SplitMix::new(seed);
    let range = GeneratorConfig::default();
    let rates = InjectionConfig::paper_rates();
    let mut sizes: Vec<usize> = (0..n)
        .map(|i| range.min_ops + (range.max_ops - range.min_ops) * i / n.saturating_sub(1).max(1))
        .collect();
    shuffle(&mut sizes, &mut rng);
    let mut assigned: Vec<Vec<(PatternId, Variant)>> = vec![Vec::new(); n];
    for (pattern, rate, hard) in [
        (PatternId::A, rates.rate_a, rates.hard_a),
        (PatternId::B, rates.rate_b, rates.hard_b),
        (PatternId::C, rates.rate_c, rates.hard_c),
        (PatternId::D, rates.rate_d, 0.0),
    ] {
        let count = (rate * n as f64).round() as usize;
        let hard = (hard * count as f64).round() as usize;
        let mut picks: Vec<usize> = (0..n).collect();
        shuffle(&mut picks, &mut rng);
        for (k, &i) in picks.iter().take(count).enumerate() {
            let variant = if k < hard {
                Variant::HardForManual
            } else {
                Variant::Easy
            };
            assigned[i].push((pattern, variant));
        }
    }
    let mut generator = PlanGenerator::new(range);
    let mut w = optimatch_workload::Workload {
        qeps: Vec::with_capacity(n),
        truth: Default::default(),
    };
    for (i, (size, patterns)) in sizes.into_iter().zip(assigned).enumerate() {
        let id = format!("{prefix}{:04}", i + 1);
        let mut qep = generator.generate_sized(&mut rng, &id, size);
        let truth = patterns
            .into_iter()
            .filter(|&(p, v)| inject_pattern(&mut qep, &mut rng, p, v))
            .map(|(p, _)| p)
            .collect();
        w.truth.insert(id, truth);
        w.qeps.push(qep);
    }
    w
}

/// The `gen` subcommand.
pub fn run(args: &Args) -> Result<()> {
    let Some(dir) = args.dir.clone() else {
        return fail("gen: --dir DIR is required");
    };
    let w = config::workload(&args.workload)?;
    let seed = args.seed;
    let plans = generate(seed, w.plans, "q");
    write_workload(&plans, &dir.join("plans"))?;
    let pool = generate(seed.wrapping_add(POOL_SEED), w.diagnose_pool, "d");
    write_workload(&pool, &dir.join("pool"))?;
    let plan_bytes: usize = plans.qeps.iter().map(|q| format_qep(q).len()).sum();

    let repo = dir.join("plans.optirepo");
    build_repo(&dir.join("plans"), &repo)?;
    let repo_bytes = std::fs::metadata(&repo)?.len();
    std::fs::write(
        dir.join("facts.tsv"),
        format!("plan_bytes\t{plan_bytes}\nrepo_bytes\t{repo_bytes}\n"),
    )?;
    if w.name == "cold-dir" {
        // Only its size is needed: cold-dir never opens a repository.
        std::fs::remove_file(&repo)?;
    } else {
        write_reference(&w, &dir.join("plans"), &dir.join("reference.json"))?;
    }
    if w.name == "service-mix" {
        write_expected_diagnoses(&w, &dir.join("pool"))?;
        let ingest = generate(seed.wrapping_add(INGEST_SEED), w.ingest_plans, "i");
        write_workload(&ingest, &dir.join("ingest"))?;
    }
    Ok(())
}

/// The reference full-KB scan: a cold directory open, default options.
fn write_reference(w: &Workload, plans: &Path, out: &Path) -> Result<()> {
    let opened = OptImatch::open(Source::Dir(plans.to_path_buf()), OpenOptions::new())?;
    let outcome = opened
        .session
        .scan_with(&w.kb(), opened.session.defaults())?;
    std::fs::write(out, outcome.render_json())?;
    Ok(())
}

/// The body `POST /v1/diagnose` must return for each pool plan: the
/// in-process `render_json` of the same plan against the workload's KB.
fn write_expected_diagnoses(w: &Workload, pool: &Path) -> Result<()> {
    let kb = w.kb();
    for path in plan_files(pool)? {
        let text = std::fs::read_to_string(&path)?;
        let qep = parse_qep(&text).map_err(|e| BenchError(format!("{}: {e}", path.display())))?;
        let outcome = OptImatch::from_qeps([qep]).scan_with(&kb, ScanOptions::default())?;
        std::fs::write(path.with_extension("json"), outcome.render_json())?;
    }
    Ok(())
}

/// The `.qep` files of a directory, sorted.
pub fn plan_files(dir: &Path) -> Result<Vec<std::path::PathBuf>> {
    let mut files: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("qep"))
        .collect();
    files.sort();
    Ok(files)
}

/// Ground truth from a `MANIFEST.tsv`: `(qep id, injected pattern names)`.
pub fn manifest(dir: &Path) -> Result<Vec<(String, Vec<String>)>> {
    let text = std::fs::read_to_string(dir.join("MANIFEST.tsv"))?;
    Ok(text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let (id, pats) = l.split_once('\t').unwrap_or((l, ""));
            let pats = pats
                .split(',')
                .filter(|p| !p.is_empty())
                .map(str::to_string)
                .collect();
            (id.to_string(), pats)
        })
        .collect())
}

/// `plan_bytes` / `repo_bytes` recorded by `gen`.
pub fn facts(dir: &Path) -> Result<(f64, f64)> {
    let text = std::fs::read_to_string(dir.join("facts.tsv"))?;
    let get = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix('\t')?.parse::<f64>().ok())
            .ok_or_else(|| BenchError(format!("facts.tsv: no {key}")))
    };
    Ok((get("plan_bytes")?, get("repo_bytes")?))
}
