//! The host manifest every result carries, and the comparison of two
//! saved results, which labels a pair from different hosts or builds as
//! cross-host instead of passing it silently.

use std::fmt::Write as _;
use std::path::Path;

use bda_obs::export::{parse_json, Json};

use crate::stats::Digest;

/// `s` as the body of a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Where and from what a result was produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    pub cores: usize,
    pub cpu: String,
    pub rustc: String,
    pub profile: String,
    pub revision: String,
    pub source_digest: String,
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// The fields that must match for two results to compare on one host.
pub const HOST_FIELDS: [&str; 4] = ["cores", "cpu", "rustc", "profile"];

impl Manifest {
    /// Describe this host and the checkout in the working directory.
    pub fn collect(workload: &str, seed: u64, seconds: u64, trace: bool) -> Manifest {
        Manifest {
            cores: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu: cpu_model().unwrap_or_else(|| "unknown".into()),
            rustc: env!("PERFBENCH_RUSTC").into(),
            profile: env!("PERFBENCH_PROFILE").into(),
            revision: git_revision(Path::new(".")).unwrap_or_else(|| "unavailable".into()),
            source_digest: source_digest(Path::new(".")),
            workload: workload.into(),
            seed,
            seconds,
            trace,
        }
    }

    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"cores\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\", \
             \"revision\": \"{}\", \"source_digest\": \"{}\", \"workload\": \"{}\", \
             \"seed\": {}, \"seconds\": {}, \"trace\": {}",
            self.cores,
            escape(&self.cpu),
            escape(&self.rustc),
            escape(&self.profile),
            escape(&self.revision),
            escape(&self.source_digest),
            escape(&self.workload),
            self.seed,
            self.seconds,
            self.trace
        );
        s.push('}');
        s
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// The commit checked out at `root`, read from `.git` without running
/// git; `None` outside a git checkout.
pub fn git_revision(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// FNV-1a over the path and bytes of every file under `crates/` plus the
/// workspace manifest and lock file: identifies the code under test
/// where no git revision is available.
pub fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    collect_files(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut d = Digest::default();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            d.text(&f.to_string_lossy());
            for chunk in bytes.chunks(8) {
                let mut w = [0u8; 8];
                w[..chunk.len()].copy_from_slice(chunk);
                d.word(u64::from_le_bytes(w));
            }
        }
    }
    format!("{:016x}", d.0)
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_files(&p, out);
        } else {
            out.push(p);
        }
    }
}

/// Compare two saved result documents metric by metric. Returns the
/// report text; its first line says `same-host` or `cross-host` (naming
/// the manifest fields that differ).
pub fn compare(a_text: &str, b_text: &str) -> Result<String, String> {
    let a = parse_json(a_text)?;
    let b = parse_json(b_text)?;
    let (ma, mb) = (
        a.get("manifest").ok_or("first result has no manifest")?,
        b.get("manifest").ok_or("second result has no manifest")?,
    );
    let differ: Vec<&str> = HOST_FIELDS
        .iter()
        .copied()
        .filter(|f| ma.get(f) != mb.get(f))
        .collect();
    let mut out = if differ.is_empty() {
        "same-host\n".to_string()
    } else {
        format!(
            "cross-host: manifests differ in {} — figures are not comparable as a regression check\n",
            differ.join(", ")
        )
    };
    let (Some(Json::Obj(xs)), Some(Json::Obj(ys))) = (a.get("metrics"), b.get("metrics")) else {
        return Err("a result has no metrics object".into());
    };
    for (name, x) in xs {
        let Some(y) = ys.iter().find(|(n, _)| n == name).map(|(_, v)| v) else {
            continue;
        };
        let (Some(Json::Num(xv)), Some(Json::Num(yv))) = (x.get("value"), y.get("value")) else {
            continue;
        };
        let ratio = if *xv != 0.0 { yv / xv } else { f64::NAN };
        let _ = writeln!(out, "{name:<40} {xv:>14.6} {yv:>14.6} {ratio:>9.4}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(cpu: &str, v: f64) -> String {
        let mut m = Manifest::collect("crowd-burst", 1, 10, false);
        m.cpu = cpu.into();
        format!(
            "{{\"manifest\": {}, \"metrics\": {{\"requests_per_s\": {{\"value\": {v}, \"unit\": \"req/s\"}}}}}}",
            m.to_json()
        )
    }

    #[test]
    fn manifest_renders_as_json() {
        let m = Manifest::collect("paper-sweep", 42, 10, true);
        let j = parse_json(&m.to_json()).unwrap();
        assert_eq!(j.get("seed"), Some(&Json::Num(42.0)));
        assert_eq!(j.get("trace"), Some(&Json::Bool(true)));
        assert!(m.cores >= 1);
    }

    #[test]
    fn comparison_labels_cross_host_pairs() {
        let same = compare(&doc("cpu-a", 100.0), &doc("cpu-a", 110.0)).unwrap();
        assert!(same.starts_with("same-host"), "{same}");
        assert!(same.contains("1.1000"), "{same}");
        let cross = compare(&doc("cpu-a", 100.0), &doc("cpu-b", 100.0)).unwrap();
        assert!(cross.starts_with("cross-host"), "{cross}");
        assert!(cross.contains("cpu"), "{cross}");
    }

    #[test]
    fn revision_is_read_from_a_git_directory() {
        let dir = std::env::temp_dir().join(format!("perfbench-git-{}", std::process::id()));
        let git = dir.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        assert_eq!(git_revision(&dir), None);
        std::fs::write(git.join("packed-refs"), "abc123 refs/heads/main\n").unwrap();
        assert_eq!(git_revision(&dir).as_deref(), Some("abc123"));
        std::fs::write(git.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(git_revision(&dir).as_deref(), Some("def456"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
