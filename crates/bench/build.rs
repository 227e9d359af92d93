//! Records provenance for the `BENCH_*.json` artifacts: the git
//! revision of the source tree, when it is a git checkout.

use std::path::Path;
use std::process::Command;

fn output(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?;
    Some(s.trim().to_string()).filter(|s| !s.is_empty())
}

fn main() {
    let rev = output("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=SAL_BENCH_GIT_REV={rev}");
    println!("cargo:rerun-if-changed=build.rs");
    // Re-stamp when HEAD moves: its reflog grows on every commit,
    // checkout and reset.
    if let Some(git_dir) = output("git", &["rev-parse", "--absolute-git-dir"]) {
        for file in ["HEAD", "logs/HEAD"] {
            let path = Path::new(&git_dir).join(file);
            if path.exists() {
                println!("cargo:rerun-if-changed={}", path.display());
            }
        }
    }
}
