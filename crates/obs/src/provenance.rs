//! Best-effort run provenance: the host facts a run manifest needs so a
//! result file can be traced back to the machine and code revision that
//! produced it. Everything here degrades gracefully — no field failing
//! to resolve ever fails the run.

use std::path::{Path, PathBuf};

/// Facts about the executing host and checkout, for run manifests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostInfo {
    /// `$HOSTNAME` / `$HOST`, or `"unknown"`.
    pub hostname: String,
    /// [`std::env::consts::OS`].
    pub os: &'static str,
    /// [`std::env::consts::ARCH`].
    pub arch: &'static str,
    /// [`std::thread::available_parallelism`], floored at 1.
    pub cores: usize,
    /// Commit hash of the checkout's `HEAD` (see [`git_revision`]), when
    /// the process runs inside a checkout.
    pub git_revision: Option<String>,
}

/// Collects [`HostInfo`] for the current process.
pub fn host_info() -> HostInfo {
    HostInfo {
        hostname: std::env::var("HOSTNAME")
            .or_else(|_| std::env::var("HOST"))
            .unwrap_or_else(|_| "unknown".to_string()),
        os: std::env::consts::OS,
        arch: std::env::consts::ARCH,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        git_revision: git_revision(),
    }
}

/// Walks from the current directory upward (at most 8 levels) to the
/// first `.git` and resolves its `HEAD` to a commit hash. `.git` is
/// either the git directory or, in a linked worktree or submodule, a
/// file whose `gitdir:` line names it. A `ref:` head is looked up as a
/// loose ref in the git directory, then in the common directory its
/// `commondir` file names (where a worktree's branches live), then in
/// that directory's `packed-refs`. Returns `None` outside a checkout or
/// on any read failure.
pub fn git_revision() -> Option<String> {
    git_revision_from(&std::env::current_dir().ok()?)
}

/// [`git_revision`] from `start` instead of the current directory.
fn git_revision_from(start: &Path) -> Option<String> {
    let mut dir: PathBuf = start.to_path_buf();
    for _ in 0..8 {
        let dot_git = dir.join(".git");
        if dot_git.is_dir() {
            return resolve_head(&dot_git);
        }
        if dot_git.is_file() {
            let pointer = std::fs::read_to_string(&dot_git).ok()?;
            let git_dir = pointer.trim().strip_prefix("gitdir:")?.trim();
            return resolve_head(&dir.join(git_dir));
        }
        if !dir.pop() {
            break;
        }
    }
    None
}

fn resolve_head(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref:") else {
        return looks_like_hash(head).then(|| head.to_string());
    };
    let reference = reference.trim();
    let common = match std::fs::read_to_string(git_dir.join("commondir")) {
        Ok(path) => git_dir.join(path.trim()),
        Err(_) => git_dir.to_path_buf(),
    };
    let loose = [git_dir, &common]
        .into_iter()
        .find_map(|dir| std::fs::read_to_string(dir.join(reference)).ok());
    let hash = match loose {
        Some(hash) => hash.trim().to_string(),
        None => packed_ref(&common, reference)?,
    };
    looks_like_hash(&hash).then_some(hash)
}

/// The hash `packed-refs` in `common` records for `reference`; comment
/// (`#`) and peeled-tag (`^`) lines are skipped.
fn packed_ref(common: &Path, reference: &str) -> Option<String> {
    let packed = std::fs::read_to_string(common.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter(|line| !line.starts_with('#') && !line.starts_with('^'))
        .find_map(|line| {
            let (hash, name) = line.split_once(' ')?;
            (name.trim() == reference).then(|| hash.to_string())
        })
}

fn looks_like_hash(s: &str) -> bool {
    s.len() >= 7 && s.chars().all(|c| c.is_ascii_hexdigit())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_info_always_resolves() {
        let info = host_info();
        assert!(!info.hostname.is_empty());
        assert!(!info.os.is_empty());
        assert!(!info.arch.is_empty());
        assert!(info.cores >= 1);
        // This test runs inside the repo checkout, so the revision
        // should resolve to a hash there; elsewhere None is fine.
        if let Some(rev) = &info.git_revision {
            assert!(looks_like_hash(rev));
        }
    }

    const HASH: &str = "5205ae7108d22fd20ff522ec91a58e048d7df44e";
    const OTHER: &str = "4617b34aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa";

    /// A fresh directory under the system temp dir, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(name: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("snn-obs-provenance-{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }

        /// Writes `contents` to `path` under the directory, creating
        /// parents.
        fn write(&self, path: &str, contents: &str) {
            let path = self.0.join(path);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, contents).unwrap();
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn plain_checkout_resolves_a_loose_ref_from_a_subdirectory() {
        let tmp = TempDir::new("plain");
        tmp.write("repo/.git/HEAD", "ref: refs/heads/main\n");
        tmp.write("repo/.git/refs/heads/main", &format!("{HASH}\n"));
        tmp.write("repo/src/lib.rs", "");
        let rev = git_revision_from(&tmp.0.join("repo/src"));
        assert_eq!(rev.as_deref(), Some(HASH));
    }

    #[test]
    fn detached_head_is_the_hash() {
        let tmp = TempDir::new("detached");
        tmp.write("repo/.git/HEAD", &format!("{HASH}\n"));
        assert_eq!(
            git_revision_from(&tmp.0.join("repo")).as_deref(),
            Some(HASH)
        );
    }

    #[test]
    fn packed_ref_is_found_when_the_loose_ref_is_gone() {
        let tmp = TempDir::new("packed");
        tmp.write("repo/.git/HEAD", "ref: refs/heads/main\n");
        tmp.write(
            "repo/.git/packed-refs",
            &format!(
                "# pack-refs with: peeled fully-peeled sorted\n\
                 {OTHER} refs/heads/mainline\n\
                 {HASH} refs/heads/main\n\
                 ^{OTHER}\n"
            ),
        );
        assert_eq!(
            git_revision_from(&tmp.0.join("repo")).as_deref(),
            Some(HASH)
        );
    }

    #[test]
    fn worktree_follows_gitdir_and_commondir() {
        let tmp = TempDir::new("worktree");
        // The main checkout holds the branches; the worktree's git
        // directory holds its own HEAD and points back with `commondir`.
        tmp.write("main/.git/HEAD", "ref: refs/heads/main\n");
        tmp.write("main/.git/refs/heads/main", &format!("{OTHER}\n"));
        tmp.write("main/.git/refs/heads/feature", &format!("{HASH}\n"));
        tmp.write("main/.git/worktrees/wt/HEAD", "ref: refs/heads/feature\n");
        tmp.write("main/.git/worktrees/wt/commondir", "../..\n");
        tmp.write("wt/.git", "gitdir: ../main/.git/worktrees/wt\n");
        assert_eq!(git_revision_from(&tmp.0.join("wt")).as_deref(), Some(HASH));
        // Packed in the common directory, as after `git pack-refs --all`.
        std::fs::remove_file(tmp.0.join("main/.git/refs/heads/feature")).unwrap();
        tmp.write(
            "main/.git/packed-refs",
            &format!("{HASH} refs/heads/feature\n"),
        );
        assert_eq!(git_revision_from(&tmp.0.join("wt")).as_deref(), Some(HASH));
    }

    #[test]
    fn unresolvable_layouts_give_none() {
        let tmp = TempDir::new("broken");
        tmp.write("dangling/.git/HEAD", "ref: refs/heads/gone\n");
        tmp.write("badfile/.git", "not a pointer\n");
        tmp.write("badhash/.git/HEAD", "xyz\n");
        for dir in ["dangling", "badfile", "badhash"] {
            assert_eq!(git_revision_from(&tmp.0.join(dir)), None, "{dir}");
        }
    }

    #[test]
    fn hash_detection() {
        assert!(looks_like_hash("6e62311aa"));
        assert!(!looks_like_hash("ref: x"));
        assert!(!looks_like_hash("6e6231"));
    }
}
