//! The benchmark's working directory: temporary run directories, the
//! trace files, and the registry of `results.json` digests that lets
//! every grid run of one build check its bytes against every other.
//!
//! It lives beside the benchmark executable (inside the build's target
//! directory), so a run reads and writes nothing outside its checkout.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use blurnet_tensor::persist::fnv1a;

/// The working directory of one benchmark process.
#[derive(Debug)]
pub struct Work {
    root: PathBuf,
    /// Fingerprint of the running executable: digests recorded by another
    /// build never judge this one.
    build: u64,
    next_dir: AtomicUsize,
}

/// A directory removed (best effort) when dropped.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

impl Work {
    /// Opens `blurbench-work/` next to the running executable, clearing
    /// temporary directories a killed earlier run may have left.
    pub fn open() -> io::Result<Work> {
        let exe = std::env::current_exe()?;
        let root = exe
            .parent()
            .ok_or_else(|| io::Error::other("the executable has no parent directory"))?
            .join("blurbench-work");
        let _ = std::fs::remove_dir_all(root.join("tmp"));
        std::fs::create_dir_all(root.join("tmp"))?;
        std::fs::create_dir_all(root.join("digests"))?;
        Ok(Work {
            root,
            build: fnv1a(&std::fs::read(&exe)?),
            next_dir: AtomicUsize::new(0),
        })
    }

    /// A fresh, empty directory for one run.
    pub fn temp_dir(&self, tag: &str) -> io::Result<TempDir> {
        let n = self.next_dir.fetch_add(1, Ordering::Relaxed);
        let path = self
            .root
            .join("tmp")
            .join(format!("{}-{n}-{tag}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// Where a traced run writes its trace file by default.
    pub fn trace_path(&self, workload: &str, seed: u64) -> PathBuf {
        self.root.join(format!("trace-{workload}-seed{seed}.json"))
    }

    /// Checks `results` against the digest this build recorded for
    /// `seed`, recording it on first sight. Returns a description of the
    /// mismatch, if any.
    pub fn check_results(&self, seed: u64, results: &[u8]) -> io::Result<Option<String>> {
        let digest = format!("{:016x}", fnv1a(results));
        let path = self
            .root
            .join("digests")
            .join(format!("{:016x}-seed{seed}", self.build));
        match std::fs::read_to_string(&path) {
            Ok(recorded) if recorded.trim() == digest => Ok(None),
            Ok(recorded) => Ok(Some(format!(
                "results.json digest {digest} differs from {} recorded by an earlier run of this build (seed {seed})",
                recorded.trim()
            ))),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                let tmp = path.with_extension("tmp");
                std::fs::write(&tmp, &digest)?;
                std::fs::rename(&tmp, &path)?;
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}
