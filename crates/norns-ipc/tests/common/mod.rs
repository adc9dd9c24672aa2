//! What the integration tests share: a scratch root that is removed,
//! with everything in it, when its guard drops — on a panic too, so a
//! failed run leaves no preallocated files behind.

use std::path::{Path, PathBuf};

/// `<base>/norns-<name>-<pid>`, created empty, removed on drop.
pub struct TempRoot(PathBuf);

impl TempRoot {
    /// Under the system temp directory.
    pub fn new(name: &str) -> TempRoot {
        TempRoot::under(&std::env::temp_dir(), name)
    }

    pub fn under(base: &Path, name: &str) -> TempRoot {
        let dir = base.join(format!("norns-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempRoot(dir)
    }
}

impl std::ops::Deref for TempRoot {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempRoot {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
