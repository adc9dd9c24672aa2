//! The engine's registries: the verbs on the job & dataspace table
//! both worlds hold (`norns_sched::registry`, which decides every
//! verdict and its wording: a duplicate job id before its limits, an
//! update's limits checked as a registration's), the remote-staging
//! peers, and the containment check every path resolution goes
//! through. The daemon's own side is the mount it makes for a
//! dataspace. Gaps that stay (ROADMAP item 12): the daemon enforces no
//! grant, limit or quota, takes no credentials and drops `tracked`.

use std::fs;
use std::path::{Component, Path, PathBuf};

use norns_proto::{DataspaceDesc, ErrorCode, JobDesc};

use super::{Engine, EngineError};

impl Engine {
    pub fn register_dataspace(&self, desc: DataspaceDesc) -> Result<(), EngineError> {
        let mut reg = self.registry.lock();
        reg.register_dataspace(desc.nsid.clone(), desc.clone())?;
        fs::create_dir_all(&desc.mount).map_err(|e| {
            let _ = reg.unregister_dataspace(&desc.nsid);
            EngineError::new(ErrorCode::SystemError, format!("mount {}: {e}", desc.mount))
        })
    }

    pub fn update_dataspace(&self, desc: DataspaceDesc) -> Result<(), EngineError> {
        let mut reg = self.registry.lock();
        Ok(reg.update_dataspace(desc.nsid.clone(), desc)?)
    }

    pub fn unregister_dataspace(&self, nsid: &str) -> Result<(), EngineError> {
        Ok(self.registry.lock().unregister_dataspace(nsid)?)
    }

    pub fn dataspaces(&self) -> Vec<DataspaceDesc> {
        self.registry.lock().dataspaces().cloned().collect()
    }

    pub fn register_job(&self, job: JobDesc) -> Result<(), EngineError> {
        let mut reg = self.registry.lock();
        Ok(reg.register_job(job.job_id, job.limits, job.hosts)?)
    }

    pub fn update_job(&self, job: JobDesc) -> Result<(), EngineError> {
        let mut reg = self.registry.lock();
        Ok(reg.update_job(job.job_id, job.limits, job.hosts)?)
    }

    pub fn unregister_job(&self, job_id: u64) -> Result<(), EngineError> {
        Ok(self.registry.lock().unregister_job(job_id)?)
    }

    pub fn add_process(&self, job_id: u64, pid: u64) -> Result<(), EngineError> {
        Ok(self.registry.lock().add_process(job_id, pid, ())?)
    }

    pub fn remove_process(&self, job_id: u64, pid: u64) -> Result<(), EngineError> {
        Ok(self.registry.lock().remove_process(job_id, pid)?)
    }

    /// Is `pid` registered to *any* job? The user socket admits only
    /// those (paper §IV-B): one lookup, on every user submission.
    pub fn process_known(&self, pid: u64) -> bool {
        self.registry.lock().process_known(pid)
    }

    // ---- peer registry (remote staging) ----

    /// Map `host` (as it appears in `RemotePath.host`) to a peer
    /// daemon's data-plane TCP address. Re-registering updates.
    pub fn register_peer(&self, host: impl Into<String>, data_addr: impl Into<String>) {
        self.peers.lock().insert(host.into(), data_addr.into());
    }

    /// Data-plane address of a registered peer.
    pub fn peer_addr(&self, host: &str) -> Option<String> {
        self.peers.lock().get(host).cloned()
    }

    pub fn peers(&self) -> Vec<(String, String)> {
        let mut v: Vec<_> = self.peers.lock().clone().into_iter().collect();
        v.sort();
        v
    }

    /// Resolve a path inside a registered dataspace, enforcing
    /// containment: the path is interpreted strictly relative to the
    /// mount, so neither `..` components nor absolute paths (whose
    /// `RootDir` would make `Path::join` *replace* the mount entirely)
    /// can name anything outside the dataspace. Shared by local task
    /// validation and the remote data-plane server.
    pub(crate) fn resolve_local(&self, nsid: &str, path: &str) -> Result<PathBuf, EngineError> {
        let reg = self.registry.lock();
        let mount = Path::new(&reg.dataspace(nsid)?.mount);
        let rel = Path::new(path);
        // `..`, a root or a prefix would name something outside.
        let outside = |c: Component| !matches!(c, Component::Normal(_) | Component::CurDir);
        if rel.components().any(outside) {
            return Err(EngineError::new(
                ErrorCode::PermissionDenied,
                format!("path escape: {path}"),
            ));
        }
        Ok(mount.join(rel))
    }

    /// Enumerate the children of a directory inside a dataspace (the
    /// wire's v6 `ListDir` op): names only, sorted, capped at
    /// [`norns_proto::MAX_DIR_ENTRIES`] — larger directories are
    /// refused rather than silently truncated, so a scatter planner
    /// can never believe it covered a directory it did not. The path
    /// goes through the same containment checks as task submissions;
    /// a non-directory path is [`ErrorCode::BadArgs`].
    pub fn list_dir(&self, nsid: &str, path: &str) -> Result<Vec<String>, EngineError> {
        let local = self.resolve_local(nsid, path)?;
        let meta = fs::metadata(&local)?;
        if !meta.is_dir() {
            return Err(EngineError::bad_args(format!(
                "{nsid}://{path} is not a directory"
            )));
        }
        let mut names = Vec::new();
        for entry in fs::read_dir(&local)? {
            let entry = entry?;
            if names.len() >= norns_proto::MAX_DIR_ENTRIES {
                return Err(EngineError::bad_args(format!(
                    "{nsid}://{path} has more than {} entries",
                    norns_proto::MAX_DIR_ENTRIES
                )));
            }
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
        names.sort();
        Ok(names)
    }
}
