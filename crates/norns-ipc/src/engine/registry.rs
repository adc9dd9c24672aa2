//! The engine's registries — dataspaces and their mounts, jobs, the
//! `pid → job` index behind user-socket admission, and remote-staging
//! peers — plus the dataspace containment check every path resolution
//! goes through.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

use norns_proto::{DataspaceDesc, ErrorCode, JobDesc};

use super::{Engine, EngineError};

#[derive(Default)]
pub(super) struct Registry {
    pub(super) dataspaces: HashMap<String, DataspaceDesc>,
    /// nsid → backing directory.
    pub(super) mounts: HashMap<String, PathBuf>,
    pub(super) jobs: HashMap<u64, JobDesc>,
    /// (job, pid) pairs registered via `add_process`.
    pub(super) processes: HashMap<u64, Vec<u64>>,
    /// Reverse index pid → jobs, mirroring `processes`: user-socket
    /// admission (`process_known`) is a hash lookup, not a scan over
    /// every registered job.
    pub(super) pid_jobs: HashMap<u64, Vec<u64>>,
    /// Peer registry: `RemotePath.host` → data-plane TCP address.
    pub(super) peers: HashMap<String, String>,
}

impl Engine {
    pub fn register_dataspace(&self, desc: DataspaceDesc) -> Result<(), EngineError> {
        let mut reg = self.registry.lock();
        if reg.dataspaces.contains_key(&desc.nsid) {
            return Err(EngineError::bad_args(format!(
                "dataspace {} exists",
                desc.nsid
            )));
        }
        let mount = PathBuf::from(&desc.mount);
        fs::create_dir_all(&mount).map_err(|e| {
            EngineError::new(ErrorCode::SystemError, format!("mount {}: {e}", desc.mount))
        })?;
        reg.mounts.insert(desc.nsid.clone(), mount);
        reg.dataspaces.insert(desc.nsid.clone(), desc);
        Ok(())
    }

    pub fn update_dataspace(&self, desc: DataspaceDesc) -> Result<(), EngineError> {
        let mut reg = self.registry.lock();
        if !reg.dataspaces.contains_key(&desc.nsid) {
            return Err(EngineError::not_found(format!("dataspace {}", desc.nsid)));
        }
        reg.mounts
            .insert(desc.nsid.clone(), PathBuf::from(&desc.mount));
        reg.dataspaces.insert(desc.nsid.clone(), desc);
        Ok(())
    }

    pub fn unregister_dataspace(&self, nsid: &str) -> Result<(), EngineError> {
        let mut reg = self.registry.lock();
        reg.mounts.remove(nsid);
        reg.dataspaces
            .remove(nsid)
            .map(|_| ())
            .ok_or_else(|| EngineError::not_found(format!("dataspace {nsid}")))
    }

    pub fn dataspaces(&self) -> Vec<DataspaceDesc> {
        let reg = self.registry.lock();
        let mut v: Vec<_> = reg.dataspaces.values().cloned().collect();
        v.sort_by(|a, b| a.nsid.cmp(&b.nsid));
        v
    }

    pub fn register_job(&self, job: JobDesc) -> Result<(), EngineError> {
        let mut reg = self.registry.lock();
        for (nsid, _) in &job.limits {
            if !reg.dataspaces.contains_key(nsid) {
                return Err(EngineError::not_found(format!("dataspace {nsid}")));
            }
        }
        if reg.jobs.contains_key(&job.job_id) {
            return Err(EngineError::bad_args(format!("job {} exists", job.job_id)));
        }
        reg.jobs.insert(job.job_id, job);
        Ok(())
    }

    pub fn update_job(&self, job: JobDesc) -> Result<(), EngineError> {
        let mut reg = self.registry.lock();
        if !reg.jobs.contains_key(&job.job_id) {
            return Err(EngineError::not_found(format!("job {}", job.job_id)));
        }
        reg.jobs.insert(job.job_id, job);
        Ok(())
    }

    pub fn unregister_job(&self, job_id: u64) -> Result<(), EngineError> {
        let mut reg = self.registry.lock();
        if let Some(pids) = reg.processes.remove(&job_id) {
            for pid in pids {
                if let Some(jobs) = reg.pid_jobs.get_mut(&pid) {
                    if let Some(i) = jobs.iter().position(|j| *j == job_id) {
                        jobs.swap_remove(i);
                    }
                    if jobs.is_empty() {
                        reg.pid_jobs.remove(&pid);
                    }
                }
            }
        }
        reg.jobs
            .remove(&job_id)
            .map(|_| ())
            .ok_or_else(|| EngineError::not_found(format!("job {job_id}")))
    }

    pub fn add_process(&self, job_id: u64, pid: u64) -> Result<(), EngineError> {
        let mut reg = self.registry.lock();
        if !reg.jobs.contains_key(&job_id) {
            return Err(EngineError::not_found(format!("job {job_id}")));
        }
        reg.processes.entry(job_id).or_default().push(pid);
        reg.pid_jobs.entry(pid).or_default().push(job_id);
        Ok(())
    }

    pub fn remove_process(&self, job_id: u64, pid: u64) -> Result<(), EngineError> {
        let mut reg = self.registry.lock();
        let procs = reg
            .processes
            .get_mut(&job_id)
            .ok_or_else(|| EngineError::not_found(format!("job {job_id}")))?;
        let before = procs.len();
        procs.retain(|p| *p != pid);
        if procs.len() == before {
            return Err(EngineError::not_found(format!("process {pid}")));
        }
        if let Some(jobs) = reg.pid_jobs.get_mut(&pid) {
            jobs.retain(|j| *j != job_id);
            if jobs.is_empty() {
                reg.pid_jobs.remove(&pid);
            }
        }
        Ok(())
    }

    /// Is `pid` registered to *any* job? The user socket only accepts
    /// submissions from processes the scheduler registered via
    /// `AddProcess` (paper §IV-B). O(1) via the reverse index — this
    /// runs on every user-socket submission, so it must not scan jobs.
    pub fn process_known(&self, pid: u64) -> bool {
        let reg = self.registry.lock();
        reg.pid_jobs.contains_key(&pid)
    }

    // ---- peer registry (remote staging) ----

    /// Map `host` (as it appears in `RemotePath.host`) to a peer
    /// daemon's data-plane TCP address. Re-registering updates.
    pub fn register_peer(&self, host: impl Into<String>, data_addr: impl Into<String>) {
        self.registry
            .lock()
            .peers
            .insert(host.into(), data_addr.into());
    }

    /// Data-plane address of a registered peer.
    pub fn peer_addr(&self, host: &str) -> Option<String> {
        self.registry.lock().peers.get(host).cloned()
    }

    pub fn peers(&self) -> Vec<(String, String)> {
        let reg = self.registry.lock();
        let mut v: Vec<_> = reg
            .peers
            .iter()
            .map(|(h, a)| (h.clone(), a.clone()))
            .collect();
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
        let mount = reg
            .mounts
            .get(nsid)
            .ok_or_else(|| EngineError::not_found(format!("dataspace {nsid}")))?;
        let rel = Path::new(path);
        if rel.components().any(|c| {
            matches!(
                c,
                std::path::Component::ParentDir
                    | std::path::Component::RootDir
                    | std::path::Component::Prefix(_)
            )
        }) {
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
