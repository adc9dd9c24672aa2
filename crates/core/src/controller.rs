//! The job & dataspace controller.
//!
//! Per the paper (§IV-B), worker threads "rely on the information
//! registered in the job & dataspace controller to validate the
//! request, which implies checking that the calling process has access
//! to the requested dataspaces and also that it has the appropriate
//! file system permissions to access the requested resources". The
//! controller is the authoritative registry the control API populates,
//! and the enforcement point that lets urd:
//!
//! 1. account the usage registered processes make of their dataspaces,
//! 2. reject task submissions from unregistered processes,
//! 3. reject submissions naming dataspaces a job may not touch.
//!
//! A submission's *shape* is not the controller's rule: `validate` asks
//! the admission table the real daemon asks too (`norns_sched::shape`).

use std::collections::HashMap;

use simstore::{Cred, TierRef};

use crate::error::{NornsError, Result};
use crate::plugins::PluginKind;
use crate::resource::ResourceRef;
use crate::task::{JobId, TaskSpec};

/// A dataspace registered on this node (`register_dataspace`).
#[derive(Debug, Clone)]
pub struct DataspaceSpec {
    pub nsid: String,
    pub tier: TierRef,
    /// Slurm asked urd to track emptiness for node release (§IV-A).
    pub tracked: bool,
}

/// A job registered on this node (`register_job`).
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub id: JobId,
    /// Nodes reserved for the job (fabric node ids).
    pub hosts: Vec<simnet::NodeId>,
    /// Dataspaces the job may use, with optional byte quotas (0 = no
    /// limit).
    pub limits: Vec<(String, u64)>,
    /// Credentials job processes run with.
    pub cred: Cred,
}

#[derive(Debug)]
struct JobEntry {
    spec: JobSpec,
    processes: HashMap<u64, Cred>,
    usage: HashMap<String, u64>,
}

/// Who is submitting a request, which determines the checks applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApiSource {
    /// The scheduler, through the control socket — trusted.
    Control,
    /// An application process, through the user socket.
    User { pid: u64 },
}

/// Controller state for one urd instance.
#[derive(Debug, Default)]
pub struct Controller {
    dataspaces: HashMap<String, DataspaceSpec>,
    jobs: HashMap<u64, JobEntry>,
}

impl Controller {
    pub fn new() -> Self {
        Self::default()
    }

    // ---- dataspace management (nornsctl_register_dataspace etc.) ----

    pub fn register_dataspace(&mut self, spec: DataspaceSpec) -> Result<()> {
        if self.dataspaces.contains_key(&spec.nsid) {
            return Err(NornsError::AlreadyRegistered(spec.nsid));
        }
        self.dataspaces.insert(spec.nsid.clone(), spec);
        Ok(())
    }

    pub fn update_dataspace(&mut self, spec: DataspaceSpec) -> Result<()> {
        match self.dataspaces.get_mut(&spec.nsid) {
            Some(e) => {
                *e = spec;
                Ok(())
            }
            None => Err(NornsError::NoSuchDataspace(spec.nsid)),
        }
    }

    pub fn unregister_dataspace(&mut self, nsid: &str) -> Result<DataspaceSpec> {
        self.dataspaces
            .remove(nsid)
            .ok_or_else(|| NornsError::NoSuchDataspace(nsid.to_string()))
    }

    pub fn dataspace(&self, nsid: &str) -> Result<&DataspaceSpec> {
        self.dataspaces
            .get(nsid)
            .ok_or_else(|| NornsError::NoSuchDataspace(nsid.to_string()))
    }

    pub fn dataspaces(&self) -> impl Iterator<Item = &DataspaceSpec> {
        self.dataspaces.values()
    }

    pub fn dataspace_count(&self) -> usize {
        self.dataspaces.len()
    }

    /// Dataspaces flagged for emptiness tracking.
    pub fn tracked_dataspaces(&self) -> Vec<&DataspaceSpec> {
        let mut v: Vec<_> = self.dataspaces.values().filter(|d| d.tracked).collect();
        v.sort_by(|a, b| a.nsid.cmp(&b.nsid));
        v
    }

    // ---- job management (nornsctl_register_job etc.) ----

    pub fn register_job(&mut self, spec: JobSpec) -> Result<()> {
        if self.jobs.contains_key(&spec.id.0) {
            return Err(NornsError::AlreadyRegistered(format!("job {}", spec.id.0)));
        }
        for (nsid, _) in &spec.limits {
            if !self.dataspaces.contains_key(nsid) {
                return Err(NornsError::NoSuchDataspace(nsid.clone()));
            }
        }
        self.jobs.insert(
            spec.id.0,
            JobEntry {
                spec,
                processes: HashMap::new(),
                usage: HashMap::new(),
            },
        );
        Ok(())
    }

    pub fn update_job(&mut self, spec: JobSpec) -> Result<()> {
        for (nsid, _) in &spec.limits {
            if !self.dataspaces.contains_key(nsid) {
                return Err(NornsError::NoSuchDataspace(nsid.clone()));
            }
        }
        match self.jobs.get_mut(&spec.id.0) {
            Some(e) => {
                e.spec = spec;
                Ok(())
            }
            None => Err(NornsError::NoSuchJob(spec.id.0)),
        }
    }

    pub fn unregister_job(&mut self, job: JobId) -> Result<JobSpec> {
        self.jobs
            .remove(&job.0)
            .map(|e| e.spec)
            .ok_or(NornsError::NoSuchJob(job.0))
    }

    pub fn job(&self, job: JobId) -> Result<&JobSpec> {
        self.jobs
            .get(&job.0)
            .map(|e| &e.spec)
            .ok_or(NornsError::NoSuchJob(job.0))
    }

    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    // ---- process management ----

    pub fn add_process(&mut self, job: JobId, pid: u64, cred: Cred) -> Result<()> {
        let entry = self
            .jobs
            .get_mut(&job.0)
            .ok_or(NornsError::NoSuchJob(job.0))?;
        entry.processes.insert(pid, cred);
        Ok(())
    }

    pub fn remove_process(&mut self, job: JobId, pid: u64) -> Result<()> {
        let entry = self
            .jobs
            .get_mut(&job.0)
            .ok_or(NornsError::NoSuchJob(job.0))?;
        entry
            .processes
            .remove(&pid)
            .map(|_| ())
            .ok_or(NornsError::NoSuchProcess { job: job.0, pid })
    }

    // ---- validation (the worker-thread checks from §IV-B) ----

    /// Validate a submission and return the credentials the task will
    /// run with and the plugin that serves it.
    pub fn validate(
        &self,
        job: JobId,
        source: ApiSource,
        spec: &TaskSpec,
    ) -> Result<(Cred, PluginKind)> {
        let entry = self.jobs.get(&job.0).ok_or(NornsError::NoSuchJob(job.0))?;
        let cred = match source {
            ApiSource::Control => entry.spec.cred.clone(),
            ApiSource::User { pid } => entry
                .processes
                .get(&pid)
                .cloned()
                .ok_or(NornsError::NoSuchProcess { job: job.0, pid })?,
        };
        let check_res = |r: &ResourceRef| -> Result<()> {
            if let Some(nsid) = r.nsid() {
                // Local resources must name a dataspace registered on
                // this node; all resources must be in the job's grant.
                if !r.is_remote() && !self.dataspaces.contains_key(nsid) {
                    return Err(NornsError::NoSuchDataspace(nsid.to_string()));
                }
                if !entry.spec.limits.iter().any(|(n, _)| n == nsid) {
                    return Err(NornsError::DataspaceNotAllowed {
                        job: job.0,
                        nsid: nsid.to_string(),
                    });
                }
            }
            Ok(())
        };
        check_res(&spec.input)?;
        if let Some(out) = &spec.output {
            check_res(out)?;
        }
        Ok((
            cred,
            norns_sched::shape::admit(crate::plugins::shape(spec))?,
        ))
    }

    /// Charge `bytes` of dataspace usage to a job, enforcing its quota.
    pub fn charge(&mut self, job: JobId, nsid: &str, bytes: u64) -> Result<()> {
        let entry = self
            .jobs
            .get_mut(&job.0)
            .ok_or(NornsError::NoSuchJob(job.0))?;
        let quota = entry
            .spec
            .limits
            .iter()
            .find(|(n, _)| n == nsid)
            .map(|(_, q)| *q)
            .ok_or_else(|| NornsError::DataspaceNotAllowed {
                job: job.0,
                nsid: nsid.into(),
            })?;
        let used = entry.usage.entry(nsid.to_string()).or_insert(0);
        if quota > 0 && *used + bytes > quota {
            return Err(NornsError::QuotaExceeded {
                job: job.0,
                nsid: nsid.into(),
                requested: bytes,
                quota,
            });
        }
        *used += bytes;
        Ok(())
    }

    /// Release previously charged usage (file removed / staged out).
    pub fn release(&mut self, job: JobId, nsid: &str, bytes: u64) {
        if let Some(entry) = self.jobs.get_mut(&job.0) {
            if let Some(used) = entry.usage.get_mut(nsid) {
                *used = used.saturating_sub(bytes);
            }
        }
    }

    pub fn usage(&self, job: JobId, nsid: &str) -> u64 {
        self.jobs
            .get(&job.0)
            .and_then(|e| e.usage.get(nsid))
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskOp;

    fn tier() -> TierRef {
        TierRef::Local(0)
    }

    fn controller_with_job() -> Controller {
        let mut c = Controller::new();
        c.register_dataspace(DataspaceSpec {
            nsid: "pmdk0".into(),
            tier: tier(),
            tracked: false,
        })
        .unwrap();
        c.register_dataspace(DataspaceSpec {
            nsid: "lustre".into(),
            tier: TierRef::Pfs(0),
            tracked: false,
        })
        .unwrap();
        c.register_job(JobSpec {
            id: JobId(1),
            hosts: vec![0, 1],
            limits: vec![("pmdk0".into(), 1000), ("lustre".into(), 0)],
            cred: Cred::new(1000, 1000),
        })
        .unwrap();
        c
    }

    fn copy_spec() -> TaskSpec {
        TaskSpec::copy(
            ResourceRef::local("lustre", "in.dat"),
            ResourceRef::local("pmdk0", "in.dat"),
        )
    }

    #[test]
    fn duplicate_registrations_rejected() {
        let mut c = controller_with_job();
        assert!(matches!(
            c.register_dataspace(DataspaceSpec {
                nsid: "pmdk0".into(),
                tier: tier(),
                tracked: false
            }),
            Err(NornsError::AlreadyRegistered(_))
        ));
        assert!(matches!(
            c.register_job(JobSpec {
                id: JobId(1),
                hosts: vec![],
                limits: vec![],
                cred: Cred::new(1, 1)
            }),
            Err(NornsError::AlreadyRegistered(_))
        ));
    }

    #[test]
    fn job_with_unknown_dataspace_rejected() {
        let mut c = controller_with_job();
        assert!(matches!(
            c.register_job(JobSpec {
                id: JobId(2),
                hosts: vec![],
                limits: vec![("ghost".into(), 0)],
                cred: Cred::new(1, 1)
            }),
            Err(NornsError::NoSuchDataspace(_))
        ));
    }

    #[test]
    fn control_submissions_validate() {
        let c = controller_with_job();
        let (cred, plugin) = c
            .validate(JobId(1), ApiSource::Control, &copy_spec())
            .unwrap();
        assert_eq!(cred.uid, 1000);
        assert_eq!(plugin, PluginKind::LocalToLocal);
    }

    #[test]
    fn unknown_job_rejected() {
        let c = controller_with_job();
        assert!(matches!(
            c.validate(JobId(99), ApiSource::Control, &copy_spec()),
            Err(NornsError::NoSuchJob(99))
        ));
    }

    #[test]
    fn user_submissions_require_registered_process() {
        let mut c = controller_with_job();
        let err = c.validate(JobId(1), ApiSource::User { pid: 42 }, &copy_spec());
        assert!(matches!(
            err,
            Err(NornsError::NoSuchProcess { job: 1, pid: 42 })
        ));
        c.add_process(JobId(1), 42, Cred::new(1000, 1000)).unwrap();
        assert!(c
            .validate(JobId(1), ApiSource::User { pid: 42 }, &copy_spec())
            .is_ok());
        c.remove_process(JobId(1), 42).unwrap();
        assert!(c
            .validate(JobId(1), ApiSource::User { pid: 42 }, &copy_spec())
            .is_err());
    }

    #[test]
    fn ungrated_dataspace_rejected() {
        let mut c = controller_with_job();
        c.register_dataspace(DataspaceSpec {
            nsid: "nvme1".into(),
            tier: tier(),
            tracked: false,
        })
        .unwrap();
        // nvme1 registered on the node but NOT granted to job 1.
        let spec = TaskSpec::copy(
            ResourceRef::local("nvme1", "x"),
            ResourceRef::local("pmdk0", "x"),
        );
        assert!(matches!(
            c.validate(JobId(1), ApiSource::Control, &spec),
            Err(NornsError::DataspaceNotAllowed { job: 1, .. })
        ));
    }

    #[test]
    fn unregistered_local_dataspace_rejected() {
        let c = controller_with_job();
        let spec = TaskSpec::copy(
            ResourceRef::local("ghost", "x"),
            ResourceRef::local("pmdk0", "x"),
        );
        assert!(matches!(
            c.validate(JobId(1), ApiSource::Control, &spec),
            Err(NornsError::NoSuchDataspace(_))
        ));
    }

    #[test]
    fn shape_validation() {
        let c = controller_with_job();
        // Copy without output.
        let bad = TaskSpec {
            op: TaskOp::Copy,
            priority: norns_sched::DEFAULT_PRIORITY,
            input: ResourceRef::local("pmdk0", "x"),
            output: None,
            durability: crate::task::Durability::LocalOnly,
        };
        assert!(matches!(
            c.validate(JobId(1), ApiSource::Control, &bad),
            Err(NornsError::BadArgs(_))
        ));
        // Remove with output.
        let bad = TaskSpec {
            op: TaskOp::Remove,
            priority: norns_sched::DEFAULT_PRIORITY,
            input: ResourceRef::local("pmdk0", "x"),
            output: Some(ResourceRef::local("pmdk0", "y")),
            durability: crate::task::Durability::LocalOnly,
        };
        assert!(matches!(
            c.validate(JobId(1), ApiSource::Control, &bad),
            Err(NornsError::BadArgs(_))
        ));
        // Remove of memory.
        let bad = TaskSpec {
            op: TaskOp::Remove,
            priority: norns_sched::DEFAULT_PRIORITY,
            input: ResourceRef::memory(10),
            output: None,
            durability: crate::task::Durability::LocalOnly,
        };
        assert!(matches!(
            c.validate(JobId(1), ApiSource::Control, &bad),
            Err(NornsError::BadArgs(_))
        ));
    }

    #[test]
    fn quota_accounting() {
        let mut c = controller_with_job();
        c.charge(JobId(1), "pmdk0", 600).unwrap();
        assert_eq!(c.usage(JobId(1), "pmdk0"), 600);
        // Next 600 exceeds the 1000 quota.
        assert!(matches!(
            c.charge(JobId(1), "pmdk0", 600),
            Err(NornsError::QuotaExceeded { .. })
        ));
        c.release(JobId(1), "pmdk0", 300);
        c.charge(JobId(1), "pmdk0", 600).unwrap();
        assert_eq!(c.usage(JobId(1), "pmdk0"), 900);
        // Zero quota means unlimited.
        c.charge(JobId(1), "lustre", u64::MAX / 2).unwrap();
    }

    #[test]
    fn tracked_dataspaces_listed() {
        let mut c = Controller::new();
        c.register_dataspace(DataspaceSpec {
            nsid: "b".into(),
            tier: tier(),
            tracked: true,
        })
        .unwrap();
        c.register_dataspace(DataspaceSpec {
            nsid: "a".into(),
            tier: tier(),
            tracked: true,
        })
        .unwrap();
        c.register_dataspace(DataspaceSpec {
            nsid: "c".into(),
            tier: tier(),
            tracked: false,
        })
        .unwrap();
        let tracked: Vec<_> = c
            .tracked_dataspaces()
            .iter()
            .map(|d| d.nsid.clone())
            .collect();
        assert_eq!(tracked, vec!["a", "b"]);
    }

    #[test]
    fn unregister_flows() {
        let mut c = controller_with_job();
        assert!(c.unregister_dataspace("nope").is_err());
        c.unregister_dataspace("lustre").unwrap();
        assert!(c.dataspace("lustre").is_err());
        assert_eq!(c.dataspace_count(), 1);
        c.unregister_job(JobId(1)).unwrap();
        assert!(c.job(JobId(1)).is_err());
        assert_eq!(c.job_count(), 0);
    }
}
