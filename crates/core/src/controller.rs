//! The job & dataspace controller (§IV-B) the simulated urd checks
//! every request against. Its registrations live in the table the real
//! daemon holds too (`norns_sched::registry`), which decides each
//! verb's verdict (a duplicate job id before its limits; an update's
//! limits checked as a registration's) and wording; a refusal becomes
//! the `NornsError` variant it names. The simulator's own side, which
//! the daemon lacks (ROADMAP item 12), stays here: tiers, credentials,
//! the grant check in `validate`, and quota charging.

use std::collections::HashMap;

use norns_sched::registry::{Job, Registry};
use simstore::{Cred, TierRef};

use crate::error::{NornsError, Result};
use crate::task::{JobId, ResourceDesc, TaskSpec};

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
    /// A job keeps its credentials, a process its own.
    table: Registry<DataspaceSpec, Cred, Cred>,
    /// Bytes charged per (job, dataspace); a job's go with it.
    usage: HashMap<(u64, String), u64>,
}

impl Controller {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn register_dataspace(&mut self, spec: DataspaceSpec) -> Result<()> {
        Ok(self.table.register_dataspace(spec.nsid.clone(), spec)?)
    }

    pub fn update_dataspace(&mut self, spec: DataspaceSpec) -> Result<()> {
        Ok(self.table.update_dataspace(spec.nsid.clone(), spec)?)
    }

    pub fn unregister_dataspace(&mut self, nsid: &str) -> Result<()> {
        Ok(self.table.unregister_dataspace(nsid)?)
    }

    pub fn dataspace(&self, nsid: &str) -> Result<&DataspaceSpec> {
        Ok(self.table.dataspace(nsid)?)
    }

    pub fn dataspaces(&self) -> impl Iterator<Item = &DataspaceSpec> {
        self.table.dataspaces()
    }

    pub fn dataspace_count(&self) -> usize {
        self.table.dataspace_count()
    }

    /// Dataspaces flagged for emptiness tracking.
    pub fn tracked_dataspaces(&self) -> Vec<&DataspaceSpec> {
        self.dataspaces().filter(|d| d.tracked).collect()
    }

    pub fn register_job(&mut self, spec: JobSpec) -> Result<()> {
        Ok(self.table.register_job(spec.id.0, spec.limits, spec.cred)?)
    }

    pub fn update_job(&mut self, spec: JobSpec) -> Result<()> {
        Ok(self.table.update_job(spec.id.0, spec.limits, spec.cred)?)
    }

    pub fn unregister_job(&mut self, job: JobId) -> Result<()> {
        self.table.unregister_job(job.0)?;
        self.usage.retain(|(id, _), _| *id != job.0);
        Ok(())
    }

    pub fn job(&self, job: JobId) -> Result<&Job<Cred, Cred>> {
        Ok(self.table.job(job.0)?)
    }

    pub fn job_count(&self) -> usize {
        self.table.job_count()
    }

    pub fn add_process(&mut self, job: JobId, pid: u64, cred: Cred) -> Result<()> {
        Ok(self.table.add_process(job.0, pid, cred)?)
    }

    pub fn remove_process(&mut self, job: JobId, pid: u64) -> Result<()> {
        Ok(self.table.remove_process(job.0, pid)?)
    }

    /// Is `pid` added to any job on this node?
    pub fn process_known(&self, pid: u64) -> bool {
        self.table.process_known(pid)
    }

    /// Check a submission's job, process and dataspace grants, and
    /// return the credentials the task will run with.
    pub fn validate(&self, job: JobId, source: ApiSource, spec: &TaskSpec) -> Result<Cred> {
        let entry = self.table.job(job.0)?;
        let cred = match source {
            ApiSource::Control => &entry.info,
            ApiSource::User { pid } => self.table.process(job.0, pid)?,
        };
        for end in std::iter::once(&spec.input).chain(&spec.output) {
            let Some(nsid) = end.nsid() else { continue };
            // A local end must be registered here; every end, granted.
            if !matches!(end, ResourceDesc::RemotePath { .. }) {
                self.table.dataspace(nsid)?;
            }
            if !entry.limits.iter().any(|(n, _)| n == nsid) {
                let (job, nsid) = (job.0, nsid.to_string());
                return Err(NornsError::DataspaceNotAllowed { job, nsid });
            }
        }
        Ok(cred.clone())
    }

    /// Charge `bytes` of dataspace usage to a job, enforcing its quota.
    pub fn charge(&mut self, job: JobId, nsid: &str, bytes: u64) -> Result<()> {
        let (job, nsid) = (job.0, nsid.to_string());
        let limits = &self.table.job(job)?.limits;
        let Some(&(_, quota)) = limits.iter().find(|(n, _)| *n == nsid) else {
            return Err(NornsError::DataspaceNotAllowed { job, nsid });
        };
        let used = self.usage.entry((job, nsid.clone())).or_insert(0);
        if quota > 0 && *used + bytes > quota {
            return Err(NornsError::QuotaExceeded {
                job,
                nsid,
                requested: bytes,
                quota,
            });
        }
        *used += bytes;
        Ok(())
    }

    /// Release previously charged usage (file removed / staged out).
    pub fn release(&mut self, job: JobId, nsid: &str, bytes: u64) {
        if let Some(used) = self.usage.get_mut(&(job.0, nsid.to_string())) {
            *used = used.saturating_sub(bytes);
        }
    }

    pub fn usage(&self, job: JobId, nsid: &str) -> u64 {
        let used = self.usage.get(&(job.0, nsid.to_string()));
        used.copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            ResourceDesc::posix("lustre", "in.dat"),
            ResourceDesc::posix("pmdk0", "in.dat"),
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
        let cred = c
            .validate(JobId(1), ApiSource::Control, &copy_spec())
            .unwrap();
        assert_eq!(cred.uid, 1000);
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
            ResourceDesc::posix("nvme1", "x"),
            ResourceDesc::posix("pmdk0", "x"),
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
            ResourceDesc::posix("ghost", "x"),
            ResourceDesc::posix("pmdk0", "x"),
        );
        assert!(matches!(
            c.validate(JobId(1), ApiSource::Control, &spec),
            Err(NornsError::NoSuchDataspace(_))
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
