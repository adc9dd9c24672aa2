//! Batch job records.

use norns::TaskId;
use simcore::{EventId, SimDuration, SimTime};
use simnet::NodeId;
use simstore::Cred;

use crate::script::JobScript;
use crate::workflow::WorkflowId;

/// Scheduler-assigned job identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlurmJobId(pub u64);

/// Job lifecycle, extended with the staging phases of §III: the one
/// table both worlds run, [`norns_flow::job`].
pub use norns_flow::job::JobState;

/// What the job's compute phase does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobBody {
    /// The scheduler ends the compute phase after this wall time.
    Fixed(SimDuration),
    /// The embedding model drives the application (workload models);
    /// it must call [`crate::ctld::app_finished`] when done, with the
    /// application's result.
    External,
}

/// Why a staging task ran (encoded in NORNS task tags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StagePurpose {
    StageIn,
    StageOut,
    Cleanup,
}

const PURPOSE_SHIFT: u32 = 56;

/// Encode (purpose, job) into a NORNS task tag.
pub fn stage_tag(purpose: StagePurpose, job: SlurmJobId) -> u64 {
    let p = match purpose {
        StagePurpose::StageIn => 1u64,
        StagePurpose::StageOut => 2,
        StagePurpose::Cleanup => 3,
    };
    (p << PURPOSE_SHIFT) | job.0
}

/// Decode a NORNS task tag back into (purpose, job); `None` for tags
/// not issued by the scheduler.
pub fn decode_stage_tag(tag: u64) -> Option<(StagePurpose, SlurmJobId)> {
    let purpose = match tag >> PURPOSE_SHIFT {
        1 => StagePurpose::StageIn,
        2 => StagePurpose::StageOut,
        3 => StagePurpose::Cleanup,
        _ => return None,
    };
    Some((purpose, SlurmJobId(tag & ((1 << PURPOSE_SHIFT) - 1))))
}

/// Outstanding staging tasks: (node, task id, a stage-in leg's
/// destination dataspace and path).
pub type Legs = Vec<(NodeId, TaskId, Option<(String, String)>)>;

/// One batch job as tracked by `slurmctld`.
#[derive(Debug)]
pub struct Job {
    pub id: SlurmJobId,
    pub script: JobScript,
    pub body: JobBody,
    pub cred: Cred,
    /// Its record in the one job lifecycle table.
    pub life: norns_flow::job::Job,
    pub workflow: Option<WorkflowId>,
    pub submitted: SimTime,
    /// Nodes allocated (empty while pending).
    pub nodes: Vec<NodeId>,
    pub stage_in_started: Option<SimTime>,
    /// Compute phase start/end.
    pub started: Option<SimTime>,
    pub compute_finished: Option<SimTime>,
    pub stage_out_started: Option<SimTime>,
    pub finished: Option<SimTime>,
    pub outstanding_stage: Legs,
    /// Destinations its stage-in landed while it stages in: what a kill
    /// removes.
    pub landed: Vec<(NodeId, String, String)>,
    /// Stage-in timeout event (cancelled when staging completes).
    pub stage_timeout: EventId,
    /// Stage-out failures left data behind ("for future stage_out
    /// operations to try and recover", §III).
    pub leftover_stageout: Vec<String>,
    pub failure_reason: Option<String>,
}

impl Job {
    pub fn new(
        id: SlurmJobId,
        script: JobScript,
        body: JobBody,
        cred: Cred,
        submitted: SimTime,
    ) -> Self {
        Job {
            id,
            script,
            body,
            cred,
            life: norns_flow::job::Job::default(),
            workflow: None,
            submitted,
            nodes: Vec::new(),
            stage_in_started: None,
            started: None,
            compute_finished: None,
            stage_out_started: None,
            finished: None,
            outstanding_stage: Vec::new(),
            landed: Vec::new(),
            stage_timeout: EventId::NONE,
            leftover_stageout: Vec::new(),
            failure_reason: None,
        }
    }

    /// Wall time of the compute phase, if it ran.
    pub fn compute_time(&self) -> Option<SimDuration> {
        Some(self.compute_finished? - self.started?)
    }

    /// Stage-in duration, if any staging ran.
    pub fn stage_in_time(&self) -> Option<SimDuration> {
        Some(self.started? - self.stage_in_started?)
    }

    pub fn stage_out_time(&self) -> Option<SimDuration> {
        Some(self.finished? - self.stage_out_started?)
    }

    /// Queue wait: submission → allocation.
    pub fn queue_wait(&self) -> Option<SimDuration> {
        let alloc = self.stage_in_started.or(self.started)?;
        Some(alloc - self.submitted)
    }

    /// End-to-end: submission → fully finished.
    pub fn turnaround(&self) -> Option<SimDuration> {
        Some(self.finished? - self.submitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_tags_roundtrip() {
        for p in [
            StagePurpose::StageIn,
            StagePurpose::StageOut,
            StagePurpose::Cleanup,
        ] {
            let tag = stage_tag(p, SlurmJobId(991));
            assert_eq!(decode_stage_tag(tag), Some((p, SlurmJobId(991))));
        }
        assert_eq!(decode_stage_tag(0), None);
        assert_eq!(
            decode_stage_tag(42),
            None,
            "tags without purpose bits are not ours"
        );
    }

    #[test]
    fn job_timings() {
        let mut job = Job::new(
            SlurmJobId(1),
            crate::script::JobScript {
                name: "j".into(),
                ..Default::default()
            },
            JobBody::Fixed(SimDuration::from_secs(10)),
            Cred::new(1, 1),
            SimTime::from_secs(0),
        );
        job.stage_in_started = Some(SimTime::from_secs(5));
        job.started = Some(SimTime::from_secs(8));
        job.compute_finished = Some(SimTime::from_secs(18));
        job.stage_out_started = Some(SimTime::from_secs(18));
        job.finished = Some(SimTime::from_secs(21));
        assert_eq!(job.queue_wait(), Some(SimDuration::from_secs(5)));
        assert_eq!(job.stage_in_time(), Some(SimDuration::from_secs(3)));
        assert_eq!(job.compute_time(), Some(SimDuration::from_secs(10)));
        assert_eq!(job.stage_out_time(), Some(SimDuration::from_secs(3)));
        assert_eq!(job.turnaround(), Some(SimDuration::from_secs(21)));
    }
}
