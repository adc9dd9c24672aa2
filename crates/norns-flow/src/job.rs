//! The one job lifecycle: the paper's §III batch job — Pending →
//! StagingIn → Running → StagingOut → an end — as one pure function
//! both worlds run, `slurm_sim`'s `ctld::apply` and
//! [`crate::WorkflowExecutor`]'s `step`. [`step`] takes a job's record
//! (its [`JobState`] and the [`Facts`] a decision reads) and one
//! [`Event`], and returns the record after it and the [`Action`]s the
//! world performs, in order. Nothing else picks a job's state.
//!
//! The rules, in one place:
//! * a job makes exactly one terminal transition: it unregisters a
//!   registered job, emits the terminal event, and cancels the
//!   dependents exactly when the job did not complete ("if a workflow
//!   job fails; then all subsequent jobs are cancelled");
//! * a StagingIn job that is killed — a leg failed or was refused, or
//!   the stage-in timed out — cancels its outstanding legs and removes
//!   the stage-in data that landed; a leg that lands after the kill is
//!   removed as it lands ("terminate the job and clean up all data
//!   already staged to nodes");
//! * a stage-out leg that fails or is refused is one leftover, its data
//!   left "for future stage_out operations to try and recover"; its
//!   siblings run to their end, and the job completes when the last
//!   one ends;
//! * a failed body fails the job and leaves its staged data in place.
//!
//! One gap is not in the table: the simulator removes a completed job's
//! non-persisted stage-in data (`ctld::cleanup_after_success`), real
//! mode keeps it.

/// Where a job is: queued, one of its three phases, or one of the
/// three ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum JobState {
    /// Waiting in the queue (possibly on workflow dependencies).
    #[default]
    Pending,
    /// Nodes allocated, stage-in transfers running.
    StagingIn,
    /// Compute phase.
    Running,
    /// Compute done, stage-out transfers running.
    StagingOut,
    Completed,
    Failed,
    /// Cancelled because an upstream workflow job failed, or by the
    /// stage-in timeout.
    Cancelled,
}

impl JobState {
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed | JobState::Cancelled
        )
    }
}

/// What a decision reads beside the state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Facts {
    /// Registered with the daemons of its nodes.
    pub registered: bool,
    /// Staging legs submitted and not yet ended (after a kill: the
    /// cancelled legs still to report).
    pub outstanding: usize,
    /// Stage-in legs that landed while the job stages in.
    pub landed: usize,
}

/// A job's lifecycle record; the default is a submitted job, pending
/// with nothing registered or staged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Job {
    pub state: JobState,
    pub facts: Facts,
}

/// Why a job did not complete: an upstream job did not, its
/// registration failed, its stage-in failed or timed out, or its body
/// failed.
pub const WHY: [&str; 5] = [UPSTREAM, REGISTRATION, STAGE_IN, TIMEOUT, BODY];
const UPSTREAM: &str = "upstream workflow job failed";
const REGISTRATION: &str = "job registration failed";
const STAGE_IN: &str = "stage-in failed";
const TIMEOUT: &str = "stage-in timeout";
const BODY: &str = "job body failed";

/// What can happen to a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// Every dependency ended: all completed, or one did not (`doomed`).
    Deps {
        doomed: bool,
    },
    Registered {
        ok: bool,
    },
    /// The current phase's legs went to the daemons: `legs` accepted,
    /// `refused` not (a refused submission, or a phase that could not
    /// be planned).
    Submitted {
        legs: usize,
        refused: usize,
    },
    /// One submitted leg ended: landed, or not (failed, cancelled, or
    /// lost with its daemon).
    LegEnded {
        ok: bool,
    },
    StageInTimeout,
    BodyEnded {
        ok: bool,
    },
}

/// What a world does, in the order given.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Register the job with the daemons of its nodes.
    Register,
    SubmitStageIn,
    StartBody,
    SubmitStageOut,
    /// Cancel every leg still outstanding.
    CancelOutstanding,
    /// Remove every landed stage-in leg's destination.
    RemoveLanded,
    /// The legs this event reports failed or refused stay as leftovers.
    RecordLeftover,
    Unregister,
    /// Emit the terminal event, with the class of why the job did not
    /// complete: one of [`WHY`], which a world follows with its detail
    /// after a `: `.
    Emit(Option<&'static str>),
    CancelDependents,
}

/// What one step came to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Next {
    pub job: Job,
    pub actions: Vec<Action>,
}

/// The table.
pub fn step(job: Job, event: Event) -> Next {
    use Action::*;
    use JobState::*;
    let Job { state, facts: f } = job;
    let ended = |ok| Facts {
        outstanding: f.outstanding - 1,
        landed: f.landed + usize::from(ok),
        ..f
    };
    match (state, event) {
        (Pending, Event::Deps { doomed: true }) => job.ends(Cancelled, Some(UPSTREAM), &[]),
        (Pending, Event::Deps { doomed: false }) => job.to(StagingIn, f, &[Register]),
        (StagingIn, Event::Registered { ok }) if !f.registered => match ok {
            true => job.to(
                StagingIn,
                Facts {
                    registered: true,
                    ..f
                },
                &[SubmitStageIn],
            ),
            false => job.ends(Failed, Some(REGISTRATION), &[]),
        },
        // Registered, nothing outstanding and nothing landed: the legs
        // are not submitted yet (all landed is Running, one failed dead).
        (StagingIn, Event::Submitted { legs, refused })
            if f.registered && f.outstanding == 0 && f.landed == 0 =>
        {
            let f = Facts {
                outstanding: legs,
                ..f
            };
            match (legs, refused) {
                (_, 1..) => Job { state, facts: f }.killed(Failed, STAGE_IN),
                (0, 0) => job.to(Running, f, &[StartBody]),
                _ => job.to(StagingIn, f, &[]),
            }
        }
        (StagingIn, Event::LegEnded { ok: false }) if f.outstanding > 0 => Job {
            state,
            facts: ended(false),
        }
        .killed(Failed, STAGE_IN),
        (StagingIn, Event::LegEnded { ok: true }) if f.outstanding == 1 => {
            let f = Facts {
                outstanding: 0,
                landed: 0,
                ..f
            };
            job.to(Running, f, &[StartBody])
        }
        (StagingIn, Event::LegEnded { ok: true }) if f.outstanding > 1 => {
            job.to(StagingIn, ended(true), &[])
        }
        (StagingIn, Event::StageInTimeout) => job.killed(Cancelled, TIMEOUT),
        (Running, Event::BodyEnded { ok: true }) => job.to(StagingOut, f, &[SubmitStageOut]),
        (Running, Event::BodyEnded { ok: false }) => job.ends(Failed, Some(BODY), &[]),
        (StagingOut, Event::Submitted { legs, refused }) if f.outstanding == 0 => {
            let left: &[Action] = if refused > 0 { &[RecordLeftover] } else { &[] };
            let f = Facts {
                outstanding: legs,
                ..f
            };
            match legs {
                0 => Job { state, facts: f }.ends(Completed, None, left),
                _ => job.to(StagingOut, f, left),
            }
        }
        (StagingOut, Event::LegEnded { ok }) if f.outstanding > 0 => {
            let left: &[Action] = if ok { &[] } else { &[RecordLeftover] };
            let after = Job {
                state,
                facts: ended(false),
            };
            match f.outstanding {
                1 => after.ends(Completed, None, left),
                _ => job.to(StagingOut, after.facts, left),
            }
        }
        // A cancelled leg of a killed job ends; one that landed anyway
        // is removed as it lands.
        (_, Event::LegEnded { ok }) if state.is_terminal() && f.outstanding > 0 => {
            let gone: &[Action] = if ok { &[RemoveLanded] } else { &[] };
            job.to(state, ended(false), gone)
        }
        _ => job.to(state, f, &[]),
    }
}

impl Job {
    /// The record in `state` with `facts`, and the actions to take.
    fn to(self, state: JobState, facts: Facts, actions: &[Action]) -> Next {
        Next {
            job: Job { state, facts },
            actions: actions.to_vec(),
        }
    }

    /// A StagingIn job that must die: its outstanding legs are
    /// cancelled and its landed ones removed, then it ends.
    fn killed(self, state: JobState, why: &'static str) -> Next {
        let cancel = (self.facts.outstanding > 0).then_some(Action::CancelOutstanding);
        let remove = (self.facts.landed > 0).then_some(Action::RemoveLanded);
        let undo: Vec<Action> = cancel.into_iter().chain(remove).collect();
        self.ends(state, Some(why), &undo)
    }

    /// The terminal transition into `state`, after `first`: a
    /// registered job unregisters, the end is emitted, and a job that
    /// did not complete cancels its dependents. The cancelled legs stay
    /// counted, to be reported.
    fn ends(self, state: JobState, why: Option<&'static str>, first: &[Action]) -> Next {
        let mut actions = first.to_vec();
        if self.facts.registered {
            actions.push(Action::Unregister);
        }
        actions.push(Action::Emit(why));
        if state != JobState::Completed {
            actions.push(Action::CancelDependents);
        }
        let facts = Facts {
            outstanding: self.facts.outstanding,
            ..Facts::default()
        };
        Next {
            job: Job { state, facts },
            actions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Every event the check drives, leg counts included.
    const EVENTS: [Event; 15] = [
        Event::Deps { doomed: false },
        Event::Deps { doomed: true },
        Event::Registered { ok: true },
        Event::Registered { ok: false },
        Event::Submitted {
            legs: 0,
            refused: 0,
        },
        Event::Submitted {
            legs: 1,
            refused: 0,
        },
        Event::Submitted {
            legs: 2,
            refused: 0,
        },
        Event::Submitted {
            legs: 0,
            refused: 1,
        },
        Event::Submitted {
            legs: 1,
            refused: 1,
        },
        Event::Submitted {
            legs: 2,
            refused: 1,
        },
        Event::LegEnded { ok: true },
        Event::LegEnded { ok: false },
        Event::StageInTimeout,
        Event::BodyEnded { ok: true },
        Event::BodyEnded { ok: false },
    ];

    /// Depth of the sequences run from each start state.
    const DEPTH: u8 = 10;

    /// What the world keeps beside the record, counted from the events
    /// and actions alone: its legs in flight and whose they are, the
    /// stage-in data landed and not removed, and its registration.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    struct Ledger {
        in_flight: usize,
        staging_in: bool,
        landed: usize,
        registered: bool,
        unregistered: bool,
    }

    type Table = fn(Job, Event) -> Next;

    /// One step of `table` from `(job, ledger)`, checked against every
    /// invariant; the record and ledger after it.
    fn checked(
        table: Table,
        job: Job,
        ledger: Ledger,
        event: Event,
    ) -> Result<(Job, Ledger), String> {
        let next = table(job, event);
        let why = |what: &str| format!("{what}: {job:?} --{event:?}-> {next:?} with {ledger:?}");
        let acts = &next.actions;
        let has = |a: Action| acts.contains(&a);
        let ended = job.state.is_terminal();
        let ends = !ended && next.job.state.is_terminal();
        let moved = next.job != job || !acts.is_empty();
        let mut l = ledger;
        if ended && (next.job.state != job.state || acts.iter().any(|a| *a != Action::RemoveLanded))
        {
            return Err(why(
                "a second terminal transition, or a change after the first",
            ));
        }
        let emits = acts.iter().filter(|a| matches!(a, Action::Emit(_))).count();
        if emits != usize::from(ends) {
            return Err(why(
                "the end emitted other than once, at the terminal transition",
            ));
        }
        let completed = next.job.state == JobState::Completed;
        if has(Action::CancelDependents) != (ends && !completed) {
            return Err(why(
                "dependents cancelled other than exactly when the job did not complete",
            ));
        }
        match event {
            Event::Registered { ok: true }
                if next.job.facts.registered && !job.facts.registered =>
            {
                l.registered = true
            }
            Event::Submitted { legs, .. } if moved => {
                l.in_flight = legs;
                l.staging_in = job.state == JobState::StagingIn;
            }
            Event::LegEnded { ok } if l.in_flight > 0 => {
                l.in_flight -= 1;
                l.landed += usize::from(ok && l.staging_in);
            }
            Event::LegEnded { .. } if moved => {
                return Err(why("a leg nobody submitted changed the job"))
            }
            _ => {}
        }
        if job.state == JobState::StagingIn && ends {
            if has(Action::CancelOutstanding) != (l.in_flight > 0) {
                return Err(why(
                    "a killed StagingIn job did not cancel exactly its outstanding legs",
                ));
            }
            if has(Action::RemoveLanded) != (l.landed > 0) {
                return Err(why(
                    "a killed StagingIn job did not remove exactly its landed legs",
                ));
            }
        } else if has(Action::CancelOutstanding) {
            return Err(why("legs cancelled other than by a StagingIn kill"));
        }
        if has(Action::RemoveLanded) {
            l.landed = 0;
        }
        if has(Action::StartBody) {
            l.landed = 0;
            l.staging_in = false;
        }
        if next.job.state == JobState::Running
            && (l.in_flight > 0 || next.job.facts.outstanding > 0)
        {
            return Err(why("Running with legs outstanding"));
        }
        if completed && l.in_flight > 0 {
            return Err(why("completed with legs still in flight"));
        }
        if next.job.state.is_terminal() && !completed && l.landed > 0 {
            return Err(why("a killed job keeps landed stage-in data"));
        }
        if has(Action::Unregister) {
            if !l.registered || l.unregistered {
                return Err(why("unregistered without a registration, or twice"));
            }
            l.unregistered = true;
        }
        if ends && l.registered && !l.unregistered {
            return Err(why("a registered job ended without unregistering"));
        }
        Ok((next.job, l))
    }

    /// Every sequence of up to `depth` events from `(job, ledger)`,
    /// memoised on the pair.
    fn explore(
        table: Table,
        job: Job,
        ledger: Ledger,
        depth: u8,
        seen: &mut HashMap<(Job, Ledger), u8>,
    ) -> Result<(), String> {
        if depth == 0 || seen.get(&(job, ledger)).is_some_and(|&d| d >= depth) {
            return Ok(());
        }
        seen.insert((job, ledger), depth);
        for event in EVENTS {
            let (job, ledger) = checked(table, job, ledger, event)?;
            explore(table, job, ledger, depth - 1, seen)?;
        }
        Ok(())
    }

    /// The check: every record reachable from a submitted job is a
    /// start state, and every sequence of up to [`DEPTH`] events from
    /// each is checked. Returns the start states.
    fn check(table: Table) -> Result<usize, String> {
        let mut starts: HashMap<(Job, Ledger), ()> = HashMap::new();
        let mut frontier = vec![(Job::default(), Ledger::default())];
        while let Some((job, ledger)) = frontier.pop() {
            if starts.insert((job, ledger), ()).is_some() {
                continue;
            }
            for event in EVENTS {
                frontier.push(checked(table, job, ledger, event)?);
            }
        }
        let mut seen = HashMap::new();
        for &(job, ledger) in starts.keys() {
            explore(table, job, ledger, DEPTH, &mut seen)?;
        }
        Ok(starts.len())
    }

    #[test]
    fn the_table_passes_the_exhaustive_check() {
        let starts = check(step).unwrap();
        assert!(starts >= 20, "only {starts} start states reached");
    }

    /// Mutation fixture: a failed stage-out leg cancels its running
    /// siblings and completes the job at once.
    fn failed_stage_out_leg_cancels_its_siblings(job: Job, event: Event) -> Next {
        let siblings = job.state == JobState::StagingOut && job.facts.outstanding > 1;
        if siblings && event == (Event::LegEnded { ok: false }) {
            let left = [Action::RecordLeftover, Action::CancelOutstanding];
            return job.ends(JobState::Completed, None, &left);
        }
        step(job, event)
    }

    /// Mutation fixture: a killed StagingIn job leaves its in-flight
    /// legs running.
    fn killed_stage_in_leaves_its_legs_running(job: Job, event: Event) -> Next {
        let mut next = step(job, event);
        next.actions.retain(|a| *a != Action::CancelOutstanding);
        next
    }

    #[test]
    fn the_check_fails_a_stage_out_failure_that_cancels_its_siblings() {
        let err = check(failed_stage_out_leg_cancels_its_siblings).unwrap_err();
        assert!(
            err.contains("legs cancelled other than by a StagingIn kill"),
            "{err}"
        );
    }

    #[test]
    fn the_check_fails_a_stage_in_kill_that_leaves_its_legs_running() {
        let err = check(killed_stage_in_leaves_its_legs_running).unwrap_err();
        assert!(
            err.contains("did not cancel exactly its outstanding legs"),
            "{err}"
        );
    }

    #[test]
    fn terminal_states() {
        assert!(JobState::Completed.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(!JobState::StagingOut.is_terminal());
    }

    fn run(events: &[Event]) -> (Job, Vec<Action>) {
        let mut job = Job::default();
        let mut all = Vec::new();
        for &event in events {
            let next = step(job, event);
            job = next.job;
            all.extend(next.actions);
        }
        (job, all)
    }

    #[test]
    fn a_happy_job_runs_every_phase_and_unregisters_once() {
        use Event::*;
        let (job, acts) = run(&[
            Deps { doomed: false },
            Registered { ok: true },
            Submitted {
                legs: 2,
                refused: 0,
            },
            LegEnded { ok: true },
            LegEnded { ok: true },
            BodyEnded { ok: true },
            Submitted {
                legs: 1,
                refused: 0,
            },
            LegEnded { ok: true },
        ]);
        assert_eq!(job.state, JobState::Completed);
        use Action::*;
        assert_eq!(
            acts,
            [
                Register,
                SubmitStageIn,
                StartBody,
                SubmitStageOut,
                Unregister,
                Emit(None)
            ]
        );
    }

    #[test]
    fn a_timeout_cancels_in_flight_legs_and_removes_late_landings() {
        use Event::*;
        let (job, acts) = run(&[
            Deps { doomed: false },
            Registered { ok: true },
            Submitted {
                legs: 2,
                refused: 0,
            },
            LegEnded { ok: true },
            StageInTimeout,
            LegEnded { ok: true },
        ]);
        assert_eq!(job.state, JobState::Cancelled);
        assert_eq!(job.facts.outstanding, 0);
        use Action::*;
        assert_eq!(
            acts[2..],
            [
                CancelOutstanding,
                RemoveLanded,
                Unregister,
                Emit(Some(TIMEOUT)),
                CancelDependents,
                RemoveLanded
            ]
        );
    }

    #[test]
    fn a_failed_stage_out_leg_is_a_leftover_and_its_sibling_runs_on() {
        use Event::*;
        let (job, acts) = run(&[
            Deps { doomed: false },
            Registered { ok: true },
            Submitted {
                legs: 0,
                refused: 0,
            },
            BodyEnded { ok: true },
            Submitted {
                legs: 2,
                refused: 1,
            },
            LegEnded { ok: false },
        ]);
        assert_eq!(job.state, JobState::StagingOut);
        let leftovers = acts
            .iter()
            .filter(|a| **a == Action::RecordLeftover)
            .count();
        assert_eq!(leftovers, 2);
        let job = step(job, LegEnded { ok: true }).job;
        assert_eq!(job.state, JobState::Completed);
    }
}
