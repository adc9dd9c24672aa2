//! The one task lifecycle: the paper's pending queue → worker →
//! completion list (Fig. 3) as one pure function both worlds run, each
//! at one apply site — `norns_ipc::Engine::step` under each task's
//! shard lock, `norns::sim::ops::step` in the simulated urd's event
//! loop — after one admission each (`Engine::admit`, `ops::admit`).
//! [`step`] takes a task's [`Task`] record (its [`TaskState`] and the
//! [`Facts`] a decision reads) and one [`Event`], and returns the
//! record after it, the caller's [`Answer`] and the status [`Counts`]
//! it moves. Nothing else picks a state, a cancel answer, whether a
//! wait parks, or a counter move.
//!
//! The rules, in one place:
//! * a task makes exactly one terminal transition; every parked wait
//!   is answered there, and nothing changes after it;
//! * a cancel answered `Ok` ends the task `Cancelled` — a pending task
//!   at once, a running chain at its end, which can then no longer
//!   commit — and a refused cancel changes nothing. A running task
//!   without an abort point (a removal, a memory write, a rename, a
//!   chain that has given its point back to commit, a landed task
//!   awaiting its durability verdict) refuses it. Both worlds [`Plan`]
//!   only a copy that moves file bytes — local to local other than a
//!   rename, a push, a pull — so a memory write, a rename and the
//!   memory-across-nodes plugins refuse it in both;
//! * `pending`/`running` count every task, `completed`/`cancelled`
//!   only a client's: a replica never moves a client counter. Both
//!   worlds' status counters are these sums, so a stage-out awaiting
//!   its replicas counts as running beside them.
//!
//! [`Plan`]: Event::Plan

/// Where a task is: queued, on a worker (or landed and awaiting its
/// durability verdict), or one of the three ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskState {
    Pending,
    InProgress,
    Finished,
    FinishedWithError,
    /// Dropped while pending, or a chain stopped between units with
    /// what it wrote removed.
    Cancelled,
}

impl TaskState {
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            TaskState::Finished | TaskState::FinishedWithError | TaskState::Cancelled
        )
    }
}

/// Who submitted the task: a client, or the daemon itself (a replica
/// push behind a durable stage-out).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Role {
    #[default]
    Client,
    Replica,
}

/// A running chain's abort point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Abort {
    /// None held: the task is not a chain, or gave its point back.
    #[default]
    None,
    /// Held from the plan to the chain's commit or end.
    Held,
    /// A cancel was accepted: the chain stops at its next unit.
    Raised,
}

/// What a decision reads beside the state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Facts {
    pub role: Role,
    /// A worker has touched the task.
    pub started: bool,
    pub abort: Abort,
    /// Landed, and awaiting the durability table's verdict
    /// (`norns_sched::durability`): a `synchronous` stage-out whose
    /// replicas are out. The table keeps their count.
    pub awaiting: bool,
}

/// A task's lifecycle record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Task {
    pub state: TaskState,
    pub facts: Facts,
}

/// How a task's run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Every byte landed; `awaiting`: the durability table has not
    /// given its verdict yet.
    Done {
        awaiting: bool,
    },
    Failed,
    Cancelled,
}

/// What can happen to a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// A worker takes the task's first dispatch.
    Dispatch,
    /// The task is to run as a chain: it holds an abort point from here.
    Plan,
    /// A chain's every range landed and it asks to commit: it gives its
    /// abort point back, unless a cancel has raised it.
    Commit,
    /// The task's run ended: a chain's end, or a task that ran whole.
    End(Outcome),
    /// The durability table's verdict on a task awaiting it: ACKed
    /// (`ok`) or failed.
    Durable {
        ok: bool,
    },
    Cancel,
    /// The pool stopped with the task still queued.
    Shutdown,
    Wait,
}

/// The caller's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Answer {
    /// Nothing is owed.
    None,
    /// Granted: a dispatch runs, a cancel is accepted, a commit goes on.
    Ok,
    /// Refused, and why; nothing changed.
    Refused(&'static str),
    /// A wait answered on the spot: the task has ended.
    Now,
    /// A wait parked until the terminal transition.
    Park,
}

/// Status counter moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Counts {
    pub pending: i8,
    pub running: i8,
    pub completed: i8,
    pub cancelled: i8,
}

/// What one step came to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Next {
    pub task: Task,
    pub answer: Answer,
    pub counts: Counts,
    /// This is the terminal transition: answer every parked wait.
    pub settles: bool,
    /// What a replica's terminal transition tells the stage-out it
    /// replicates: whether it landed.
    pub to_parent: Option<bool>,
}

/// An admitted task: pending, counted as such.
pub fn admit(role: Role) -> Next {
    let task = Task {
        state: TaskState::Pending,
        facts: Facts {
            role,
            ..Facts::default()
        },
    };
    Next {
        counts: Counts {
            pending: 1,
            ..Counts::default()
        },
        ..task.stays(Answer::Ok)
    }
}

/// The table.
pub fn step(task: Task, event: Event) -> Next {
    use TaskState::{Cancelled, Finished, FinishedWithError, InProgress, Pending};
    let Task { state, facts } = task;
    match (state, event) {
        (_, Event::Wait) if state.is_terminal() => task.stays(Answer::Now),
        (_, Event::Wait) => task.stays(Answer::Park),
        (Pending, Event::Dispatch) => Next {
            counts: Counts {
                pending: -1,
                running: 1,
                ..Counts::default()
            },
            ..task.runs(|f| f.started = true).stays(Answer::Ok)
        },
        (Pending, Event::Cancel) => task.ends(Cancelled, Answer::Ok),
        (Pending, Event::Shutdown) => task.ends(Cancelled, Answer::None),
        (InProgress, Event::Plan) if facts.abort == Abort::None && !facts.awaiting => {
            task.runs(|f| f.abort = Abort::Held).stays(Answer::None)
        }
        (InProgress, Event::Commit) if facts.abort == Abort::Raised => {
            task.stays(Answer::Refused("cancelled"))
        }
        (InProgress, Event::Commit) => task.runs(|f| f.abort = Abort::None).stays(Answer::Ok),
        // A task awaiting its durability verdict ends by it alone.
        (InProgress, Event::End(_)) if facts.awaiting => task.stays(Answer::None),
        (InProgress, Event::End(_)) if facts.abort == Abort::Raised => {
            task.ends(Cancelled, Answer::None)
        }
        (InProgress, Event::End(Outcome::Done { awaiting: true })) => {
            let role = facts.role;
            let facts = Facts {
                role,
                started: true,
                awaiting: true,
                ..Facts::default()
            };
            Task { state, facts }.stays(Answer::None)
        }
        (InProgress, Event::End(Outcome::Done { .. })) => task.ends(Finished, Answer::None),
        (InProgress, Event::End(Outcome::Failed)) => task.ends(FinishedWithError, Answer::None),
        (InProgress, Event::End(Outcome::Cancelled)) => task.ends(Cancelled, Answer::None),
        (InProgress, Event::Durable { ok: true }) if facts.awaiting => {
            task.ends(Finished, Answer::None)
        }
        (InProgress, Event::Durable { ok: false }) if facts.awaiting => {
            task.ends(FinishedWithError, Answer::None)
        }
        (InProgress, Event::Cancel) => match facts.abort {
            Abort::Held => task.runs(|f| f.abort = Abort::Raised).stays(Answer::Ok),
            Abort::Raised => task.stays(Answer::Ok),
            Abort::None => task.stays(Answer::Refused("already running")),
        },
        (_, Event::Cancel | Event::Dispatch) if state.is_terminal() => {
            task.stays(Answer::Refused("already finished"))
        }
        (_, Event::Dispatch) => task.stays(Answer::Refused("already running")),
        _ => task.stays(Answer::None),
    }
}

impl Task {
    /// The record on a worker, its facts changed by `change`.
    fn runs(mut self, change: impl FnOnce(&mut Facts)) -> Task {
        self.state = TaskState::InProgress;
        change(&mut self.facts);
        self
    }

    /// No transition: the record as it is, no counter moved.
    fn stays(self, answer: Answer) -> Next {
        Next {
            task: self,
            answer,
            counts: Counts::default(),
            settles: false,
            to_parent: None,
        }
    }

    /// The terminal transition into `state`: the task leaves the
    /// pending or running count, a client's enters `completed` or
    /// `cancelled`, and a replica tells its parent whether it landed.
    /// Only the role and whether it started stay among its facts.
    fn ends(self, state: TaskState, answer: Answer) -> Next {
        let Facts { role, started, .. } = self.facts;
        let client = i8::from(role == Role::Client);
        let cancelled = state == TaskState::Cancelled;
        let facts = Facts {
            role,
            started,
            ..Facts::default()
        };
        let landed = state == TaskState::Finished;
        Next {
            task: Task { state, facts },
            answer,
            counts: Counts {
                pending: -i8::from(!started),
                running: -i8::from(started),
                completed: client * i8::from(!cancelled),
                cancelled: client * i8::from(cancelled),
            },
            settles: true,
            to_parent: (role == Role::Replica).then_some(landed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Every event the check drives, outcomes and replica counts
    /// included.
    const EVENTS: [Event; 12] = [
        Event::Dispatch,
        Event::Plan,
        Event::Commit,
        Event::End(Outcome::Done { awaiting: false }),
        Event::End(Outcome::Done { awaiting: true }),
        Event::End(Outcome::Failed),
        Event::End(Outcome::Cancelled),
        Event::Durable { ok: true },
        Event::Durable { ok: false },
        Event::Cancel,
        Event::Shutdown,
        Event::Wait,
    ];

    /// Depth of the sequences run from each start state.
    const DEPTH: u8 = 8;

    /// What the check keeps beside the task: the counters summed over
    /// every step, the waits parked, and whether a cancel was accepted.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    struct Model {
        counts: Counts,
        parked: u8,
        cancel_ok: bool,
    }

    type Table = fn(Task, Event) -> Next;

    /// One step of `table` from `(task, model)`, checked against every
    /// invariant; the record and model after it.
    fn checked(
        table: Table,
        task: Task,
        model: Model,
        event: Event,
    ) -> Result<(Task, Model), String> {
        let next = table(task, event);
        let why = |what: &str| format!("{what}: {task:?} --{event:?}-> {next:?}");
        let ended = task.state.is_terminal();
        let unchanged = next.task == task && next.counts == Counts::default() && !next.settles;
        if ended && !unchanged {
            return Err(why(
                "a second terminal transition, or a change after the first",
            ));
        }
        if next.settles != (!ended && next.task.state.is_terminal()) {
            return Err(why("waits answered other than at the terminal transition"));
        }
        if next.task.facts.role != task.facts.role {
            return Err(why("a role changed"));
        }
        let mut model = Model {
            counts: Counts {
                pending: model.counts.pending + next.counts.pending,
                running: model.counts.running + next.counts.running,
                completed: model.counts.completed + next.counts.completed,
                cancelled: model.counts.cancelled + next.counts.cancelled,
            },
            ..model
        };
        match (event, next.answer) {
            (Event::Wait, Answer::Park) if !ended && unchanged => model.parked += 1,
            (Event::Wait, Answer::Now) if ended && unchanged => {}
            (Event::Wait, _) => {
                return Err(why(
                    "a wait neither parked until the end nor answered at it",
                ))
            }
            (Event::Cancel | Event::Commit | Event::Dispatch, Answer::Refused(_)) if !unchanged => {
                return Err(why("a refusal changed the task"))
            }
            (Event::Cancel, Answer::Ok) if ended => {
                return Err(why("a cancel accepted after the end"))
            }
            (Event::Cancel, Answer::Ok) => model.cancel_ok = true,
            (Event::Cancel, Answer::Refused(_)) => {}
            (Event::Cancel, _) => return Err(why("a cancel neither accepted nor refused")),
            _ => {}
        }
        if next.settles {
            model.parked = 0;
            if model.cancel_ok && next.task.state != TaskState::Cancelled {
                return Err(why("a cancel answered Ok did not end Cancelled"));
            }
        }
        let replica = task.facts.role == Role::Replica;
        if replica && (next.counts.completed != 0 || next.counts.cancelled != 0) {
            return Err(why("a replica moved a client counter"));
        }
        let landed = next.task.state == TaskState::Finished;
        let told = (replica && next.settles).then_some(landed);
        if next.to_parent != told {
            return Err(why("a parent told other than once, at its replica's end"));
        }
        let state = next.task.state;
        let client = i8::from(!replica);
        let balanced = Counts {
            pending: i8::from(state == TaskState::Pending),
            running: i8::from(state == TaskState::InProgress),
            completed: client
                * i8::from(matches!(
                    state,
                    TaskState::Finished | TaskState::FinishedWithError
                )),
            cancelled: client * i8::from(state == TaskState::Cancelled),
        };
        if model.counts != balanced {
            return Err(why(&format!("counters {:?} do not balance", model.counts)));
        }
        Ok((next.task, model))
    }

    /// Every sequence of up to `depth` events from `(task, model)`,
    /// memoised on the pair: one already explored at least this deep
    /// is not explored again.
    fn explore(
        table: Table,
        task: Task,
        model: Model,
        depth: u8,
        seen: &mut HashMap<(Task, Model), u8>,
    ) -> Result<(), String> {
        if depth == 0 || seen.get(&(task, model)).is_some_and(|&d| d >= depth) {
            return Ok(());
        }
        seen.insert((task, model), depth);
        for event in EVENTS {
            let (task, model) = checked(table, task, model, event)?;
            explore(table, task, model, depth - 1, seen)?;
        }
        Ok(())
    }

    /// The check: every record reachable from an admission, client or
    /// replica, is a start state, and every sequence of up to [`DEPTH`]
    /// events from each is checked. Returns the start states.
    fn check(table: Table) -> Result<usize, String> {
        let mut starts: HashMap<Task, Model> = HashMap::new();
        let mut frontier: Vec<(Task, Model)> = [Role::Client, Role::Replica]
            .map(|role| {
                let admitted = admit(role);
                let model = Model {
                    counts: admitted.counts,
                    ..Model::default()
                };
                (admitted.task, model)
            })
            .to_vec();
        while let Some((task, model)) = frontier.pop() {
            if starts.contains_key(&task) {
                continue;
            }
            starts.insert(task, model);
            for event in EVENTS {
                frontier.push(checked(table, task, model, event)?);
            }
        }
        let mut seen = HashMap::new();
        for (&task, &model) in &starts {
            let model = Model { parked: 0, ..model };
            explore(table, task, model, DEPTH, &mut seen)?;
        }
        Ok(starts.len())
    }

    #[test]
    fn the_table_passes_the_exhaustive_check() {
        let starts = check(step).unwrap();
        assert!(starts >= 10, "only {starts} start states reached");
    }

    /// Mutation fixture: a replica the shutdown drain cancels is counted
    /// as a client's cancel.
    fn replica_drained_by_shutdown_counts_as_a_client_cancel(task: Task, event: Event) -> Next {
        let mut next = step(task, event);
        if event == Event::Shutdown && next.settles {
            next.counts.cancelled = 1;
        }
        next
    }

    /// Mutation fixture: a task awaiting its durability verdict accepts
    /// a cancel, and then ends as the verdict says.
    fn awaiting_parent_accepts_a_cancel(task: Task, event: Event) -> Next {
        match event {
            Event::Cancel if task.facts.awaiting => task.stays(Answer::Ok),
            _ => step(task, event),
        }
    }

    #[test]
    fn the_check_fails_a_replica_counted_as_a_client_cancel() {
        let err = check(replica_drained_by_shutdown_counts_as_a_client_cancel).unwrap_err();
        assert!(err.contains("client counter"), "{err}");
    }

    #[test]
    fn the_check_fails_an_awaiting_parent_that_accepts_a_cancel() {
        let err = check(awaiting_parent_accepts_a_cancel).unwrap_err();
        assert!(err.contains("did not end Cancelled"), "{err}");
    }

    #[test]
    fn terminal_states() {
        assert!(!TaskState::Pending.is_terminal());
        assert!(!TaskState::InProgress.is_terminal());
        assert!(TaskState::Finished.is_terminal());
        assert!(TaskState::FinishedWithError.is_terminal());
        assert!(TaskState::Cancelled.is_terminal());
    }

    fn run(role: Role, events: &[Event]) -> (Task, Vec<Answer>) {
        let mut task = admit(role).task;
        let answers = events
            .iter()
            .map(|&event| {
                let next = step(task, event);
                task = next.task;
                next.answer
            })
            .collect();
        (task, answers)
    }

    /// A cancel while the chain is planning is accepted, and the chain
    /// ends `Cancelled` whatever its run came to — it cannot commit.
    #[test]
    fn a_cancel_during_the_plan_ends_the_chain_cancelled() {
        use Event::*;
        let (task, answers) = run(
            Role::Client,
            &[Dispatch, Plan, Cancel, Commit, End(Outcome::Failed)],
        );
        assert_eq!(task.state, TaskState::Cancelled);
        assert_eq!(answers[2], Answer::Ok);
        assert_eq!(answers[3], Answer::Refused("cancelled"));
    }

    /// A replica cancelled from the control socket tells its stage-out
    /// it did not land — the durability table then fails a
    /// `synchronous` one — and a task awaiting its verdict refuses a
    /// cancel.
    #[test]
    fn a_cancelled_replica_fails_its_synchronous_parent() {
        use Event::*;
        let (replica, answers) = run(Role::Replica, &[Dispatch, Plan, Cancel]);
        assert_eq!(answers[2], Answer::Ok);
        let ended = step(replica, End(Outcome::Cancelled));
        assert_eq!(ended.task.state, TaskState::Cancelled);
        assert_eq!(ended.counts.cancelled, 0, "no client cancelled anything");
        assert_eq!(ended.to_parent, Some(false));
        let (parent, _) = run(
            Role::Client,
            &[
                Dispatch,
                Plan,
                Commit,
                End(Outcome::Done { awaiting: true }),
            ],
        );
        assert_eq!(parent.state, TaskState::InProgress);
        assert_eq!(
            step(parent, Cancel).answer,
            Answer::Refused("already running")
        );
        let failed = step(parent, Durable { ok: false });
        assert_eq!(failed.task.state, TaskState::FinishedWithError);
    }
}
