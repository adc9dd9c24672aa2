//! The one durability rule: when a stage-out ACKs, how many replicas
//! it spawns, and when a `Move` frees its source, as one pure function
//! both worlds run — `norns_ipc::Engine` where a task's run ends, the
//! simulated urd at its end-of-task site. [`step`] takes a landing's
//! [`Record`] and one [`Event`] and returns the record after it and
//! the [`Action`]s its world carries out, in order.
//!
//! The modes are the v8 wire's `Durability`, the Lis burst buffer's
//! `write_ack` modes: `local_only` ACKs once the local copy landed,
//! `local_plus_one` ACKs then too and pushes one replica behind the
//! ACK (best-effort: "data loss if node fails before replication"),
//! and `synchronous` ACKs only once `copies` replicas have landed —
//! with no peer to replicate to it fails rather than false-ACK.
//!
//! A `Move` frees its source once the landing counts: at `Landed` —
//! a rename freed it by landing — except a `synchronous` Move whose
//! landing is a copy, which keeps its source until its last replica
//! has landed, and keeps it for good if one fails. A `Copy` never
//! frees anything.

/// The v8 durability modes (the wire's `Durability`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// The local leg is the whole task, no replication: origin loss
    /// loses the data. The pre-v8 behaviour, and the default.
    #[default]
    LocalOnly,
    /// ACK once the local leg lands, then push one copy to a peer in
    /// the background.
    LocalPlusOne,
    /// ACK only once the local leg and every replica have landed.
    Synchronous,
}

/// Whether the landing has a source to free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Op {
    #[default]
    Copy,
    Move,
}

/// How the landing got its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Route {
    /// Same filesystem: the source became the landing.
    Rename,
    /// A same-node copy (across filesystems for a `Move`).
    #[default]
    LocalCopy,
    Push,
    Pull,
}

/// Where a landing is in its durability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Phase {
    /// Its bytes have not landed yet.
    #[default]
    Landing,
    /// Landed, not ACKed: `left` replicas still out, and whether one of
    /// those that ended failed.
    Awaiting { left: u8, failed: bool },
    /// ACKed or failed: nothing happens any more.
    Done,
}

/// A landing's durability record; the default is a `local_only` copy
/// before it lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Record {
    pub mode: Mode,
    pub op: Op,
    pub route: Route,
    /// Replicas a `synchronous` landing waits for.
    pub copies: u8,
    /// Replication peers available when it landed.
    pub peers: u8,
    pub phase: Phase,
}

/// What can happen to a landing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// Every byte is at the destination.
    Landed,
    /// One of the replicas it spawned ended.
    ReplicaEnded { ok: bool },
}

/// Why a landing failed its durability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Why {
    /// `synchronous` with no peer to replicate to.
    NoPeer,
    /// A replica it waited for did not land.
    ReplicaFailed,
}

impl Why {
    /// How both worlds word the failure: the classes compare across
    /// them.
    pub fn message(self) -> &'static str {
        match self {
            Why::NoPeer => {
                "synchronous durability requires at least one registered replication peer"
            }
            Why::ReplicaFailed => "replication failed",
        }
    }
}

/// What the world does, in the order given.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Remove a `Move`'s source (for a rename, there is nothing left).
    FreeSource,
    /// Push the landed output to this many peers.
    Spawn(u8),
    /// The task ends `Finished`.
    Ack,
    /// The task ends `FinishedWithError`, for this reason.
    Fail(Why),
}

/// Up to three actions, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Actions {
    list: [Option<Action>; 3],
}

impl Actions {
    fn push(mut self, action: Action) -> Actions {
        let free = self.list.iter().position(Option::is_none);
        self.list[free.expect("a step takes at most three actions")] = Some(action);
        self
    }

    fn push_if(self, cond: bool, action: Action) -> Actions {
        if cond {
            self.push(action)
        } else {
            self
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = Action> + '_ {
        self.list.iter().flatten().copied()
    }
}

/// What one step came to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Next {
    pub record: Record,
    pub actions: Actions,
}

impl Record {
    /// A landing's record before it lands.
    pub fn new(mode: Mode, op: Op, route: Route, copies: u8, peers: u8) -> Record {
        Record {
            mode,
            op,
            route,
            copies,
            peers,
            phase: Phase::Landing,
        }
    }

    fn is(self, phase: Phase, actions: Actions) -> Next {
        Next {
            record: Record { phase, ..self },
            actions,
        }
    }
}

/// The table.
pub fn step(record: Record, event: Event) -> Next {
    let Record {
        mode, op, route, ..
    } = record;
    let moves = op == Op::Move;
    // A rename's source went with the landing; a copying
    // `synchronous` Move keeps its source until its replicas count.
    let frees_now = moves && (route == Route::Rename || mode != Mode::Synchronous);
    let none = Actions::default();
    match (record.phase, event) {
        (Phase::Landing, Event::Landed) => {
            let landed = none.push_if(frees_now, Action::FreeSource);
            match mode {
                Mode::LocalOnly => record.is(Phase::Done, landed.push(Action::Ack)),
                Mode::LocalPlusOne => {
                    let one = record.peers.min(1);
                    let actions = landed.push_if(one > 0, Action::Spawn(one));
                    record.is(Phase::Done, actions.push(Action::Ack))
                }
                Mode::Synchronous => match record.copies.min(record.peers) {
                    0 => record.is(Phase::Done, landed.push(Action::Fail(Why::NoPeer))),
                    n => {
                        let awaiting = Phase::Awaiting {
                            left: n,
                            failed: false,
                        };
                        record.is(awaiting, landed.push(Action::Spawn(n)))
                    }
                },
            }
        }
        (Phase::Awaiting { left, failed }, Event::ReplicaEnded { ok }) => {
            let (left, failed) = (left - 1, failed || !ok);
            match (left, failed) {
                (1.., _) => record.is(Phase::Awaiting { left, failed }, none),
                (0, true) => record.is(Phase::Done, none.push(Action::Fail(Why::ReplicaFailed))),
                (0, false) => {
                    let freed = none.push_if(moves && !frees_now, Action::FreeSource);
                    record.is(Phase::Done, freed.push(Action::Ack))
                }
            }
        }
        _ => record.is(record.phase, none),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Actions {
        fn contains(&self, action: Action) -> bool {
            self.iter().any(|a| a == action)
        }

        /// The replicas to spawn (0: none).
        fn spawns(&self) -> u8 {
            self.iter()
                .find_map(|a| match a {
                    Action::Spawn(n) => Some(n),
                    _ => None,
                })
                .unwrap_or(0)
        }
    }

    const MODES: [Mode; 3] = [Mode::LocalOnly, Mode::LocalPlusOne, Mode::Synchronous];
    const OPS: [Op; 2] = [Op::Copy, Op::Move];
    const ROUTES: [Route; 4] = [Route::Rename, Route::LocalCopy, Route::Push, Route::Pull];
    const EVENTS: [Event; 3] = [
        Event::Landed,
        Event::ReplicaEnded { ok: true },
        Event::ReplicaEnded { ok: false },
    ];

    /// Sequences up to this long are run from every start record: a
    /// landing, two replica outcomes and stray events around them.
    const DEPTH: usize = 5;

    /// What the check keeps beside the record.
    #[derive(Debug, Clone, Copy, Default)]
    struct Model {
        landed: bool,
        spawned: u8,
        /// Replicas ended, and how many of those landed.
        ended: u8,
        ok: u8,
        acks: u8,
        fails: u8,
        frees: u8,
    }

    type Table = fn(Record, Event) -> Next;

    /// One step of `table`, checked against every invariant.
    fn checked(
        table: Table,
        record: Record,
        model: Model,
        event: Event,
    ) -> Result<(Record, Model), String> {
        // The world feeds a replica's end only while one is out.
        if matches!(event, Event::ReplicaEnded { .. }) && model.ended < model.spawned {
            return stepped(table, record, model, event);
        }
        let next = table(record, event);
        let stray = match event {
            Event::Landed => model.landed,
            Event::ReplicaEnded { .. } => true,
        };
        if stray && (next.record != record || next.actions != Actions::default()) {
            // Before `Landed`, a stray replica end is the only way an
            // action could precede the landing.
            let why = if model.landed {
                "a stray event changed the record"
            } else {
                "an action before Landed"
            };
            return Err(format!("{why}: {record:?} --{event:?}-> {next:?}"));
        }
        if stray {
            return Ok((record, model));
        }
        stepped(table, record, model, event)
    }

    fn stepped(
        table: Table,
        record: Record,
        mut model: Model,
        event: Event,
    ) -> Result<(Record, Model), String> {
        let next = table(record, event);
        let why = |what: &str| Err(format!("{what}: {record:?} --{event:?}-> {next:?}"));
        match event {
            Event::Landed => model.landed = true,
            Event::ReplicaEnded { ok } => {
                model.ended += 1;
                model.ok += u8::from(ok);
            }
        }
        let mut seen_end = false;
        for action in next.actions.iter() {
            if seen_end {
                return why("an action after the Ack or Fail");
            }
            match action {
                Action::FreeSource => {
                    if record.op == Op::Copy {
                        return why("a Copy freed a source");
                    }
                    if model.fails > 0 {
                        return why("a source freed after a Fail");
                    }
                    let copying = record.route != Route::Rename;
                    let unreplicated = model.spawned == 0 || model.ok < model.spawned;
                    if record.mode == Mode::Synchronous && copying && unreplicated {
                        return why("a copying synchronous Move freed its source before its last replica landed");
                    }
                    model.frees += 1;
                }
                Action::Spawn(n) => {
                    if model.spawned > 0 || event != Event::Landed || n == 0 {
                        return why("replicas spawned other than once, at Landed");
                    }
                    let want = match record.mode {
                        Mode::LocalOnly => return why("local_only spawned a replica"),
                        Mode::LocalPlusOne => 1,
                        Mode::Synchronous => record.copies,
                    };
                    if n != want.min(record.peers) {
                        return why("spawned other than the copies wanted, capped by the peers");
                    }
                    model.spawned = n;
                }
                Action::Ack => {
                    if record.mode == Mode::Synchronous && model.ok < model.spawned.max(1) {
                        return why("synchronous ACKed before every replica landed");
                    }
                    model.acks += 1;
                    seen_end = true;
                }
                Action::Fail(reason) => {
                    if record.mode != Mode::Synchronous {
                        return why("a best-effort mode failed its durability");
                    }
                    let expected = if model.spawned == 0 {
                        Why::NoPeer
                    } else {
                        Why::ReplicaFailed
                    };
                    if reason != expected
                        || (reason == Why::ReplicaFailed && model.ended < model.spawned)
                    {
                        return why(
                            "a Fail for the wrong reason, or before the last replica ended",
                        );
                    }
                    model.fails += 1;
                    seen_end = true;
                }
            }
        }
        if model.acks + model.fails > 1 {
            return why("more than one Ack or Fail");
        }
        if model.frees > 1 {
            return why("a source freed twice");
        }
        if event == Event::Landed {
            let one_peer = record.peers > 0;
            match record.mode {
                Mode::LocalPlusOne
                    if !(next.actions.contains(Action::Ack)
                        && next.actions.spawns() == u8::from(one_peer)) =>
                {
                    return why("local_plus_one did not ACK at Landed with one replica per peer");
                }
                Mode::Synchronous
                    if !one_peer && !next.actions.contains(Action::Fail(Why::NoPeer)) =>
                {
                    return why("synchronous with no peer did not fail");
                }
                _ => {}
            }
        }
        // Settled: every spawned replica ended after the landing.
        if model.landed && model.ended == model.spawned {
            if model.acks + model.fails != 1 {
                return why("settled without exactly one Ack or Fail");
            }
            let freed = model.frees == 1;
            let should =
                record.op == Op::Move && (record.route == Route::Rename || model.acks == 1);
            if freed != should {
                return why(
                    "a Move settled with its source freed other than iff it ACKed or renamed",
                );
            }
        }
        Ok((next.record, model))
    }

    fn explore(table: Table, record: Record, model: Model, depth: usize) -> Result<(), String> {
        if depth == 0 {
            return Ok(());
        }
        for event in EVENTS {
            let (record, model) = checked(table, record, model, event)?;
            explore(table, record, model, depth - 1)?;
        }
        Ok(())
    }

    /// Every mode × op × route × peers ∈ {0, 1, 2} × copies ∈ {1, 2},
    /// and every sequence of up to [`DEPTH`] events from each; returns
    /// the start records checked.
    fn check(table: Table) -> Result<usize, String> {
        let mut starts = 0;
        for mode in MODES {
            for op in OPS {
                for route in ROUTES {
                    for peers in 0..=2 {
                        for copies in 1..=2 {
                            let record = Record::new(mode, op, route, copies, peers);
                            explore(table, record, Model::default(), DEPTH)?;
                            starts += 1;
                        }
                    }
                }
            }
        }
        Ok(starts)
    }

    #[test]
    fn the_table_passes_the_exhaustive_check() {
        assert_eq!(check(step).unwrap(), 3 * 2 * 4 * 3 * 2);
    }

    /// Mutation fixture: a `synchronous` Move frees its source as soon
    /// as it lands, before any replica has.
    fn synchronous_frees_at_landing(record: Record, event: Event) -> Next {
        let next = step(record, event);
        let sync_move = record.mode == Mode::Synchronous && record.op == Op::Move;
        let landing = record.phase == Phase::Landing && event == Event::Landed;
        if sync_move && landing && !next.actions.contains(Action::FreeSource) {
            let freed = Actions::default().push(Action::FreeSource);
            let actions = next.actions.iter().fold(freed, Actions::push);
            return Next { actions, ..next };
        }
        next
    }

    /// Mutation fixture: `local_plus_one` ACKs on a replica's end that
    /// comes before its own landing.
    fn local_plus_one_acks_before_landing(record: Record, event: Event) -> Next {
        match (record.mode, record.phase, event) {
            (Mode::LocalPlusOne, Phase::Landing, Event::ReplicaEnded { .. }) => Next {
                record: Record {
                    phase: Phase::Done,
                    ..record
                },
                actions: Actions::default().push(Action::Ack),
            },
            _ => step(record, event),
        }
    }

    #[test]
    fn the_check_fails_a_synchronous_source_freed_before_its_replicas() {
        let err = check(synchronous_frees_at_landing).unwrap_err();
        assert!(err.contains("before its last replica landed"), "{err}");
    }

    #[test]
    fn the_check_fails_a_local_plus_one_ack_before_landing() {
        let err = check(local_plus_one_acks_before_landing).unwrap_err();
        assert!(err.contains("before Landed"), "{err}");
    }

    fn run(record: Record, events: &[Event]) -> Vec<Action> {
        let mut record = record;
        let mut actions = Vec::new();
        for &event in events {
            let next = step(record, event);
            record = next.record;
            actions.extend(next.actions.iter());
        }
        actions
    }

    /// The one row that changed: a copying `synchronous` Move frees its
    /// source with its ACK, after the last replica; a failed replica
    /// keeps it. A rename freed it by landing, as every other Move.
    #[test]
    fn a_copying_synchronous_move_frees_its_source_last() {
        use Action::*;
        let ok = Event::ReplicaEnded { ok: true };
        let failed = Event::ReplicaEnded { ok: false };
        let copying = Record::new(Mode::Synchronous, Op::Move, Route::LocalCopy, 2, 2);
        assert_eq!(run(copying, &[Event::Landed, ok]), [Spawn(2)]);
        assert_eq!(
            run(copying, &[Event::Landed, ok, ok]),
            [Spawn(2), FreeSource, Ack]
        );
        assert_eq!(
            run(copying, &[Event::Landed, ok, failed]),
            [Spawn(2), Fail(Why::ReplicaFailed)]
        );
        let renamed = Record::new(Mode::Synchronous, Op::Move, Route::Rename, 1, 1);
        assert_eq!(
            run(renamed, &[Event::Landed, failed]),
            [FreeSource, Spawn(1), Fail(Why::ReplicaFailed)]
        );
        let best_effort = Record::new(Mode::LocalPlusOne, Op::Move, Route::LocalCopy, 2, 2);
        assert_eq!(
            run(best_effort, &[Event::Landed]),
            [FreeSource, Spawn(1), Ack]
        );
        let lone = Record::new(Mode::Synchronous, Op::Copy, Route::LocalCopy, 1, 0);
        assert_eq!(run(lone, &[Event::Landed]), [Fail(Why::NoPeer)]);
    }
}
