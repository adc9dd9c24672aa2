//! The one job & dataspace table (the paper's "job & dataspace
//! controller", §IV-B) both worlds hold, `norns::Controller` and
//! `norns_ipc::Engine`: dataspaces (nsid → `D`), jobs (id → the world's
//! `J`, the job's limits and its processes, pid → `P`) and the `pid →
//! jobs` index, with one [`Refusal`] text per wrong verb. Two rows were
//! decided here: `register_job` refuses a duplicate id before it looks
//! at the limits, and `update_job` checks its limits as `register_job`
//! does. Gaps that stay (ROADMAP item 12): the daemon enforces no grant,
//! limit or quota, takes no credentials and does not report `tracked`.

use std::collections::{BTreeMap, HashMap};

/// Why a registration verb is refused.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Refusal {
    DataspaceExists(String),
    NoDataspace(String),
    JobExists(u64),
    NoJob(u64),
    NoProcess { job: u64, pid: u64 },
}

impl Refusal {
    /// The refusal's one text: no other code spells it.
    pub fn message(&self) -> String {
        let (what, subject) = match self {
            Refusal::DataspaceExists(nsid) => ("dataspace already registered", nsid.clone()),
            Refusal::NoDataspace(nsid) => ("no such dataspace", nsid.clone()),
            Refusal::JobExists(id) => ("job already registered", id.to_string()),
            Refusal::NoJob(id) => ("no such job", id.to_string()),
            Refusal::NoProcess { job, pid } => ("no such process", format!("{pid} in job {job}")),
        };
        format!("{what}: {subject}")
    }
}

/// The dataspaces a job may use, each with a byte quota (0: none).
pub type Limits = Vec<(String, u64)>;

/// A registered job.
#[derive(Debug, Clone, PartialEq)]
pub struct Job<J, P> {
    /// What the world keeps of the job (the daemon: its hosts; the
    /// simulator: its credentials).
    pub info: J,
    pub limits: Limits,
    pub processes: HashMap<u64, P>,
}

/// The table: `D` per dataspace, `J` per job, `P` per process.
#[derive(Debug, Clone, PartialEq)]
pub struct Registry<D, J, P> {
    /// By nsid, so they list in order.
    dataspaces: BTreeMap<String, D>,
    jobs: HashMap<u64, Job<J, P>>,
    /// pid → its jobs: [`Registry::process_known`] is one lookup.
    pid_index: HashMap<u64, Vec<u64>>,
}

impl<D, J, P> Default for Registry<D, J, P> {
    fn default() -> Self {
        let (dataspaces, jobs, pid_index) = Default::default();
        Registry {
            dataspaces,
            jobs,
            pid_index,
        }
    }
}

impl<D, J, P> Registry<D, J, P> {
    pub fn register_dataspace(&mut self, nsid: String, dataspace: D) -> Result<(), Refusal> {
        if self.dataspaces.contains_key(&nsid) {
            return Err(Refusal::DataspaceExists(nsid));
        }
        self.dataspaces.insert(nsid, dataspace);
        Ok(())
    }

    pub fn update_dataspace(&mut self, nsid: String, dataspace: D) -> Result<(), Refusal> {
        self.dataspace(&nsid)?;
        self.dataspaces.insert(nsid, dataspace);
        Ok(())
    }

    pub fn unregister_dataspace(&mut self, nsid: &str) -> Result<(), Refusal> {
        self.dataspace(nsid)?;
        self.dataspaces.remove(nsid);
        Ok(())
    }

    pub fn dataspace(&self, nsid: &str) -> Result<&D, Refusal> {
        let found = self.dataspaces.get(nsid);
        found.ok_or_else(|| Refusal::NoDataspace(nsid.into()))
    }

    pub fn dataspaces(&self) -> impl Iterator<Item = &D> {
        self.dataspaces.values()
    }

    pub fn dataspace_count(&self) -> usize {
        self.dataspaces.len()
    }

    /// Register job `id`; a duplicate id is refused before its limits
    /// are looked at.
    pub fn register_job(&mut self, id: u64, limits: Limits, info: J) -> Result<(), Refusal> {
        if self.jobs.contains_key(&id) {
            return Err(Refusal::JobExists(id));
        }
        self.check_limits(&limits)?;
        let processes = HashMap::new();
        let job = Job {
            info,
            limits,
            processes,
        };
        self.jobs.insert(id, job);
        Ok(())
    }

    /// Replace job `id`'s limits and info; its processes stay.
    pub fn update_job(&mut self, id: u64, limits: Limits, info: J) -> Result<(), Refusal> {
        self.job(id)?;
        self.check_limits(&limits)?;
        let job = self.jobs.get_mut(&id).expect("checked above");
        (job.limits, job.info) = (limits, info);
        Ok(())
    }

    /// Unregister job `id` with every process added to it.
    pub fn unregister_job(&mut self, id: u64) -> Result<(), Refusal> {
        let job = self.jobs.remove(&id).ok_or(Refusal::NoJob(id))?;
        job.processes.keys().for_each(|pid| self.unindex(*pid, id));
        Ok(())
    }

    fn check_limits(&self, limits: &Limits) -> Result<(), Refusal> {
        limits
            .iter()
            .try_for_each(|(nsid, _)| self.dataspace(nsid).map(drop))
    }

    pub fn job(&self, id: u64) -> Result<&Job<J, P>, Refusal> {
        self.jobs.get(&id).ok_or(Refusal::NoJob(id))
    }

    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Add `pid` to job `job`; adding it again replaces what is kept.
    pub fn add_process(&mut self, job: u64, pid: u64, process: P) -> Result<(), Refusal> {
        let entry = self.jobs.get_mut(&job).ok_or(Refusal::NoJob(job))?;
        if entry.processes.insert(pid, process).is_none() {
            self.pid_index.entry(pid).or_default().push(job);
        }
        Ok(())
    }

    pub fn remove_process(&mut self, job: u64, pid: u64) -> Result<(), Refusal> {
        let entry = self.jobs.get_mut(&job).ok_or(Refusal::NoJob(job))?;
        let process = entry.processes.remove(&pid);
        process.ok_or(Refusal::NoProcess { job, pid })?;
        self.unindex(pid, job);
        Ok(())
    }

    pub fn process(&self, job: u64, pid: u64) -> Result<&P, Refusal> {
        let process = self.job(job)?.processes.get(&pid);
        process.ok_or(Refusal::NoProcess { job, pid })
    }

    /// Is `pid` added to *any* job? (The user socket admits only those.)
    pub fn process_known(&self, pid: u64) -> bool {
        self.pid_index.contains_key(&pid)
    }

    fn unindex(&mut self, pid: u64, job: u64) {
        let jobs = self.pid_index.entry(pid).or_default();
        jobs.retain(|j| *j != job);
        if jobs.is_empty() {
            self.pid_index.remove(&pid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashSet};

    /// The check's table: a dataspace keeps which verb set it (0 by
    /// `register`, 1 by `update`); jobs and processes keep nothing else.
    type Table = Registry<u8, (), ()>;

    const NSIDS: [&str; 2] = ["ns0", "ns1"];
    const JOBS: [u64; 2] = [1, 2];
    const PIDS: [u64; 2] = [10, 20];
    /// A job's limits: none, one registered-or-not nsid, or one never
    /// registered.
    const LIMITS: [Option<&str>; 4] = [None, Some("ns0"), Some("ns1"), Some("ghost")];

    /// Sequences up to this long are run from the empty table.
    const DEPTH: u8 = 6;

    #[derive(Debug, Clone, Copy)]
    enum Verb {
        RegisterDataspace(&'static str),
        UpdateDataspace(&'static str),
        UnregisterDataspace(&'static str),
        RegisterJob(u64, Option<&'static str>),
        UpdateJob(u64, Option<&'static str>),
        UnregisterJob(u64),
        AddProcess(u64, u64),
        RemoveProcess(u64, u64),
    }

    fn verbs() -> Vec<Verb> {
        let mut verbs = Vec::new();
        for nsid in NSIDS {
            verbs.extend([
                Verb::RegisterDataspace(nsid),
                Verb::UpdateDataspace(nsid),
                Verb::UnregisterDataspace(nsid),
            ]);
        }
        for job in JOBS {
            for limit in LIMITS {
                verbs.extend([Verb::RegisterJob(job, limit), Verb::UpdateJob(job, limit)]);
            }
            verbs.push(Verb::UnregisterJob(job));
            for pid in PIDS {
                verbs.extend([Verb::AddProcess(job, pid), Verb::RemoveProcess(job, pid)]);
            }
        }
        verbs
    }

    fn limits(limit: Option<&str>) -> Vec<(String, u64)> {
        limit
            .into_iter()
            .map(|nsid| (nsid.to_string(), 0))
            .collect()
    }

    type Apply = fn(&mut Table, Verb) -> Result<(), Refusal>;

    /// The table's own answer to `verb`.
    fn apply(t: &mut Table, verb: Verb) -> Result<(), Refusal> {
        match verb {
            Verb::RegisterDataspace(nsid) => t.register_dataspace(nsid.into(), 0),
            Verb::UpdateDataspace(nsid) => t.update_dataspace(nsid.into(), 1),
            Verb::UnregisterDataspace(nsid) => t.unregister_dataspace(nsid),
            Verb::RegisterJob(id, limit) => t.register_job(id, limits(limit), ()),
            Verb::UpdateJob(id, limit) => t.update_job(id, limits(limit), ()),
            Verb::UnregisterJob(id) => t.unregister_job(id),
            Verb::AddProcess(job, pid) => t.add_process(job, pid, ()),
            Verb::RemoveProcess(job, pid) => t.remove_process(job, pid),
        }
    }

    /// The rules, read off the table before the verb: which refusal
    /// comes first, if any.
    fn rules(t: &Table, verb: Verb) -> Result<(), Refusal> {
        let ns = |nsid: &str| match t.dataspaces.contains_key(nsid) {
            true => Ok(()),
            false => Err(Refusal::NoDataspace(nsid.into())),
        };
        let job = |id: u64| match t.jobs.contains_key(&id) {
            true => Ok(()),
            false => Err(Refusal::NoJob(id)),
        };
        let limit = |limit: Option<&str>| limit.map_or(Ok(()), ns);
        match verb {
            Verb::RegisterDataspace(nsid) if t.dataspaces.contains_key(nsid) => {
                Err(Refusal::DataspaceExists(nsid.into()))
            }
            Verb::RegisterDataspace(_) => Ok(()),
            Verb::UpdateDataspace(nsid) | Verb::UnregisterDataspace(nsid) => ns(nsid),
            Verb::RegisterJob(id, _) if t.jobs.contains_key(&id) => Err(Refusal::JobExists(id)),
            Verb::RegisterJob(_, l) => limit(l),
            Verb::UpdateJob(id, l) => job(id).and_then(|()| limit(l)),
            Verb::UnregisterJob(id) | Verb::AddProcess(id, _) => job(id),
            Verb::RemoveProcess(id, pid) => {
                job(id).and_then(|()| match t.jobs[&id].processes.contains_key(&pid) {
                    true => Ok(()),
                    false => Err(Refusal::NoProcess { job: id, pid }),
                })
            }
        }
    }

    /// A canonical, hashable picture of the whole table, index included.
    fn picture(t: &Table) -> String {
        let dataspaces: BTreeMap<_, _> = t.dataspaces.iter().collect();
        let jobs: BTreeMap<_, _> = t
            .jobs
            .iter()
            .map(|(id, j)| (id, (&j.limits, j.processes.keys().collect::<BTreeSet<_>>())))
            .collect();
        let index: BTreeMap<_, _> = t
            .pid_index
            .iter()
            .map(|(pid, jobs)| (pid, jobs.iter().collect::<BTreeSet<_>>()))
            .collect();
        format!("{dataspaces:?} {jobs:?} {index:?}")
    }

    /// The invariants every table holds between verbs.
    fn holds(t: &Table) -> Result<(), &'static str> {
        let mut union: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for (id, job) in &t.jobs {
            for pid in job.processes.keys() {
                union.entry(*pid).or_default().push(*id);
            }
        }
        let index: BTreeMap<u64, Vec<u64>> = t
            .pid_index
            .iter()
            .map(|(pid, jobs)| (*pid, jobs.clone()))
            .collect();
        let sorted = |mut m: BTreeMap<u64, Vec<u64>>| {
            m.values_mut().for_each(|jobs| jobs.sort_unstable());
            m
        };
        if index.values().any(|jobs| jobs.is_empty()) || sorted(index) != sorted(union) {
            return Err("the pid index is not the union of the live jobs' processes");
        }
        for pid in PIDS {
            if t.process_known(pid) != t.jobs.values().any(|j| j.processes.contains_key(&pid)) {
                return Err("process_known disagrees with the jobs' processes");
            }
        }
        let jobs = JOBS.iter().filter(|id| t.job(**id).is_ok()).count();
        let dataspaces = NSIDS.iter().filter(|n| t.dataspace(n).is_ok()).count();
        if t.job_count() != jobs || t.dataspace_count() != dataspaces {
            return Err("a count does not match its map");
        }
        Ok(())
    }

    /// One verb through `table`, checked against the rules and the
    /// invariants; the table after it.
    fn checked(table: Apply, t: &Table, verb: Verb) -> Result<Table, String> {
        let mut next = t.clone();
        let got = table(&mut next, verb);
        let why = |what: &str| format!("{what}: {} --{verb:?}-> {got:?}", picture(t));
        if got != rules(t, verb) {
            return Err(why("answered other than the rules say"));
        }
        if got.is_err() && next != *t {
            return Err(why("a refused verb changed the table"));
        }
        holds(&next).map_err(why)?;
        match (verb, &got) {
            (Verb::UnregisterJob(id), Ok(())) => {
                let gone = next.job(id).is_err();
                if !gone || next.pid_index.values().any(|jobs| jobs.contains(&id)) {
                    return Err(why("an unregistered job kept its processes"));
                }
            }
            (Verb::RegisterJob(id, l) | Verb::UpdateJob(id, l), Ok(())) => {
                let named = l.is_none_or(|nsid| t.dataspace(nsid).is_ok());
                if !named || next.job(id).map(|j| j.limits.clone()) != Ok(limits(l)) {
                    return Err(why("a job's limits name an unregistered dataspace"));
                }
            }
            (Verb::AddProcess(job, pid), Ok(())) if next.process(job, pid).is_err() => {
                return Err(why("an added process is not the job's"));
            }
            (Verb::UpdateDataspace(nsid), Ok(())) if next.dataspace(nsid) != Ok(&1) => {
                return Err(why("an update left the dataspace as it was"));
            }
            _ => {}
        }
        Ok(next)
    }

    fn explore(
        table: Apply,
        verbs: &[Verb],
        t: &Table,
        depth: u8,
        seen: &mut HashSet<(String, u8)>,
    ) -> Result<(), String> {
        // The checks read only the table, so a table already explored to
        // this depth has had every sequence from it run.
        if depth == 0 || !seen.insert((picture(t), depth)) {
            return Ok(());
        }
        for &verb in verbs {
            let next = checked(table, t, verb)?;
            explore(table, verbs, &next, depth - 1, seen)?;
        }
        Ok(())
    }

    /// Every sequence of up to [`DEPTH`] verbs from the empty table;
    /// returns how many distinct tables a verb was run from.
    fn check(table: Apply) -> Result<usize, String> {
        let mut seen = HashSet::new();
        explore(table, &verbs(), &Table::default(), DEPTH, &mut seen)?;
        let tables: HashSet<_> = seen.into_iter().map(|(picture, _)| picture).collect();
        Ok(tables.len())
    }

    #[test]
    fn the_table_passes_the_exhaustive_check() {
        assert_eq!(verbs().len(), 32, "eight verbs over every argument");
        assert_eq!(check(apply).unwrap(), 425, "tables a verb was run from");
    }

    /// Mutation fixture: `register_job` looks at the limits before the
    /// duplicate id (the daemon's order before the one table).
    fn limits_before_duplicate(t: &mut Table, verb: Verb) -> Result<(), Refusal> {
        if let Verb::RegisterJob(_, Some(nsid)) = verb {
            t.dataspace(nsid)?;
        }
        apply(t, verb)
    }

    /// Mutation fixture: `unregister_job` leaves its processes in the
    /// pid index.
    fn unregister_leaves_its_pids(t: &mut Table, verb: Verb) -> Result<(), Refusal> {
        let Verb::UnregisterJob(id) = verb else {
            return apply(t, verb);
        };
        let pids: Vec<u64> = t.job(id)?.processes.keys().copied().collect();
        t.unregister_job(id)?;
        for pid in pids {
            t.pid_index.entry(pid).or_default().push(id);
        }
        Ok(())
    }

    #[test]
    fn the_check_fails_limits_checked_before_a_duplicate_job() {
        let err = check(limits_before_duplicate).unwrap_err();
        assert!(err.contains("other than the rules say"), "{err}");
        assert!(err.contains("RegisterJob"), "{err}");
    }

    #[test]
    fn the_check_fails_a_pid_left_behind_by_unregister_job() {
        let err = check(unregister_leaves_its_pids).unwrap_err();
        assert!(err.contains("pid index"), "{err}");
    }

    /// The two decided rows, one each.
    #[test]
    fn a_duplicate_job_is_refused_first_and_an_update_checks_its_limits() {
        let mut t = Table::default();
        t.register_dataspace("ns0".into(), 0).unwrap();
        t.register_job(1, limits(Some("ns0")), ()).unwrap();
        assert_eq!(
            t.register_job(1, limits(Some("ghost")), ()),
            Err(Refusal::JobExists(1))
        );
        assert_eq!(
            t.update_job(1, limits(Some("ghost")), ()),
            Err(Refusal::NoDataspace("ghost".into()))
        );
        assert_eq!(
            t.update_job(2, limits(Some("ghost")), ()),
            Err(Refusal::NoJob(2))
        );
        assert_eq!(
            Refusal::NoProcess { job: 1, pid: 7 }.message(),
            "no such process: 7 in job 1"
        );
    }
}
