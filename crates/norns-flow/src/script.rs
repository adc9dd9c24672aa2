//! Batch-script parsing: the paper's scheduler extensions.
//!
//! Jobs are submitted as scripts carrying standard `#SBATCH` options,
//! the new workflow options (`workflow-start`, `workflow-end`,
//! `workflow-prior-dependency ID`) and the `#NORNS` data directives of
//! Listing 1:
//!
//! ```text
//! #NORNS stage_in   origin destination mapping
//! #NORNS stage_out  origin destination mapping
//! #NORNS persist    operation location user
//! #NORNS durability mode
//! ```
//!
//! `origin`/`destination`/`location` are dataspace-qualified paths
//! (`lustre://inputs/mesh`, `pmdk0://case`); `operation` is one of
//! `store`, `delete`, `share`, `unshare`; `mode` is one of
//! `local_only`, `local_plus_one`, `synchronous` (wire v8) and applies
//! to the job's stage-out legs — absent, the executor's configured
//! default governs.
//!
//! This module is the **single** parser for both execution paths: the
//! simulated scheduler (`slurm-sim` re-exports it) and the real-mode
//! executor ([`crate::executor`]) accept byte-identical scripts, so a
//! workflow debugged in the simulator submits unchanged against live
//! daemons. Time limits are plain [`std::time::Duration`]s; the
//! simulator converts to its own clock at the boundary.

use std::time::Duration;

use norns_proto::Durability;

/// How data is distributed between a shared resource and the job's
/// node-local dataspaces (the `mapping` argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mapping {
    /// Every node receives (or contributes) the full data set.
    All,
    /// Files are split across the job's nodes round-robin.
    Scatter,
    /// All node contributions are collected into one destination
    /// directory (stage-out counterpart of `Scatter`).
    Gather,
    /// Only the k-th node of the allocation holds the data.
    Node(usize),
}

impl Mapping {
    fn parse(s: &str) -> Result<Self, ScriptError> {
        match s {
            "all" => Ok(Mapping::All),
            "scatter" => Ok(Mapping::Scatter),
            "gather" => Ok(Mapping::Gather),
            other => {
                if let Some(k) = other.strip_prefix("node:") {
                    k.parse()
                        .map(Mapping::Node)
                        .map_err(|_| ScriptError::BadMapping(other.to_string()))
                } else {
                    Err(ScriptError::BadMapping(other.to_string()))
                }
            }
        }
    }

    fn render(&self) -> String {
        match self {
            Mapping::All => "all".into(),
            Mapping::Scatter => "scatter".into(),
            Mapping::Gather => "gather".into(),
            Mapping::Node(k) => format!("node:{k}"),
        }
    }
}

/// A `stage_in`/`stage_out` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageDirective {
    /// `nsid://path` of the data source.
    pub origin: String,
    /// `nsid://path` of the data sink.
    pub destination: String,
    pub mapping: Mapping,
}

/// `persist` operations (Listing 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistOp {
    Store,
    Delete,
    Share,
    Unshare,
}

impl PersistOp {
    pub(crate) fn render(&self) -> &'static str {
        match self {
            PersistOp::Store => "store",
            PersistOp::Delete => "delete",
            PersistOp::Share => "share",
            PersistOp::Unshare => "unshare",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistDirective {
    pub op: PersistOp,
    /// `nsid://path`; must name a node-local storage resource.
    pub location: String,
    /// Username the operation applies to (for share/unshare) or the
    /// owner (for store/delete).
    pub user: String,
}

/// Workflow position options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum WorkflowPos {
    /// Not part of a workflow.
    #[default]
    None,
    /// `--workflow-start`.
    Start,
    /// `--workflow-prior-dependency=<job-name>` (repeatable).
    Dependent(Vec<String>),
    /// `--workflow-end` with dependencies.
    End(Vec<String>),
}

/// Everything parsed from a submission script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobScript {
    pub name: String,
    pub nodes: usize,
    pub time_limit: Duration,
    pub workflow: WorkflowPos,
    pub stage_in: Vec<StageDirective>,
    pub stage_out: Vec<StageDirective>,
    pub persist: Vec<PersistDirective>,
    /// `#NORNS durability` override for the job's stage-outs; `None`
    /// defers to the executor's configured default.
    pub durability: Option<Durability>,
}

impl Default for JobScript {
    fn default() -> Self {
        JobScript {
            name: String::new(),
            nodes: 1,
            time_limit: Duration::from_secs(3600),
            workflow: WorkflowPos::None,
            stage_in: Vec::new(),
            stage_out: Vec::new(),
            persist: Vec::new(),
            durability: None,
        }
    }
}

/// Parse failures, pointing at the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptError {
    BadOption(String),
    BadMapping(String),
    BadDirective(String),
    BadTime(String),
    MissingName,
    ConflictingWorkflowOptions,
}

impl std::fmt::Display for ScriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScriptError::BadOption(l) => write!(f, "unrecognized option: {l}"),
            ScriptError::BadMapping(m) => write!(f, "bad mapping: {m}"),
            ScriptError::BadDirective(l) => write!(f, "bad #NORNS directive: {l}"),
            ScriptError::BadTime(t) => write!(f, "bad time limit: {t}"),
            ScriptError::MissingName => write!(f, "script must set --job-name"),
            ScriptError::ConflictingWorkflowOptions => {
                write!(f, "workflow-start/end/dependency options conflict")
            }
        }
    }
}

impl std::error::Error for ScriptError {}

/// Parse `HH:MM:SS`, `MM:SS` or plain seconds.
fn parse_time(s: &str) -> Result<Duration, ScriptError> {
    let parts: Vec<&str> = s.split(':').collect();
    let nums: Result<Vec<u64>, _> = parts.iter().map(|p| p.parse::<u64>()).collect();
    let nums = nums.map_err(|_| ScriptError::BadTime(s.to_string()))?;
    let secs = match nums.as_slice() {
        [s] => *s,
        [m, s] => m * 60 + s,
        [h, m, s] => h * 3600 + m * 60 + s,
        _ => return Err(ScriptError::BadTime(s.to_string())),
    };
    Ok(Duration::from_secs(secs))
}

/// Parse a full submission script.
pub fn parse(script: &str) -> Result<JobScript, ScriptError> {
    let mut out = JobScript::default();
    let mut is_start = false;
    let mut is_end = false;
    let mut deps: Vec<String> = Vec::new();

    for raw in script.lines() {
        let line = raw.trim();
        if let Some(rest) = line.strip_prefix("#SBATCH") {
            let opt = rest.trim();
            if let Some(v) = opt.strip_prefix("--job-name=") {
                out.name = v.trim().to_string();
            } else if let Some(v) = opt.strip_prefix("--nodes=") {
                out.nodes = v
                    .trim()
                    .parse()
                    .map_err(|_| ScriptError::BadOption(line.to_string()))?;
            } else if let Some(v) = opt.strip_prefix("--time=") {
                out.time_limit = parse_time(v.trim())?;
            } else if opt == "--workflow-start" {
                is_start = true;
            } else if opt == "--workflow-end" {
                is_end = true;
            } else if let Some(v) = opt.strip_prefix("--workflow-prior-dependency=") {
                deps.push(v.trim().to_string());
            } else if opt.starts_with("--") {
                // Unknown plain sbatch options are tolerated, like real
                // Slurm does for plugin options it doesn't understand.
                continue;
            } else {
                return Err(ScriptError::BadOption(line.to_string()));
            }
        } else if let Some(rest) = line.strip_prefix("#NORNS") {
            let tokens: Vec<&str> = rest.split_whitespace().collect();
            match tokens.as_slice() {
                ["stage_in", origin, destination, mapping] => {
                    out.stage_in.push(StageDirective {
                        origin: origin.to_string(),
                        destination: destination.to_string(),
                        mapping: Mapping::parse(mapping)?,
                    });
                }
                ["stage_in", origin, destination] => {
                    // Mapping optional for single-node jobs (§III).
                    out.stage_in.push(StageDirective {
                        origin: origin.to_string(),
                        destination: destination.to_string(),
                        mapping: Mapping::All,
                    });
                }
                ["stage_out", origin, destination, mapping] => {
                    out.stage_out.push(StageDirective {
                        origin: origin.to_string(),
                        destination: destination.to_string(),
                        mapping: Mapping::parse(mapping)?,
                    });
                }
                ["stage_out", origin, destination] => {
                    out.stage_out.push(StageDirective {
                        origin: origin.to_string(),
                        destination: destination.to_string(),
                        mapping: Mapping::Gather,
                    });
                }
                ["durability", mode] => {
                    out.durability = Some(match *mode {
                        "local_only" => Durability::LocalOnly,
                        "local_plus_one" => Durability::LocalPlusOne,
                        "synchronous" => Durability::Synchronous,
                        _ => return Err(ScriptError::BadDirective(line.to_string())),
                    });
                }
                ["persist", op, location, user] => {
                    let op = match *op {
                        "store" => PersistOp::Store,
                        "delete" => PersistOp::Delete,
                        "share" => PersistOp::Share,
                        "unshare" => PersistOp::Unshare,
                        _ => return Err(ScriptError::BadDirective(line.to_string())),
                    };
                    out.persist.push(PersistDirective {
                        op,
                        location: location.to_string(),
                        user: user.to_string(),
                    });
                }
                _ => return Err(ScriptError::BadDirective(line.to_string())),
            }
        }
    }

    if out.name.is_empty() {
        return Err(ScriptError::MissingName);
    }
    out.workflow = match (is_start, is_end, deps.is_empty()) {
        (false, false, true) => WorkflowPos::None,
        (true, false, true) => WorkflowPos::Start,
        (false, false, false) => WorkflowPos::Dependent(deps),
        (false, true, false) => WorkflowPos::End(deps),
        // A lone --workflow-end without dependencies, or start+end
        // combined, is rejected.
        _ => return Err(ScriptError::ConflictingWorkflowOptions),
    };
    Ok(out)
}

/// Render a [`JobScript`] back into submittable script text. The
/// output parses to an equal `JobScript` (the property the script test
/// suite pins down), so schedulers can persist, diff and resubmit
/// normalized scripts.
pub fn render(script: &JobScript) -> String {
    let mut out = String::from("#!/bin/bash\n");
    out.push_str(&format!("#SBATCH --job-name={}\n", script.name));
    out.push_str(&format!("#SBATCH --nodes={}\n", script.nodes));
    let secs = script.time_limit.as_secs();
    out.push_str(&format!(
        "#SBATCH --time={:02}:{:02}:{:02}\n",
        secs / 3600,
        (secs % 3600) / 60,
        secs % 60
    ));
    match &script.workflow {
        WorkflowPos::None => {}
        WorkflowPos::Start => out.push_str("#SBATCH --workflow-start\n"),
        WorkflowPos::Dependent(deps) => {
            for d in deps {
                out.push_str(&format!("#SBATCH --workflow-prior-dependency={d}\n"));
            }
        }
        WorkflowPos::End(deps) => {
            for d in deps {
                out.push_str(&format!("#SBATCH --workflow-prior-dependency={d}\n"));
            }
            out.push_str("#SBATCH --workflow-end\n");
        }
    }
    for d in &script.stage_in {
        out.push_str(&format!(
            "#NORNS stage_in {} {} {}\n",
            d.origin,
            d.destination,
            d.mapping.render()
        ));
    }
    for d in &script.stage_out {
        out.push_str(&format!(
            "#NORNS stage_out {} {} {}\n",
            d.origin,
            d.destination,
            d.mapping.render()
        ));
    }
    for p in &script.persist {
        out.push_str(&format!(
            "#NORNS persist {} {} {}\n",
            p.op.render(),
            p.location,
            p.user
        ));
    }
    if let Some(durability) = script.durability {
        let mode = match durability {
            Durability::LocalOnly => "local_only",
            Durability::LocalPlusOne => "local_plus_one",
            Durability::Synchronous => "synchronous",
        };
        out.push_str(&format!("#NORNS durability {mode}\n"));
    }
    out
}

/// Split a `nsid://path` location into its dataspace and path halves.
pub fn split_location(loc: &str) -> Result<(&str, &str), ScriptError> {
    loc.split_once("://")
        .ok_or_else(|| ScriptError::BadDirective(format!("malformed location: {loc}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_workflow_script_parses() {
        let script = "\
#!/bin/bash
#SBATCH --job-name=solver
#SBATCH --nodes=16
#SBATCH --time=01:30:00
#SBATCH --workflow-prior-dependency=decompose
#NORNS stage_in lustre://case/mesh pmdk0://case scatter
#NORNS stage_out pmdk0://results lustre://run1/results gather
#NORNS persist store pmdk0://case alice
srun picoFoam
";
        let js = parse(script).unwrap();
        assert_eq!(js.name, "solver");
        assert_eq!(js.nodes, 16);
        assert_eq!(js.time_limit, Duration::from_secs(5400));
        assert_eq!(
            js.workflow,
            WorkflowPos::Dependent(vec!["decompose".into()])
        );
        assert_eq!(js.stage_in.len(), 1);
        assert_eq!(js.stage_in[0].origin, "lustre://case/mesh");
        assert_eq!(js.stage_in[0].mapping, Mapping::Scatter);
        assert_eq!(js.stage_out[0].mapping, Mapping::Gather);
        assert_eq!(js.persist[0].op, PersistOp::Store);
        assert_eq!(js.persist[0].user, "alice");
    }

    #[test]
    fn workflow_start_and_end_forms() {
        let start = parse("#SBATCH --job-name=a\n#SBATCH --workflow-start\n").unwrap();
        assert_eq!(start.workflow, WorkflowPos::Start);
        let end = parse(
            "#SBATCH --job-name=z\n#SBATCH --workflow-end\n#SBATCH --workflow-prior-dependency=a\n",
        )
        .unwrap();
        assert_eq!(end.workflow, WorkflowPos::End(vec!["a".into()]));
    }

    #[test]
    fn multiple_dependencies() {
        let js = parse(
            "#SBATCH --job-name=merge\n\
             #SBATCH --workflow-prior-dependency=simA\n\
             #SBATCH --workflow-prior-dependency=simB\n",
        )
        .unwrap();
        assert_eq!(
            js.workflow,
            WorkflowPos::Dependent(vec!["simA".into(), "simB".into()])
        );
    }

    #[test]
    fn conflicting_workflow_options_rejected() {
        let err = parse("#SBATCH --job-name=x\n#SBATCH --workflow-start\n#SBATCH --workflow-end\n");
        assert_eq!(err, Err(ScriptError::ConflictingWorkflowOptions));
        let err = parse("#SBATCH --job-name=x\n#SBATCH --workflow-end\n");
        assert_eq!(err, Err(ScriptError::ConflictingWorkflowOptions));
    }

    #[test]
    fn mapping_forms() {
        assert_eq!(Mapping::parse("all"), Ok(Mapping::All));
        assert_eq!(Mapping::parse("scatter"), Ok(Mapping::Scatter));
        assert_eq!(Mapping::parse("gather"), Ok(Mapping::Gather));
        assert_eq!(Mapping::parse("node:3"), Ok(Mapping::Node(3)));
        assert!(Mapping::parse("nope").is_err());
        assert!(Mapping::parse("node:x").is_err());
    }

    #[test]
    fn optional_mapping_defaults() {
        let js = parse(
            "#SBATCH --job-name=one\n\
             #NORNS stage_in lustre://in pmdk0://in\n\
             #NORNS stage_out pmdk0://out lustre://out\n",
        )
        .unwrap();
        assert_eq!(js.stage_in[0].mapping, Mapping::All);
        assert_eq!(js.stage_out[0].mapping, Mapping::Gather);
    }

    #[test]
    fn time_formats() {
        assert_eq!(parse_time("90").unwrap(), Duration::from_secs(90));
        assert_eq!(parse_time("02:30").unwrap(), Duration::from_secs(150));
        assert_eq!(parse_time("01:00:00").unwrap(), Duration::from_secs(3600));
        assert!(parse_time("1:2:3:4").is_err());
        assert!(parse_time("abc").is_err());
    }

    #[test]
    fn missing_name_rejected() {
        assert_eq!(parse("#SBATCH --nodes=2\n"), Err(ScriptError::MissingName));
    }

    #[test]
    fn bad_directives_rejected() {
        assert!(parse("#SBATCH --job-name=x\n#NORNS stage_in only-one-arg\n").is_err());
        assert!(parse("#SBATCH --job-name=x\n#NORNS persist explode pmdk0://x u\n").is_err());
        assert!(parse("#SBATCH --job-name=x\n#NORNS durability triplicate\n").is_err());
        assert!(parse("#SBATCH --job-name=x\n#NORNS durability\n").is_err());
    }

    #[test]
    fn durability_directive_forms() {
        for (token, mode) in [
            ("local_only", Durability::LocalOnly),
            ("local_plus_one", Durability::LocalPlusOne),
            ("synchronous", Durability::Synchronous),
        ] {
            let js = parse(&format!(
                "#SBATCH --job-name=ckpt\n#NORNS durability {token}\n"
            ))
            .unwrap();
            assert_eq!(js.durability, Some(mode));
        }
        // Absent directive defers to the executor default.
        assert_eq!(parse("#SBATCH --job-name=x\n").unwrap().durability, None);
    }

    #[test]
    fn unknown_sbatch_options_tolerated() {
        let js = parse("#SBATCH --job-name=x\n#SBATCH --exclusive\n").unwrap();
        assert_eq!(js.name, "x");
    }

    #[test]
    fn script_body_is_ignored() {
        let js = parse("#SBATCH --job-name=x\nsrun ./app --nodes=900\n").unwrap();
        assert_eq!(js.nodes, 1);
    }

    #[test]
    fn render_roundtrips_every_workflow_form() {
        for workflow in [
            WorkflowPos::None,
            WorkflowPos::Start,
            WorkflowPos::Dependent(vec!["a".into(), "b".into()]),
            WorkflowPos::End(vec!["a".into()]),
        ] {
            let js = JobScript {
                name: "roundtrip".into(),
                nodes: 4,
                time_limit: Duration::from_secs(4242),
                workflow,
                stage_in: vec![StageDirective {
                    origin: "lustre://case/mesh".into(),
                    destination: "pmdk0://case".into(),
                    mapping: Mapping::Node(2),
                }],
                stage_out: vec![StageDirective {
                    origin: "pmdk0://results".into(),
                    destination: "lustre://out".into(),
                    mapping: Mapping::Gather,
                }],
                persist: vec![PersistDirective {
                    op: PersistOp::Share,
                    location: "pmdk0://case".into(),
                    user: "alice".into(),
                }],
                durability: Some(Durability::LocalPlusOne),
            };
            assert_eq!(parse(&render(&js)).unwrap(), js);
        }
    }

    #[test]
    fn split_location_forms() {
        assert_eq!(split_location("pmdk0://a/b"), Ok(("pmdk0", "a/b")));
        assert!(split_location("no-scheme").is_err());
    }
}
