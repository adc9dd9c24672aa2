//! The one admission table: the Table II plugin that serves a task's
//! *shape* (its source and sink types), or why none does. Both worlds
//! ask it — `norns::Controller::validate` and `norns_ipc::Engine::submit`
//! — as does whichever learns that an input is a directory
//! ([`Plugin::carries_directory`]); both report a [`Refusal`] as
//! `BadArgs`. A `match` over `Copy` enums that allocates nothing.

use std::path::{Component, Path};

/// Operations supported by `iotask_init` (paper Table I / Listing 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskOp {
    /// Copy input to output, leaving input in place.
    Copy,
    /// Copy then delete the input (stage-out semantics).
    Move,
    /// Delete the input resource.
    Remove,
}

/// Where one end of a task lives: memory, this node or another node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Memory,
    Local,
    Remote,
}

/// Everything the table looks at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub op: TaskOp,
    pub input: Kind,
    pub output: Option<Kind>,
    /// The input path names its dataspace's root ([`names_root`]).
    pub input_names_root: bool,
}

/// The six transfer plugins from Table II, plus local removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Plugin {
    /// Process memory ⇒ local path: `fallocate`+`mmap`, `process_vm_readv` into it.
    MemoryToLocal,
    /// Memory buffer ⇒ remote path: stage to a tmp mapping, the target `RDMA_PULL`s it.
    MemoryToRemote,
    /// Memory buffer ⇐ remote path: `RDMA_PULL` to a mapping, `process_vm_writev` out.
    RemoteToMemory,
    /// Local path ⇒ local path: `sendfile` between descriptors.
    LocalToLocal,
    /// Local path ⇒ remote path: `mmap` the source, the target `RDMA_PULL`s it.
    LocalToRemote,
    /// Local path ⇐ remote path: `fallocate`+`mmap` the destination, `RDMA_PULL` into it.
    RemoteToLocal,
    /// `remove` of a path on the handling node (a task type, not in Table II).
    Removal,
}

/// Why a task is not admitted. The last two are rows the table admits
/// that the real daemon does not execute yet (ROADMAP items 11 and 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Refusal {
    RemoveWithOutput,
    RemoveOfMemory,
    RemoteRemove,
    NoOutput,
    MemoryToMemory,
    LocalToMemory,
    RemoteToRemote,
    DataspaceRoot,
    DirectoryToMemory,
    MemoryAcrossNodes,
    TreeAcrossNodes,
}

impl Refusal {
    /// The refusal's one text: no other code spells it.
    pub fn message(self) -> &'static str {
        use Refusal::*;
        match self {
            RemoveWithOutput => "remove takes no output",
            RemoveOfMemory => "cannot remove a memory region",
            RemoteRemove => "a remove runs on the daemon that owns the path; submit it there",
            NoOutput => "copy/move require an output",
            MemoryToMemory => "memory-to-memory transfers are not supported",
            LocalToMemory => "local-path-to-memory transfers are served by mmap, not NORNS",
            RemoteToRemote => {
                "remote-to-remote relays are not supported; stage via a local dataspace"
            }
            DataspaceRoot => "a remove or move cannot name a dataspace root",
            DirectoryToMemory => "a directory cannot land in a memory buffer",
            MemoryAcrossNodes => "memory is not staged to or from another node yet",
            TreeAcrossNodes => "directory trees are not staged across nodes yet",
        }
    }
}

/// Does `path` name its dataspace's root — no component but `.`? (A
/// leading `/` is a component, which each world refuses as an escape.)
pub fn names_root(path: &str) -> bool {
    Path::new(path).components().all(|c| c == Component::CurDir)
}

/// The plugin that serves `shape`, or why none does.
pub fn admit(shape: Shape) -> Result<Plugin, Refusal> {
    use Kind::*;
    let plugin = match (shape.op, shape.input, shape.output) {
        (TaskOp::Remove, _, Some(_)) => return Err(Refusal::RemoveWithOutput),
        (TaskOp::Remove, Memory, None) => return Err(Refusal::RemoveOfMemory),
        (TaskOp::Remove, Remote, None) => return Err(Refusal::RemoteRemove),
        (TaskOp::Remove, Local, None) => Plugin::Removal,
        (TaskOp::Copy | TaskOp::Move, _, None) => return Err(Refusal::NoOutput),
        (_, Memory, Some(Memory)) => return Err(Refusal::MemoryToMemory),
        // Applications read local files with plain `mmap`/`read`.
        (_, Local, Some(Memory)) => return Err(Refusal::LocalToMemory),
        // The initiator holds one side: no third-party transfers.
        (_, Remote, Some(Remote)) => return Err(Refusal::RemoteToRemote),
        (_, Memory, Some(Local)) => Plugin::MemoryToLocal,
        (_, Memory, Some(Remote)) => Plugin::MemoryToRemote,
        (_, Local, Some(Local)) => Plugin::LocalToLocal,
        (_, Local, Some(Remote)) => Plugin::LocalToRemote,
        (_, Remote, Some(Local)) => Plugin::RemoteToLocal,
        (_, Remote, Some(Memory)) => Plugin::RemoteToMemory,
    };
    // Removing or moving a root would delete the dataspace's mount.
    if shape.input_names_root && shape.op != TaskOp::Copy {
        return Err(Refusal::DataspaceRoot);
    }
    Ok(plugin)
}

impl Plugin {
    /// Human-readable name matching the paper's table rows.
    pub fn name(self) -> &'static str {
        match self {
            Plugin::MemoryToLocal => "process memory => local path",
            Plugin::MemoryToRemote => "memory buffer => remote path",
            Plugin::RemoteToMemory => "memory buffer <= remote path",
            Plugin::LocalToLocal => "local path => local path",
            Plugin::LocalToRemote => "local path => remote path",
            Plugin::RemoteToLocal => "local path <= remote path",
            Plugin::Removal => "removal",
        }
    }

    /// Does this plugin move data across the fabric?
    pub fn crosses_network(self) -> bool {
        use Plugin::*;
        matches!(
            self,
            MemoryToRemote | RemoteToMemory | LocalToRemote | RemoteToLocal
        )
    }

    /// Number of data-movement legs (the memory⇒remote plugin stages
    /// through a temporary local mapping first — two legs).
    pub fn legs(self) -> usize {
        match self {
            Plugin::MemoryToRemote => 2,
            Plugin::Removal => 0,
            _ => 1,
        }
    }

    /// May this plugin's input be a directory tree? A tree lands in
    /// paths, never in a memory buffer.
    pub fn carries_directory(self) -> Result<(), Refusal> {
        match self {
            Plugin::RemoteToMemory => Err(Refusal::DirectoryToMemory),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REFUSALS: [Refusal; 11] = [
        Refusal::RemoveWithOutput,
        Refusal::RemoveOfMemory,
        Refusal::RemoteRemove,
        Refusal::NoOutput,
        Refusal::MemoryToMemory,
        Refusal::LocalToMemory,
        Refusal::RemoteToRemote,
        Refusal::DataspaceRoot,
        Refusal::DirectoryToMemory,
        Refusal::MemoryAcrossNodes,
        Refusal::TreeAcrossNodes,
    ];

    fn shape(op: TaskOp, input: Kind, output: Option<Kind>) -> Shape {
        Shape {
            op,
            input,
            output,
            input_names_root: false,
        }
    }

    #[test]
    fn every_refusal_has_its_own_message() {
        for (i, a) in REFUSALS.iter().enumerate() {
            assert!(!a.message().is_empty());
            for b in &REFUSALS[i + 1..] {
                assert_ne!(a.message(), b.message(), "{a:?} and {b:?}");
            }
        }
    }

    #[test]
    fn every_plugin_has_its_table_ii_name() {
        use Kind::*;
        let rows = [
            (
                Memory,
                Local,
                Plugin::MemoryToLocal,
                "process memory => local path",
            ),
            (
                Memory,
                Remote,
                Plugin::MemoryToRemote,
                "memory buffer => remote path",
            ),
            (
                Remote,
                Memory,
                Plugin::RemoteToMemory,
                "memory buffer <= remote path",
            ),
            (
                Local,
                Local,
                Plugin::LocalToLocal,
                "local path => local path",
            ),
            (
                Local,
                Remote,
                Plugin::LocalToRemote,
                "local path => remote path",
            ),
            (
                Remote,
                Local,
                Plugin::RemoteToLocal,
                "local path <= remote path",
            ),
        ];
        for (input, output, plugin, name) in rows {
            for op in [TaskOp::Copy, TaskOp::Move] {
                assert_eq!(admit(shape(op, input, Some(output))), Ok(plugin));
            }
            assert_eq!(plugin.name(), name);
        }
        let remove = admit(shape(TaskOp::Remove, Local, None));
        assert_eq!(remove.map(Plugin::name), Ok("removal"));
    }

    #[test]
    fn refused_shapes() {
        use Kind::*;
        let rows = [
            (
                TaskOp::Remove,
                Local,
                Some(Local),
                Refusal::RemoveWithOutput,
            ),
            (TaskOp::Remove, Memory, None, Refusal::RemoveOfMemory),
            (TaskOp::Remove, Remote, None, Refusal::RemoteRemove),
            (TaskOp::Copy, Local, None, Refusal::NoOutput),
            (TaskOp::Move, Memory, Some(Memory), Refusal::MemoryToMemory),
            (TaskOp::Copy, Local, Some(Memory), Refusal::LocalToMemory),
            (TaskOp::Copy, Remote, Some(Remote), Refusal::RemoteToRemote),
        ];
        for (op, input, output, refusal) in rows {
            assert_eq!(admit(shape(op, input, output)), Err(refusal));
        }
    }

    #[test]
    fn a_root_may_be_copied_but_not_moved_or_removed() {
        for path in ["", ".", "./", "./.", ".//."] {
            assert!(names_root(path), "{path:?}");
        }
        for path in ["a", "./a", "a/.", ".a", "..", "a/b", "/", "/."] {
            assert!(!names_root(path), "{path:?}");
        }
        let root = |op, output| Shape {
            input_names_root: true,
            ..shape(op, Kind::Local, output)
        };
        let out = Some(Kind::Remote);
        assert_eq!(admit(root(TaskOp::Copy, out)), Ok(Plugin::LocalToRemote));
        assert_eq!(admit(root(TaskOp::Move, out)), Err(Refusal::DataspaceRoot));
        assert_eq!(
            admit(root(TaskOp::Remove, None)),
            Err(Refusal::DataspaceRoot)
        );
    }

    #[test]
    fn only_a_memory_sink_refuses_a_directory() {
        use Plugin::*;
        for plugin in [
            MemoryToLocal,
            MemoryToRemote,
            LocalToLocal,
            LocalToRemote,
            RemoteToLocal,
            Removal,
        ] {
            assert_eq!(plugin.carries_directory(), Ok(()), "{plugin:?}");
        }
        assert_eq!(
            RemoteToMemory.carries_directory(),
            Err(Refusal::DirectoryToMemory)
        );
    }

    #[test]
    fn network_crossing_and_legs() {
        use Plugin::*;
        for plugin in [MemoryToRemote, RemoteToMemory, LocalToRemote, RemoteToLocal] {
            assert!(plugin.crosses_network());
        }
        for plugin in [MemoryToLocal, LocalToLocal, Removal] {
            assert!(!plugin.crosses_network());
        }
        assert_eq!(MemoryToRemote.legs(), 2, "staged through tmp mapping");
        assert_eq!(LocalToRemote.legs(), 1);
        assert_eq!(Removal.legs(), 0);
    }
}
