//! In-memory hierarchical namespace.
//!
//! Every storage tier (PFS, node-local NVM, burst buffer) carries one
//! of these so the system tracks *which data lives where* — the heart
//! of dataspace validation, `persist` bookkeeping and the "non-empty
//! tracked dataspace at node release" check from the paper.
//!
//! Permissions follow a simplified POSIX model: numeric uid/gid plus
//! rwx bits for owner/group/other. NORNS' urd validates that a
//! requesting process can actually access the resources named in an
//! I/O task (Section IV-B), so the namespace has to enforce this.

use std::collections::BTreeMap;

/// Numeric user id.
pub type Uid = u32;
/// Numeric group id.
pub type Gid = u32;

/// Simplified mode bits: octal `0oOGW` style, three octal digits
/// (owner, group, other), each rwx.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode(pub u16);

impl Mode {
    fn bits_for(self, who: Who) -> u16 {
        match who {
            Who::Owner => (self.0 >> 6) & 0o7,
            Who::Group => (self.0 >> 3) & 0o7,
            Who::Other => self.0 & 0o7,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Who {
    Owner,
    Group,
    Other,
}

/// Access classes checked by [`Namespace`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    Read,
    Write,
    Exec,
}

impl Access {
    fn mask(self) -> u16 {
        match self {
            Access::Read => 0o4,
            Access::Write => 0o2,
            Access::Exec => 0o1,
        }
    }
}

/// Identity of a caller, with supplementary groups (Slurm can place
/// job processes into the `norns-user` group via `setgroups(2)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cred {
    pub uid: Uid,
    pub gid: Gid,
    pub groups: Vec<Gid>,
}

impl Cred {
    pub fn new(uid: Uid, gid: Gid) -> Self {
        Cred {
            uid,
            gid,
            groups: Vec::new(),
        }
    }

    pub fn root() -> Self {
        Cred::new(0, 0)
    }

    pub fn with_group(mut self, gid: Gid) -> Self {
        self.groups.push(gid);
        self
    }

    pub fn is_root(&self) -> bool {
        self.uid == 0
    }

    fn in_group(&self, gid: Gid) -> bool {
        self.gid == gid || self.groups.contains(&gid)
    }
}

/// Namespace errors, deliberately close to errno semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NsError {
    NotFound(String),
    NotADirectory(String),
    IsADirectory(String),
    AlreadyExists(String),
    PermissionDenied(String),
    NoSpace { requested: u64, available: u64 },
    DirectoryNotEmpty(String),
    InvalidPath(String),
}

impl std::fmt::Display for NsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NsError::NotFound(p) => write!(f, "no such file or directory: {p}"),
            NsError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            NsError::IsADirectory(p) => write!(f, "is a directory: {p}"),
            NsError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            NsError::PermissionDenied(p) => write!(f, "permission denied: {p}"),
            NsError::NoSpace {
                requested,
                available,
            } => {
                write!(
                    f,
                    "no space left: requested {requested} B, available {available} B"
                )
            }
            NsError::DirectoryNotEmpty(p) => write!(f, "directory not empty: {p}"),
            NsError::InvalidPath(p) => write!(f, "invalid path: {p}"),
        }
    }
}

impl std::error::Error for NsError {}

/// Metadata common to files and directories.
#[derive(Debug, Clone)]
pub struct Meta {
    pub owner: Uid,
    pub group: Gid,
    pub mode: Mode,
}

#[derive(Debug, Clone)]
enum Node {
    File {
        meta: Meta,
        size: u64,
    },
    Dir {
        meta: Meta,
        children: BTreeMap<String, Node>,
    },
}

impl Node {
    fn meta(&self) -> &Meta {
        match self {
            Node::File { meta, .. } | Node::Dir { meta, .. } => meta,
        }
    }

    fn meta_mut(&mut self) -> &mut Meta {
        match self {
            Node::File { meta, .. } | Node::Dir { meta, .. } => meta,
        }
    }

    fn check(&self, cred: &Cred, access: Access, path: &str) -> Result<(), NsError> {
        if cred.is_root() {
            return Ok(());
        }
        let meta = self.meta();
        let who = if cred.uid == meta.owner {
            Who::Owner
        } else if cred.in_group(meta.group) {
            Who::Group
        } else {
            Who::Other
        };
        if meta.mode.bits_for(who) & access.mask() != 0 {
            Ok(())
        } else {
            Err(NsError::PermissionDenied(path.to_string()))
        }
    }
}

/// Information returned by [`Namespace::stat`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stat {
    pub is_dir: bool,
    pub size: u64,
    pub owner: Uid,
    pub group: Gid,
    pub mode: Mode,
}

/// A capacity-bounded in-memory file tree.
#[derive(Debug, Clone)]
pub struct Namespace {
    root: Node,
    capacity: u64,
    used: u64,
}

fn split(path: &str) -> Result<Vec<&str>, NsError> {
    if path.contains("//") || path.contains("..") {
        return Err(NsError::InvalidPath(path.to_string()));
    }
    Ok(path
        .split('/')
        .filter(|c| !c.is_empty() && *c != ".")
        .collect())
}

impl Namespace {
    /// Create an empty namespace with the given byte capacity. The
    /// root directory is owned by root and world-accessible.
    pub fn new(capacity: u64) -> Self {
        Namespace {
            root: Node::Dir {
                meta: Meta {
                    owner: 0,
                    group: 0,
                    mode: Mode(0o777),
                },
                children: BTreeMap::new(),
            },
            capacity,
            used: 0,
        }
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    pub fn used(&self) -> u64 {
        self.used
    }

    pub fn available(&self) -> u64 {
        self.capacity.saturating_sub(self.used)
    }

    fn walk(&self, comps: &[&str], cred: &Cred, path: &str) -> Result<&Node, NsError> {
        let mut cur = &self.root;
        for (i, comp) in comps.iter().enumerate() {
            if matches!(cur, Node::File { .. }) {
                return Err(NsError::NotADirectory(comps[..i].join("/")));
            }
            // Traversal needs exec on every intermediate directory.
            cur.check(cred, Access::Exec, path)?;
            match cur {
                Node::Dir { children, .. } => match children.get(*comp) {
                    Some(next) => cur = next,
                    None => return Err(NsError::NotFound(path.to_string())),
                },
                Node::File { .. } => unreachable!("checked above"),
            }
        }
        Ok(cur)
    }

    fn walk_mut(&mut self, comps: &[&str], cred: &Cred, path: &str) -> Result<&mut Node, NsError> {
        // Immutable pre-check so error paths do not require unsafe.
        self.walk(comps, cred, path)?;
        let mut cur = &mut self.root;
        for comp in comps {
            match cur {
                Node::Dir { children, .. } => cur = children.get_mut(*comp).unwrap(),
                Node::File { .. } => unreachable!("validated by walk()"),
            }
        }
        Ok(cur)
    }

    /// `mkdir -p`: create all missing components, owned by the caller.
    pub fn mkdir_p(&mut self, path: &str, cred: &Cred, mode: Mode) -> Result<(), NsError> {
        let comps = split(path)?;
        let mut cur = &mut self.root;
        for comp in comps {
            cur.check(cred, Access::Exec, path)?;
            let needs_create = match &*cur {
                Node::Dir { children, .. } => !children.contains_key(comp),
                Node::File { .. } => return Err(NsError::NotADirectory(path.to_string())),
            };
            if needs_create {
                // Creating an entry requires write on the parent.
                cur.check(cred, Access::Write, path)?;
            }
            match cur {
                Node::Dir { children, .. } => {
                    if needs_create {
                        children.insert(
                            comp.to_string(),
                            Node::Dir {
                                meta: Meta {
                                    owner: cred.uid,
                                    group: cred.gid,
                                    mode,
                                },
                                children: BTreeMap::new(),
                            },
                        );
                    }
                    cur = children.get_mut(comp).unwrap();
                }
                Node::File { .. } => unreachable!("checked above"),
            }
        }
        Ok(())
    }

    /// Create a file of `size` bytes. Fails if it exists or the tier
    /// has insufficient capacity. Missing parents are created.
    pub fn create_file(
        &mut self,
        path: &str,
        size: u64,
        cred: &Cred,
        mode: Mode,
    ) -> Result<(), NsError> {
        let comps = split(path)?;
        let Some((name, parents)) = comps.split_last() else {
            return Err(NsError::InvalidPath(path.to_string()));
        };
        if size > self.available() {
            return Err(NsError::NoSpace {
                requested: size,
                available: self.available(),
            });
        }
        let parent_path = parents.join("/");
        if self.walk(parents, cred, &parent_path).is_err() {
            self.mkdir_p(&parent_path, cred, Mode(0o755))?;
        }
        let parent = self.walk_mut(parents, cred, &parent_path)?;
        parent.check(cred, Access::Write, &parent_path)?;
        match parent {
            Node::Dir { children, .. } => {
                if children.contains_key(*name) {
                    return Err(NsError::AlreadyExists(path.to_string()));
                }
                children.insert(
                    name.to_string(),
                    Node::File {
                        meta: Meta {
                            owner: cred.uid,
                            group: cred.gid,
                            mode,
                        },
                        size,
                    },
                );
                self.used += size;
                Ok(())
            }
            Node::File { .. } => Err(NsError::NotADirectory(parent_path)),
        }
    }

    /// Overwrite or create; returns the byte delta applied to `used`.
    pub fn write_file(
        &mut self,
        path: &str,
        size: u64,
        cred: &Cred,
        mode: Mode,
    ) -> Result<i64, NsError> {
        match self.stat(path, cred) {
            Ok(st) if !st.is_dir => {
                let old = st.size;
                let extra = size.saturating_sub(old);
                let available = self.capacity.saturating_sub(self.used);
                if extra > available {
                    return Err(NsError::NoSpace {
                        requested: extra,
                        available,
                    });
                }
                let comps = split(path)?;
                // Overwrite requires write permission on the file.
                let node = self.walk_mut(&comps, cred, path)?;
                node.check(cred, Access::Write, path)?;
                if let Node::File { size: s, .. } = node {
                    *s = size;
                }
                self.used = self.used + size - old;
                Ok(size as i64 - old as i64)
            }
            Ok(_) => Err(NsError::IsADirectory(path.to_string())),
            Err(NsError::NotFound(_)) => {
                self.create_file(path, size, cred, mode)?;
                Ok(size as i64)
            }
            Err(e) => Err(e),
        }
    }

    pub fn stat(&self, path: &str, cred: &Cred) -> Result<Stat, NsError> {
        let comps = split(path)?;
        let node = self.walk(&comps, cred, path)?;
        let meta = node.meta();
        Ok(match node {
            Node::File { size, .. } => Stat {
                is_dir: false,
                size: *size,
                owner: meta.owner,
                group: meta.group,
                mode: meta.mode,
            },
            Node::Dir { children, .. } => Stat {
                is_dir: true,
                size: children.len() as u64,
                owner: meta.owner,
                group: meta.group,
                mode: meta.mode,
            },
        })
    }

    pub fn exists(&self, path: &str) -> bool {
        split(path)
            .ok()
            .and_then(|c| self.walk(&c, &Cred::root(), path).ok())
            .is_some()
    }

    /// Check that `cred` may open `path` with `access`.
    pub fn check_access(&self, path: &str, cred: &Cred, access: Access) -> Result<(), NsError> {
        let comps = split(path)?;
        let node = self.walk(&comps, cred, path)?;
        node.check(cred, access, path)
    }

    /// Remove a file (or an empty directory); `recursive` removes
    /// whole trees. Returns bytes freed.
    pub fn remove(&mut self, path: &str, cred: &Cred, recursive: bool) -> Result<u64, NsError> {
        let comps = split(path)?;
        let Some((name, parents)) = comps.split_last() else {
            return Err(NsError::InvalidPath(path.to_string()));
        };
        let parent_path = parents.join("/");
        let parent = self.walk_mut(parents, cred, &parent_path)?;
        parent.check(cred, Access::Write, &parent_path)?;
        let Node::Dir { children, .. } = parent else {
            return Err(NsError::NotADirectory(parent_path));
        };
        let Some(node) = children.get(*name) else {
            return Err(NsError::NotFound(path.to_string()));
        };
        if let Node::Dir { children: sub, .. } = node {
            if !sub.is_empty() && !recursive {
                return Err(NsError::DirectoryNotEmpty(path.to_string()));
            }
        }
        fn tree_size(n: &Node) -> u64 {
            match n {
                Node::File { size, .. } => *size,
                Node::Dir { children, .. } => children.values().map(tree_size).sum(),
            }
        }
        let freed = tree_size(node);
        children.remove(*name);
        self.used -= freed;
        Ok(freed)
    }

    /// List names in a directory.
    pub fn list(&self, path: &str, cred: &Cred) -> Result<Vec<String>, NsError> {
        let comps = split(path)?;
        let node = self.walk(&comps, cred, path)?;
        node.check(cred, Access::Read, path)?;
        match node {
            Node::Dir { children, .. } => Ok(children.keys().cloned().collect()),
            Node::File { .. } => Err(NsError::NotADirectory(path.to_string())),
        }
    }

    /// Total bytes under `path` (file size or recursive dir size).
    pub fn tree_bytes(&self, path: &str, cred: &Cred) -> Result<u64, NsError> {
        let comps = split(path)?;
        let node = self.walk(&comps, cred, path)?;
        fn rec(n: &Node) -> u64 {
            match n {
                Node::File { size, .. } => *size,
                Node::Dir { children, .. } => children.values().map(rec).sum(),
            }
        }
        Ok(rec(node))
    }

    /// Is the subtree at `path` empty of files? Used for the paper's
    /// tracked-dataspace check on node release.
    pub fn is_empty_tree(&self, path: &str, cred: &Cred) -> Result<bool, NsError> {
        Ok(self.tree_bytes(path, cred)? == 0)
    }

    /// All files under `path` as `(relative_path, size)` pairs, in
    /// deterministic (sorted) order. For a file, returns one entry with
    /// an empty relative path. Used to mirror directory trees when a
    /// staging task copies a whole directory (e.g. OpenFOAM's
    /// directory-per-process layout).
    pub fn walk_files(&self, path: &str, cred: &Cred) -> Result<Vec<(String, u64)>, NsError> {
        let comps = split(path)?;
        let node = self.walk(&comps, cred, path)?;
        let mut out = Vec::new();
        fn rec(node: &Node, prefix: &str, out: &mut Vec<(String, u64)>) {
            match node {
                Node::File { size, .. } => out.push((prefix.to_string(), *size)),
                Node::Dir { children, .. } => {
                    for (name, child) in children {
                        let sub = if prefix.is_empty() {
                            name.clone()
                        } else {
                            format!("{prefix}/{name}")
                        };
                        rec(child, &sub, out);
                    }
                }
            }
        }
        rec(node, "", &mut out);
        Ok(out)
    }

    /// Number of files in the subtree at `path`.
    pub fn file_count(&self, path: &str, cred: &Cred) -> Result<u64, NsError> {
        Ok(self.walk_files(path, cred)?.len() as u64)
    }

    /// chmod-like; only owner or root.
    pub fn set_mode(&mut self, path: &str, cred: &Cred, mode: Mode) -> Result<(), NsError> {
        let comps = split(path)?;
        let node = self.walk_mut(&comps, cred, path)?;
        if !cred.is_root() && node.meta().owner != cred.uid {
            return Err(NsError::PermissionDenied(path.to_string()));
        }
        node.meta_mut().mode = mode;
        Ok(())
    }

    /// chown-like; root only (matches the restricted kernel semantics).
    pub fn set_owner(
        &mut self,
        path: &str,
        cred: &Cred,
        owner: Uid,
        group: Gid,
    ) -> Result<(), NsError> {
        if !cred.is_root() {
            return Err(NsError::PermissionDenied(path.to_string()));
        }
        let comps = split(path)?;
        let node = self.walk_mut(&comps, cred, path)?;
        node.meta_mut().owner = owner;
        node.meta_mut().group = group;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    fn ns() -> Namespace {
        Namespace::new(100 * GIB)
    }

    #[test]
    fn create_and_stat_file() {
        let mut ns = ns();
        let alice = Cred::new(1000, 1000);
        ns.create_file("data/input.dat", 4 * GIB, &alice, Mode(0o644))
            .unwrap();
        let st = ns.stat("data/input.dat", &alice).unwrap();
        assert!(!st.is_dir);
        assert_eq!(st.size, 4 * GIB);
        assert_eq!(st.owner, 1000);
        assert_eq!(ns.used(), 4 * GIB);
    }

    #[test]
    fn missing_parents_are_created() {
        let mut ns = ns();
        let cred = Cred::new(1, 1);
        ns.create_file("a/b/c/file", 10, &cred, Mode(0o644))
            .unwrap();
        assert!(ns.stat("a/b/c", &cred).unwrap().is_dir);
    }

    #[test]
    fn duplicate_create_fails() {
        let mut ns = ns();
        let cred = Cred::new(1, 1);
        ns.create_file("x", 1, &cred, Mode(0o644)).unwrap();
        assert!(matches!(
            ns.create_file("x", 1, &cred, Mode(0o644)),
            Err(NsError::AlreadyExists(_))
        ));
    }

    #[test]
    fn capacity_is_enforced() {
        let mut ns = Namespace::new(10);
        let cred = Cred::new(1, 1);
        ns.create_file("a", 8, &cred, Mode(0o644)).unwrap();
        match ns.create_file("b", 4, &cred, Mode(0o644)) {
            Err(NsError::NoSpace {
                requested: 4,
                available: 2,
            }) => {}
            other => panic!("expected NoSpace, got {other:?}"),
        }
        // Free and retry.
        assert_eq!(ns.remove("a", &cred, false).unwrap(), 8);
        ns.create_file("b", 4, &cred, Mode(0o644)).unwrap();
        assert_eq!(ns.used(), 4);
    }

    #[test]
    fn write_file_tracks_size_delta() {
        let mut ns = ns();
        let cred = Cred::new(1, 1);
        assert_eq!(ns.write_file("f", 100, &cred, Mode(0o644)).unwrap(), 100);
        assert_eq!(ns.write_file("f", 40, &cred, Mode(0o644)).unwrap(), -60);
        assert_eq!(ns.used(), 40);
        assert_eq!(ns.write_file("f", 140, &cred, Mode(0o644)).unwrap(), 100);
        assert_eq!(ns.used(), 140);
    }

    #[test]
    fn permission_denied_for_other_users() {
        let mut ns = ns();
        let alice = Cred::new(1000, 1000);
        let bob = Cred::new(2000, 2000);
        ns.create_file("private/secret", 10, &alice, Mode(0o600))
            .unwrap();
        // Parent dirs were auto-created 0755, so traversal works, but
        // the file itself denies read.
        assert!(matches!(
            ns.check_access("private/secret", &bob, Access::Read),
            Err(NsError::PermissionDenied(_))
        ));
        assert!(ns
            .check_access("private/secret", &alice, Access::Read)
            .is_ok());
    }

    #[test]
    fn group_sharing_via_supplementary_groups() {
        let mut ns = ns();
        let alice = Cred::new(1000, 1000);
        ns.create_file("shared/data", 10, &alice, Mode(0o640))
            .unwrap();
        let bob_plain = Cred::new(2000, 2000);
        let bob_in_group = Cred::new(2000, 2000).with_group(1000);
        assert!(ns
            .check_access("shared/data", &bob_plain, Access::Read)
            .is_err());
        assert!(ns
            .check_access("shared/data", &bob_in_group, Access::Read)
            .is_ok());
    }

    #[test]
    fn root_bypasses_permissions() {
        let mut ns = ns();
        let alice = Cred::new(1000, 1000);
        ns.create_file("p/f", 10, &alice, Mode(0o600)).unwrap();
        assert!(ns.check_access("p/f", &Cred::root(), Access::Write).is_ok());
    }

    #[test]
    fn traversal_requires_exec_on_parents() {
        let mut ns = ns();
        let alice = Cred::new(1000, 1000);
        ns.mkdir_p("locked", &alice, Mode(0o700)).unwrap();
        ns.create_file("locked/f", 10, &alice, Mode(0o777)).unwrap();
        let bob = Cred::new(2000, 2000);
        assert!(matches!(
            ns.stat("locked/f", &bob),
            Err(NsError::PermissionDenied(_))
        ));
    }

    #[test]
    fn remove_nonempty_dir_requires_recursive() {
        let mut ns = ns();
        let cred = Cred::new(1, 1);
        ns.create_file("d/f1", 10, &cred, Mode(0o644)).unwrap();
        ns.create_file("d/f2", 20, &cred, Mode(0o644)).unwrap();
        assert!(matches!(
            ns.remove("d", &cred, false),
            Err(NsError::DirectoryNotEmpty(_))
        ));
        assert_eq!(ns.remove("d", &cred, true).unwrap(), 30);
        assert_eq!(ns.used(), 0);
        assert!(!ns.exists("d"));
    }

    #[test]
    fn list_and_tree_bytes() {
        let mut ns = ns();
        let cred = Cred::new(1, 1);
        ns.create_file("out/rank0/u.dat", 100, &cred, Mode(0o644))
            .unwrap();
        ns.create_file("out/rank1/u.dat", 150, &cred, Mode(0o644))
            .unwrap();
        let names = ns.list("out", &cred).unwrap();
        assert_eq!(names, vec!["rank0", "rank1"]);
        assert_eq!(ns.tree_bytes("out", &cred).unwrap(), 250);
        assert!(!ns.is_empty_tree("out", &cred).unwrap());
        ns.remove("out/rank0/u.dat", &cred, false).unwrap();
        ns.remove("out/rank1/u.dat", &cred, false).unwrap();
        assert!(ns.is_empty_tree("out", &cred).unwrap());
    }

    #[test]
    fn walk_files_mirrors_tree() {
        let mut ns = ns();
        let cred = Cred::new(1, 1);
        ns.create_file("case/processor0/U", 10, &cred, Mode(0o644))
            .unwrap();
        ns.create_file("case/processor0/p", 20, &cred, Mode(0o644))
            .unwrap();
        ns.create_file("case/processor1/U", 30, &cred, Mode(0o644))
            .unwrap();
        let files = ns.walk_files("case", &cred).unwrap();
        assert_eq!(
            files,
            vec![
                ("processor0/U".to_string(), 10),
                ("processor0/p".to_string(), 20),
                ("processor1/U".to_string(), 30),
            ]
        );
        assert_eq!(ns.file_count("case", &cred).unwrap(), 3);
        // A single file yields one entry with empty rel path.
        assert_eq!(
            ns.walk_files("case/processor0/U", &cred).unwrap(),
            vec![("".into(), 10)]
        );
    }

    #[test]
    fn invalid_paths_rejected() {
        let ns = ns();
        assert!(matches!(
            ns.stat("a//b", &Cred::root()),
            Err(NsError::InvalidPath(_))
        ));
        assert!(matches!(
            ns.stat("../etc", &Cred::root()),
            Err(NsError::InvalidPath(_))
        ));
    }

    #[test]
    fn chmod_chown_semantics() {
        let mut ns = ns();
        let alice = Cred::new(1000, 1000);
        let bob = Cred::new(2000, 2000);
        ns.create_file("f", 1, &alice, Mode(0o600)).unwrap();
        assert!(ns.set_mode("f", &bob, Mode(0o777)).is_err());
        ns.set_mode("f", &alice, Mode(0o644)).unwrap();
        assert!(ns.check_access("f", &bob, Access::Read).is_ok());
        assert!(
            ns.set_owner("f", &alice, 2000, 2000).is_err(),
            "chown is root-only"
        );
        ns.set_owner("f", &Cred::root(), 2000, 2000).unwrap();
        assert_eq!(ns.stat("f", &bob).unwrap().owner, 2000);
    }

    #[test]
    fn file_component_in_middle_of_path_errors() {
        let mut ns = ns();
        let cred = Cred::new(1, 1);
        ns.create_file("f", 1, &cred, Mode(0o644)).unwrap();
        assert!(matches!(
            ns.stat("f/child", &cred),
            Err(NsError::NotADirectory(_))
        ));
    }
}
